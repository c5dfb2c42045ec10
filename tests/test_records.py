"""Result and config records: immutable, and validated on every path.

The records are named tuples.  Five of them check their fields, and a bad
field must be refused whether the record comes from the constructor, from
_replace, from copy.copy or from a pickle round trip.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from relhur import (
    AmplitudePair,
    Bispinor,
    CoulombState,
    MomentumPoint,
    QuadConfig,
    bessel_k_detailed,
    ground_state,
    integrate_trapezoid,
    make_potential,
)
from relhur.hopfion import HopfionState, gamma_h, gamma_h_curve

# name: (record factory, None or (valid fields, bad fields)) for every
# public record; the second entry is set for the records that check fields
_RECORDS = {
    "SpecfunResult": (lambda: bessel_k_detailed(1, 2.0), None),
    "QuadConfig": (QuadConfig, ({"rel_tol": 1e-12}, {"abs_tol": 0.0})),
    "QuadResult": (lambda: integrate_trapezoid(
        lambda t, c: np.exp(-t * t) + 0.0 * c, -8.0, 8.0, 0.5), None),
    "RadialPotential": (lambda: make_potential(1.0), None),
    "EigenResult": (lambda: ground_state(make_potential(0.0)), None),
    "EigenDiagnostics": (
        lambda: ground_state(make_potential(0.0)).diagnostics, None),
    "AmplitudePair": (lambda: AmplitudePair(np.exp), None),
    "DispersionReport": (lambda: gamma_h(HopfionState(1.0)), None),
    "SweepTable": (lambda: gamma_h_curve([1.0]), None),
    "MomentumPoint": (lambda: MomentumPoint(1.0, 0.5, 2.0),
                      ({"theta": math.pi}, {"theta": 3.5})),
    "Bispinor": (lambda: Bispinor([1.0, 0.0, 0.5j, 0.0]),
                 ({"components": np.array([0j, 1, 0, 0])},
                  {"components": np.array([0j, 1, 0, math.nan])})),
    "HopfionState": (lambda: HopfionState(1.0), ({"a": 2.0}, {"a": -1.0})),
    "CoulombState": (lambda: CoulombState(Z=80),
                     ({"Z": np.int64(40)}, {"Z": 0})),
}


def _paths(rec, fields):
    """Every way to get a record like rec with fields (a dict of field
    name to value) put in.  copy and pickle start from a tuple built
    without any check, as a foreign pickle could hold."""
    cls = type(rec)
    raw = tuple.__new__(cls, [fields.get(f, v)
                              for f, v in zip(rec._fields, rec)])
    return {
        "constructor": lambda: cls(**{**rec._asdict(), **fields}),
        "_replace": lambda: rec._replace(**fields),
        "copy": lambda: copy.copy(raw),
        "pickle": lambda: pickle.loads(pickle.dumps(raw)),
    }


def _same(a, b):
    return type(a) is type(b) and all(
        type(x) is type(y) and np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_immutable_and_validated(name):
    make, cases = _RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    for field in rec._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field, 0))
    if cases is None:
        return
    good, bad = cases
    paths = _paths(rec, good)
    expected = paths["constructor"]()
    for path, build in paths.items():
        assert _same(build(), expected), path
    for path, build in _paths(rec, bad).items():
        with pytest.raises(ValueError):
            build()
