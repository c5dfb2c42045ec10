"""Result and config records: immutable, and validated on every path.

The records are named tuples.  Three of them check their fields, and a bad
field must be refused whether the record comes from the constructor, from
_replace, from copy.copy or from a pickle round trip.
"""

import copy
import pickle

import numpy as np
import pytest

from relhur import (
    AmplitudePair,
    CoulombState,
    DivergenceError,
    QuadConfig,
    QuadratureError,
    SolverError,
    dispersion_functional,
    integrate_exp_sinh,
    make_potential,
    oracle_gamma,
)
from relhur.hopfion import HopfionState, amplitude_pair, gamma_h

# name: (record factory, None or (valid fields, bad fields)) for every
# public record; the second entry is set for the records that check fields
_RECORDS = {
    "QuadConfig": (QuadConfig, ({"rel_tol": 1e-12}, {"abs_tol": 0.0})),
    "QuadResult": (lambda: integrate_exp_sinh(
        lambda p, th: np.exp(-p) * np.ones_like(th)), None),
    "RadialPotential": (lambda: make_potential(1.0), None),
    "AmplitudePair": (lambda: AmplitudePair(np.exp), None),
    "DispersionReport": (lambda: gamma_h(HopfionState(1.0)), None),
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


@pytest.mark.parametrize("report", [
    lambda: gamma_h(HopfionState(1.0)),
    lambda: oracle_gamma(0.9),
    lambda: dispersion_functional(amplitude_pair(HopfionState(1.0))),
], ids=["gamma_h", "oracle_gamma", "dispersion_functional"])
def test_dispersion_report_is_a_value(report):
    # every field is a float, an int or a tuple of floats, so two reports
    # of one state compare equal and hash alike, print as plain numbers,
    # and neither a field nor a mean's component can be rewritten
    first, second = report(), report()
    assert first == second and hash(first) == hash(second)
    assert all(type(x) is float for x in first.mean_r + first.mean_p)
    assert all(type(getattr(first, field)) is float for field in (
        "gamma", "err_est", "norm_sq", "delta_r_sq", "delta_p_sq"))
    assert type(first.evaluations) is int
    with pytest.raises(TypeError):
        first.mean_p[2] = 5.0
    with pytest.raises(TypeError):
        first[0] = 1.0


def test_error_bases():
    # numerical failures are ArithmeticErrors and exit 1; an infinite
    # dispersion is an out-of-domain parameter, a ValueError, and exits 2
    assert issubclass(QuadratureError, ArithmeticError)
    assert issubclass(SolverError, ArithmeticError)
    assert issubclass(DivergenceError, ValueError)
