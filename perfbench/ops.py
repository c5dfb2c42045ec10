"""Run one benchmark operation in the current process.

An operation is a JSON-able dict, so the same description runs in a fresh
interpreter (child.py) and in the benchmark's own warm process:

    {"kind": "cli", "argv": [...]}                       relhur.cli.run(argv)
    {"kind": "dispersion", "amp": "hopfion", "a": 1.0}  general phi path
    {"kind": "dispersion", "amp": "gaussian"}           phi-independent path

Library functions are looked up as module attributes at call time, so the
tracer's wrappers are seen.  Nothing heavy is imported at module level:
child.py times `import relhur.cli` before it imports this file.
"""

import contextlib
import io


def gaussian(p, theta, phi):
    """Spin-up amplitude exp(-p^2/2), built from ufuncs only.

    Accepts scalar or broadcast (p, theta, phi) alike and returns the
    broadcast shape as complex values.
    """
    import numpy as np

    p, theta, phi = np.broadcast_arrays(p, theta, phi)
    return np.exp(-0.5 * np.square(p)) + 0j


def run_op(op):
    """Execute op; return (exit code, stdout text, payload dict or None)."""
    if op["kind"] == "cli":
        from relhur import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(op["argv"])
        return code, buf.getvalue(), None
    if op["kind"] != "dispersion":
        raise ValueError(f"unknown operation kind {op['kind']!r}")
    from relhur import dirac_states, hopfion

    if op["amp"] == "hopfion":
        amp = hopfion.amplitude_pair(hopfion.HopfionState(op["a"]))
    else:
        amp = dirac_states.AmplitudePair(f_plus=gaussian)
    rep = dirac_states.dispersion_functional(amp)
    payload = {
        "gamma": rep.gamma,
        "norm_sq": rep.norm_sq,
        "delta_r_sq": rep.delta_r_sq,
        "delta_p_sq": rep.delta_p_sq,
        "mean_r": [float(x) for x in rep.mean_r],
        "mean_p": [float(x) for x in rep.mean_p],
    }
    return 0, "", payload
