"""Command-line front end: single evaluations, sweeps, and anchor checks.

Subcommands map one-to-one onto the library's main results:

    bound     lowest eigenvalue of the radial operator at one scale d
    sweep     the bound curve gamma(d) over a grid of d values
    hydrogen  closed-form uncertainty product of a hydrogen-like ion
    hopfion   uncertainty product of the localized free-electron packet
    verify    built-in anchor suite, prints a pass/fail table

Documents go to stdout (or --output PATH) as CSV (LF line endings, header
exactly `param,gamma,err_est`) or JSON with 12 significant digits, both
serialized manually so identical invocations are byte-identical.  Exit
codes: 0 success, 1 numerical failure (any ArithmeticError, which
includes SolverError and QuadratureError) or failed verify anchor, 2 usage
error (bad flags, out-of-domain parameters, unwritable output).

Flags take `--flag value` or `--flag=value` and any unambiguous prefix;
the last of a repeated flag wins.  `-h`/`--help` prints the usage to
stdout.  An error is one stderr line, `relhur <subcommand>: <message>`
(`relhur: <message>` without a valid subcommand), the message prefixed
`numerical failure: ` for exit 1.  Domain checks are the library's, and so
are their messages.  A flag table replaces argparse, whose import and
parser set-up took a few ms of every process.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Sequence

from . import hopfion as _hopfion
from . import hydrogen as _hydrogen
from . import radial_eigensolver as _solver
from . import rel_uncertainty as _bound
from .specfun import bessel_sums

BOUND_TOL = 1e-7
ORACLE_REL_TOL = 1e-6  # hydrogen oracle against the closed form
HOPFION_GAMMA_AT_1 = 1.9649111869949996  # verify --strict's packet anchor
MAX_POINTS = 10000  # grid points per sweep or curve
_CSV_HEADER = "param,gamma,err_est"


def _fmt(x) -> str:
    """12-significant-digit text form shared by CSV and JSON.  Adding 0.0
    prints -0.0 as 0.0: no field has a meaningful sign of zero."""
    if isinstance(x, int):
        return str(x)
    x = float(x) + 0.0
    out = f"{x:.12g}"
    if math.isfinite(x) and "." not in out and "e" not in out:
        out += ".0"  # floats must read back as floats
    return out


def _doc(records: Sequence[dict[str, object]], fmt: str | None) -> str:
    """The document of one record, or of a grid's records (two or more).

    JSON writes every field, an infinite one as the string "inf", as one
    object or as an array for a grid.  CSV writes the first field, gamma
    and err_est (rel_diff if there is no err_est, 0.0 if neither).  Without
    --format a grid is CSV, a single record JSON.
    """
    grid = len(records) > 1
    if fmt == "json" or (fmt is None and not grid):
        objs = ["{" + ",".join(f'"{k}":' + ('"inf"' if math.isinf(v)
                                             else _fmt(v))
                               for k, v in r.items()) + "}" for r in records]
        return "[\n" + ",\n".join(objs) + "\n]\n" if grid else objs[0] + "\n"
    lines = [_CSV_HEADER] + [
        ",".join(_fmt(x) for x in (next(iter(r.values())), r["gamma"],
                                   r.get("err_est", r.get("rel_diff", 0.0))))
        for r in records]
    return "\n".join(lines) + "\n"


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _grid(lo: float, hi: float, points: int, log: bool) -> list[float]:
    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"--points must lie in [2, {MAX_POINTS}]")
    _require_finite("--d-min/--a-min", lo)
    _require_finite("--d-max/--a-max", hi)
    if not hi > lo:
        raise ValueError("upper grid end must exceed the lower end")
    if log:
        if not lo > 0.0:
            raise ValueError("--log needs a positive lower end")
        # in logs, so that hi / lo may exceed the float range
        log_lo = math.log(lo)
        step = (math.log(hi) - log_lo) / (points - 1)
        out = [math.exp(log_lo + step * i) for i in range(points)]
        out[0] = lo
    else:
        step = (hi - lo) / (points - 1)
        out = [lo + step * i for i in range(points)]
    out[-1] = hi  # endpoint exact despite rounding
    return out


def _cmd_bound(args) -> tuple[str, int]:
    # --d inf is refused: its spelling is --d-inf
    d = _bound.INFINITY if args.d_inf else _require_finite("--d", args.d)
    [(gamma, err)] = _bound.gamma_estimates([d], tol=BOUND_TOL)
    return _doc([{"d": d, "gamma": gamma, "err_est": err, "tol": BOUND_TOL}],
                args.format), 0


def _cmd_sweep(args) -> tuple[str, int]:
    ds = _grid(args.d_min, args.d_max, args.points, args.log)
    rows = [{"param": d, "gamma": gamma, "err_est": err} for d, (gamma, err)
            in zip(ds, _bound.gamma_estimates(ds, tol=BOUND_TOL))]
    return _doc(rows, args.format), 0


def _cmd_hydrogen(args) -> tuple[str, int]:
    state = _hydrogen.CoulombState(Z=args.Z, alpha=args.alpha)
    g = state.gamma_c
    closed = _hydrogen.product_closed_gamma(g)
    record: dict[str, object] = {"Z": state.Z, "alpha": state.alpha,
                                 "gamma_c": g, "gamma": closed,
                                 "d": _hydrogen.d_parameter(g)}
    if args.oracle:
        rep = _hydrogen.oracle_gamma(g)
        err = abs(rep.gamma - closed) / closed
        if not err <= ORACLE_REL_TOL:
            raise ArithmeticError(
                f"oracle gamma {_fmt(rep.gamma)} differs from the closed form "
                f"{_fmt(closed)} by {err:.3g} relative (> {ORACLE_REL_TOL:g})")
        record.update(gamma_oracle=rep.gamma, rel_diff=err)
    return _doc([record], args.format), 0


def _cmd_hopfion(args) -> tuple[str, int]:
    curve_flags = (args.a_min is not None, args.a_max is not None,
                   args.points is not None)
    if args.a is not None:
        if any(curve_flags):
            raise ValueError("--a conflicts with --a-min/--a-max/--points")
        rep = _hopfion.gamma_h(_hopfion.HopfionState(args.a))
        return _doc([{"a": args.a, "gamma": rep.gamma,
                      "delta_r_sq": rep.delta_r_sq,
                      "delta_p_sq": rep.delta_p_sq, "err_est": rep.err_est}],
                    args.format), 0
    if not all(curve_flags):
        raise ValueError("provide either --a or all of --a-min/--a-max/--points")
    a_grid = _grid(args.a_min, args.a_max, args.points, log=False)
    reps = [_hopfion.gamma_h(_hopfion.HopfionState(a)) for a in a_grid]
    rows = [{"param": a, "gamma": r.gamma, "err_est": r.err_est}
            for a, r in zip(a_grid, reps)]
    return _doc(rows, args.format), 0


def _verify_rows(strict: bool) -> list[tuple[str, float, float, float, float]]:
    """(anchor, computed, target, tol, scale) rows; an anchor passes when
    |computed - target| / scale <= tol."""
    # one batched solve at the tol of the small-d expansion row: the two
    # limits, and under --strict the two ends of the curve.  The rows check
    # the solver, so they call it, not gamma_estimates, whose limits are exact
    ends = (0.01, 1e4) if strict else ()
    g0, gi, *g_ends = (gamma for gamma, _ in _solver.lowest_eigenvalues(
        [_bound.make_potential(d) for d in (0.0, _bound.INFINITY) + ends],
        tol=1e-8))
    dev = 0.0
    for x in (1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0):
        # the recurrence is homogeneous, so it holds for e^x K_nu as well
        (k0, k1, k2, _), _, _ = bessel_sums(x)
        dev = max(dev, abs(k2 - k0 - 2.0 * k1 / x) / k2)
    # weak-field hydrogen: the closed form must agree with an integration
    # of the actual wave function, which is the meaningful self-check
    closed = _hydrogen.product_closed_gamma(1.0)
    rows = [
        ("bound_nonrelativistic", g0, _bound.GAMMA_AT_0, 1e-7, 1.0),
        ("bound_ultrarelativistic", gi, _bound.GAMMA_AT_INF, 1e-6, 1.0),
        ("hydrogen_closed_vs_oracle", _hydrogen.oracle_gamma(1.0).gamma,
         closed, ORACLE_REL_TOL, closed),
        ("bessel_k2_recurrence_dev", dev, 0.0, 1e-10, 1.0),
    ]
    if not strict:
        return rows
    # the exact limiting eigenfunctions against the solver's own limits
    rows.append(("nonrel_limit_residual",
                 _bound.gaussian_limit_residual(g0), 0.0, 1e-10, 1.0))
    rows.append(("ultra_limit_residual",
                 _bound.ultrarelativistic_limit_residual(gi), 0.0, 1e-10, 1.0))
    # both ends of the curve against their expansions, with the
    # O(d^4) and O(1/d^2) allowances of tests/test_bound.py
    c1 = _bound.ULTRA_C1
    rows.append(("bound_small_d_expansion", g_ends[0], 1.5 + 0.375 * 0.01 ** 2,
                 0.01 ** 4, 1.0))
    rows.append(("bound_large_d_expansion", g_ends[1],
                 _bound.GAMMA_AT_INF - c1 / 1e4, 3.0 * c1 / 1e4 ** 2, 1.0))
    # the packet's closed form at a = 1 against the same formula in
    # 40-digit mpmath, Ki_1(2) by mpmath's quad
    rows.append(("hopfion_gamma_at_1",
                 _hopfion.gamma_h(_hopfion.HopfionState(1.0)).gamma,
                 HOPFION_GAMMA_AT_1, 1e-12, HOPFION_GAMMA_AT_1))
    return rows


def _cmd_verify(args) -> tuple[str, int]:
    lines = [f"{'anchor':<28} {'computed':>18} {'target':>14} "
             f"{'tol':>8} status"]
    all_ok = True
    for name, computed, target, tol, scale in _verify_rows(args.strict):
        ok = abs(computed - target) / scale <= tol
        all_ok = all_ok and ok
        lines.append(f"{name:<28} {_fmt(computed):>18} {_fmt(target):>14} "
                     f"{_fmt(tol):>8} {'PASS' if ok else 'FAIL'}")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


# The flag table: each subcommand's handler, help line, flags and required
# flags.  A flag maps to its value's type (float, int, str), to its tuple
# of choices, to bool for a switch, or to None for the help flag.  verify
# prints a text table, so it takes no --format.
_HELP_FLAGS = {"-h": None, "--help": None}
_COMMON_FLAGS = {"--output": str}
_FORMAT = {"--format": ("csv", "json")}
_COMMANDS = {
    "bound": (_cmd_bound, "uncertainty bound gamma(d) at --d X or --d-inf",
              {"--d": float, "--d-inf": bool, **_FORMAT}, ()),
    "sweep": (_cmd_sweep, "bound curve gamma(d) over a d grid",
              {"--d-min": float, "--d-max": float, "--points": int,
               "--log": bool, **_FORMAT}, ("--d-min", "--d-max", "--points")),
    "hydrogen": (_cmd_hydrogen, "closed-form uncertainty product for charge "
                 "Z (alpha: CODATA 2018)",
                 {"--Z": int, "--alpha": float, "--oracle": bool, **_FORMAT},
                 ("--Z",)),
    "hopfion": (_cmd_hopfion, "uncertainty product of the localized packet "
                "at --a, or on a grid",
                {"--a": float, "--a-min": float, "--a-max": float,
                 "--points": int, **_FORMAT}, ()),
    "verify": (_cmd_verify, "run the built-in anchor suite",
               {"--strict": bool}, ()),
}
_DEFAULTS = {"--alpha": _hydrogen.ALPHA_FS}


def _help(cmd: str | None) -> str:
    if cmd is None:
        rows = "".join(f"  {name:<9} {entry[1]}\n"
                       for name, entry in _COMMANDS.items())
        return (f"usage: relhur {{{','.join(_COMMANDS)}}} [flags]\n\n{rows}"
                "\nrelhur <subcommand> --help shows its flags.\n")
    _, text, flags, required = _COMMANDS[cmd]
    words = []
    for flag, kind in {**flags, **_COMMON_FLAGS}.items():
        meta = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                else {float: "X", int: "N", str: "PATH"}.get(kind, ""))
        word = f"{flag} {meta}".rstrip()
        words.append(word if flag in required else f"[{word}]")
    return f"usage: relhur {cmd} {' '.join(words)}\n\n{text}\n"


def _parse(argv: Sequence[str], args: SimpleNamespace) -> str | None:
    """Fill args from argv; return the help text if argv asks for it.

    Tokens are read in order.  The token after a value flag is its value,
    whatever it looks like.  Unknown flags and stray words fail only at the
    end, as they did under argparse, so that a later -h still prints help.
    """
    flags, vals, unknown, i = _HELP_FLAGS, {}, [], 0
    while i < len(argv):
        tok, i = argv[i], i + 1
        if tok == "--":  # every later token is a stray word
            unknown += argv[i - 1:]
            break
        if tok == "-" or not tok.startswith("-"):
            if args.subcommand is not None:
                unknown.append(tok)
                continue
            if tok not in _COMMANDS:
                raise ValueError(f"invalid subcommand {tok!r}")
            args.subcommand = tok
            flags = {**_HELP_FLAGS, **_COMMON_FLAGS, **_COMMANDS[tok][2]}
            vals = {flag: _DEFAULTS.get(flag, False if kind is bool else None)
                    for flag, kind in flags.items() if kind is not None}
            continue
        name, eq, value = tok.partition("=")
        hits = [flag for flag in flags
                if name.startswith("--") and flag.startswith(name)]
        if name not in flags and len(hits) > 1:
            raise ValueError(f"ambiguous option {name}: {', '.join(hits)}")
        flag = name if name in flags else hits[0] if hits else None
        if flag is None:
            unknown.append(tok)
            continue
        kind = flags[flag]
        if eq and kind in (None, bool):
            raise ValueError(f"{flag} takes no value")
        if kind is None:
            return _help(args.subcommand)
        if kind is bool:
            value = True
        elif not eq:
            if i == len(argv):
                raise ValueError(f"{flag} expects a value")
            value, i = argv[i], i + 1
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{flag} must be one of {', '.join(kind)}")
        try:
            vals[flag] = value if isinstance(kind, tuple) else kind(value)
        except ValueError:
            raise ValueError(f"invalid {flag} value {value!r}") from None
        if vals.get("--d") is not None and vals.get("--d-inf"):
            raise ValueError("--d conflicts with --d-inf")
    if args.subcommand is None:
        raise ValueError(f"missing subcommand ({', '.join(_COMMANDS)})")
    missing = [f for f in _COMMANDS[args.subcommand][3] if vals[f] is None]
    if "--d" in vals and vals["--d"] is None and not vals["--d-inf"]:
        missing.append("--d or --d-inf")
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    vars(args).update((flag[2:].replace("-", "_"), value)
                      for flag, value in vals.items())
    return None


def run(argv: Sequence[str] | None = None) -> int:
    args = SimpleNamespace(subcommand=None)
    try:
        text = _parse(sys.argv[1:] if argv is None else argv, args)
        if text is not None:
            sys.stdout.write(text)
            return 0
        doc, code = _COMMANDS[args.subcommand][0](args)
        if args.output is not None:
            with open(args.output, "w", newline="") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
        return code
    except ValueError as exc:
        # usage errors and the library's out-of-domain parameters
        msg, code = str(exc), 2
    except OSError as exc:
        msg, code = f"cannot write output: {exc}", 2
    except ArithmeticError as exc:
        msg, code = f"numerical failure: {exc}", 1
    prog = "relhur" if args.subcommand is None else f"relhur {args.subcommand}"
    print(f"{prog}: {msg}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
