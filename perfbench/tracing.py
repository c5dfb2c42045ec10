"""Per-layer tracing from outside the program.

The tracer wraps the module attributes through which relhur's modules call
each other (for example `kernels.bisect_lowest`, which `ground_state` looks
up at call time, and each module's binding of the 2D quadrature entry), so
`src/relhur` stays untouched.  Every binding of a target function in any
relhur module is wrapped; a target that no longer exists is listed in
`absent` and its metrics read 0.

Each layer counts calls and busy seconds.  Re-entrant calls into a layer
are counted once, at the outermost call.  Coarse layers also record spans
(id, parent id, operation, layer, start, end) in memory; hot leaf layers
(the potential, integrands, special functions) only count, because they
run hundreds of thousands of times per operation.
"""

import contextlib
import functools
import importlib
import sys
import time

# layer -> (record spans?, [(home module, attribute), ...])
LAYERS = {
    "radial_eigensolver.kernel": (True, [("relhur.kernels", "bisect_lowest")]),
    "rel_uncertainty.potential": (False, [("relhur.rel_uncertainty", "potential_v")]),
    "radial_eigensolver.ground_state": (True, [
        ("relhur.radial_eigensolver", "ground_state")]),
    "radial_eigensolver.moment": (True, [("relhur.radial_eigensolver", "moment")]),
    "rel_uncertainty.solve": (True, [
        ("relhur.rel_uncertainty", "gamma_bound"),
        ("relhur.rel_uncertainty", "gamma_bound_report")]),
    "quadrature": (True, [
        ("relhur.quadrature", "_integrate_2d_rows"),
        ("relhur.quadrature", "integrate_2d")]),
    "hydrogen.oracle": (True, [("relhur.hydrogen", "oracle_gamma")]),
    "hopfion.gamma_h": (True, [("relhur.hopfion", "gamma_h")]),
    "dirac_states.dispersion": (True, [
        ("relhur.dirac_states", "dispersion_functional")]),
    "specfun": (False, [
        ("relhur.specfun", "gamma_fn"), ("relhur.specfun", "gamma_fn_detailed"),
        ("relhur.specfun", "bessel_k"), ("relhur.specfun", "bessel_k_detailed")]),
}
# integrand time is split by the module whose quadrature binding was called
INTEGRAND_OWNERS = ("hydrogen", "hopfion", "dirac_states")


class _Layer:
    __slots__ = ("name", "spans", "depth", "calls", "seconds")

    def __init__(self, name, spans):
        self.name, self.spans = name, spans
        self.depth, self.calls, self.seconds = 0, 0, 0.0


def _counted(layer, fn):
    """Lean wrapper for hot leaf layers: counts and times, records no span."""
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer.depth:
            return fn(*args, **kwargs)
        layer.depth = 1
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            layer.seconds += perf() - start
            layer.calls += 1
            layer.depth = 0
    return wrapper


class Tracer:
    """Install with install(), run operations inside op(name), uninstall()."""

    def __init__(self):
        self.layers = {name: _Layer(name, spans)
                       for name, (spans, _) in LAYERS.items()}
        for owner in ("quadrature",) + INTEGRAND_OWNERS:
            self.layers[f"{owner}.integrand"] = _Layer(f"{owner}.integrand", False)
        self.evals = 0
        self.spans = []
        self.absent = []
        self._stack = []
        self._op = None
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer):
        layer.depth += 1
        if layer.depth > 1:
            return None
        start = time.perf_counter()
        if layer.spans:
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self._op, layer.name, start, None]
            self.spans.append(span)
            self._stack.append(span[0])
        return start

    def _exit(self, layer, start):
        layer.depth -= 1
        if start is None:
            return
        end = time.perf_counter()
        layer.calls += 1
        layer.seconds += end - start
        if layer.spans:
            self.spans[self._stack.pop()][5] = end

    @contextlib.contextmanager
    def op(self, name):
        """Attribute the spans recorded inside the block to operation name."""
        layer = self.layers.setdefault(f"op.{name}", _Layer(f"op.{name}", True))
        self._op = name
        start = self._enter(layer)
        try:
            yield
        finally:
            self._exit(layer, start)
            self._op = None

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer, fn):
        if not layer.spans:
            return _counted(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, start)
        return wrapper

    def _quadrature(self, layer, fn, owner):
        total = self.layers["quadrature.integrand"]
        mine = self.layers[f"{owner}.integrand"] if owner in INTEGRAND_OWNERS else None

        def integrand(f):
            @functools.wraps(f)
            def timed(*args, **kwargs):
                start = self._enter(total)
                start_mine = self._enter(mine) if mine else None
                try:
                    return f(*args, **kwargs)
                finally:
                    if mine:
                        self._exit(mine, start_mine)
                    self._exit(total, start)
            return timed

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            outer = layer.depth == 0
            start = self._enter(layer)
            try:
                out = fn(integrand(f) if outer else f, *args, **kwargs)
            finally:
                self._exit(layer, start)
            if outer:
                self.evals += out[2] if isinstance(out, tuple) else out.evaluations
            return out
        return wrapper

    # -- install ---------------------------------------------------------------

    def install(self):
        """Wrap every binding of each layer's targets in relhur's modules."""
        for name, (_, targets) in LAYERS.items():
            found = False
            for home, attr in targets:
                try:
                    target = getattr(importlib.import_module(home), attr)
                except (ImportError, AttributeError):
                    continue
                for mod in [m for n, m in list(sys.modules.items())
                            if n == "relhur" or n.startswith("relhur.")]:
                    for attr_name, value in list(vars(mod).items()):
                        if value is target:
                            found = True
                            self._patch(name, mod, attr_name, target)
            if not found:
                self.absent.append(name)

    def _patch(self, layer_name, mod, attr, target):
        layer = self.layers[layer_name]
        if layer_name == "quadrature":
            owner = mod.__name__.rpartition(".")[2]
            wrapper = self._quadrature(layer, target, owner)
        else:
            wrapper = self._timed(layer, target)
        self._patches.append((mod, attr, target))
        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, target in reversed(self._patches):
            setattr(mod, attr, target)
        self._patches.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything run since install()."""
        L = self.layers
        gs, kern, pot = (L["radial_eigensolver.ground_state"],
                         L["radial_eigensolver.kernel"], L["rel_uncertainty.potential"])
        quad, integ = L["quadrature"], L["quadrature.integrand"]
        solves = L["rel_uncertainty.solve"].calls
        return {
            "radial_eigensolver.kernel_calls": kern.calls,
            "radial_eigensolver.kernel_s": kern.seconds,
            "rel_uncertainty.potential_calls": pot.calls,
            "rel_uncertainty.potential_s": pot.seconds,
            "radial_eigensolver.ground_state_calls": gs.calls,
            "radial_eigensolver.ground_state_s": gs.seconds,
            "radial_eigensolver.self_s": gs.seconds - kern.seconds - pot.seconds,
            "radial_eigensolver.moment_s": L["radial_eigensolver.moment"].seconds,
            # 1 when nothing was solved: no attempt was wasted
            "radial_eigensolver.useful_ratio": solves / gs.calls if gs.calls else 1.0,
            "quadrature.calls": quad.calls,
            "quadrature.s": quad.seconds,
            "quadrature.evals": self.evals,
            "quadrature.integrand_calls": integ.calls,
            "quadrature.integrand_s": integ.seconds,
            "quadrature.self_s": quad.seconds - integ.seconds,
            "hydrogen.oracle_s": L["hydrogen.oracle"].seconds,
            "hydrogen.integrand_s": L["hydrogen.integrand"].seconds,
            "hopfion.gamma_h_s": L["hopfion.gamma_h"].seconds,
            "hopfion.integrand_s": L["hopfion.integrand"].seconds,
            "dirac_states.dispersion_s": L["dirac_states.dispersion"].seconds,
            "dirac_states.integrand_s": L["dirac_states.integrand"].seconds,
            "specfun.calls": L["specfun"].calls,
            "specfun.s": L["specfun"].seconds,
        }
