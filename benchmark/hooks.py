"""Wrappers installed around the program's public functions.

Nothing in the program is edited: a wrapper replaces a function in its
defining module and in every cmvlq module that imported it by name, so
calls made inside the program go through it too.  Three uses:

* ``Marker`` stamps the first call into a solver layer (the end of
  set-up) and then removes itself, so untraced runs carry no overhead
  past that point.
* ``Capture`` keeps the return values of a few public functions so the
  correctness checks can inspect what the program computed.
* ``Tracer`` records a span around every public function of every layer
  and turns the spans and a few counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
import types

LAYERS = ("config", "lattice", "riccati", "decomposition", "fbsde", "oracle", "sim", "cli")
SOLVER_LAYERS = ("riccati", "decomposition", "fbsde", "oracle", "sim")

# inclusive time: a span adds its duration unless an enclosing span
# already counts toward the same metric
INCLUSIVE = {
    "config.load_config": "config.load_s",
    "cli.write_report": "cli.report_s",
    "cli.checkpoint_csv": "cli.report_s",
    "lattice.build_joint_tree": "lattice.build_s",
    "decomposition.check_decomposition": "decomposition.check_s",
    "decomposition.estimate_convexity_margin": "decomposition.margin_s",
    "fbsde.assemble_optimal_control": "fbsde.assemble_s",
    "fbsde.verify_stationarity": "fbsde.stationarity_s",
    "fbsde.solve_coupled_mv_fbsde": "fbsde.picard_s",
    "fbsde.build_ode_policy": "fbsde.policy_s",
    "oracle.solve_qp_exact": "oracle.full_s",
    "oracle.solve_qp_bar": "oracle.bar_s",
    "oracle.solve_qp_breve": "oracle.breve_s",
    "sim.substream": "sim.rng_s",
    "sim.idiosyncratic_normals": "sim.rng_s",
    "sim.common_normals": "sim.rng_s",
    "sim.initial_atoms": "sim.rng_s",
    "sim.estimate_cost": "sim.estimate_s",
    "sim.estimate_from_samples": "sim.estimate_s",
    "sim.cluster_standard_error": "sim.estimate_s",
    "sim.conditional_zero_worst": "sim.estimate_s",
}
RICCATI = ("riccati.solve_pi", "riccati.solve_l", "riccati.solve_offset")
# self time: the kernel's own work, without the traced calls it makes
SELF = {
    "sim.simulate_forward": "sim.forward_s",
}
# metrics not summed from spans: counts, rates and the import time;
# every metric is reported, as 0 where its layer does not run
DERIVED = ("cli.import_s", "lattice.nodes", "riccati.ode_steps", "fbsde.picard_sweeps",
           "oracle.dim", "oracle.grad_evals", "oracle.grad_evals_per_dim", "sim.draws",
           "sim.draws_used_ratio", "sim.path_steps_per_s")
METRICS = frozenset(INCLUSIVE.values()) | frozenset(SELF.values()) | frozenset(
    ("riccati.tree_s", "riccati.ode_s") + DERIVED)


def usage() -> tuple:
    """Wall clock and user+system CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.monotonic(), ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cmvlq" or name.startswith("cmvlq."))]


def public_functions(layer: str) -> dict:
    """Public functions defined in one layer module, by name."""
    module = sys.modules[f"cmvlq.{layer}"]
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Patch:
    """Replaces functions everywhere the program can reach them."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def restore(self):
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()


class Marker:
    """Stamps the first call into any solver layer, then steps aside.

    With ``exit_with`` set, the process reports the stamp through that
    callback and ends there: a set-up probe.
    """

    def __init__(self, exit_with=None):
        self.stamp = None
        self._exit_with = exit_with
        self._patch = Patch()

    def install(self):
        for layer in SOLVER_LAYERS:
            for fn in public_functions(layer).values():
                self._patch.replace(fn, self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stamp is None:
                self.stamp = usage()
                self._patch.restore()
                if self._exit_with is not None:
                    self._exit_with(self.stamp)
            return fn(*args, **kwargs)

        return wrapper


class Capture:
    """Keeps every return value of the named public functions."""

    def __init__(self, qualified_names):
        self.values = {name: [] for name in qualified_names}
        self._patch = Patch()

    def install(self):
        for qualified in self.values:
            layer, name = qualified.split(".")
            fn = public_functions(layer)[name]
            self._patch.replace(fn, self._wrap(qualified, fn))

    def _wrap(self, qualified, fn):
        store = self.values[qualified]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            store.append(result)
            return result

        return wrapper


class _Frame:
    __slots__ = ("args", "start", "child")

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.child = 0.0


class Tracer:
    """Spans around every public function of every layer, kept in memory."""

    def __init__(self):
        self.stack = []
        self.totals = dict.fromkeys(METRICS, 0.0)
        self.calls = {}
        self._open = {}
        self._draws_used = 0
        self._path_steps = 0   # one idiosyncratic normal per path and fine step
        self._qp_dims = 0
        self._patch = Patch()

    def install(self):
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                self._patch.replace(fn, self._wrap(f"{layer}.{name}", fn))

    def _wrap(self, qualified, fn):
        metric = INCLUSIVE.get(qualified)
        if qualified in RICCATI:
            metric = "riccati"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(args)
            outer = metric is not None and self._open.get(metric, 0) == 0
            if metric is not None:
                self._open[metric] = self._open.get(metric, 0) + 1
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                if metric is not None:
                    self._open[metric] -= 1
            duration = time.perf_counter() - frame.start
            if self.stack:
                self.stack[-1].child += duration
            self.calls[qualified] = self.calls.get(qualified, 0) + 1
            if outer:
                self._add_time(metric, duration, result)
            if qualified in SELF:
                self.totals[SELF[qualified]] += duration - frame.child
            self._count(qualified, result)
            return result

        return wrapper

    def _add_time(self, metric, duration, result):
        if metric == "riccati":
            ode = type(result).__name__.startswith("Ode")
            metric = "riccati.ode_s" if ode else "riccati.tree_s"
        self.totals[metric] += duration

    def _count(self, qualified, result):
        t = self.totals
        if qualified == "lattice.build_joint_tree":
            t["lattice.nodes"] += result.n_nodes(result.grid.n_steps)
        elif qualified in RICCATI and type(result).__name__.startswith("Ode"):
            t["riccati.ode_steps"] += len(result.times) - 1
        elif qualified == "fbsde.solve_coupled_mv_fbsde":
            t["fbsde.picard_sweeps"] += result.iterations
        elif qualified == "oracle.solve_qp_exact":
            t["oracle.dim"] += result.dim
        elif qualified in ("sim.idiosyncratic_normals", "sim.common_normals"):
            t["sim.draws"] += result.size
            idio = qualified == "sim.idiosyncratic_normals"
            if idio:
                self._path_steps += result.size
            if self._loaded("D" if idio else "D0"):
                self._draws_used += result.size
        if qualified.startswith("oracle.solve_qp_"):
            self._qp_dims += result.dim

    def _loaded(self, field) -> bool:
        """Is the named noise loading of the enclosing problem nonzero?"""
        for frame in reversed(self.stack):
            for arg in frame.args:
                coeff = getattr(arg, field, None)
                if coeff is not None and hasattr(coeff, "base"):
                    slope = coeff.slope
                    return bool((coeff.base != 0).any() or
                                (slope is not None and (slope != 0).any()))
        return True

    def metrics(self, import_s: float) -> dict:
        t = dict(self.totals)
        t["cli.import_s"] = import_s
        t["oracle.grad_evals"] = self.calls.get("oracle.cost_gradient", 0)
        dims = self._qp_dims
        t["oracle.grad_evals_per_dim"] = t["oracle.grad_evals"] / dims if dims else 0.0
        t["sim.draws_used_ratio"] = self._draws_used / t["sim.draws"] if t["sim.draws"] else 0.0
        kernel = t["sim.forward_s"]
        t["sim.path_steps_per_s"] = self._path_steps / kernel if kernel > 0 else 0.0
        return t
