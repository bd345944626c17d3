"""Span tracer installed from outside around rankone's layer modules.

Every public function of each layer module is found by introspection (no
hard-coded list, so a function a later change adds is counted too) and
replaced by a timing wrapper in every ``rankone`` module namespace that holds
it, i.e. where callers look the name up (``rankone.spectral.evaluate_poly``,
``rankone.experiments.kostlan_form``, ...).  Nothing is changed inside the
package's source.

Spans are aggregated in memory per (parent function, function) edge, which
gives each layer's self time (span minus the spans of its children) without
storing millions of kernel spans.  The wrappers' own cost is in no layer's
self time, so the self times sum to less than the traced wall time.  A few layers also keep per-call durations
and counts for the quantiles and counters named in README.md.
"""

import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "cli": "rankone.cli",
    "experiments": "rankone.experiments",
    "sampling": "rankone.sampling",
    "harmonic": "rankone.harmonic",
    "spectral": "rankone.spectral",
    "kernels": "rankone._kernels",
    "tensor": "rankone.tensor",
    "poly": "rankone.poly",
    "bounds": "rankone.bounds",
}


def public_callables(module):
    """Functions defined in ``module`` whose names do not start with ``_``.

    Classes are left alone: replacing one would break ``isinstance`` checks.
    Cached functions (``functools.lru_cache``) are included.
    """
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def _layer(key):
    return key.split(".", 1)[0] if key else ""


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def _nominal_flops(args, name):
    """Flops of the monomial-sum kernels derived from array sizes: per point
    N*(n+1) (n factors and one add per monomial), times n for a gradient and
    4 for complex arithmetic.  A count computed from sizes, not a hardware
    counter, so it is the same for any implementation of the same math."""
    coeffs, expo, pts = args[0], np.asarray(args[1]), np.asarray(args[-1])
    if expo.ndim != 2:
        return 1, 0
    n_mono, n = expo.shape
    rows = int(np.prod(pts.shape[:-1])) if pts.ndim >= 2 else 1
    flops = rows * n_mono * (n + 1)
    if "grad" in name:
        flops *= n
    if np.iscomplexobj(coeffs) or np.iscomplexobj(pts):
        flops *= 4
    return rows, flops


class Tracer:
    """Collects spans from the wrappers it installs; one per traced pass."""

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, key) -> calls, total, self
        self.durations = defaultdict(lambda: array("d"))  # key -> per-call seconds
        self.entry_durations = defaultdict(lambda: array("d"))  # layer -> entry-span seconds
        self.counters = Counter()
        self.iterations = array("d")
        self._stack = []
        self._installed = []

    # ---------------------------------------------------------- wrappers

    def _wrap(self, key, fn):
        layer = _layer(key)
        name = key.split(".", 1)[1]
        stack = self._stack
        edges = self.edges
        counters = self.counters
        is_kernel = layer == "kernels"
        cached = hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            caller = stack[-1] if stack else None
            parent = caller[0] if caller else ""
            frame = [key, 0.0]  # key, seconds spent in child spans and their wrappers
            stack.append(frame)
            misses = fn.cache_info().misses if cached else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
            edge = edges[(parent, key)]
            edge[0] += 1
            edge[1] += dur
            edge[2] += dur - frame[1]
            if is_kernel:
                rows, flops = _nominal_flops(args, name)
                counters["kernels.points"] += rows
                counters["kernels.flops"] += flops
                if "eval" in name:
                    counters["kernels.eval_calls"] += 1
                if "grad" in name:
                    counters["kernels.grad_calls"] += 1
            else:
                self.durations[key].append(dur)
                if cached and fn.cache_info().misses > misses:
                    counters[f"{key}.miss_s"] += dur
                if _layer(parent) != layer:
                    if layer != "spectral":
                        self.entry_durations[layer].append(dur)
                    elif hasattr(result, "iterations"):
                        self.entry_durations[layer].append(dur)
                        self.iterations.append(result.iterations)
                if isinstance(result, str) and name.startswith("render"):
                    counters["experiments.report_bytes"] += len(result.encode())
            if caller is not None:
                # the caller's self time excludes this wrapper's own cost, so
                # tracing overhead is left out of every layer's self time
                caller[1] += perf_counter() - t_in
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every public function of every layer wherever it is bound."""
        originals = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name, fn in public_callables(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "rankone" and not modname.startswith("rankone."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # ------------------------------------------------------------ results

    def _edge(self, parent, key):
        e = self.edges.get((parent, key))
        return (e[0], e[1]) if e else (0, 0.0)

    def layer_metrics(self, samples):
        """Per-layer metrics of this pass; ``samples`` is the number of
        Monte Carlo samples the traced verifications asked for."""
        self_s, totals = Counter(), Counter()
        for (_, key), (_, total, own) in self.edges.items():
            self_s[_layer(key)] += own
            totals[key] += total
        c = self.counters
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}

        points = c["kernels.points"]
        m["kernels.eval_calls"] = c["kernels.eval_calls"]
        m["kernels.grad_calls"] = c["kernels.grad_calls"]
        m["kernels.points"] = points
        m["kernels.us_per_point"] = 1e6 * self_s["kernels"] / points if points else 0.0
        m["kernels.eval_per_grad"] = (
            c["kernels.eval_calls"] / c["kernels.grad_calls"] if c["kernels.grad_calls"] else 0.0
        )
        m["kernels.flops_computed"] = c["kernels.flops"]

        contract = [d for key, ds in self.durations.items()
                    if key.startswith("tensor.contract") for d in ds]
        m["tensor.contract_calls"] = len(contract)
        m["tensor.contract_s"] = float(sum(contract))
        m["tensor.contract_us_p50"] = 1e6 * _quantile(contract, 0.5)

        spec = self.entry_durations["spectral"]
        m["spectral.calls"] = len(spec)
        m["spectral.value_ms_p50"] = 1e3 * _quantile(spec, 0.5)
        m["spectral.value_ms_p90"] = 1e3 * _quantile(spec, 0.9)
        m["spectral.iterations_p50"] = _quantile(self.iterations, 0.5)

        draws = self.entry_durations["sampling"]
        m["sampling.draw_calls"] = len(draws)
        m["sampling.draw_s"] = float(sum(draws))
        m["sampling.draw_us_p50"] = 1e6 * _quantile(draws, 0.5)

        m["harmonic.basis_build_s"] = c["harmonic.harmonic_basis.miss_s"]
        m["poly.norm_s"] = sum(
            t for key, t in totals.items() if key.startswith("poly.") and key.endswith("_norm")
        )
        m["bounds.s"] = float(sum(self.entry_durations["bounds"]))

        recert, _ = self._edge("experiments.verify_bounds", "spectral.spectral_value")
        m["experiments.recert_samples"] = recert
        m["experiments.recert_frac"] = recert / samples if samples else 0.0
        m["experiments.check_d_s"] = self._edge(
            "experiments.verify_bounds", "spectral.spectral_norm_symmetric"
        )[1]
        m["experiments.render_s"] = sum(
            t for key, t in totals.items() if key.startswith("experiments.render")
        )
        m["experiments.report_bytes"] = c["experiments.report_bytes"]
        m["experiments.compute_s"] = self._edge(
            "experiments.estimate_ratio_distribution", "spectral.spectral_value"
        )[1]
        return m

