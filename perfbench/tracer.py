"""Boundary tracer: spans and counters around calls into each stepbias layer.

Each traced function is replaced, by identity, in every stepbias module
namespace that binds it, because several modules import names directly.
Only the boundaries listed in TRACED are wrapped; per-step helpers such
as toy2d.excess_loss or gd.step never are, so tracing adds a cost per
call into a layer and none per GD step. A listed function that no longer
exists is reported as absent and its metrics read 0.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = (
    "spectral",
    "kernels",
    "quadratic",
    "gd",
    "regimes",
    "instances",
    "toy2d",
    "reporting",
    "experiments",
)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _eig_sym(counters, bound, result):
    _add(counters, "work_n3", result.eigenvalues.shape[0] ** 3)


def _kernel_matrix(counters, bound, result):
    _add(counters, "entries", result.size)


def _binary_error(counters, bound, result):
    _add(counters, "kernel_evals", bound.arguments["prob"].n * bound.arguments["test"].n)


def _level_set_run(counters, bound, result):
    _add(counters, "steps", result.steps)
    _add(counters, "hits", int(result.stop_status.value == "HitLevelSet"))
    _add(counters, "trace_bytes", result.loss_trace.nbytes)
    counters["steps_max"] = max(counters.get("steps_max", 0), result.steps)


def _certify(counters, bound, result):
    _add(counters, "passes", int(result.verdict_final))


def _written_bytes(counters, bound, result):
    _add(counters, "bytes", os.path.getsize(bound.arguments["path"]))


# "module.function" -> (metrics it reports, counter hook or None).
TRACED = {
    "spectral.eig_sym": (("calls", "self_s", "work_n3"), _eig_sym),
    "kernels.gaussian_kernel_matrix": (("calls", "self_s", "entries"), _kernel_matrix),
    "kernels.kernel_problem": (("self_s",), None),
    "kernels.ridge_alpha": (("calls", "self_s"), None),
    "kernels.binary_error": (("calls", "self_s", "kernel_evals"), _binary_error),
    "quadratic.from_kernel": (("calls", "self_s"), None),
    "gd.run_to_level_set": (
        ("calls", "self_s", "steps", "steps_max", "hit_frac", "trace_bytes"),
        _level_set_run,
    ),
    "regimes.check_assumptions": (("calls", "self_s"), None),
    "regimes.certify": (("calls", "self_s", "pass_frac"), _certify),
    "instances.random_instance": (("calls", "self_s", "retries"), None),
    "toy2d.feasible_alpha": (("self_s",), None),
    "toy2d.ratio_check": (("self_s",), None),
    "reporting.write_csv": (("calls", "self_s", "bytes"), _written_bytes),
    "reporting.render_svg": (("calls", "self_s", "bytes"), _written_bytes),
    "experiments.run_experiment": (("self_s",), None),
}


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{fn}.{m}" for fn, (metrics, _) in TRACED.items() for m in metrics]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names + ["trace.overhead_frac"]


class Tracer:
    """Records one span per call into a traced function while installed.

    A span is [id, parent id, op id, name, start, end]; spans of one op
    share the op id the caller sets in ``op``. Counters are summed per
    function from arguments and return values after each call returns.
    """

    def __init__(self):
        self.spans = []
        self.counters = {name: {} for name in TRACED}
        self.absent = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self, package="stepbias"):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for qualname, (_, hook) in TRACED.items():
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules.get(f"{package}.{module_name}"), func_name, None)
            if original is None:
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn)
        counters = self.counters[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), parent, self.op, name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            _add(counters, "calls", 1)
            if parent is not None and self.spans[parent][3] == name:
                _add(counters, "retries", 1)
            if hook is not None:
                hook(counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def self_times(self):
        """Self time per function: span duration minus its children's coverage."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: 0.0 for name in TRACED}
        for span_id, _, _, name, start, end in self.spans:
            out[name] += (end - start) - child[span_id]
        return out

    def metrics(self, overhead_frac):
        """Per-layer metrics of everything traced, keyed by metric name."""
        self_s = self.self_times()
        values = {}
        for name, (metrics, _) in TRACED.items():
            c = self.counters[name]
            calls = c.get("calls", 0)
            for metric in metrics:
                if metric == "self_s":
                    value = self_s[name]
                elif metric == "hit_frac":
                    value = c.get("hits", 0) / calls if calls else 0.0
                elif metric == "pass_frac":
                    value = c.get("passes", 0) / calls if calls else 0.0
                else:
                    value = c.get(metric, 0)
                values[f"{name}.{metric}"] = value
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                self_s[name] for name in TRACED if name.startswith(layer + ".")
            )
        values["trace.overhead_frac"] = overhead_frac
        return values
