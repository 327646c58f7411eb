"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces the package's public callables with wrappers that
record one span per call: ``[name, start, end, parent]``, where ``parent`` is
the index of the enclosing span or -1 for the workload itself.  A function is
replaced at every binding site in the package (``groupoid_conv`` imports
``flow_eval_many`` by name, ``cli`` imports ``jet_mul``), and a method is
patched on its class.  Spans stay in memory; ``summary`` turns them into
per-layer call counts, work counters and self times (span minus children).
The tracer assumes one thread, which is how the benchmark runs the suites.
"""

import json
import sys
import time
from collections import namedtuple

Layer = namedtuple("Layer", "name module attr counters calls", defaults=((), "calls"))


def _out_points(args, result):
    return result.samples.size


def _atom_pairs(args, result):
    return len(args[0].atoms) * len(args[1].atoms)


def _nfev(args, result):
    return result.nfev


LAYERS = (
    Layer("groupoid_conv.adjoint", "groupoid_conv", "adjoint", (("out_points", _out_points),)),
    Layer("groupoid_conv.convolve", "groupoid_conv", "convolve", (("out_points", _out_points),)),
    Layer("groupoid_conv.l1_groupoid_norm", "groupoid_conv", "l1_groupoid_norm"),
    Layer("groupoid_conv.module_mult_left", "groupoid_conv", "module_mult_left"),
    Layer("groupoid_conv.module_mult_right", "groupoid_conv", "module_mult_right"),
    Layer("groupoid_conv.scale_by_delta", "groupoid_conv", "scale_by_delta"),
    Layer("groupoid_conv.taylor_map", "groupoid_conv", "taylor_map"),
    Layer("groupoid_conv.GroupoidKernel", "groupoid_conv", "GroupoidKernel.__init__"),
    Layer("flow.flow_eval_many", "flow", "flow_eval_many"),
    Layer("flow.flow_derivative_many", "flow", "flow_derivative_many"),
    Layer("flow.flow_eval", "flow", "flow_eval"),
    # solve_ivp as flow binds it: every ODE solve of the rescaled flow
    Layer("flow.ode", "flow", "solve_ivp", (("nfev", _nfev),), calls="solves"),
    Layer("flow.check_cocycle_identity", "flow", "check_cocycle_identity"),
    Layer("flow.check_composition_identity", "flow", "check_composition_identity"),
    Layer("coeff_ring.GaussPolyFn.convolve", "coeff_ring", "GaussPolyFn.convolve", (("atom_pairs", _atom_pairs),)),
    Layer("coeff_ring.GaussPolyFn.sup_norm", "coeff_ring", "GaussPolyFn.sup_norm"),
    Layer("coeff_ring.GaussPolyFn.add", "coeff_ring", "GaussPolyFn.add"),
    Layer("coeff_ring.GaussPolyFn.mul_by_poly", "coeff_ring", "GaussPolyFn.mul_by_poly"),
    Layer("coeff_ring.GaussPolyFn.mul_by_exp", "coeff_ring", "GaussPolyFn.mul_by_exp"),
    Layer("coeff_ring.GridFn.convolve", "coeff_ring", "GridFn.convolve"),
    Layer("jet_algebra.jet_mul", "jet_algebra", "jet_mul"),
    Layer("jet_algebra.x_mult_left", "jet_algebra", "x_mult_left"),
    Layer("jet_algebra.commutativity_report", "jet_algebra", "commutativity_report"),
    Layer("wiener_hopf.fourier_transform_values", "wiener_hopf", "fourier_transform_values"),
    Layer("wiener_hopf.nonpreservation_demo", "wiener_hopf", "nonpreservation_demo"),
    Layer("wiener_hopf.Diffeomorphism", "wiener_hopf", "Diffeomorphism.__init__"),
    Layer("wiener_hopf.winding_number", "wiener_hopf", "winding_number"),
    # check bodies, wrapped as the suites hand them to cli.run_suite
    Layer("cli.checks", "cli", None),
)

# time inside the workload that no span covers: run_suite's own bookkeeping
UNATTRIBUTED = "unattributed.self_s"


def layer_metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.{layer.calls}"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for suffix, _ in layer.counters:
            units[f"{layer.name}.{suffix}"] = "count"
    units[UNATTRIBUTED] = "s"
    return units


class TraceError(RuntimeError):
    """A binding site was missed, or the spans do not nest."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [-1]

    def _wrap(self, layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        name = layer.name
        counters = layer.counters

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for suffix, count in counters:
                key = f"{name}.{suffix}"
                counts[key] = counts.get(key, 0) + count(args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every layer callable of ``package`` (the imported top module)."""
        prefix = package.__name__ + "."
        modules = [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(prefix)]
        originals = []
        for layer in LAYERS:
            module = sys.modules[prefix + layer.module]
            if layer.attr is None:
                self._wrap_checks(layer, module)
                continue
            owner, _, attr = layer.attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, attr, self._wrap(layer, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            traced = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
            originals.append(original)
        left = [
            f"{mod.__name__}.{key}"
            for mod in modules
            for key, value in vars(mod).items()
            if any(value is original for original in originals)
        ]
        if left:
            raise TraceError(f"untraced binding sites: {', '.join(left)}")

    def _wrap_checks(self, layer, cli):
        for suite, build in list(cli.SUITES.items()):

            def traced_build(cfg, build=build):
                return [self._wrap(layer, check) for check in build(cfg)]

            cli.SUITES[suite] = traced_build

    def summary(self, start, end):
        """Per-layer metrics for spans recorded inside [start, end].

        Checks that every span nests inside its parent and that siblings do
        not overlap.  That is what makes every self time non-negative and
        lets the self times plus the unattributed time account for the
        traced wall time exactly once.
        """
        spans = self.spans
        if len(self._stack) != 1:
            raise TraceError("spans left open")
        child_time = [0.0] * len(spans)
        last_end = {}
        top = 0.0
        for i, (name, s, e, parent) in enumerate(spans):
            lo, hi = (start, end) if parent < 0 else (spans[parent][1], spans[parent][2])
            if not lo <= s <= e <= hi:
                raise TraceError(f"span {i} ({name}) is not inside its parent")
            if s < last_end.get(parent, lo):
                raise TraceError(f"span {i} ({name}) overlaps a sibling")
            last_end[parent] = e
            if parent < 0:
                top += e - s
            else:
                child_time[parent] += e - s

        metrics = dict.fromkeys(layer_metric_units(), 0)
        calls_name = {layer.name: f"{layer.name}.{layer.calls}" for layer in LAYERS}
        for i, (name, s, e, _) in enumerate(spans):
            metrics[calls_name[name]] += 1
            metrics[f"{name}.self_s"] += (e - s) - child_time[i]
        metrics.update(self.counts)
        metrics[UNATTRIBUTED] = (end - start) - top
        return metrics

    def write(self, path, start):
        """Write the spans as JSON lines, times relative to ``start``."""
        with open(path, "w") as fh:
            for name, s, e, parent in self.spans:
                fh.write(json.dumps([name, s - start, e - start, parent]) + "\n")
