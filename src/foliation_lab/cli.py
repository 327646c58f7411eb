"""Batch runner: every verification suite behind one command-line entry.

    foliation-lab <suite> [--config cfg.json] [--out report.json]
                  [--override key=value ...]

Each suite writes a JSON report with one record per check:
``{name, anchor, status, measured, tolerance}`` where ``anchor`` names the
claim the check validates (or "plumbing" for artifact-internal checks).  A
check that raises becomes a record with status "error", the check
function's name, null ``measured``/``tolerance`` and ``error`` set to
"<ExceptionType>: <message>"; the other checks still run.  The report is
always written.  Exit status: 0 if every check passed, 1 if a check failed
(whether or not another errored), 3 if a check errored and none failed,
2 on a bad or missing config.
"""

from __future__ import annotations

import argparse
import copy
import csv
import errno
import functools
import io
import json
import math
import os
import sys
import time
import traceback
import zlib

import numpy as np

from . import flow, groupoid_conv, wiener_hopf
from .coeff_ring import GaussPolyFn, GridSpec, _bump, _bump_series, random_gauss_poly
from .flow import FlowModel
from .groupoid_conv import GroupoidKernel
from .jet_algebra import Jet, commutativity_report, jet_mul, x_mult_left, x_mult_right

DEFAULT_CONFIG = {"k_values": [1, 2, 3], "grid": {"x_step": 0.004, "t_step": 0.02}, "seed": 12345}
TRIALS = 10  # random draws per check; more evidence comes from more seeds
JET_ORDER = 4  # verify-jets' truncation order (at least k), which names its records
INVOLUTION_X_GRID = GridSpec.centered(0.42, 0.0006)
# run-size budget; README ("Command line") gives the measured runs behind it
MAX_KERNEL_SAMPLES = 2_000_000


def load_config(path=None, overrides=()):
    """DEFAULT_CONFIG updated by the JSON file at path, then by each dotted
    key=value override; ValueError names an unknown key or a bad value."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            _merge(cfg, json.load(fh), "")
    for item in overrides:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(cfg, value, "")
    _validate_config(cfg)
    return cfg


def _merge(base, extra, prefix):
    """Merge the object extra into base in place: every key must be one of
    base's, at any depth, and an object must stay an object."""
    if not isinstance(extra, dict):
        raise ValueError(f"{prefix[:-1] or 'config'} must be an object")
    for key, value in extra.items():
        if key not in base:
            raise ValueError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict):
            _merge(base[key], value, f"{prefix}{key}.")
        else:
            base[key] = value


def _validate_config(cfg):
    grid = cfg["grid"]
    for key in ("x_step", "t_step"):
        if not _is_positive_real(grid[key]):
            raise ValueError(f"grid.{key} must be a finite positive number")
    k_values = cfg["k_values"]
    if not isinstance(k_values, list) or not k_values or not all(_is_int(k, 1) for k in k_values):
        raise ValueError("k_values must be a non-empty list of positive integers")
    # the widest x-window (k = 1 widens it, and adjoint_involution's is fixed) by the t-window,
    # each window counted as 2 r / h + 2, a bound on GridSpec.centered's 2 round(r / h) + 1
    n_x = max(INVOLUTION_X_GRID.count, *(2 * _x_radius(k) / grid["x_step"] + 2 for k in k_values))
    if n_x * (2 * T_RADIUS / grid["t_step"] + 2) > MAX_KERNEL_SAMPLES:
        raise ValueError(f"grid: kernels over {MAX_KERNEL_SAMPLES:,} samples; coarsen grid.x_step or grid.t_step")
    # each suite grid must build (two t points at least) and hold taylor_map's
    # 2p + 5 point stencil at verify-groupoid's order p = 3
    for k in k_values:
        try:
            n_x = _grids(cfg, k)[0].count
        except ValueError:
            n_x = 0
        if n_x < 11:
            raise ValueError("grid: a window under 11 x or 2 t points; refine grid.x_step or grid.t_step")
    if not _is_int(cfg["seed"], 0):
        raise ValueError("seed must be a non-negative integer")


def _is_int(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_positive_real(value):
    # int/float only (bool and str excluded); the chained comparison also rejects nan
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf


def _check_rng(cfg, name):
    """Deterministic per-check generator, independent of execution order."""
    return np.random.default_rng([cfg["seed"], zlib.crc32(name.encode())])


def _record(name, anchor, measured, tolerance, passed=None):
    if passed is None:
        passed = measured <= tolerance
    return {
        "name": name,
        "anchor": anchor,
        "status": "pass" if passed else "fail",
        "measured": measured,
        "tolerance": tolerance,
    }


def _check(name, anchor, tolerance):
    """Turn a generator of residuals into a check whose record measures the
    largest of them, floored at 0.0 (so no residual, or only negative ones,
    reads 0.0); a NaN residual reads NaN and fails.  The check keeps the
    generator's function name, which names its record if it raises."""

    def decorate(body):
        @functools.wraps(body)
        def check():
            residuals = list(body())
            measured = math.nan if any(map(math.isnan, residuals)) else max([0.0, *residuals])
            return _record(name, anchor, measured, tolerance)

        return check

    return decorate


def _flag(name, anchor, ok):
    """The record of a yes/no check: 0.0 if ok, else 1.0, against 0.5."""
    return _record(name, anchor, 0.0 if ok else 1.0, 0.5)


def _gap(lhs, rhs):
    """sup|lhs - rhs| / sup|lhs| of two kernels, the scale floored at 1e-12."""
    return float(np.max(np.abs(lhs.samples - rhs.samples))) / max(lhs.sup_norm(), 1e-12)


def _ring_gap(lhs, rhs):
    """_gap for two ring elements or two jets."""
    return (lhs - rhs).sup_norm() / max(lhs.sup_norm(), 1e-12)


# anchors that more than one check validates
PLUMBING = "plumbing"
RING = "convolution product on the coefficient ring"
ADJOINT = "kernel adjoint involution"
L1_NORMS = "kernel L1 norms defining the completions"
WINDING = "winding number realizes the boundary map"
STEEP_WARP = "half-line operator algebra is not preserved by steep warps"


# ---------------------------------------------------------------------------
# random data shared by the suites
# ---------------------------------------------------------------------------


def _identity(x):
    return x


# the kernel windows; the kernel families below vanish beyond |x| = 0.3
X_RADIUS, T_RADIUS = 0.65, 0.5


def _x_radius(k):
    # the exponential flow (k = 1) stretches supports by e^|t|; widen its window
    return X_RADIUS + 0.3 if k == 1 else X_RADIUS


def _grids(cfg, k):
    g = cfg["grid"]
    return GridSpec.centered(_x_radius(k), g["x_step"]), GridSpec.centered(T_RADIUS, g["t_step"])


def _random_kernel(model, xg, tg, rng):
    c = rng.uniform(-1.0, 1.0, 4)
    w1, w2 = rng.uniform(1.0, 3.0, 2)

    def fn(X, T):
        profile = c[0] + c[1] * X + c[2] * np.cos(w1 * T) + c[3] * X * X * np.sin(w2 * T)
        return _bump(X, 0.3) * _bump(T, 0.8 * tg.end) * profile

    return GroupoidKernel.from_function(model, xg, tg, fn)


def _jet_kernel(model, xg, tg, p, rng):
    """A kernel f = bump(x, 0.3) sum_(n<=p) x^n a_n(t) and its exact jet at
    x = 0, T(f)_n = sum_j b_j a_(n-j), b being the bump's Taylor series.
    Each a_n is one Gaussian atom: mean within 0.05 r of 0 and variance in
    [0.002 w^2, 0.0035] r^2.  r = min(1, tg.end / 0.5) fits the atoms to the
    window, which t-step rounding shrinks (to 0.48 at t_step 0.04), and never
    widens them with it; w = t_step / (0.04 r), held within [1, 1.25], raises
    the narrowest atoms until the trapezoid rule resolves their products,
    while the widest still vanish 7.6 standard deviations inside the window
    edge.  Amplitude of size at least 0.5, since the fit's error scales with
    the whole kernel."""
    r = min(1.0, tg.end / 0.5)
    w = min(max(1.0, tg.step / (0.04 * r)), 1.25)
    a = []
    for _ in range(p + 1):
        u, mean = rng.uniform(-1.0, 1.0, 2).tolist()
        var = float(rng.uniform(0.002 * w * w, 0.0035)) * r * r
        a.append(GaussPolyFn.gaussian(math.copysign(0.5 + abs(u) / 2, u), 0.05 * r * mean, var))
    xs, ts = xg.points, tg.points
    samples = _bump(xs, 0.3)[:, None] * sum(np.outer(xs**n, a_n(ts)) for n, a_n in enumerate(a))
    b = _bump_series(0.3, p)
    jet = [sum((a[n - j].scale(b[j]) for j in range(n + 1)), GaussPolyFn.zero()) for n in range(p + 1)]
    return GroupoidKernel(model, xg, tg, samples), Jet(model.k, jet)


def _taylor_gap(model, xg, tg, p, rng):
    """max_q sup|T(f*g)_q - (T(f) T(g))_q| over the exact product's sup, on
    the product's t-grid: the sampled Taylor rows of a sampled product
    against the exact twisted product of two exact jets."""
    (f, jf), (g, jg) = (_jet_kernel(model, xg, tg, p, rng) for _ in range(2))
    fg = groupoid_conv.convolve(f, g)
    exact = np.array([c(fg.t_grid.points) for c in jet_mul(jf, jg).coeffs])
    rows = groupoid_conv.taylor_map(fg, p)
    return float(np.max(np.abs(rows - exact))) / max(float(np.max(np.abs(exact))), 1e-12)


def _random_kernels(cfg, k, rng, count):
    """count random kernels over the monomial flow of order k on the suite grids."""
    model = FlowModel(k)
    xg, tg = _grids(cfg, k)
    return [_random_kernel(model, xg, tg, rng) for _ in range(count)]


def _composable(model, rng, count, draw_x):
    """Arrays x, t, s, y of count random arrows with y = phi_s(x), where
    phi_s(x), phi_(t+s)(x) and phi_t(y) are all defined; t and s are uniform
    on [-0.5, 0.5].  Each candidate is drawn and tested on x alone; y and its
    test run on the outstanding batch at once, which keeps the samples and
    the final generator state of a one-at-a-time loop."""
    accepted = np.empty((4, 0))
    while accepted.shape[1] < count:
        batch = []
        while len(batch) < count - accepted.shape[1]:
            x = draw_x(rng)
            t = float(rng.uniform(-0.5, 0.5))
            s = float(rng.uniform(-0.5, 0.5))
            if model.in_domain(s, x) and model.in_domain(t + s, x):
                batch.append((x, t, s))
        x, t, s = np.array(batch).T
        y = flow.flow_eval_many(model, s, x)
        accepted = np.hstack([accepted, np.array([x, t, s, y])[:, model.in_domain(t, y)]])
    return accepted


def _near_zero(rng):
    return float(rng.uniform(-0.4, 0.4))


def _off_zero(rng):
    return float(rng.uniform(0.05, 0.4)) * (1 if rng.uniform() < 0.5 else -1)


def _blaschke_loop(rng, count):
    """The circle loop of a Blaschke product with count random zeros, which winds count."""
    zeros = rng.uniform(-0.6, 0.6, count) + 1j * rng.uniform(-0.6, 0.6, count)

    def blaschke(z):
        out = np.ones_like(z)
        for a in zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    return wiener_hopf.SymbolLoop.from_circle_function(blaschke)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_verify_coeff(cfg):
    exact = 1e-12

    @_check("gaussian_self_convolution_closed_form", RING, exact)
    def gaussian_self_convolution():
        f = GaussPolyFn.gaussian()
        t = np.linspace(-10, 10, 2001)
        yield float(np.max(np.abs(f.convolve(f)(t) - np.sqrt(np.pi) * np.exp(-(t**2) / 4.0))))

    @_check("convolution_commutativity", RING, exact)
    def commutativity():
        rng = _check_rng(cfg, "coeff_commutativity")
        for _ in range(max(TRIALS, 20)):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            yield (f.convolve(g) - g.convolve(f)).sup_norm()

    @_check("convolution_associativity", RING, exact)
    def associativity():
        rng = _check_rng(cfg, "coeff_associativity")
        for _ in range(TRIALS):
            f, g, h = (random_gauss_poly(rng) for _ in range(3))
            yield _ring_gap(f.convolve(g).convolve(h), f.convolve(g.convolve(h)))

    @_check("sampled_ring_matches_exact_ring", PLUMBING, 1e-6)
    def grid_matches_exact():
        rng = _check_rng(cfg, "coeff_grid_vs_exact")
        grid = GridSpec(-14.0, 0.01, 2801)
        for _ in range(5):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            hs = f.sample(grid).convolve(g.sample(grid))
            want = f.convolve(g)(hs.grid.points)
            yield float(np.max(np.abs(hs.samples - want)))

    @_check(
        "time_multiplication_is_a_derivation",
        "derivation twist in the order-k commutation relation",
        exact,
    )
    def derivation():
        rng = _check_rng(cfg, "coeff_derivation")
        for _ in range(TRIALS):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            rhs = f.mul_by_t().convolve(g) + f.convolve(g.mul_by_t())
            yield (f.convolve(g).mul_by_t() - rhs).sup_norm()

    @_check(
        "exponential_multiplication_is_an_automorphism",
        "automorphism twist in the order-one commutation relation",
        exact,
    )
    def automorphism():
        rng = _check_rng(cfg, "coeff_automorphism")
        for _ in range(TRIALS):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            c = float(rng.uniform(-1.0, 1.0))
            yield _ring_gap(f.convolve(g).mul_by_exp(c), f.mul_by_exp(c).convolve(g.mul_by_exp(c)))

    return [gaussian_self_convolution, commutativity, associativity, grid_matches_exact, derivation, automorphism]


def suite_verify_flow(cfg):
    k_values = cfg["k_values"]

    @_check("flow_group_law", "transformation groupoid structure", 1e-8)
    def group_law():
        rng = _check_rng(cfg, "flow_group_law")
        for k in k_values:
            for variant in (flow.MONOMIAL, flow.COMPLETE_RESCALED):
                model = FlowModel(k, variant)
                x, t, s, y = _composable(model, rng, 25, _near_zero)
                gap = flow.flow_eval_many(model, t + s, x) - flow.flow_eval_many(model, t, y)
                yield from np.abs(gap).tolist()

    @_check("taylor_table_diagonal_band_row0", "Taylor expansion of powers of the flow", 0.0)
    def taylor_table_invariants():
        coeff = flow.taylor_coeff
        for k in k_values:
            for n in range(9):
                yield abs(coeff(k, n, n).poly[0] - 1.0)
                for m in range(n + 1, min(n + max(k - 1, 1), 9)):
                    yield float(np.max(np.abs(coeff(k, n, m).poly)))
            for m in range(1, 9):
                yield float(np.max(np.abs(coeff(k, 0, m).poly)))

    @_check("flow_power_cocycle_identity", "cocycle identity for flow Taylor coefficients", 1e-10)
    def cocycle_identity():
        # (t, s) in the unit box: the identity is exact, so the residual is
        # pure rounding, which scales with the polynomial magnitudes
        rng = _check_rng(cfg, "flow_cocycle_identity")
        for k in k_values:
            for n in range(0, 7):
                for m in range(n, 7):
                    ts = rng.uniform(-1.0, 1.0, (100, 2))
                    yield flow.check_cocycle_identity(k, n, m, ts[:, 0], ts[:, 1])

    @_check(
        "series_composition_identity", "coefficient extraction of composed series powers", 1e-12
    )
    def composition_identity():
        for n, m in ((1, 1), (2, 5), (3, 6)):
            yield flow.check_composition_identity(n, m, trials=TRIALS, seed=cfg["seed"])

    @_check("delta_cocycle_multiplicativity", "the flow-quotient one-cocycle", 1e-10)
    def delta_multiplicative():
        rng = _check_rng(cfg, "flow_delta_cocycle")
        for k in k_values:
            model = FlowModel(k)
            x, t, s, y = _composable(model, rng, 30, _near_zero)
            delta = functools.partial(flow.cocycle_delta_many, model)
            yield from np.abs(delta(t + s, x) - delta(t, y) * delta(s, x)).tolist()

    @_check(
        "beta_cocycle_multiplicativity",
        "square-root-derivative weight in the completed norm",
        1e-10,
    )
    def beta_multiplicative():
        rng = _check_rng(cfg, "flow_beta_cocycle")
        for k in k_values:
            model = FlowModel(k)
            x, t, s, y = _composable(model, rng, 30, _off_zero)
            beta = functools.partial(flow.beta_cocycle, model)
            yield from np.abs(beta(t + s, x) - beta(t, y) * beta(s, x)).tolist()

    @_check(
        "monomial_vs_rescaled_contact_order",
        "rescaled complete generator of the same foliation",
        1.0,
    )
    def variant_agreement():
        # near 0 the two variants differ at order x^(k+2); Richardson ratio.
        # From k = 12 they agree to the last bit at x = 0.05 (from k = 16 at
        # 0.1 too); a zero difference measures no order, so it reads NaN
        for k in k_values:
            if k == 1:
                continue  # the rescaling factor is identically 1
            mono = FlowModel(k)
            resc = FlowModel(k, flow.COMPLETE_RESCALED)
            t = 0.8
            d1 = abs(flow.flow_eval(mono, t, 0.1) - flow.flow_eval(resc, t, 0.1))
            d2 = abs(flow.flow_eval(mono, t, 0.05) - flow.flow_eval(resc, t, 0.05))
            yield 2 ** (k + 1) / (d1 / d2) if d1 and d2 else math.nan

    return [
        group_law,
        taylor_table_invariants,
        cocycle_identity,
        composition_identity,
        delta_multiplicative,
        beta_multiplicative,
        variant_agreement,
    ]


def suite_verify_groupoid(cfg):
    qtol = 1e-6  # quadrature
    k_values = cfg["k_values"]
    convolve, adjoint = groupoid_conv.convolve, groupoid_conv.adjoint
    left, right = groupoid_conv.module_mult_left, groupoid_conv.module_mult_right

    @_check("convolution_associativity", "groupoid convolution product", qtol)
    def associativity():
        rng = _check_rng(cfg, "groupoid_associativity")
        for k in k_values:
            f, g, h = _random_kernels(cfg, k, rng, 3)
            yield _gap(convolve(convolve(f, g), h), convolve(f, convolve(g, h)))

    @_check("adjoint_antimultiplicativity", ADJOINT, qtol)
    def adjoint_antimultiplicative():
        rng = _check_rng(cfg, "groupoid_antihom")
        for k in k_values:
            f, g = _random_kernels(cfg, k, rng, 2)
            yield _gap(adjoint(convolve(f, g)), convolve(adjoint(g), adjoint(f)))

    @_check("adjoint_involution", ADJOINT, 1e-8)
    def adjoint_involution():
        rng = _check_rng(cfg, "groupoid_involution")
        tg = GridSpec.centered(T_RADIUS, cfg["grid"]["t_step"])
        f = _random_kernel(FlowModel(3), INVOLUTION_X_GRID, tg, rng)
        yield _gap(f, adjoint(adjoint(f)))

    @_check("module_action_associativity", "base-function module actions", qtol)
    def module_associativity():
        rng = _check_rng(cfg, "groupoid_module")
        a = _identity
        for k in k_values:
            f, g = _random_kernels(cfg, k, rng, 2)
            fg = convolve(f, g)
            yield _gap(left(a, fg), convolve(left(a, f), g))
            yield _gap(right(fg, a), convolve(f, right(g, a)))

    @_check("coordinate_commutation_via_cocycle", "x f = (Delta f) x exchange relation", 1e-8)
    def delta_relation():
        rng = _check_rng(cfg, "groupoid_delta_relation")
        for k in k_values:
            (f,) = _random_kernels(cfg, k, rng, 1)
            lhs = left(_identity, f)
            rhs = right(groupoid_conv.scale_by_delta(f), _identity)
            yield float(np.max(np.abs(lhs.samples - rhs.samples)))

    @_check("product_kernel_l1_norm", L1_NORMS, qtol)
    def product_kernel_norm():
        for k in k_values:
            xg, tg = _grids(cfg, k)
            a = lambda x: _bump(x, 0.3) * (1 + 0.5 * x)
            b = lambda t: _bump(t, 0.8 * tg.end)
            f = GroupoidKernel.from_function(FlowModel(k), xg, tg, lambda X, T: a(X) * b(T))
            got = groupoid_conv.l1_groupoid_norm(f)
            a_sup = float(np.max(np.abs(a(xg.points))))
            b_l1 = float(np.trapezoid(np.abs(b(tg.points)), dx=tg.step))
            yield abs(got - a_sup * b_l1) / (a_sup * b_l1)

    @_check("l1_norm_submultiplicative", L1_NORMS, 1e-6)
    def submultiplicativity():
        rng = _check_rng(cfg, "groupoid_submult")
        norm = groupoid_conv.l1_groupoid_norm
        for k in k_values:
            for _ in range(3):
                f, g = _random_kernels(cfg, k, rng, 2)
                yield norm(convolve(f, g)) / (norm(f) * norm(g)) - 1.0

    @_check(
        "taylor_map_is_multiplicative", "transfer of the ring structure along the jet map", 1e-4
    )
    def taylor_homomorphism():
        rng = _check_rng(cfg, "groupoid_taylor_hom")
        for k in k_values:
            for _ in range(2):
                yield _taylor_gap(FlowModel(k), *_grids(cfg, k), 3, rng)

    return [
        associativity,
        adjoint_antimultiplicative,
        adjoint_involution,
        module_associativity,
        delta_relation,
        product_kernel_norm,
        submultiplicativity,
        taylor_homomorphism,
    ]


def suite_verify_jets(cfg):
    k_values = cfg["k_values"]
    zero = GaussPolyFn.zero()

    def random_jet(rng, k, p):
        return Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])

    def dichotomy():
        anchor = "commutativity dichotomy of the truncated quotients"
        records = []
        for k in k_values:
            rows = commutativity_report(k, max_order=max(k, JET_ORDER), trials=TRIALS, seed=cfg["seed"])
            for q, norm in rows:
                name = f"commutator_norm_k{k}_order{q}"
                if q <= k - 1:
                    records.append(_record(name, anchor, norm, 1e-10))
                else:
                    records.append(_record(name, anchor, norm, 1e-3, passed=norm >= 1e-3))
        return records

    @_check(
        "defining_relations_of_the_twist",
        "single commutation relation presenting the quotient",
        1e-12,
    )
    def relations():
        rng = _check_rng(cfg, "jet_relations")
        for k in k_values:
            for _ in range(20):
                b = random_gauss_poly(rng)
                f = Jet.from_coefficient(k, b, k)
                lhs = x_mult_left(f)
                if k == 1:
                    yield (lhs - x_mult_right(Jet(k, [b.mul_by_exp(1.0), zero]))).sup_norm()
                else:
                    yield (lhs - x_mult_right(f) - Jet(k, [zero] * k + [b.mul_by_t()])).sup_norm()

    @_check("jet_product_associativity", "twisted series product formula", 1e-12)
    def associativity():
        rng = _check_rng(cfg, "jet_associativity")
        for k in k_values:
            for p in (2, JET_ORDER):
                f, g, h = (random_jet(rng, k, p) for _ in range(3))
                yield _ring_gap(jet_mul(jet_mul(f, g), h), jet_mul(f, jet_mul(g, h)))

    @_check("truncation_respects_product", "nested vanishing-order ideals", 1e-12)
    def truncation_compatibility():
        rng = _check_rng(cfg, "jet_truncation")
        p = JET_ORDER
        for k in k_values:
            f, g = (random_jet(rng, k, p) for _ in range(2))
            full = jet_mul(f, g)
            for q in range(p):
                yield (full.truncate(q) - jet_mul(f.truncate(q), g.truncate(q))).sup_norm()

    @_check(
        "iterated_exponential_twist",
        "iterated order-one relation matches diagonal Taylor data",
        1e-12,
    )
    def exponential_iteration():
        rng = _check_rng(cfg, "jet_exp_iteration")
        p = 4
        for _ in range(5):
            b = random_gauss_poly(rng)
            lhs = Jet.from_coefficient(1, b, p)
            for _ in range(3):
                lhs = x_mult_left(lhs)
            rhs = Jet(1, [zero] * 3 + [b.mul_by_exp(3.0)] + [zero] * (p - 3))
            # the triple twist amplifies by e^(3t); compare relative to scale
            yield (lhs - rhs).sup_norm() / max(rhs.sup_norm(), 1.0)

    return [dichotomy, relations, associativity, truncation_compatibility, exponential_iteration]


def suite_index(cfg):
    wtol = wiener_hopf.WINDING_RESIDUAL

    @_check(
        "generator_transform_quadrature", "closed form of the half-line generator transform", 1e-8
    )
    def transform_quadrature():
        s = np.linspace(-4.0, 4.0, 81)
        got = wiener_hopf.fourier_transform_values(*wiener_hopf.generator_kernel(), s)
        yield float(np.max(np.abs(got - wiener_hopf.generator_hat_closed_form(s))))

    def generator_winding():
        rep = wiener_hopf.index_report(wiener_hopf.generator_symbol_loop())
        ok = rep["winding"] == 1 and rep["boundary_index"] == -1 and rep["residual"] <= wtol
        record = _record(
            "generator_winding_and_boundary_index",
            "boundary map sends the generator class to minus one",
            rep["residual"],
            wtol,
            passed=ok,
        )
        record["data"] = rep
        return record

    def power_windings():
        circle = wiener_hopf.SymbolLoop.from_circle_function
        ok = all(wiener_hopf.winding_number(circle(lambda z, n=n: z**n)) == n for n in range(-2, 3))
        return _flag("circle_power_windings", WINDING, ok)

    def winding_additivity():
        rng = _check_rng(cfg, "index_additivity")
        ok = True
        for _ in range(TRIALS):
            m1, m2 = rng.integers(0, 4, 2)
            l1, l2 = (_blaschke_loop(rng, m) for m in (m1, m2))
            windings = [wiener_hopf.winding_number(loop) for loop in (l1, l2, l1 * l2)]
            ok = ok and windings == [m1, m2, m1 + m2]
        return _flag("winding_additivity", WINDING, ok)

    def section_diagnostics():
        shift = wiener_hopf.toeplitz_finite_section(
            wiener_hopf.SymbolLoop.from_circle_function(lambda z: z), 50
        )
        counts = wiener_hopf.finite_section_kernel_counts(shift)
        ok = counts == (1, 1)
        return _record(
            "finite_section_truncation_artifact", PLUMBING, float(counts[0]), 1.0, passed=ok
        )

    return [transform_quadrature, generator_winding, power_windings, winding_additivity, section_diagnostics]


def suite_classify(cfg):
    bi_index, parity = wiener_hopf.flow_bi_index, wiener_hopf.parity_invariant

    def parity_table():
        ok = True
        for k in range(1, 7):
            for variant in (flow.MONOMIAL, flow.COMPLETE_RESCALED):
                ok = ok and abs(parity(bi_index(FlowModel(k, variant)))) == 2 * (k % 2)
            fwd = bi_index(FlowModel(k))
            rev = bi_index(FlowModel(k, time_reversed=True))
            ok = ok and (rev.left, rev.right) == (-fwd.left, -fwd.right)
            ok = ok and abs(parity(fwd)) == abs(parity(rev))
        record = _flag(
            "parity_classification", "completed algebras are classified by the parity of k", ok
        )
        record["data"] = [wiener_hopf.bi_index_report(FlowModel(k)) for k in range(1, 7)]
        return record

    def component_structure():
        ok = True
        for k in range(1, 7):
            idx = bi_index(FlowModel(k))
            ok = ok and (idx.left == idx.right) == (k % 2 == 1)
        return _flag(
            "bi_index_components_equal_iff_odd", "source/sink signature of the fixed point", ok
        )

    return [parity_table, component_structure]


def suite_demo_nonpreservation(cfg):
    demo, gaussian = wiener_hopf.nonpreservation_demo, wiener_hopf.GaussianSpec

    def steep_warp():
        recs = demo(wiener_hopf.Diffeomorphism.exp_stretch(), gaussian(), gaussian(), n_max=20)
        a = recs[0]["first_term_norm"]
        sups = [r["pullback_sup"] for r in recs]
        tail_ok = all(r["norm"] >= a / 2 for r in recs[2:])
        monotone = all(sups[i + 1] < sups[i] for i in range(1, len(sups) - 1))
        ok = tail_ok and monotone and sups[-1] < a / 10
        steep_warp.norm_rows = recs  # run_suite writes them next to the report
        return _record("steep_warp_breaks_the_algebra", STEEP_WARP, sups[-1], a / 10, passed=ok)

    @_check("translation_invariant_term_is_constant", STEEP_WARP, 1e-10)
    def no_second_term():
        recs = demo(wiener_hopf.Diffeomorphism.exp_stretch(), gaussian(), None, n_max=8)
        norms = np.array([r["norm"] for r in recs])
        yield float(np.max(norms) - np.min(norms))

    def identity_warp():
        warp = wiener_hopf.Diffeomorphism.identity()
        zero = float(np.max([r["norm"] for r in demo(warp, gaussian(), gaussian(), n_max=8)]))
        diff = demo(warp, gaussian(), gaussian(amplitude=0.5), n_max=8)
        norms = np.array([r["norm"] for r in diff])
        # equal data cancels exactly; unequal data shows no decay at all
        ok = zero < 1e-10 and float(np.min(norms)) > 0.1 and np.max(norms) - np.min(norms) < 1e-10
        return _record("identity_warp_reference_scenario", PLUMBING, zero, 1e-10, passed=ok)

    return [steep_warp, no_second_term, identity_warp]


SUITES = {
    "verify-coeff": suite_verify_coeff,
    "verify-flow": suite_verify_flow,
    "verify-groupoid": suite_verify_groupoid,
    "verify-jets": suite_verify_jets,
    "index": suite_index,
    "classify": suite_classify,
    "demo-nonpreservation": suite_demo_nonpreservation,
}


def run_suite(name, cfg, out_path=None):
    checks = SUITES[name](cfg)
    start = time.time()
    records = []
    for fn in checks:
        try:
            res = fn()
        except Exception as exc:  # one check's fault must not lose the report
            traceback.print_exc()
            res = {
                "name": fn.__name__,
                "anchor": "the check raised before reporting a measurement",
                "status": "error",
                "measured": None,
                "tolerance": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
        records.extend(res if isinstance(res, list) else [res])  # one record or several
    report = {
        "suite": name,
        "config": cfg,
        "checks": records,
        "wall_time_s": round(time.time() - start, 3),
        "all_passed": all(r["status"] == "pass" for r in records),
    }
    if out_path:
        _write_atomic(out_path, json.dumps(report, indent=2))
        for fn in checks:
            rows = getattr(fn, "norm_rows", None)
            if rows:
                _write_norm_csv(out_path, rows)
    return report


def _write_atomic(path, text):
    tmp = _temp_path(path)
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _temp_path(path):
    return f"{path}.tmp.{os.getpid()}"


def _probe_write(path):
    """Create and remove the temp file ``_write_atomic`` writes path through;
    OSError where that fails, or where path is a directory, which os.replace
    cannot overwrite with a file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = _temp_path(path)
    with open(tmp, "w"):
        pass
    os.remove(tmp)


def _norm_csv_path(report_path):
    return f"{os.path.splitext(report_path)[0]}_norms.csv"


def _write_norm_csv(report_path, rows):
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write_atomic(_norm_csv_path(report_path), text.getvalue())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="foliation-lab",
        description="run the verification suites and emit JSON reports",
    )
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--out", help="report path (default <suite>_report.json)")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override with dotted keys, e.g. grid.t_step=0.01",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.override)
    except FileNotFoundError:
        print(f"error: config file {args.config!r} not found", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config file {args.config!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    out_path = args.out or f"{args.suite.replace('-', '_')}_report.json"
    # the run writes its files only after every check; a path it cannot
    # write is refused before the first
    paths = [out_path]
    if args.suite == "demo-nonpreservation":
        paths.append(_norm_csv_path(out_path))
    for path in paths:
        try:
            _probe_write(path)
        except OSError as exc:
            print(f"error: cannot write report {path!r}: {exc.strerror}", file=sys.stderr)
            return 2
    report = run_suite(args.suite, cfg, out_path)
    for rec in report["checks"]:
        if rec["status"] == "error":
            print(f"[error] {rec['name']}: {rec['error']}")
        else:
            print(f"[{rec['status']}] {rec['name']}: measured={rec['measured']:.3g} tol={rec['tolerance']:.3g}")
    print(f"report written to {out_path}")
    statuses = {rec["status"] for rec in report["checks"]}
    return 1 if "fail" in statuses else 3 if "error" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
