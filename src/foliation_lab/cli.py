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
import json
import math
import os
import sys
import time
import traceback
import zlib

import numpy as np

from . import flow, groupoid_conv, wiener_hopf
from .coeff_ring import GaussPolyFn, _bump, random_gauss_poly
from .flow import FlowModel, FlowTaylorTable
from .groupoid_conv import GridSpec, GroupoidKernel
from .jet_algebra import Jet, commutativity_report, jet_mul, x_mult_left, x_mult_right

DEFAULT_CONFIG = {
    "k_values": [1, 2, 3],
    "max_jet_order": 4,
    "grid": {"x_step": 0.004, "t_step": 0.02, "x_radius": 0.65, "t_radius": 0.5},
    "tolerances": {"quadrature": 1e-6, "winding_residual": 0.05},
    "trials": 10,
    "seed": 12345,
}


def load_config(path=None, overrides=()):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        _deep_update(cfg, user)
    for item in overrides:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    _validate_config(cfg)
    return cfg


def _deep_update(base, extra):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


def _validate_config(cfg):
    grid = cfg["grid"]
    if not isinstance(grid, dict):
        raise ValueError("grid must be an object")
    for key in ("x_step", "t_step", "x_radius", "t_radius"):
        if not _is_positive_real(grid.get(key)):
            raise ValueError(f"grid.{key} must be a finite positive number")
    tolerances = cfg["tolerances"]
    if not isinstance(tolerances, dict) or not all(map(_is_positive_real, tolerances.values())):
        raise ValueError("tolerances must map names to finite positive numbers")
    if not _is_int(cfg["trials"], 1):
        raise ValueError("trials must be a positive integer")
    k_values = cfg["k_values"]
    if not isinstance(k_values, list) or not all(_is_int(k, 1) for k in k_values):
        raise ValueError("k_values must be a list of positive integers")
    if not _is_int(cfg["max_jet_order"], 0):
        raise ValueError("max_jet_order must be a non-negative integer")
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


def _record(name, anchor, measured, tolerance, passed=None, mode="<="):
    if passed is None:
        passed = measured <= tolerance if mode == "<=" else measured >= tolerance
    return {
        "name": name,
        "anchor": anchor,
        "status": "pass" if passed else "fail",
        "measured": measured,
        "tolerance": tolerance,
    }


# ---------------------------------------------------------------------------
# kernel factory shared by the groupoid-flavored suites
# ---------------------------------------------------------------------------


def _identity(x):
    return x


def _x_radius(cfg, k):
    # the exponential flow (k = 1) stretches supports by e^|t|; widen its window
    base = cfg["grid"]["x_radius"]
    return base + 0.3 if k == 1 else base


def _grids(cfg, k):
    g = cfg["grid"]
    xg = GridSpec.centered(_x_radius(cfg, k), g["x_step"])
    tg = GridSpec.centered(g["t_radius"], g["t_step"])
    return xg, tg


def _random_kernel(model, xg, tg, rng):
    c = rng.uniform(-1.0, 1.0, 4)
    w1, w2 = rng.uniform(1.0, 3.0, 2)

    def fn(X, T):
        profile = c[0] + c[1] * X + c[2] * np.cos(w1 * T) + c[3] * X * X * np.sin(w2 * T)
        return _bump(X, 0.3) * _bump(T, 0.8 * tg.end) * profile

    return GroupoidKernel.from_function(model, xg, tg, fn)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_verify_coeff(cfg):
    trials = cfg["trials"]
    tol_exact = 1e-12

    def gaussian_self_convolution():
        f = GaussPolyFn.gaussian()
        h = f.convolve(f)
        t = np.linspace(-10, 10, 2001)
        err = float(np.max(np.abs(h(t) - np.sqrt(np.pi) * np.exp(-(t**2) / 4.0))))
        return _record(
            "gaussian_self_convolution_closed_form",
            "convolution product on the coefficient ring",
            err,
            tol_exact,
        )

    def commutativity():
        rng = _check_rng(cfg, "coeff_commutativity")
        worst = 0.0
        for _ in range(max(trials, 20)):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            d = f.convolve(g) - g.convolve(f)
            worst = max(worst, d.sup_norm())
        return _record(
            "convolution_commutativity",
            "convolution product on the coefficient ring",
            worst,
            tol_exact,
        )

    def associativity():
        rng = _check_rng(cfg, "coeff_associativity")
        worst = 0.0
        for _ in range(trials):
            f, g, h = (random_gauss_poly(rng) for _ in range(3))
            d = f.convolve(g).convolve(h) - f.convolve(g.convolve(h))
            scale = max(f.convolve(g).convolve(h).sup_norm(), 1e-12)
            worst = max(worst, d.sup_norm() / scale)
        return _record(
            "convolution_associativity",
            "convolution product on the coefficient ring",
            worst,
            tol_exact,
        )

    def grid_matches_exact():
        rng = _check_rng(cfg, "coeff_grid_vs_exact")
        worst = 0.0
        for _ in range(5):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            exact = f.convolve(g)
            fs = f.sample(-14.0, 0.01, 2801)
            gs = g.sample(-14.0, 0.01, 2801)
            hs = fs.convolve(gs)
            want = exact.sample(hs.t_start, hs.t_step, hs.count, support_tol=np.inf)
            worst = max(worst, float(np.max(np.abs(hs.samples - want.samples))))
        return _record(
            "sampled_ring_matches_exact_ring",
            "plumbing",
            worst,
            1e-6,
        )

    def derivation():
        rng = _check_rng(cfg, "coeff_derivation")
        worst = 0.0
        for _ in range(trials):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            lhs = f.convolve(g).mul_by_t()
            rhs = f.mul_by_t().convolve(g) + f.convolve(g.mul_by_t())
            worst = max(worst, (lhs - rhs).sup_norm())
        return _record(
            "time_multiplication_is_a_derivation",
            "derivation twist in the order-k commutation relation",
            worst,
            tol_exact,
        )

    def automorphism():
        rng = _check_rng(cfg, "coeff_automorphism")
        worst = 0.0
        for _ in range(trials):
            f = random_gauss_poly(rng)
            g = random_gauss_poly(rng)
            c = float(rng.uniform(-1.0, 1.0))
            lhs = f.convolve(g).mul_by_exp(c)
            rhs = f.mul_by_exp(c).convolve(g.mul_by_exp(c))
            worst = max(worst, (lhs - rhs).sup_norm() / max(lhs.sup_norm(), 1e-12))
        return _record(
            "exponential_multiplication_is_an_automorphism",
            "automorphism twist in the order-one commutation relation",
            worst,
            tol_exact,
        )

    return [gaussian_self_convolution, commutativity, associativity, grid_matches_exact, derivation, automorphism]


def suite_verify_flow(cfg):
    def group_law():
        rng = _check_rng(cfg, "flow_group_law")
        worst = 0.0
        for k in cfg["k_values"]:
            for variant in (flow.MONOMIAL, flow.COMPLETE_RESCALED):
                model = FlowModel(k, variant)
                done = 0
                while done < 25:
                    x = float(rng.uniform(-0.4, 0.4))
                    t = float(rng.uniform(-0.5, 0.5))
                    s = float(rng.uniform(-0.5, 0.5))
                    if not (
                        model.in_domain(s, x)
                        and model.in_domain(t + s, x)
                        and model.in_domain(t, flow.flow_eval(model, s, x))
                    ):
                        continue
                    lhs = flow.flow_eval(model, t + s, x)
                    rhs = flow.flow_eval(model, t, flow.flow_eval(model, s, x))
                    worst = max(worst, abs(lhs - rhs))
                    done += 1
        return _record("flow_group_law", "transformation groupoid structure", worst, 1e-8)

    def taylor_table_invariants():
        worst = 0.0
        for k in cfg["k_values"]:
            table = FlowTaylorTable(k, 8)
            for n in range(9):
                diag = table.coeff(n, n)
                if diag.kind == "poly":
                    worst = max(worst, abs(np.asarray(diag.poly)[0] - 1.0))
                for m in range(n + 1, min(n + max(k - 1, 1), 9)):
                    if m != n and m - n < k - 1:
                        worst = max(worst, float(np.max(np.abs(table.coeff(n, m).poly))))
            for m in range(1, 9):
                worst = max(worst, float(np.max(np.abs(table.coeff(0, m).poly))))
        return _record(
            "taylor_table_diagonal_band_row0",
            "Taylor expansion of powers of the flow",
            worst,
            0.0,
            passed=worst == 0.0,
        )

    def cocycle_identity():
        # (t, s) in the unit box: the identity is exact, so the residual is
        # pure rounding, which scales with the polynomial magnitudes
        rng = _check_rng(cfg, "flow_cocycle_identity")
        worst = 0.0
        for k in cfg["k_values"]:
            for n in range(0, 7):
                for m in range(n, 7):
                    ts = rng.uniform(-1.0, 1.0, (100, 2))
                    worst = max(worst, flow.check_cocycle_identity(k, n, m, ts[:, 0], ts[:, 1]))
        return _record(
            "flow_power_cocycle_identity",
            "cocycle identity for flow Taylor coefficients",
            worst,
            1e-10,
        )

    def composition_identity():
        worst = 0.0
        for k in cfg["k_values"]:
            for n, m in ((1, 1), (2, 5), (3, 6)):
                worst = max(
                    worst,
                    flow.check_composition_identity(k, n, m, trials=cfg["trials"], seed=cfg["seed"]),
                )
        return _record(
            "series_composition_identity",
            "coefficient extraction of composed series powers",
            worst,
            1e-12,
        )

    def delta_multiplicative():
        rng = _check_rng(cfg, "flow_delta_cocycle")
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            done = 0
            while done < 30:
                x = float(rng.uniform(-0.4, 0.4))
                t = float(rng.uniform(-0.5, 0.5))
                s = float(rng.uniform(-0.5, 0.5))
                if not (model.in_domain(s, x) and model.in_domain(t + s, x)):
                    continue
                y = flow.flow_eval(model, s, x)
                if not model.in_domain(t, y):
                    continue
                lhs = flow.cocycle_delta(model, x, t + s)
                rhs = flow.cocycle_delta(model, y, t) * flow.cocycle_delta(model, x, s)
                worst = max(worst, abs(lhs - rhs))
                done += 1
        return _record(
            "delta_cocycle_multiplicativity",
            "the flow-quotient one-cocycle",
            worst,
            1e-10,
        )

    def beta_multiplicative():
        rng = _check_rng(cfg, "flow_beta_cocycle")
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            done = 0
            while done < 30:
                x = float(rng.uniform(0.05, 0.4)) * (1 if rng.uniform() < 0.5 else -1)
                t = float(rng.uniform(-0.5, 0.5))
                s = float(rng.uniform(-0.5, 0.5))
                if not (model.in_domain(s, x) and model.in_domain(t + s, x)):
                    continue
                y = flow.flow_eval(model, s, x)
                if not model.in_domain(t, y) or y == 0.0:
                    continue
                lhs = flow.beta_cocycle(model, x, t + s)
                rhs = flow.beta_cocycle(model, y, t) * flow.beta_cocycle(model, x, s)
                worst = max(worst, abs(lhs - rhs))
                done += 1
        return _record(
            "beta_cocycle_multiplicativity",
            "square-root-derivative weight in the completed norm",
            worst,
            1e-10,
        )

    def variant_agreement():
        # near 0 the two variants differ at order x^(k+2); Richardson ratio
        worst_ratio_defect = 0.0
        for k in cfg["k_values"]:
            if k == 1:
                continue  # the rescaling factor is identically 1
            mono = FlowModel(k)
            resc = FlowModel(k, flow.COMPLETE_RESCALED)
            t = 0.8
            d1 = abs(flow.flow_eval(mono, t, 0.1) - flow.flow_eval(resc, t, 0.1))
            d2 = abs(flow.flow_eval(mono, t, 0.05) - flow.flow_eval(resc, t, 0.05))
            ratio = d1 / max(d2, 1e-300)
            worst_ratio_defect = max(worst_ratio_defect, 2 ** (k + 1) / ratio)
        return _record(
            "monomial_vs_rescaled_contact_order",
            "rescaled complete generator of the same foliation",
            worst_ratio_defect,
            1.0,
        )

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
    qtol = cfg["tolerances"]["quadrature"]

    def associativity():
        rng = _check_rng(cfg, "groupoid_associativity")
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            f = _random_kernel(model, xg, tg, rng)
            g = _random_kernel(model, xg, tg, rng)
            h = _random_kernel(model, xg, tg, rng)
            lhs = groupoid_conv.convolve(groupoid_conv.convolve(f, g), h)
            rhs = groupoid_conv.convolve(f, groupoid_conv.convolve(g, h))
            worst = max(worst, float(np.max(np.abs(lhs.samples - rhs.samples))) / lhs.sup_norm())
        return _record("convolution_associativity", "groupoid convolution product", worst, qtol)

    def adjoint_antimultiplicative():
        rng = _check_rng(cfg, "groupoid_antihom")
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            f = _random_kernel(model, xg, tg, rng)
            g = _random_kernel(model, xg, tg, rng)
            lhs = groupoid_conv.adjoint(groupoid_conv.convolve(f, g))
            rhs = groupoid_conv.convolve(groupoid_conv.adjoint(g), groupoid_conv.adjoint(f))
            worst = max(worst, float(np.max(np.abs(lhs.samples - rhs.samples))) / lhs.sup_norm())
        return _record("adjoint_antimultiplicativity", "kernel adjoint involution", worst, qtol)

    def adjoint_involution():
        rng = _check_rng(cfg, "groupoid_involution")
        model = FlowModel(3)
        xg = GridSpec.centered(0.42, 0.0006)
        tg = GridSpec.centered(cfg["grid"]["t_radius"], cfg["grid"]["t_step"])
        f = _random_kernel(model, xg, tg, rng)
        back = groupoid_conv.adjoint(groupoid_conv.adjoint(f))
        err = float(np.max(np.abs(back.samples - f.samples))) / f.sup_norm()
        return _record("adjoint_involution", "kernel adjoint involution", err, 1e-8)

    def module_associativity():
        rng = _check_rng(cfg, "groupoid_module")
        worst = 0.0
        a = _identity
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            f = _random_kernel(model, xg, tg, rng)
            g = _random_kernel(model, xg, tg, rng)
            lhs = groupoid_conv.module_mult_left(a, groupoid_conv.convolve(f, g))
            rhs = groupoid_conv.convolve(groupoid_conv.module_mult_left(a, f), g)
            worst = max(
                worst,
                float(np.max(np.abs(lhs.samples - rhs.samples))) / max(lhs.sup_norm(), 1e-12),
            )
            lhs2 = groupoid_conv.module_mult_right(groupoid_conv.convolve(f, g), a)
            rhs2 = groupoid_conv.convolve(f, groupoid_conv.module_mult_right(g, a))
            worst = max(
                worst,
                float(np.max(np.abs(lhs2.samples - rhs2.samples))) / max(lhs2.sup_norm(), 1e-12),
            )
        return _record("module_action_associativity", "base-function module actions", worst, qtol)

    def delta_relation():
        rng = _check_rng(cfg, "groupoid_delta_relation")
        worst = 0.0
        a = _identity
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            f = _random_kernel(model, xg, tg, rng)
            lhs = groupoid_conv.module_mult_left(a, f)
            rhs = groupoid_conv.module_mult_right(groupoid_conv.scale_by_delta(f), a)
            worst = max(worst, float(np.max(np.abs(lhs.samples - rhs.samples))))
        return _record(
            "coordinate_commutation_via_cocycle",
            "x f = (Delta f) x exchange relation",
            worst,
            1e-8,
        )

    def product_kernel_norm():
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            f = GroupoidKernel.separable(
                model, xg, tg, lambda x: _bump(x, 0.3) * (1 + 0.5 * x), lambda t: _bump(t, 0.8 * tg.end)
            )
            got = groupoid_conv.l1_groupoid_norm(f)
            a_sup = float(np.max(np.abs(_bump(xg.points, 0.3) * (1 + 0.5 * xg.points))))
            b_l1 = float(np.trapezoid(np.abs(_bump(tg.points, 0.8 * tg.end)), dx=tg.step))
            worst = max(worst, abs(got - a_sup * b_l1) / (a_sup * b_l1))
        return _record(
            "product_kernel_l1_norm",
            "kernel L1 norms defining the completions",
            worst,
            1e-6,
        )

    def submultiplicativity():
        rng = _check_rng(cfg, "groupoid_submult")
        margin = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            for _ in range(3):
                f = _random_kernel(model, xg, tg, rng)
                g = _random_kernel(model, xg, tg, rng)
                prod = groupoid_conv.l1_groupoid_norm(groupoid_conv.convolve(f, g))
                bound = groupoid_conv.l1_groupoid_norm(f) * groupoid_conv.l1_groupoid_norm(g)
                margin = max(margin, prod / bound - 1.0)
        return _record(
            "l1_norm_submultiplicative",
            "kernel L1 norms defining the completions",
            margin,
            1e-6,
        )

    def taylor_homomorphism():
        rng = _check_rng(cfg, "groupoid_taylor_hom")
        worst = 0.0
        for k in cfg["k_values"]:
            model = FlowModel(k)
            xg, tg = _grids(cfg, k)
            for _ in range(2):
                f = _random_kernel(model, xg, tg, rng)
                g = _random_kernel(model, xg, tg, rng)
                p = min(cfg["max_jet_order"], 3)
                lhs = groupoid_conv.taylor_map(groupoid_conv.convolve(f, g), p)
                rhs = jet_mul(groupoid_conv.taylor_map(f, p), groupoid_conv.taylor_map(g, p))
                for q in range(p + 1):
                    a, b = lhs.coeffs[q], rhs.coeffs[q]
                    scale = max(a.sup_norm(), b.sup_norm(), 1e-12)
                    worst = max(worst, float(np.max(np.abs(a.samples - b.samples))) / scale)
        return _record(
            "taylor_map_is_multiplicative",
            "transfer of the ring structure along the jet map",
            worst,
            1e-4,
        )

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
    def dichotomy():
        records = []
        for k in cfg["k_values"]:
            rows = commutativity_report(
                k, max_order=max(k, cfg["max_jet_order"]), trials=cfg["trials"], seed=cfg["seed"]
            )
            for q, norm in rows:
                if q <= k - 1:
                    rec = _record(
                        f"commutator_norm_k{k}_order{q}",
                        "commutativity dichotomy of the truncated quotients",
                        norm,
                        1e-10,
                    )
                else:
                    rec = _record(
                        f"commutator_norm_k{k}_order{q}",
                        "commutativity dichotomy of the truncated quotients",
                        norm,
                        1e-3,
                        mode=">=",
                    )
                records.append(rec)
        return records

    def relations():
        rng = _check_rng(cfg, "jet_relations")
        worst = 0.0
        for k in cfg["k_values"]:
            for _ in range(20):
                b = random_gauss_poly(rng)
                f = Jet.from_coefficient(k, b, k)
                lhs = x_mult_left(f)
                if k == 1:
                    rhs = x_mult_right(Jet(k, [b.mul_by_exp(1.0), GaussPolyFn.zero()]))
                    worst = max(worst, (lhs - rhs).sup_norm())
                else:
                    diff = lhs - x_mult_right(f)
                    expect = [GaussPolyFn.zero()] * k + [b.mul_by_t()]
                    worst = max(worst, (diff - Jet(k, expect)).sup_norm())
        return _record(
            "defining_relations_of_the_twist",
            "single commutation relation presenting the quotient",
            worst,
            1e-12,
        )

    def associativity():
        rng = _check_rng(cfg, "jet_associativity")
        worst = 0.0
        for k in cfg["k_values"]:
            for p in (2, min(4, cfg["max_jet_order"])):
                f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
                g = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
                h = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
                lhs = jet_mul(jet_mul(f, g), h)
                rhs = jet_mul(f, jet_mul(g, h))
                worst = max(worst, (lhs - rhs).sup_norm() / max(lhs.sup_norm(), 1e-12))
        return _record(
            "jet_product_associativity",
            "twisted series product formula",
            worst,
            1e-12,
        )

    def truncation_compatibility():
        rng = _check_rng(cfg, "jet_truncation")
        worst = 0.0
        for k in cfg["k_values"]:
            p = min(4, cfg["max_jet_order"])
            f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
            g = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
            full = jet_mul(f, g)
            for q in range(p):
                d = full.truncate(q) - jet_mul(f.truncate(q), g.truncate(q))
                worst = max(worst, d.sup_norm())
        return _record(
            "truncation_respects_product",
            "nested vanishing-order ideals",
            worst,
            1e-12,
        )

    def exponential_iteration():
        rng = _check_rng(cfg, "jet_exp_iteration")
        worst = 0.0
        p = 4
        for _ in range(5):
            b = random_gauss_poly(rng)
            f = Jet.from_coefficient(1, b, p)
            lhs = f
            for _ in range(3):
                lhs = x_mult_left(lhs)
            rhs = Jet(
                1, [GaussPolyFn.zero()] * 3 + [b.mul_by_exp(3.0)] + [GaussPolyFn.zero()] * (p - 3)
            )
            # the triple twist amplifies by e^(3t); compare relative to scale
            worst = max(worst, (lhs - rhs).sup_norm() / max(rhs.sup_norm(), 1.0))
        return _record(
            "iterated_exponential_twist",
            "iterated order-one relation matches diagonal Taylor data",
            worst,
            1e-12,
        )

    return [dichotomy, relations, associativity, truncation_compatibility, exponential_iteration]


def suite_index(cfg):
    wtol = cfg["tolerances"]["winding_residual"]

    def transform_quadrature():
        b = wiener_hopf.generator_kernel()
        s = np.linspace(-4.0, 4.0, 81)
        err = float(
            np.max(np.abs(wiener_hopf.fourier_transform_values(b, s) - wiener_hopf.generator_hat_closed_form(s)))
        )
        return _record(
            "generator_transform_quadrature",
            "closed form of the half-line generator transform",
            err,
            1e-8,
        )

    def generator_winding():
        loop = wiener_hopf.generator_symbol_loop()
        rep = wiener_hopf.index_report(loop)
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
        ok = True
        for n in range(-2, 3):
            loop = wiener_hopf.SymbolLoop.from_circle_function(lambda z, n=n: z**n)
            ok = ok and wiener_hopf.winding_number(loop) == n
        return _record(
            "circle_power_windings",
            "winding number realizes the boundary map",
            0.0 if ok else 1.0,
            0.5,
            passed=ok,
        )

    def winding_additivity():
        rng = _check_rng(cfg, "index_additivity")
        ok = True
        for _ in range(cfg["trials"]):
            m1, m2 = rng.integers(0, 4, 2)
            zeros1 = rng.uniform(-0.6, 0.6, m1) + 1j * rng.uniform(-0.6, 0.6, m1)
            zeros2 = rng.uniform(-0.6, 0.6, m2) + 1j * rng.uniform(-0.6, 0.6, m2)

            def blaschke(z, zeros):
                out = np.ones_like(z)
                for a in zeros:
                    out = out * (z - a) / (1.0 - np.conj(a) * z)
                return out

            l1 = wiener_hopf.SymbolLoop.from_circle_function(lambda z: blaschke(z, zeros1))
            l2 = wiener_hopf.SymbolLoop.from_circle_function(lambda z: blaschke(z, zeros2))
            w1 = wiener_hopf.winding_number(l1)
            w2 = wiener_hopf.winding_number(l2)
            w12 = wiener_hopf.winding_number(l1 * l2)
            ok = ok and (w1 == m1) and (w2 == m2) and (w12 == m1 + m2)
        return _record(
            "winding_additivity",
            "winding number realizes the boundary map",
            0.0 if ok else 1.0,
            0.5,
            passed=ok,
        )

    def section_diagnostics():
        shift = wiener_hopf.toeplitz_finite_section(
            wiener_hopf.SymbolLoop.from_circle_function(lambda z: z, label="shift"), 50
        )
        counts = wiener_hopf.finite_section_kernel_counts(shift, tol=1e-10)
        ok = counts == (1, 1)
        return _record(
            "finite_section_truncation_artifact",
            "plumbing",
            float(counts[0]),
            1.0,
            passed=ok,
        )

    return [transform_quadrature, generator_winding, power_windings, winding_additivity, section_diagnostics]


def suite_classify(cfg):
    def parity_table():
        ok = True
        for k in range(1, 7):
            for variant in (flow.MONOMIAL, flow.COMPLETE_RESCALED):
                model = FlowModel(k, variant)
                idx = wiener_hopf.flow_bi_index(model)
                ok = ok and abs(wiener_hopf.parity_invariant(idx)) == 2 * (k % 2)
            fwd = wiener_hopf.flow_bi_index(FlowModel(k))
            rev = wiener_hopf.flow_bi_index(FlowModel(k, time_reversed=True))
            ok = ok and (rev.left, rev.right) == (-fwd.left, -fwd.right)
            same_parity = abs(wiener_hopf.parity_invariant(fwd)) == abs(
                wiener_hopf.parity_invariant(rev)
            )
            ok = ok and same_parity
        record = _record(
            "parity_classification",
            "completed algebras are classified by the parity of k",
            0.0 if ok else 1.0,
            0.5,
            passed=ok,
        )
        record["data"] = [wiener_hopf.bi_index_report(FlowModel(k)) for k in range(1, 7)]
        return record

    def component_structure():
        ok = True
        for k in range(1, 7):
            idx = wiener_hopf.flow_bi_index(FlowModel(k))
            equal = idx.left == idx.right
            ok = ok and (equal == (k % 2 == 1))
        return _record(
            "bi_index_components_equal_iff_odd",
            "source/sink signature of the fixed point",
            0.0 if ok else 1.0,
            0.5,
            passed=ok,
        )

    return [parity_table, component_structure]


def suite_demo_nonpreservation(cfg):
    def steep_warp():
        u = wiener_hopf.Diffeomorphism.exp_stretch()
        recs = wiener_hopf.nonpreservation_demo(
            u, wiener_hopf.GaussianSpec(), wiener_hopf.GaussianSpec(), n_max=20
        )
        a = recs[0]["first_term_norm"]
        sups = [r["pullback_sup"] for r in recs]
        norms = [r["norm"] for r in recs]
        tail_ok = all(v >= a / 2 for v in norms[2:])
        monotone = all(sups[i + 1] < sups[i] for i in range(1, len(sups) - 1))
        final_ok = sups[-1] < a / 10
        return _record(
            "steep_warp_breaks_the_algebra",
            "half-line operator algebra is not preserved by steep warps",
            sups[-1],
            a / 10,
            passed=tail_ok and monotone and final_ok,
        ), recs

    def no_second_term():
        recs = wiener_hopf.nonpreservation_demo(
            wiener_hopf.Diffeomorphism.exp_stretch(), wiener_hopf.GaussianSpec(), None, n_max=8
        )
        norms = np.array([r["norm"] for r in recs])
        spread = float(np.max(norms) - np.min(norms))
        return _record(
            "translation_invariant_term_is_constant",
            "half-line operator algebra is not preserved by steep warps",
            spread,
            1e-10,
        )

    def identity_warp():
        recs_same = wiener_hopf.nonpreservation_demo(
            wiener_hopf.Diffeomorphism.identity(),
            wiener_hopf.GaussianSpec(),
            wiener_hopf.GaussianSpec(),
            n_max=8,
        )
        zero = float(np.max([r["norm"] for r in recs_same]))
        recs_diff = wiener_hopf.nonpreservation_demo(
            wiener_hopf.Diffeomorphism.identity(),
            wiener_hopf.GaussianSpec(),
            wiener_hopf.GaussianSpec(amplitude=0.5),
            n_max=8,
        )
        norms = np.array([r["norm"] for r in recs_diff])
        stays = float(np.min(norms))
        # equal data cancels exactly; unequal data shows no decay at all
        ok = zero < 1e-10 and stays > 0.1 and np.max(norms) - np.min(norms) < 1e-10
        return _record(
            "identity_warp_reference_scenario",
            "plumbing",
            zero,
            1e-10,
            passed=ok,
        )

    def wrapper():
        rec, recs = steep_warp()
        wrapper.norm_rows = recs
        return rec

    return [wrapper, no_second_term, identity_warp]


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
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_norm_csv(report_path, rows):
    base, _ = os.path.splitext(report_path)
    path = f"{base}_norms.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


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
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    out_path = args.out or f"{args.suite.replace('-', '_')}_report.json"
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
