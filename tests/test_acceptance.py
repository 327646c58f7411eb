"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
inline) and enforces the stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from conftest import make_kernel, mollifier
from foliation_lab.cli import _taylor_gap
from foliation_lab.coeff_ring import GridSpec, random_gauss_poly
from foliation_lab.flow import COMPLETE_RESCALED, FlowModel, check_cocycle_identity
from foliation_lab.groupoid_conv import adjoint, convolve
from foliation_lab.jet_algebra import (
    Jet,
    commutativity_report,
    commutativity_witness,
    commutator,
    x_mult_left,
    x_mult_right,
)
from foliation_lab.wiener_hopf import (
    Diffeomorphism,
    GaussianSpec,
    cayley_gram_matrix,
    flow_bi_index,
    fourier_transform_values,
    generator_hat_closed_form,
    generator_kernel,
    generator_symbol_loop,
    index_report,
    nonpreservation_demo,
    parity_invariant,
)


class Criterion:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget_s
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} ({elapsed:.2f}s < {self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"runtime {elapsed:.2f}s over budget {self.budget_s}s"
        return False


def _x_radius(k):
    return 0.95 if k == 1 else 0.65


def _random_kernel(model, rng, x_step=0.004, t_step=0.02):
    c = rng.uniform(-1.0, 1.0, 4)
    w1, w2 = rng.uniform(1.0, 3.0, 2)

    def fn(X, T):
        profile = c[0] + c[1] * X + c[2] * np.cos(w1 * T) + c[3] * X * X * np.sin(w2 * T)
        return mollifier(X, 0.3) * mollifier(T, 0.4) * profile

    return make_kernel(
        model, fn, x_radius=_x_radius(model.k), x_step=x_step, t_radius=0.5, t_step=t_step
    )


def test_criterion_1_cocycle_identity():
    with Criterion(1, "flow-power cocycle identity", 5.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for k in (1, 2, 3, 4):
            for n in range(7):
                for m in range(n, 7):
                    for t, s in rng.uniform(-1.0, 1.0, (100, 2)):
                        worst = max(worst, check_cocycle_identity(k, n, m, t, s))
        assert worst <= 1e-10, worst


def test_criterion_2_commutativity_dichotomy():
    with Criterion(2, "jet commutativity dichotomy", 10.0):
        for k in (1, 2, 3):
            rows = commutativity_report(k, max_order=k, trials=10, seed=202)
            for q, norm in rows:
                if q <= k - 1:
                    assert norm <= 1e-10, (k, q, norm)
            f, g = commutativity_witness(k)
            assert f.sup_norm() == pytest.approx(1.0)
            assert g.sup_norm() == pytest.approx(1.0)
            assert commutator(f, g).sup_norm() >= 1e-3, k


def test_criterion_3_defining_relations():
    with Criterion(3, "x-multiplication relations", 5.0):
        rng = np.random.default_rng(303)
        worst = 0.0
        for k in (1, 2, 3):
            for _ in range(20):
                b = random_gauss_poly(rng)
                f = Jet.from_coefficient(k, b, k)
                if k == 1:
                    # x f = Delta(f) x
                    lhs = x_mult_left(f)
                    rhs = x_mult_right(Jet.from_coefficient(1, b.mul_by_exp(1.0), 1))
                else:
                    # x f - f x = delta(f) x^k
                    lhs = x_mult_left(f) - x_mult_right(f)
                    rhs = Jet(k, [b.scale(0.0)] * k + [b.mul_by_t()])
                scale = max(rhs.sup_norm(), 1.0)
                worst = max(worst, (lhs - rhs).sup_norm() / scale)
        assert worst <= 1e-12, worst


def test_criterion_4_taylor_homomorphism():
    # kernels bump(x) sum x^n a_n(t) with exact jets: T(f*g) against the
    # exact twisted product T(f) T(g)
    with Criterion(4, "jet map transfers the product", 120.0):
        for k in (1, 2, 3):
            model = FlowModel(k)
            rng = np.random.default_rng(404 + k)
            errors = {}
            for t_step, x_step in ((0.02, 0.004), (0.01, 0.002)):
                xg = GridSpec.centered(_x_radius(k), x_step)
                tg = GridSpec.centered(0.5, t_step)
                pair_rng = np.random.default_rng(rng.integers(1 << 31))
                errors[t_step] = max(_taylor_gap(model, xg, tg, 3, pair_rng) for _ in range(5))
            assert errors[0.02] <= 1e-4, (k, errors)
            assert errors[0.01] <= max(errors[0.02] / 4.0, 1e-9), (k, errors)


def test_criterion_5_algebra_axioms():
    with Criterion(5, "convolution algebra axioms with convergence", 120.0):
        for k in (1, 2, 3):
            model = FlowModel(k)
            rng = np.random.default_rng(505 + k)
            errs_assoc = {}
            errs_adj = {}
            for t_step, x_step in ((0.02, 0.004), (0.01, 0.002)):
                pair_rng = np.random.default_rng(rng.integers(1 << 31))
                f = _random_kernel(model, pair_rng, x_step, t_step)
                g = _random_kernel(model, pair_rng, x_step, t_step)
                h = _random_kernel(model, pair_rng, x_step, t_step)
                lhs = convolve(convolve(f, g), h)
                rhs = convolve(f, convolve(g, h))
                errs_assoc[t_step] = float(np.max(np.abs(lhs.samples - rhs.samples))) / lhs.sup_norm()
                a1 = adjoint(convolve(f, g))
                a2 = convolve(adjoint(g), adjoint(f))
                errs_adj[t_step] = float(np.max(np.abs(a1.samples - a2.samples))) / a1.sup_norm()
            for errs in (errs_assoc, errs_adj):
                assert errs[0.02] <= 1e-6, (k, errs)
                assert errs[0.01] <= max(errs[0.02] / 4.0, 1e-10), (k, errs)


def test_criterion_6_index_generator():
    with Criterion(6, "index generator winds once", 5.0):
        loop = generator_symbol_loop()
        rep = index_report(loop)
        assert rep["winding"] == 1
        assert rep["residual"] <= 0.05
        assert rep["boundary_index"] == -1
        s = np.linspace(-4.0, 4.0, 81)
        err = np.max(
            np.abs(fourier_transform_values(*generator_kernel(), s) - generator_hat_closed_form(s))
        )
        assert err <= 1e-8, err


def test_criterion_7_parity_classification():
    with Criterion(7, "bi-index parity classification", 1.0):
        for k in range(1, 7):
            mono = flow_bi_index(FlowModel(k))
            assert abs(parity_invariant(mono)) == 2 * (k % 2), k
            resc = flow_bi_index(FlowModel(k, COMPLETE_RESCALED))
            assert resc == mono, k
            rev = flow_bi_index(FlowModel(k, time_reversed=True))
            assert (rev.left, rev.right) == (-mono.left, -mono.right), k


def test_criterion_8_nonpreservation():
    with Criterion(8, "steep warp escapes the operator algebra", 30.0):
        recs = nonpreservation_demo(
            Diffeomorphism.exp_stretch(), GaussianSpec(), GaussianSpec(), n_max=20
        )
        a = recs[0]["first_term_norm"]
        assert a > 0
        norms = [r["norm"] for r in recs]
        sups = [r["pullback_sup"] for r in recs]
        n0 = 2
        assert all(v >= a / 2 for v in norms[n0:]), norms
        assert all(sups[i + 1] < sups[i] for i in range(1, len(sups) - 1)), sups
        assert sups[-1] < a / 10, (sups[-1], a / 10)


def test_criterion_9_cayley_orthonormality():
    with Criterion(9, "loop-to-line basis images are orthonormal", 5.0):
        gram = cayley_gram_matrix(range(6))
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-6
