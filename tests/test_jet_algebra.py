"""Twisted truncated series: products, x-multiplication, commutators.

Hand-derived cases fix the twist bookkeeping: for order k and the pair
f = b x, g = c (b, c Gaussian), the product f g has nonzero coefficients
b*c at degree 1 and b*(t c) at degree k, and the commutator [f, g] is the
single coefficient b*(t c) at degree k (k >= 2).
"""

import numpy as np
import pytest

from foliation_lab import cli
from foliation_lab.cli import DEFAULT_CONFIG
from foliation_lab.coeff_ring import GaussPolyFn, random_gauss_poly
from foliation_lab.flow import FlowModel, taylor_coeff
from foliation_lab.jet_algebra import (
    Jet,
    commutativity_report,
    commutativity_witness,
    commutator,
    jet_mul,
    x_mult_left,
    x_mult_right,
)


def gaussian_pair():
    b = GaussPolyFn.gaussian()
    c = GaussPolyFn.gaussian()
    z = GaussPolyFn.zero()
    return b, c, z


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def test_low_order_product_is_cauchy(rng):
    # below the flow order the product is plain multiplication + truncation
    k, p = 3, 2
    f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
    g = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
    h = jet_mul(f, g)
    for q in range(p + 1):
        want = GaussPolyFn.zero()
        for n in range(q + 1):
            want = want + f.coeffs[n].convolve(g.coeffs[q - n])
        assert (h.coeffs[q] - want).sup_norm() <= 1e-12


def test_first_twist_term_by_hand():
    b, c, z = gaussian_pair()
    for k in (2, 3):
        f = Jet(k, [z, b] + [z] * (k - 1))
        g = Jet(k, [c] + [z] * k)
        h = jet_mul(f, g)
        # degree 1: b*c; degree k: b*(t c); everything else zero
        assert not h.coeffs[0].atoms
        assert (h.coeffs[1] - b.convolve(c)).sup_norm() <= 1e-13
        for q in range(2, k):
            assert not h.coeffs[q].atoms
        want_k = b.convolve(c.mul_by_t())
        assert (h.coeffs[k] - want_k).sup_norm() <= 1e-13


def test_zero_jet_annihilates(rng):
    k, p = 2, 3
    f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
    z = Jet(k, [GaussPolyFn.zero()] * (p + 1))
    assert jet_mul(f, z).sup_norm() == 0.0
    assert jet_mul(z, f).sup_norm() == 0.0


def test_jet_mul_rejects_mismatch(rng):
    f = Jet(2, [random_gauss_poly(rng) for _ in range(3)])
    g = Jet(3, [random_gauss_poly(rng) for _ in range(3)])
    with pytest.raises(ValueError):
        jet_mul(f, g)
    h = Jet(2, [random_gauss_poly(rng) for _ in range(2)])
    with pytest.raises(ValueError):
        jet_mul(f, h)


def test_associativity_exact(rng):
    for k in (1, 2, 3):
        for p in (2, 4):
            f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
            g = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
            h = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
            lhs = jet_mul(jet_mul(f, g), h)
            rhs = jet_mul(f, jet_mul(g, h))
            assert (lhs - rhs).sup_norm() <= 1e-12 * max(lhs.sup_norm(), 1.0)


def test_truncation_compatibility(rng):
    k, p = 2, 4
    f = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
    g = Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)])
    full = jet_mul(f, g)
    for q in range(p):
        d = full.truncate(q) - jet_mul(f.truncate(q), g.truncate(q))
        assert d.sup_norm() <= 1e-12


# ---------------------------------------------------------------------------
# x-multiplication and the defining relations
# ---------------------------------------------------------------------------


def test_x_mult_right_shifts():
    b, c, z = gaussian_pair()
    f = Jet(2, [b, c, z])
    shifted = x_mult_right(f)
    assert not shifted.coeffs[0].atoms
    assert (shifted.coeffs[1] - b).sup_norm() == 0.0
    assert (shifted.coeffs[2] - c).sup_norm() == 0.0


def test_order_k_relation():
    # x f - f x = delta(f) x^k with delta multiplication by t
    b, _, z = gaussian_pair()
    f = Jet(2, [b, z, z])
    diff = x_mult_left(f) - x_mult_right(f)
    assert not diff.coeffs[0].atoms
    assert not diff.coeffs[1].atoms
    assert (diff.coeffs[2] - b.mul_by_t()).sup_norm() <= 1e-14


def test_order_one_relation():
    # x f = Delta(f) x with Delta the e^t twist
    b, _, z = gaussian_pair()
    f = Jet(1, [b, z])
    left = x_mult_left(f)
    assert not left.coeffs[0].atoms
    assert (left.coeffs[1] - b.mul_by_exp(1.0)).sup_norm() <= 1e-13


def test_x_mult_zero_and_order_errors():
    z = GaussPolyFn.zero()
    f = Jet(2, [z, z, z])
    assert x_mult_left(f).sup_norm() == 0.0
    with pytest.raises(ValueError):
        x_mult_left(Jet(2, [z]))
    with pytest.raises(ValueError):
        x_mult_right(Jet(2, [z]))


def test_exponential_twist_iterates(rng):
    # x^n f = Delta^n(f) x^n in the order-one algebra
    b = random_gauss_poly(rng)
    p = 3
    f = Jet.from_coefficient(1, b, p)
    lhs = f
    for _ in range(2):
        lhs = x_mult_left(lhs)
    rhs = Jet(1, [GaussPolyFn.zero()] * 2 + [b.mul_by_exp(2.0), GaussPolyFn.zero()])
    assert (lhs - rhs).sup_norm() <= 1e-12 * max(rhs.sup_norm(), 1.0)


# ---------------------------------------------------------------------------
# commutators and the dichotomy
# ---------------------------------------------------------------------------


def test_commutator_vanishes_below_flow_order(rng):
    for k in (1, 2, 3):
        for q in range(k):
            f = Jet(k, [random_gauss_poly(rng) for _ in range(q + 1)])
            g = Jet(k, [random_gauss_poly(rng) for _ in range(q + 1)])
            assert commutator(f, g).sup_norm() <= 1e-10


@pytest.mark.parametrize("real", [True, False])
def test_commutator_below_flow_order_is_exactly_zero(rng, real):
    # a*b and b*a agree bit for bit, so the commutator cancels atom by atom
    for k in (1, 2, 3):
        for q in range(k):
            f, g = (
                Jet(k, [random_gauss_poly(rng, n_atoms=2, max_degree=3, real=real) for _ in range(q + 1)])
                for _ in range(2)
            )
            assert all(not c.atoms for c in commutator(f, g).coeffs)


def test_commutator_witness_value():
    b, c, z = gaussian_pair()
    f = Jet(2, [z, b, z])
    g = Jet(2, [c, z, z])
    comm = commutator(f, g)
    assert not comm.coeffs[0].atoms
    assert comm.coeffs[1].sup_norm() <= 1e-13
    want = b.convolve(c.mul_by_t())
    assert (comm.coeffs[2] - want).sup_norm() <= 1e-13
    # closed form of the witness coefficient: (sqrt(pi)/2) t exp(-t^2/4)
    ts = np.linspace(-6, 6, 241)
    np.testing.assert_allclose(
        want(ts), (np.sqrt(np.pi) / 2.0) * ts * np.exp(-(ts**2) / 4.0), atol=1e-12
    )
    peak = (np.sqrt(np.pi) / 2.0) * np.sqrt(2.0) * np.exp(-0.5)
    assert want.sup_norm() == pytest.approx(peak, rel=1e-6)


def test_commutator_of_equal_jets_vanishes(rng):
    f = Jet(2, [random_gauss_poly(rng) for _ in range(3)])
    assert commutator(f, f).sup_norm() == 0.0


def test_commutativity_report_dichotomy():
    for k in (1, 2, 3):
        rows = commutativity_report(k, max_order=k + 1, trials=5, seed=3)
        for q, norm in rows:
            if q <= k - 1:
                assert norm <= 1e-10, (k, q, norm)
            else:
                assert norm >= 1e-3, (k, q, norm)


def test_witness_is_unit_norm():
    for k in (1, 2, 3):
        f, g = commutativity_witness(k)
        assert f.sup_norm() == pytest.approx(1.0)
        assert g.sup_norm() == pytest.approx(1.0)
        assert commutator(f, g).sup_norm() >= 1e-3


def test_order_convention_bridge():
    # "quotient by x^p" statements translate to jets of truncation order p-1:
    # for k = 2, order 1 (quotient by x^2) commutes, order 2 does not
    b, c, z = gaussian_pair()
    f1, g1 = Jet(2, [z, b]), Jet(2, [c, z])
    assert commutator(f1, g1).sup_norm() <= 1e-12
    f2, g2 = Jet(2, [z, b, z]), Jet(2, [c, z, z])
    assert commutator(f2, g2).sup_norm() >= 1e-3



# ---------------------------------------------------------------------------
# the shared twist against the former triple loops
# ---------------------------------------------------------------------------


def _loop_apply(k, c, h):
    # the former FlowCoeff.apply: a k = 1 entry was e^(rate t), applied even
    # at rate 0, and a unit polynomial returned h itself
    if k == 1:
        return h.mul_by_exp(c.rate)
    return h if c.poly == (1.0,) else h.mul_by_poly(c.poly)


def _loop_jet_mul(f, g):
    out = []
    for q in range(f.p + 1):
        acc = None
        for n in range(q + 1):
            for m in range(n, q + 1):
                c = taylor_coeff(f.k, n, m)
                if c.is_zero():
                    continue
                term = f.coeffs[n].convolve(_loop_apply(f.k, c, g.coeffs[q - m]))
                acc = term if acc is None else acc.add(term)
        out.append(acc)
    return Jet(f.k, out)


def _loop_x_mult_left(f):
    out = [GaussPolyFn.zero()]
    for q in range(1, f.p + 1):
        acc = None
        for m in range(1, q + 1):
            c = taylor_coeff(f.k, 1, m)
            if c.is_zero():
                continue
            term = _loop_apply(f.k, c, f.coeffs[q - m])
            acc = term if acc is None else acc.add(term)
        out.append(GaussPolyFn.zero() if acc is None else acc)
    return Jet(f.k, out)


def _hex_atoms(jet):
    return [
        [(tuple(map(float.hex, a.poly)), float.hex(a.mean), float.hex(a.variance)) for a in c.atoms]
        for c in jet.coeffs
    ]


@pytest.mark.parametrize("k", range(1, 7))
def test_shared_twist_matches_the_triple_loops_bit_for_bit(k):
    # random jets, a product of them, and kernel jets whose coefficients share
    # atom keys: jet_mul and x_mult_left must give the loops' atoms exactly
    rng = np.random.default_rng(100 + k)
    xg, tg = cli._grids(DEFAULT_CONFIG, k)
    for p in (2, 4, 6):
        f, g = (Jet(k, [random_gauss_poly(rng) for _ in range(p + 1)]) for _ in range(2))
        fg = jet_mul(f, g)
        jf, jg = (cli._jet_kernel(FlowModel(k), xg, tg, p, rng)[1] for _ in range(2))
        for a, b in ((f, g), (fg, f), (jf, jg), (jf, f)):
            assert _hex_atoms(jet_mul(a, b)) == _hex_atoms(_loop_jet_mul(a, b)), (p, a, b)
        for a in (f, fg, jf):
            assert _hex_atoms(x_mult_left(a)) == _hex_atoms(_loop_x_mult_left(a)), (p, a)
