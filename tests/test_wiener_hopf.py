"""Fourier/Cayley unitaries, Toeplitz sections, winding index, flow bi-index,
and the warp non-preservation demonstration."""

import numpy as np
import pytest

from foliation_lab.coeff_ring import GridSpec, _bump
from foliation_lab.flow import COMPLETE_RESCALED, MONOMIAL, FlowModel
from foliation_lab.wiener_hopf import (
    Diffeomorphism,
    FlowBiIndex,
    GaussianSpec,
    NonFredholmError,
    SymbolLoop,
    UnderResolvedLoopError,
    bi_index_report,
    cayley_basis_image,
    cayley_gram_matrix,
    finite_section_kernel_counts,
    flow_bi_index,
    fourier_transform_values,
    generator_hat_closed_form,
    generator_kernel,
    generator_symbol_loop,
    index_report,
    nonpreservation_demo,
    parity_invariant,
    toeplitz_finite_section,
    winding_diagnostics,
    winding_number,
)

# ---------------------------------------------------------------------------
# Fourier transform on the line
# ---------------------------------------------------------------------------


def test_generator_transform_against_closed_form():
    s = np.linspace(-4.0, 4.0, 81)
    got = fourier_transform_values(*generator_kernel(), s)
    np.testing.assert_allclose(got, generator_hat_closed_form(s), atol=1e-8)


def test_transform_of_even_real_function_is_real():
    grid = GridSpec(-10.0, 0.01, 2001)
    s = np.linspace(-2.0, 2.0, 41)
    vals = fourier_transform_values(grid, np.exp(-(grid.points**2)), s)
    assert np.max(np.abs(vals.imag)) <= 1e-12
    # and matches the Gaussian closed form
    np.testing.assert_allclose(
        vals.real, np.sqrt(np.pi) * np.exp(-(np.pi * s) ** 2), atol=1e-10
    )


def test_transform_of_zero():
    vals = fourier_transform_values(GridSpec(-1.0, 0.1, 21), np.zeros(21), np.linspace(-1, 1, 11))
    assert np.max(np.abs(vals)) == 0.0


def _direct_transform(grid, y, s, corrected):
    """Oracle: the dense trapezoid sum, one exponential per (s, t_j) pair,
    plus, when ``corrected``, the h^2/12 endpoint correction from one-sided
    differences."""
    start, h, _ = grid
    t = start + h * np.arange(y.size)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    w = np.ones(y.size)
    w[0] = w[-1] = 0.5
    vals = np.exp(-2j * np.pi * s[:, None] * t[None, :]) @ (w * y) * h
    if corrected:
        d0 = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        d1 = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
        gp0 = (d0 - 2j * np.pi * s * y[0]) * np.exp(-2j * np.pi * s * t[0])
        gp1 = (d1 - 2j * np.pi * s * y[-1]) * np.exp(-2j * np.pi * s * t[-1])
        vals = vals - (h * h / 12.0) * (gp1 - gp0)
    return vals


def _bumpy(start, step, count):
    grid = GridSpec(start, step, count)
    t = grid.points
    return grid, np.exp(-((t - 0.4) ** 2)) * (np.cos(3.0 * t) + 0.5j * np.sin(t))


@pytest.mark.parametrize(
    "f, s, corrected",
    [
        # the index suite's kernel and points
        (generator_kernel(), np.linspace(-4.0, 4.0, 81), True),
        # a prime sample count, so the last block of the split is partial
        (_bumpy(-10.0, 0.01, 2003), np.linspace(-3.0, 3.0, 37), True),
        # a negative start that is not a multiple of the step
        (_bumpy(-7.3, 0.013, 1201), np.linspace(-5.0, 2.0, 29), True),
        (_bumpy(-10.0, 0.01, 2003), 0.37, True),
        (_bumpy(-10.0, 0.01, 2003), np.array([]), True),
        # n = 3, the smallest grid with the endpoint correction
        ((GridSpec(-0.5, 0.5, 3), np.array([1.0, 2.0 - 1.0j, 0.5])), np.linspace(-2.0, 2.0, 9), True),
        (generator_kernel(t_radius=20.0, t_step=0.01), np.linspace(-4.0, 4.0, 81), True),
        # two samples have no one-sided second-order differences: no correction
        ((GridSpec(-0.5, 0.5, 2), np.array([1.0, 2.0 - 1.0j])), np.linspace(-2.0, 2.0, 9), False),
    ],
)
def test_factored_quadrature_matches_direct_sum(f, s, corrected):
    grid, y = f  # a sampled function, as (grid, samples)
    got = fourier_transform_values(grid, y, s)
    want = _direct_transform(grid, y, s, corrected)
    assert got.shape == want.shape == np.atleast_1d(s).shape
    w = np.ones(y.size)
    w[0] = w[-1] = 0.5
    scale = float(np.sum(np.abs(w * y))) * grid.step
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


# ---------------------------------------------------------------------------
# Cayley images
# ---------------------------------------------------------------------------


def test_cayley_image_zero_mode_normalized():
    e0 = cayley_basis_image(0)
    t = np.linspace(-1000.0, 1000.0, 200001)
    norm2 = np.trapezoid(np.abs(e0(t)) ** 2, t) + 2.0 * np.arctan(1.0 / 1000.0) / np.pi
    assert norm2 == pytest.approx(1.0, abs=1e-9)


def test_cayley_images_orthonormal():
    gram = cayley_gram_matrix(range(6))
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-8


def test_cayley_hardy_vs_antihardy():
    gram = cayley_gram_matrix([0, 2, -1, -3])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8


# ---------------------------------------------------------------------------
# Toeplitz finite sections
# ---------------------------------------------------------------------------


def test_section_of_constant_symbol():
    sec = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: np.ones_like(z)), 5)
    assert isinstance(sec, np.ndarray)
    np.testing.assert_allclose(sec, np.eye(5), atol=1e-13)


def test_section_of_shift_symbol():
    sec = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: z), 5)
    np.testing.assert_allclose(sec, np.eye(5, k=-1), atol=1e-13)


def test_section_of_generator_symbol_is_banded():
    sec = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: 1.0 - z), 6)
    want = np.eye(6) - np.eye(6, k=-1)
    np.testing.assert_allclose(sec, want, atol=1e-13)


def test_section_validation():
    circle = SymbolLoop.from_circle_function(lambda z: z)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            toeplitz_finite_section(circle, n)
    line = generator_symbol_loop(512)
    with pytest.raises(ValueError):
        toeplitz_finite_section(line, 4)


def test_kernel_counts_examples():
    ident = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: np.ones_like(z)), 10)
    assert finite_section_kernel_counts(ident) == (0, 0)
    shift = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: z), 50)
    assert finite_section_kernel_counts(shift) == (1, 1)
    nice = toeplitz_finite_section(SymbolLoop.from_circle_function(lambda z: 2.0 + z), 50)
    assert finite_section_kernel_counts(nice) == (0, 0)


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------


def test_generator_loop_winds_once():
    loop = generator_symbol_loop()
    assert winding_number(loop) == 1
    rep = index_report(loop)
    assert rep["winding"] == 1
    assert rep["boundary_index"] == -1
    assert rep["residual"] <= 0.05
    assert rep["fredholm_min_modulus"] == pytest.approx(1.0, abs=1e-9)


def test_generator_loop_from_quadrature_values():
    # same result when the loop values come from the sampled transform
    grid, b = generator_kernel(t_radius=50.0, t_step=2e-3)
    s = SymbolLoop.tangent_grid(1024)
    vals = 1.0 - fourier_transform_values(grid, b, -s)
    loop = SymbolLoop(np.concatenate([[1.0], vals, [1.0]]), kind="line")
    assert winding_number(loop) == 1


def test_constant_loop_and_powers():
    const = SymbolLoop.from_circle_function(lambda z: np.full_like(z, 2.0 + 1.0j))
    assert winding_number(const) == 0
    for n in range(-2, 3):
        loop = SymbolLoop.from_circle_function(lambda z, n=n: z**n)
        assert winding_number(loop) == n


def test_winding_additivity(rng):
    def blaschke(z, zeros):
        out = np.ones_like(z)
        for a in zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    for _ in range(10):
        n1, n2 = rng.integers(0, 4, 2)
        z1 = rng.uniform(-0.5, 0.5, n1) + 1j * rng.uniform(-0.5, 0.5, n1)
        z2 = rng.uniform(-0.5, 0.5, n2) + 1j * rng.uniform(-0.5, 0.5, n2)
        l1 = SymbolLoop.from_circle_function(lambda z: blaschke(z, z1))
        l2 = SymbolLoop.from_circle_function(lambda z: blaschke(z, z2))
        assert winding_number(l1 * l2) == winding_number(l1) + winding_number(l2) == n1 + n2


def test_winding_errors():
    vanishing = SymbolLoop.from_circle_function(lambda z: z - 1.0)
    with pytest.raises(NonFredholmError):
        winding_number(vanishing)
    # z^31 at 64 samples turns almost pi per step: aliasing territory
    coarse = SymbolLoop.from_circle_function(lambda z: z**31, n=64)
    with pytest.raises(UnderResolvedLoopError):
        winding_number(coarse)


def test_line_loop_closure_check():
    with pytest.raises(ValueError):
        SymbolLoop.from_line_function(lambda s: np.arctan(s), n=256)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_loop_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        SymbolLoop([1.0, bad, 1.0j, -1.0])
    with pytest.raises(ValueError, match="finite"):
        SymbolLoop.from_circle_function(lambda z: np.where(z.imag > 0.5, bad, z), n=64)


def test_loop_arithmetic_guards():
    circle = SymbolLoop.from_circle_function(lambda z: z, n=256)
    line = generator_symbol_loop(254)  # 254 samples + 2 limit values
    with pytest.raises(ValueError):
        circle * line
    with pytest.raises(ValueError):
        circle * SymbolLoop.from_circle_function(lambda z: z, n=128)


def test_winding_diagnostics_fields():
    raw, residual, minmod, max_step = winding_diagnostics(generator_symbol_loop())
    assert raw == pytest.approx(1.0, abs=1e-9)
    assert residual <= 1e-9
    assert minmod > 0.99
    assert max_step < 0.1


# ---------------------------------------------------------------------------
# flow bi-index and parity
# ---------------------------------------------------------------------------


def test_bi_index_odd_and_even():
    for k in (1, 3, 5):
        idx = flow_bi_index(FlowModel(k))
        assert (idx.left, idx.right) == (1, 1)
    for k in (2, 4, 6):
        idx = flow_bi_index(FlowModel(k))
        assert (idx.left, idx.right) == (-1, 1)


def test_bi_index_time_reversal_negates():
    for k in (1, 2, 3):
        fwd = flow_bi_index(FlowModel(k))
        rev = flow_bi_index(FlowModel(k, time_reversed=True))
        assert (rev.left, rev.right) == (-fwd.left, -fwd.right)


def test_bi_index_variant_invariance():
    for k in range(1, 7):
        a = flow_bi_index(FlowModel(k, MONOMIAL))
        b = flow_bi_index(FlowModel(k, COMPLETE_RESCALED))
        assert a == b


def test_parity_invariant_values():
    assert parity_invariant(FlowBiIndex(1, 1)) == 2
    assert parity_invariant(FlowBiIndex(-1, 1)) == 0
    assert parity_invariant(FlowBiIndex(-1, -1)) == -2
    for k in range(1, 7):
        assert abs(parity_invariant(flow_bi_index(FlowModel(k)))) == 2 * (k % 2)


def test_bi_index_validation_and_report():
    rep = bi_index_report(FlowModel(4))
    assert rep == {"k": 4, "variant": MONOMIAL, "epsilon": [-1, 1], "parity_invariant": 0}


def test_bi_index_unresolved_orbit_reads_zero():
    # the orbit of 0.1 moves by about 0.1^(k+1) in time 0.1, under half an
    # ulp of 0.1 from k = 17: no half-line is misread as a sink
    assert flow_bi_index(FlowModel(15)) == (1, 1)
    assert flow_bi_index(FlowModel(17)) == (0, 0)


# ---------------------------------------------------------------------------
# non-preservation demo
# ---------------------------------------------------------------------------


def test_demo_zero_second_term_gives_constant_norms():
    recs = nonpreservation_demo(
        Diffeomorphism.exp_stretch(), GaussianSpec(), None, n_max=6
    )
    norms = [r["norm"] for r in recs]
    assert max(norms) - min(norms) <= 1e-12
    assert norms[0] == pytest.approx(recs[0]["first_term_norm"])
    assert all(r["pullback_sup"] == 0.0 for r in recs)


def test_demo_steep_warp():
    recs = nonpreservation_demo(
        Diffeomorphism.exp_stretch(), GaussianSpec(), GaussianSpec(), n_max=20
    )
    a = recs[0]["first_term_norm"]
    assert a > 0.5
    norms = [r["norm"] for r in recs]
    sups = [r["pullback_sup"] for r in recs]
    assert all(v >= a / 2 for v in norms[2:])
    assert all(sups[i + 1] < sups[i] for i in range(1, len(sups) - 1))
    assert sups[-1] < a / 10


def test_demo_identity_scenarios():
    ident = Diffeomorphism.identity()
    same = nonpreservation_demo(ident, GaussianSpec(), GaussianSpec(), n_max=6)
    assert max(r["norm"] for r in same) <= 1e-12
    diff = nonpreservation_demo(ident, GaussianSpec(), GaussianSpec(amplitude=0.5), n_max=6)
    norms = [r["norm"] for r in diff]
    # with no warp the sequence has no reason to decay: it is exactly constant
    assert min(norms) > 0.1
    assert max(norms) - min(norms) <= 1e-12


def test_demo_identity_warp_at_default_n_max():
    # the grid runs to 3 n_max + 20 = 80, past the warp table's [-60, 60]
    ident = Diffeomorphism.identity()
    same = nonpreservation_demo(ident, GaussianSpec(), GaussianSpec(), n_max=20)
    assert all(r["norm"] == 0.0 for r in same)
    diff = nonpreservation_demo(ident, GaussianSpec(), GaussianSpec(amplitude=0.5), n_max=20)
    norms = [r["norm"] for r in diff]
    assert min(norms) > 0.1
    assert max(norms) - min(norms) <= 1e-12


def _demo_oracle(u, f1, f2, n_max):
    """The demo the direct way: full-length FFT convolutions (scipy's
    mode="same") and np.interp at every grid point."""
    from scipy.signal import fftconvolve  # the oracle; the package does not load scipy.signal

    x = np.arange(-20.0, 3.0 * n_max + 20.0, 0.005)
    dx = x[1] - x[0]
    proj = x >= 0.0
    xi0 = _bump(x - 1.0, 1.0)
    xi0 = xi0 / np.sqrt(np.trapezoid(xi0**2, dx=dx))
    lags = np.arange(-len(x) // 2, len(x) // 2 + 1) * dx

    def conv(spec, vec):
        if spec is None:
            return np.zeros_like(vec)
        return fftconvolve(vec, spec.transform_values(lags), mode="same") * dx

    xinv = u.inverse(x)
    records = []
    for n in range(n_max + 1):
        shift = int(round(3.0 * n / dx))
        xi_n = np.zeros_like(xi0)
        xi_n[shift:] = xi0[: xi0.size - shift]
        t1 = conv(f1, xi_n * proj)
        u_xi = np.sqrt(u.du(x)) * np.interp(u.u(x), x, xi_n, left=0.0, right=0.0)
        t2u = conv(f2, u_xi * proj)
        pullback = np.interp(xinv, x, t2u, left=0.0, right=0.0) / np.sqrt(u.du(xinv))
        records.append(
            {
                "n": n,
                "norm": np.sqrt(np.trapezoid((t1 - pullback) ** 2, dx=dx)),
                "first_term_norm": np.sqrt(np.trapezoid(t1**2, dx=dx)),
                "pullback_l2": np.sqrt(np.trapezoid(pullback**2, dx=dx)),
                "pullback_sup": np.max(np.abs(pullback)),
            }
        )
    return records


@pytest.mark.parametrize(
    "warp, f1, f2, n_max",
    [
        # the four scenarios of demo-nonpreservation
        ("exp_stretch", GaussianSpec(), GaussianSpec(), 20),
        ("exp_stretch", GaussianSpec(), None, 8),
        ("identity", GaussianSpec(), GaussianSpec(), 8),
        ("identity", GaussianSpec(), GaussianSpec(amplitude=0.5), 8),
        # a transform that never underflows on the grid: no sample is cut
        ("exp_stretch", GaussianSpec(sigma=0.05), GaussianSpec(sigma=0.05), 4),
    ],
)
def test_demo_matches_full_length_oracle(warp, f1, f2, n_max):
    u = getattr(Diffeomorphism, warp)()
    recs = nonpreservation_demo(u, f1, f2, n_max=n_max)
    oracle = _demo_oracle(u, f1, f2, n_max)
    assert [r["n"] for r in recs] == [r["n"] for r in oracle]
    for rec, ref in zip(recs, oracle):
        for field in ("norm", "first_term_norm", "pullback_l2", "pullback_sup"):
            assert abs(rec[field] - ref[field]) <= max(1e-13 * abs(ref[field]), 1e-15), (rec, ref)


def test_diffeomorphism_inverse_accuracy():
    u = Diffeomorphism.exp_stretch()
    xs = np.linspace(-5.0, 4.0, 101)
    ys = u.u(xs)
    np.testing.assert_allclose(u.inverse(ys), xs, atol=1e-10)


def test_diffeomorphism_inverse_beyond_table():
    # beyond the table the seed follows the end tangent, exact for the identity
    u = Diffeomorphism.exp_stretch()
    far = np.array([-100.0, 75.0, 1e6])
    np.testing.assert_array_equal(Diffeomorphism.identity().inverse(far), far)
    assert u.inverse(u.u(-70.0)) == pytest.approx(-70.0, rel=1e-12)
    # the convex warp outruns its tangent: from the tangent seed near 8,800,
    # four Newton steps alone could not reach the root near 69.08
    y = 1e30
    x = u.inverse(y)
    assert abs(u.u(x) - y) <= 1e-9 * (1.0 + abs(y))
    assert x == pytest.approx(np.log(y), abs=1e-9)
    assert u.inverse(u.u(65.0)) == pytest.approx(65.0, rel=1e-12)


def test_exp_stretch_slope_is_one_beyond_its_exponent_clamp():
    # u clamps its exponent at 700, so beyond it u's slope is 1; a du that
    # kept 1 + e^700 there stalled Newton above u(700) ~ 1.01e304
    u = Diffeomorphism.exp_stretch()
    assert u.du(701.0) == 1.0
    assert u.du(699.0) == 1.0 + np.exp(699.0)
    assert u.inverse(1e304) < 700.0
    assert u.inverse(2e304) == pytest.approx(2e304 - np.exp(700.0), rel=1e-12)


@pytest.mark.parametrize("y", [1e30, 1e304, 2e304, 1.7e308])
def test_exp_stretch_inverts_beyond_its_exponent_clamp(y):
    u = Diffeomorphism.exp_stretch()
    x = u.inverse(y)
    assert abs(u.u(x) - y) <= 1e-9 * (1.0 + y)


def test_demo_rejects_bad_warp():
    with pytest.raises(ValueError):
        nonpreservation_demo(lambda x: x, GaussianSpec(), None, n_max=2)
    with pytest.raises(ValueError):
        Diffeomorphism(lambda x: -np.asarray(x), lambda x: -np.ones_like(np.asarray(x)))
