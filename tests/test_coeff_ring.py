"""Tests for the two coefficient-ring representations.

Expected values come from closed-form Gaussian integrals, checked against a
plain quadrature oracle that never touches the library code paths.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab.coeff_ring import (
    GaussAtom,
    GaussPolyFn,
    GridFn,
    GridSpec,
    RepresentationMismatchError,
    _bump,
    _bump_series,
    _RAMP_81,
    _RAMP_4001,
    _fft_convolve,
    _linspace,
    _spline_coeffs,
    _spline_horner,
    _spline_locate,
    horner,
    random_gauss_poly,
)
from foliation_lab.cli import _grids, load_config


def quad_convolve(f, g, ts, s_window=40.0, n=200001):
    """Independent convolution oracle: direct trapezoid of the integral."""
    s = np.linspace(-s_window, s_window, n)
    out = np.empty(len(ts), dtype=complex)
    for i, t in enumerate(ts):
        out[i] = np.trapezoid(f(t - s) * g(s), s)
    return out


# ---------------------------------------------------------------------------
# exact ring
# ---------------------------------------------------------------------------


def test_gaussian_self_convolution_closed_form():
    f = GaussPolyFn.gaussian()
    h = f.convolve(f)
    assert len(h.atoms) == 1
    atom = h.atoms[0]
    assert atom.mean == 0.0
    assert atom.variance == 2.0
    np.testing.assert_allclose(np.asarray(atom.poly), [np.sqrt(np.pi)], rtol=1e-14)
    # cross-check against fine-grid quadrature
    ts = np.linspace(-6, 6, 13)
    np.testing.assert_allclose(h(ts), quad_convolve(f, f, ts), atol=1e-10)


def test_convolution_with_zero_annihilates():
    f = random_gauss_poly(np.random.default_rng(0), n_atoms=2)
    z = GaussPolyFn.zero()
    assert not f.convolve(z).atoms
    assert not z.convolve(f).atoms


def test_convolution_commutes_on_random_pairs(rng):
    for _ in range(20):
        f = random_gauss_poly(rng, n_atoms=2)
        g = random_gauss_poly(rng, n_atoms=2)
        assert (f.convolve(g) - g.convolve(f)).sup_norm() <= 1e-12


def test_random_atom_convolution_matches_quadrature(rng):
    for _ in range(5):
        f = random_gauss_poly(rng, n_atoms=2, max_degree=3)
        g = random_gauss_poly(rng, n_atoms=1, max_degree=2)
        h = f.convolve(g)
        ts = rng.uniform(-5, 5, 7)
        np.testing.assert_allclose(h(ts), quad_convolve(f, g, ts), atol=1e-8)


@pytest.mark.parametrize("real", [True, False])
def test_convolution_is_bitwise_commutative(rng, real):
    for _ in range(20):
        f = random_gauss_poly(rng, n_atoms=2, max_degree=3, real=real)
        g = random_gauss_poly(rng, n_atoms=2, max_degree=3, real=real)
        assert f.convolve(g).atoms == g.convolve(f).atoms
    # equal (mean, variance): the coefficients decide the operand order
    f = GaussPolyFn([GaussAtom((1.0, 2.0), 0.5, 1.0)])
    g = GaussPolyFn([GaussAtom((1j, -3.0), 0.5, 1.0)])
    assert f.convolve(g).atoms == g.convolve(f).atoms


def _random_atom(rng, degree, real, means=(-2, 2)):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    if not real:
        coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    return GaussAtom(tuple(coeffs.tolist()), float(rng.uniform(*means)), float(rng.uniform(0.5, 2)))


def _mpmath_convolution_gaps(mpmath, a, b, ts):
    """|h(t) - (a*b)(t)| at each t for h the library convolution of the atoms
    a and b, against 20-digit quadrature of the defining integral split at
    the centre of the Gaussian product."""

    def as_mp(atom):
        coeffs = [mpmath.mpmathify(c) for c in reversed(atom.poly)]
        return lambda u: mpmath.polyval(coeffs, u - atom.mean) * mpmath.exp(
            -((u - atom.mean) ** 2) / (2 * atom.variance)
        )

    h = GaussPolyFn([a]).convolve(GaussPolyFn([b]))
    fa, fb = as_mp(a), as_mp(b)
    gaps = []
    with mpmath.mp.workdps(20):
        for t in ts:
            centre = (b.variance * (t - a.mean) + a.variance * b.mean) / (a.variance + b.variance)
            want = mpmath.quad(lambda s: fa(t - s) * fb(s), [-mpmath.inf, centre, mpmath.inf])
            gaps.append(abs(complex(h(t)) - complex(want)))
    return gaps, h.sup_norm()


def test_atom_convolution_matches_mpmath_quadrature(rng):
    # degrees up to 6, real and complex
    mpmath = pytest.importorskip("mpmath")
    for real in (True, True, False, False):
        a = _random_atom(rng, 6, real)
        b = _random_atom(rng, int(rng.integers(0, 7)), real)
        ts = (a.mean + b.mean + rng.uniform(-3, 3, 2)).tolist()
        gaps, peak = _mpmath_convolution_gaps(mpmath, a, b, ts)
        assert max(gaps) <= 1e-12 * peak


def test_far_atom_convolution_matches_mpmath_quadrature(rng):
    # means in [10, 14]: in powers of t the coefficients of such atoms cancel
    # when evaluated near the mean; in the centred variable they do not
    mpmath = pytest.importorskip("mpmath")
    for real in (True, False, True):
        a = _random_atom(rng, int(rng.integers(3, 7)), real, means=(10, 14))
        b = _random_atom(rng, int(rng.integers(3, 7)), real, means=(10, 14))
        ts = (a.mean + b.mean + rng.uniform(-3, 3, 3)).tolist()
        gaps, peak = _mpmath_convolution_gaps(mpmath, a, b, ts)
        assert max(gaps) <= 1e-12 * peak


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("degree", [0, 1, 5])
def test_horner_matches_polyval_bitwise(rng, cplx, degree):
    from numpy.polynomial.polynomial import polyval  # the oracle; the package does not load it

    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    if cplx:
        coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    ts = rng.uniform(-15.0, 15.0, 101)
    for t in (ts, ts.reshape(-1, 1), ts[0], np.asarray(ts[1])):
        for c in (coeffs, tuple(coeffs.tolist())):
            out, want = np.empty(np.shape(t), coeffs.dtype), polyval(t, coeffs)
            assert horner(c, t, out) is out
            assert np.shape(out) == np.shape(want)
            assert np.array_equal(out, want)


def _horner_loop(coeffs, t):
    out = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        out = c + out * t
    return out


def _values_loop(f, t):
    """GaussPolyFn values by the allocating per-atom loop the evaluator replaced."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for atom in f.atoms:
        u = t - atom.mean
        out = out + _horner_loop(atom.poly, u) * np.exp(-(u**2) / (2.0 * atom.variance))
    return out


def _sup_norm_loop(f):
    """The 4,001-point search and three 81-point refinements, written out over
    ``_values_loop``."""
    if not f.atoms:
        return 0.0
    lo = min(a.mean - 12.0 * np.sqrt(a.variance) for a in f.atoms)
    hi = max(a.mean + 12.0 * np.sqrt(a.variance) for a in f.atoms)
    t = np.linspace(lo, hi, 4001)
    vals = np.abs(_values_loop(f, t))
    best = float(np.max(vals))
    i = int(np.argmax(vals))
    lo, hi = t[max(i - 2, 0)], t[min(i + 2, t.size - 1)]
    for _ in range(3):
        local = np.linspace(lo, hi, 81)
        lvals = np.abs(_values_loop(f, local))
        j = int(np.argmax(lvals))
        best = max(best, float(lvals[j]))
        lo, hi = local[max(j - 2, 0)], local[min(j + 2, 80)]
    return best


def _edge_peaked(side):
    """One atom of variance 1 on [-12, 12] whose polynomial c u^8 (u + 12 side)
    overflows only at the window end on that side, so the coarse argmax is
    the first (side -1) or the last (side 1) of the 4,001 points."""
    c = np.finfo(float).max / (2.0 * 12.0**9) * 1.002
    return GaussPolyFn([GaussAtom((0.0,) * 8 + (12.0 * side * c, c), 0.0, 1.0)])


def _evaluator_cases():
    rng = np.random.default_rng(4242)
    cases = {"zero": GaussPolyFn.zero()}
    for degree in range(10):
        cases[f"one-atom-degree-{degree}"] = GaussPolyFn([_random_atom(rng, degree, True)])
    cases["35-atoms"] = random_gauss_poly(rng, n_atoms=35, max_degree=9)
    cases["complex-atoms"] = random_gauss_poly(rng, n_atoms=6, max_degree=5, real=False)
    cases["mixed-real-complex"] = GaussPolyFn(
        [_random_atom(rng, 4, True), _random_atom(rng, 3, False), _random_atom(rng, 2, True)]
    )
    cases["negative-zero-coefficients"] = GaussPolyFn(
        [GaussAtom((-0.0, 1.5, -0.0, 0.25), 0.3, 0.8), GaussAtom((complex(-0.0, 1.0), -0.0), -0.4, 1.2)]
    )
    cases["argmax-at-window-start"] = _edge_peaked(-1)
    cases["argmax-at-window-end"] = _edge_peaked(1)
    return cases


EVALUATOR_CASES = _evaluator_cases()


def _hex(values):
    return [complex(v).real.hex() + complex(v).imag.hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", list(EVALUATOR_CASES))
def test_evaluator_matches_atom_loop_bitwise(name):
    f = EVALUATOR_CASES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = f.support_window()
        ts = np.linspace(lo - 1.0, hi + 1.0, 1237)
        for t in (ts, ts[:81], ts.reshape(1, -1), float(ts[600]), ts[5]):
            got, want = f(t), _values_loop(f, t)
            assert np.shape(got) == np.shape(want)
            assert _hex(got) == _hex(want)
        assert f.sample(GridSpec(lo, (hi - lo) / 400, 401)).samples.tolist() == (
            _values_loop(f, lo + (hi - lo) / 400 * np.arange(401)).tolist()
        )
        assert f.sup_norm().hex() == _sup_norm_loop(f).hex()
        real = all(isinstance(c, float) for a in f.atoms for c in a.poly)
        assert f(ts).dtype == (np.float64 if real else np.complex128)


def test_sup_norm_grids_match_np_linspace_bit_for_bit():
    # sup_norm's 4,001- and 81-point grids on their prebuilt ramps, for
    # windows of every scale, from support windows down to refinement steps a
    # few ulps wide, and a window of one point
    rng = np.random.default_rng(3030)
    centers = rng.uniform(-40.0, 40.0, 400) * 10.0 ** rng.uniform(-3.0, 1.0, 400)
    widths = rng.uniform(0.0, 10.0, 400) * 10.0 ** rng.uniform(-14.0, 1.0, 400)
    windows = [(c - w / 2, c + w / 2) for c, w in zip(centers, widths)] + [(2.5, 2.5)]
    for lo, hi in windows:
        lo, hi = np.float64(lo), np.float64(hi)
        for ramp in (_RAMP_4001, _RAMP_81):
            got, want = _linspace(ramp, lo, hi), np.linspace(lo, hi, ramp.size)
            assert got.tobytes() == want.tobytes()


def test_edge_cases_put_the_coarse_argmax_at_the_window_ends():
    for side, index in ((-1, 0), (1, 4000)):
        f = _edge_peaked(side)
        with np.errstate(over="ignore"):
            vals = np.abs(_values_loop(f, np.linspace(*f.support_window(), 4001)))
        assert int(np.argmax(vals)) == index
        assert np.isfinite(vals).sum() == 4000


def test_sup_norm_matches_critical_point_oracle():
    # for p(u) exp(-u^2 / 2v) the supremum of |f| sits at a real root of
    # v p'(u) - u p(u); every root's real part is a point of the line, so the
    # largest |f| over them and u = 0 is the supremum, found here at 30 digits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    worst = 0.0
    with mpmath.mp.workdps(30):
        for _ in range(60):
            degree = int(rng.integers(0, 7))
            coeffs = rng.uniform(-1.0, 1.0, degree + 1).tolist()
            mean, variance = float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 4))
            f = GaussPolyFn([GaussAtom(tuple(coeffs), mean, variance)])
            c = [mpmath.mpf(x) for x in coeffs]
            v = mpmath.mpf(variance)
            # v p'(u) - u p(u), ascending in u, of degree deg p + 1
            padded = c + [0, 0]
            q = [v * (k + 1) * padded[k + 1] - (padded[k - 1] if k else 0) for k in range(degree + 2)]
            roots = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=60)
            candidates = [mpmath.mpf(0)] + [mpmath.re(r) for r in roots]
            want = max(
                abs(mpmath.polyval(c[::-1], u) * mpmath.exp(-(u**2) / (2 * v))) for u in candidates
            )
            worst = max(worst, abs(f.sup_norm() - float(want)) / float(want))
    assert worst <= 1e-11


def test_atom_products_are_memoised_per_dtype():
    from foliation_lab.coeff_ring import ATOM_PAIR_MEMO_SIZE, _convolve_atoms, _convolve_ordered

    assert _convolve_ordered.cache_info().maxsize == ATOM_PAIR_MEMO_SIZE
    real = GaussAtom((1.0, 0.5, -0.25), 0.3, 1.0)
    cplx = GaussAtom((1 + 0j, 0.5 + 0j, -0.25 + 0j), 0.3, 1.0)
    other = GaussAtom((0.2, -0.7), -0.1, 0.7)
    assert real == cplx and hash(real) == hash(cplx)  # why the key needs the types
    for first, second in ((real, cplx), (cplx, real)):
        _convolve_ordered.cache_clear()
        products = {id(a): _convolve_atoms(a, other) for a in (first, second)}
        assert all(type(c) is float for c in products[id(real)].poly)
        assert all(type(c) is complex for c in products[id(cplx)].poly)
    # the same pair, in either order, gives the same atom, equal to a fresh product
    _convolve_ordered.cache_clear()
    h = _convolve_atoms(real, other)
    assert _convolve_atoms(other, real) is h and _convolve_atoms(real, other) is h
    _convolve_ordered.cache_clear()
    fresh = _convolve_atoms(real, other)
    assert fresh is not h and [c.hex() for c in fresh.poly] == [c.hex() for c in h.poly]
    assert (fresh.mean, fresh.variance) == (h.mean, h.variance)
    # and at the element level the dtypes stay apart
    g = GaussPolyFn([other])
    assert GaussPolyFn([real]).convolve(g)(0.1).dtype == np.float64
    assert GaussPolyFn([cplx]).convolve(g)(0.1).dtype == np.complex128


def test_traced_jets_exact_run_requests_the_parent_atom_pairs():
    # the benchmark's tracer counts atom pairs requested, memoised or not: one
    # jets-exact pass at seed 12345 asks for 3,273, as before the memo
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jets-exact", "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "TraceError" not in run.stdout + run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["coeff_ring.GaussPolyFn.convolve.atom_pairs"]["value"] == 3273


def test_atoms_are_stored_centred():
    # t * exp(-(t-3)^2/2) is (u + 3) exp(-u^2/2) with u = t - 3
    f = GaussPolyFn.gaussian(mean=3.0).mul_by_t()
    assert f.atoms == (GaussAtom((3.0, 1.0), 3.0, 1.0),)
    # u exp(-u^2/2) at means 1 and 2 convolve to sqrt(pi) (u^2/4 - 1/2)
    # exp(-u^2/4), centred at 3 with u = t - 3: nothing is shifted
    g = GaussPolyFn([GaussAtom((0.0, 1.0), 1.0, 1.0)]).convolve(
        GaussPolyFn([GaussAtom((0.0, 1.0), 2.0, 1.0)])
    )
    (atom,) = g.atoms
    assert (atom.mean, atom.variance) == (3.0, 2.0)
    want = np.sqrt(np.pi) * np.array([-0.5, 0.0, 0.25])
    np.testing.assert_allclose(atom.poly, want, rtol=1e-14, atol=1e-15)


def test_mul_by_t_definition():
    f = GaussPolyFn.gaussian()
    g = f.mul_by_t()
    ts = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(g(ts), ts * np.exp(-(ts**2) / 2), atol=1e-14)
    assert not GaussPolyFn.zero().mul_by_t().atoms


def test_mul_by_t_is_a_derivation_for_convolution(rng):
    for _ in range(10):
        f = random_gauss_poly(rng)
        g = random_gauss_poly(rng)
        lhs = f.convolve(g).mul_by_t()
        rhs = f.mul_by_t().convolve(g) + f.convolve(g.mul_by_t())
        assert (lhs - rhs).sup_norm() <= 1e-12
    # quadrature oracle for one pair
    f = GaussPolyFn.gaussian(mean=0.5)
    g = GaussPolyFn.gaussian(variance=1.5)
    ts = np.linspace(-4, 4, 9)
    lhs = f.convolve(g).mul_by_t()
    np.testing.assert_allclose(
        lhs(ts), ts * quad_convolve(f, g, ts), atol=1e-9
    )


def test_mul_by_exp_zero_rate_is_identity():
    f = random_gauss_poly(np.random.default_rng(1), n_atoms=2)
    ts = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(f.mul_by_exp(0.0)(ts), f(ts), rtol=0, atol=1e-15)


def test_mul_by_exp_is_a_convolution_automorphism(rng):
    for _ in range(10):
        f = random_gauss_poly(rng)
        g = random_gauss_poly(rng)
        c = float(rng.uniform(-1, 1))
        lhs = f.convolve(g).mul_by_exp(c)
        rhs = f.mul_by_exp(c).convolve(g.mul_by_exp(c))
        assert (lhs - rhs).sup_norm() <= 1e-10 * max(1.0, lhs.sup_norm())


def test_mul_by_exp_completes_the_square():
    f = GaussPolyFn.gaussian()  # atom (1, mean 0, variance 1)
    g = f.mul_by_exp(1.0)
    atom = g.atoms[0]
    assert atom.mean == 1.0
    assert atom.variance == 1.0
    np.testing.assert_allclose(np.asarray(atom.poly), [np.exp(0.5)], rtol=1e-14)


def test_gauss_atom_requires_positive_variance():
    with pytest.raises(ValueError):
        GaussAtom((1.0,), 0.0, -1.0)


# ---------------------------------------------------------------------------
# sampled ring
# ---------------------------------------------------------------------------


def _sampled_gaussian(step=0.01, radius=12.0):
    grid = GridSpec(-radius, step, int(round(2 * radius / step)) + 1)
    return GridFn(grid, np.exp(-(grid.points**2) / 2))


def test_grid_convolution_matches_exact():
    g = _sampled_gaussian()
    h = g.convolve(g)
    exact = GaussPolyFn.gaussian().convolve(GaussPolyFn.gaussian())
    want = exact(h.grid.points)
    assert np.max(np.abs(h.samples - want)) <= 1e-6


def test_grid_convolution_on_offset_axes_matches_exact(rng):
    # axes whose starts differ by 0.6 of a step: the product's axis starts at
    # the sum of the starts, and its samples are the exact product there
    f, g = random_gauss_poly(rng), random_gauss_poly(rng)
    a, b = GridSpec(-14.0, 0.05, 561), GridSpec(-14.03, 0.05, 561)
    h = f.sample(a).convolve(g.sample(b))
    assert h.grid == GridSpec(-28.03, 0.05, 1121)
    want = f.convolve(g)(h.grid.points)
    assert np.max(np.abs(h.samples - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def test_grid_convolution_methods_agree():
    g = _sampled_gaussian(step=0.05, radius=8.0)
    a = g.convolve(g)
    b = np.convolve(g.samples, g.samples) * g.grid.step
    assert np.max(np.abs(a.samples - b)) <= 1e-12


@pytest.mark.parametrize("complex_a,complex_b", [(False, False), (True, False), (True, True)])
@pytest.mark.parametrize("len_a,len_b", [(1, 1), (3, 3), (7, 4), (64, 33), (300, 301), (1000, 999)])
def test_fft_convolve_matches_scipy(rng, len_a, len_b, complex_a, complex_b):
    from scipy.signal import fftconvolve  # the oracle; the package does not load scipy.signal

    def draw(n, cplx):
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if cplx else x

    a, b = draw(len_a, complex_a), draw(len_b, complex_b)
    full = _fft_convolve(a, b)
    want = fftconvolve(a, b)
    assert full.shape == want.shape
    assert np.max(np.abs(full - want)) <= 1e-12 * np.max(np.abs(want))
    if not (complex_a or complex_b):
        assert full.dtype == np.float64
    # the centred slice nonpreservation_demo takes, which is scipy's mode="same"
    start = (len_b - 1) // 2
    same = full[start : start + len_a]
    want = fftconvolve(a, b, mode="same")
    assert np.max(np.abs(same - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "overrides,k",
    [((), 1), ((), 2), (("grid.x_step=0.002", "grid.t_step=0.01", "k_values=[2]"), 2)],
    ids=["default-k1", "default-k2", "refined"],
)
@pytest.mark.parametrize("cplx", [False, True])
def test_spline_coeffs_match_cubic_spline(rng, overrides, k, cplx):
    # on the x-grids verify-groupoid builds kernels on, one sample column per t
    from scipy.interpolate import CubicSpline  # the oracle; the package does not load scipy

    xg, tg = _grids(load_config(None, list(overrides)), k)
    x = xg.points
    y = rng.standard_normal((x.size, tg.count))
    if cplx:
        y = y + 1j * rng.standard_normal(y.shape)
    got = _spline_coeffs(x, y)
    want = CubicSpline(x, y, axis=0).c
    assert got.shape == want.shape and got.dtype == want.dtype
    if cplx:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [2, 3, 4, 401])
def test_spline_eval_matches_cubic_spline(rng, count):
    # two and three nodes take the line and parabola branch; every point
    # outside the window, and NaN, evaluates to 0
    from scipy.interpolate import CubicSpline  # the oracle

    x = np.linspace(-2.0, 2.0, count)
    samples = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ts = np.concatenate(
        [
            rng.uniform(-2.0, 2.0, 50),
            x,  # the nodes, the window ends among them
            [-2.0 - 1e-12, 2.0 + 1e-12, -3.0, 3.0, np.nan],  # outside: 0
        ]
    )
    want = CubicSpline(x, samples, extrapolate=False)(ts)
    want = np.where(np.isnan(want), 0.0, want)
    idx, offset, outside = _spline_locate(x, ts)
    got = _spline_horner(_spline_coeffs(x, samples), (idx,), offset, outside)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(samples))
    assert np.all(got[-5:] == 0.0)


def test_grid_convolution_associative_and_commutative(rng):
    fns = []
    for _ in range(3):
        f = random_gauss_poly(rng)
        fns.append(f.sample(GridSpec(-14.0, 0.01, 2801)))
    f, g, h = fns
    fg = f.convolve(g)
    assert np.max(np.abs(fg.samples - g.convolve(f).samples)) <= 1e-8 * max(np.max(np.abs(fg.samples)), 1.0)
    lhs = fg.convolve(h)
    rhs = f.convolve(g.convolve(h))
    assert lhs.grid == rhs.grid
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-8 * max(np.max(np.abs(lhs.samples)), 1.0)


def test_real_grid_functions_stay_real():
    g = _sampled_gaussian(step=0.05, radius=8.0)
    sampled = GaussPolyFn.gaussian(mean=0.5).sample(g.grid)
    real = [g, sampled, g.convolve(sampled)]
    assert all(h.samples.dtype == np.float64 for h in real)
    cplx = GridFn(g.grid, g.samples * 1j)
    assert g.convolve(cplx).samples.dtype == cplx.convolve(g).samples.dtype == np.complex128


def test_grid_zero_convolution():
    g = _sampled_gaussian(step=0.05, radius=8.0)
    z = GridFn(g.grid, np.zeros(321))
    assert np.max(np.abs(g.convolve(z).samples)) == 0.0


def test_grid_mismatch_errors():
    a = GridFn((-1.0, 0.1, 21), np.zeros(21))
    with pytest.raises(ValueError, match="does not match the grid"):
        GridFn((-1.0, 0.1, 21), np.zeros(20))
    with pytest.raises(RepresentationMismatchError):
        a.convolve(GaussPolyFn.gaussian())
    with pytest.raises(RepresentationMismatchError):
        GaussPolyFn.gaussian().convolve(a)
    with pytest.raises(RepresentationMismatchError):
        GaussPolyFn.gaussian().add(a)


def test_grid_support_invariant_enforced():
    with pytest.raises(ValueError, match="does not vanish on the grid boundary"):
        _sampled_gaussian(step=0.1, radius=2.0)


def test_norms_and_examples():
    assert GaussPolyFn.zero().sup_norm() == 0.0
    f = GaussPolyFn.gaussian()
    assert abs(f.sup_norm() - 1.0) <= 1e-12


def test_samples_are_frozen():
    g = _sampled_gaussian(step=0.05, radius=8.0)
    with pytest.raises(ValueError):
        g.samples[0] = 1.0


@pytest.mark.parametrize("radius", ["3/10", "1", "7/4"])
def test_bump_series_matches_sympy(radius):
    # the exact side of taylor_map_is_multiplicative rests on these
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    r = sp.Rational(radius)
    series = sp.series(sp.exp(1 - 1 / (1 - (x / r) ** 2)), x, 0, 11).removeO()
    got = _bump_series(float(r), 10)
    assert len(got) == 11
    for n, c in enumerate(got):
        want = float(sp.N(series.coeff(x, n), 30))
        assert abs(c - want) <= 1e-14 * max(abs(want), 1.0), (n, c, want)
    assert _bump_series(0.3, 0) == [1.0] and _bump_series(0.3, 1) == [1.0, 0.0]
    assert _bump(np.array([0.0]), 0.3)[0] == got[0] == 1.0


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

atom_means = st.floats(min_value=-2.0, max_value=2.0)
atom_vars = st.floats(min_value=0.5, max_value=2.0)
atom_polys = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=3
)


@st.composite
def gauss_poly_fns(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    atoms = [
        GaussAtom(tuple(draw(atom_polys)), draw(atom_means), draw(atom_vars))
        for _ in range(n)
    ]
    return GaussPolyFn(atoms)


@settings(max_examples=40, deadline=None)
@given(f=gauss_poly_fns(), g=gauss_poly_fns())
def test_convolution_commutativity_property(f, g):
    assert (f.convolve(g) - g.convolve(f)).sup_norm() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(f=gauss_poly_fns(), g=gauss_poly_fns(), c=st.floats(min_value=-1, max_value=1))
def test_exp_twist_automorphism_property(f, g, c):
    lhs = f.convolve(g).mul_by_exp(c)
    rhs = f.mul_by_exp(c).convolve(g.mul_by_exp(c))
    assert (lhs - rhs).sup_norm() <= 1e-10 * max(1.0, lhs.sup_norm())
