"""Flow evaluation, Taylor data and cocycles.

The Taylor coefficients of flow powers are checked against an independent
oracle that derives the flow series by integrating the defining ODE order by
order (coefficients are polynomials in t, integrated exactly), then takes
powers by truncated series multiplication -- a different derivation path
from the closed-form binomial expansion the library uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from foliation_lab import flow
from foliation_lab.flow import (
    COMPLETE_RESCALED,
    MONOMIAL,
    FlowDomainError,
    FlowModel,
    beta_cocycle,
    check_cocycle_identity,
    check_composition_identity,
    cocycle_delta_many,
    flow_derivative_many,
    flow_eval,
    flow_eval_many,
    taylor_coeff,
)

# ---------------------------------------------------------------------------
# series oracle: flow Taylor data from the ODE, not the closed form
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    return np.convolve(a, b)


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def _poly_integrate(a):
    out = np.zeros(len(a) + 1)
    for i, v in enumerate(a):
        out[i + 1] = v / (i + 1)
    return out


def _series_mul(A, B, m_max):
    out = [np.zeros(1) for _ in range(m_max + 1)]
    for i in range(m_max + 1):
        if not np.any(A[i]):
            continue
        for j in range(m_max + 1 - i):
            if not np.any(B[j]):
                continue
            out[i + j] = _poly_add(out[i + j], _poly_mul(A[i], B[j]))
    return out


def _series_power(A, n, m_max):
    out = [np.zeros(1) for _ in range(m_max + 1)]
    out[0] = np.array([1.0])
    for _ in range(n):
        out = _series_mul(out, A, m_max)
    return out


def flow_series_from_ode(k, m_max):
    """Taylor series of the order-k monomial flow by Picard iteration:
    c_m'(t) = [x^m] (sum_j c_j x^j)^k with c_1(0) = 1."""
    c = [np.zeros(1) for _ in range(m_max + 1)]
    c[1] = np.array([1.0])
    for _ in range(m_max + 2):
        powered = _series_power(c, k, m_max)
        new = [np.zeros(1) for _ in range(m_max + 1)]
        new[1] = np.array([1.0])
        for m in range(2, m_max + 1):
            new[m] = _poly_integrate(powered[m])
        c = new
    return c


@pytest.mark.parametrize("k", [2, 3, 4])
def test_taylor_flow_power_matches_ode_series_oracle(k):
    m_max = 8
    c = flow_series_from_ode(k, m_max)
    for n in (1, 2, 3):
        powered = _series_power(c, n, m_max)
        for m in range(n, m_max + 1):
            got = taylor_coeff(k, n, m).poly
            want = powered[m]
            size = max(len(got), len(want))
            a = np.zeros(size)
            b = np.zeros(size)
            a[: len(got)] = got
            b[: len(want)] = want
            np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_taylor_flow_power_matches_sympy_series(k):
    # exact rational series of the closed-form flow; every float the library
    # returns must be the correctly rounded rational, zeros included
    sp = pytest.importorskip("sympy")
    x, t = sp.symbols("x t")
    phi = x * (1 - (k - 1) * t * x ** (k - 1)) ** sp.Rational(-1, k - 1)
    for n in (1, 2, 3):
        series = sp.expand(sp.series(phi**n, x, 0, 9).removeO())
        for m in range(n, 9):
            want = sp.Poly(series.coeff(x, m), t).all_coeffs()[::-1]
            got = list(taylor_coeff(k, n, m).poly)
            want = [float(c) for c in want] + [0.0] * (len(got) - len(want))
            assert got == want, (n, m)


def test_taylor_flow_power_binomial_identity_k2():
    from math import comb

    for n in range(1, 5):
        for m in range(n, 8):
            coeffs = taylor_coeff(2, n, m).poly
            expect = comb(m - 1, n - 1)
            assert abs(coeffs[-1] - expect) <= 1e-12
            assert len(coeffs) == m - n + 1 or expect == 0


def test_taylor_flow_power_edges():
    for k in (2, 3, 5):
        for n in (0, 1, 3):
            diag = taylor_coeff(k, n, n).poly
            np.testing.assert_allclose(diag, [1.0])
        # first off-diagonal entry is n*t
        for n in (1, 2, 4):
            coeffs = taylor_coeff(k, n, n + k - 1).poly
            np.testing.assert_allclose(coeffs, [0.0, float(n)])
    assert taylor_coeff(3, 0, 2).poly[0] == 0.0


def test_taylor_flow_power_k1_matches_sympy_series():
    # k = 1: phi_t(x) = e^t x, so each entry is e^(n t) on the diagonal and 0
    # off it; the entry poly(t) e^(rate t), rebuilt exactly, must equal the
    # x^m coefficient of sympy's series of (e^t x)^n
    sp = pytest.importorskip("sympy")
    x, t = sp.symbols("x t")
    for n in range(4):
        series = sp.expand(sp.series((sp.exp(t) * x) ** n, x, 0, 7).removeO())
        for m in range(7):
            c = taylor_coeff(1, n, m)
            poly = sum(sp.Rational(a) * t**i for i, a in enumerate(c.poly))
            assert sp.simplify(poly * sp.exp(sp.Rational(c.rate) * t) - series.coeff(x, m)) == 0
            assert c.is_zero() == (m != n), (n, m)


def test_taylor_table_invariants_and_json():
    for k in (1, 2, 3):
        for n in range(7):
            diag = taylor_coeff(k, n, n)
            t = np.linspace(-1, 1, 11)
            if k == 1:
                np.testing.assert_allclose(diag(t), np.exp(n * t))
            else:
                np.testing.assert_allclose(diag(t), np.ones_like(t))
            for m in range(n + 1, 7):
                if m - n < k - 1 or (k == 1 and m != n):
                    assert taylor_coeff(k, n, m).is_zero()
            # below the diagonal an entry is the zero polynomial
            for m in range(n):
                assert taylor_coeff(k, n, m).is_zero()
        for m in range(1, 7):
            assert taylor_coeff(k, 0, m).is_zero()


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------


def test_flow_closed_form_against_ode():
    got = flow_eval(FlowModel(2), 1.0, 0.5)
    assert abs(got - 1.0) <= 1e-12
    sol = solve_ivp(
        lambda s, y: y**2, (0, 1), [0.5], rtol=1e-12, atol=1e-14, method="DOP853"
    )
    assert abs(got - sol.y[0, -1]) <= 1e-9


def test_flow_identity_at_time_zero():
    for model in (FlowModel(1), FlowModel(3), FlowModel(2, COMPLETE_RESCALED)):
        for x in (-0.7, 0.0, 0.3):
            assert flow_eval(model, 0.0, x) == pytest.approx(x, abs=1e-12)
            if model.variant == MONOMIAL:
                assert flow_derivative_many(model, [0.0], [x])[0] == pytest.approx(1.0, abs=1e-9)


def test_flow_domain_error():
    with pytest.raises(FlowDomainError):
        flow_eval(FlowModel(2), 1.0, 1.0)
    assert np.isnan(flow_derivative_many(FlowModel(3), [2.0], [1.0])[0])


def _boundary_times(k):
    """Times of both signs that straddle the domain boundary
    (k-1) t x^(k-1) = 1 at x = 0.5, 0.75 and 1.25: the computed edge times
    and their neighbours.  They hit it exactly for k = 2, 3, 5 (k = 2, t = 2,
    x = 0.5, say)."""
    edge = np.array([1.0 / (max(k - 1, 1) * x ** max(k - 1, 1)) for x in (0.5, 0.75, 1.25)])
    ts = np.concatenate([edge, np.nextafter(edge, 0), np.nextafter(edge, 9)])
    return np.concatenate([ts, -ts])


def _evaluators(variant):
    """The broadcasting evaluators defined for the variant: the derivative
    and the cocycles are the monomial flow's only."""
    if variant == MONOMIAL:
        return (flow_eval_many, flow_derivative_many, cocycle_delta_many, beta_cocycle)
    return (flow_eval_many,)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("variant", [MONOMIAL, COMPLETE_RESCALED])
@pytest.mark.parametrize("time_reversed", [False, True])
def test_grid_evaluation_is_nan_exactly_off_the_domain(k, variant, time_reversed):
    # groupoid operations rely on this instead of checking the domain again
    model = FlowModel(k, variant, time_reversed)
    xs = np.arange(-12, 13) / 8.0
    ts = np.concatenate([np.arange(-16, 17) / 8.0, _boundary_times(k)])
    off = ~model.in_domain(ts[:, None], xs)
    assert np.any(off) == (variant == MONOMIAL and k > 1)
    for many in _evaluators(variant):
        assert np.array_equal(np.isnan(many(model, ts[:, None], xs)), off)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("variant", [MONOMIAL, COMPLETE_RESCALED])
@pytest.mark.parametrize("time_reversed", [False, True])
def test_scalar_values_raise_exactly_off_the_domain(k, variant, time_reversed):
    # a scalar flow value is its grid evaluator at the one point: it raises
    # FlowDomainError exactly where in_domain fails, so never for finite
    # input to the rescaled field or for k = 1, and returns the grid value
    # everywhere else
    model = FlowModel(k, variant, time_reversed)
    xs = np.array([-1.25, -0.5, 0.0, 0.5, 0.75, 1.25])
    ts = np.concatenate([[-2.0, 2.0], _boundary_times(k)])
    off = ~model.in_domain(ts[:, None], xs)
    assert np.any(off) == (variant == MONOMIAL and k > 1)
    grid = flow_eval_many(model, ts[:, None], xs)
    for (i, j), outside in np.ndenumerate(off):
        if outside:
            with pytest.raises(FlowDomainError):
                flow_eval(model, ts[i], xs[j])
        else:
            assert flow_eval(model, ts[i], xs[j]) == grid[i, j]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("variant", [MONOMIAL, COMPLETE_RESCALED])
@pytest.mark.parametrize("time_reversed", [False, True])
def test_broadcast_evaluators_match_per_point_calls_bit_for_bit(k, variant, time_reversed):
    # a grid, its transpose and the flat list of its pairs give each point's
    # one-point value as float.hex, NaN exactly off the domain included
    model = FlowModel(k, variant, time_reversed)
    xs = np.array([-1.25, -0.5, -0.05, 0.0, 0.3, 0.75, 1.25])
    ts = np.concatenate([[-2.0, -0.35, 0.0, 0.6, 2.0], _boundary_times(k)])
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    hexes = np.vectorize(float.hex)
    for many in _evaluators(variant):
        per_point = np.array([[many(model, [t], [x])[0] for x in xs] for t in ts])
        assert np.array_equal(np.isnan(per_point), ~model.in_domain(tt, xx))
        want = hexes(per_point)
        assert np.array_equal(hexes(many(model, ts[:, None], xs)), want)
        assert np.array_equal(hexes(many(model, ts, xs[:, None]).T), want)
        assert np.array_equal(hexes(many(model, tt.ravel(), xx.ravel())).reshape(want.shape), want)


@pytest.mark.parametrize("time_reversed", [False, True])
def test_zero_d_input_matches_array_input_bit_for_bit(time_reversed):
    # numpy computes ** on 0-d scalars with libm's pow and on arrays with its
    # own loop, which differ in the last bit at some points; np.power takes
    # the array loop at either shape
    for k in range(1, 7):
        model = FlowModel(k, time_reversed=time_reversed)
        rng = np.random.default_rng([k, time_reversed])
        xs, ts = rng.uniform(-2.0, 2.0, 1000), rng.uniform(-3.0, 3.0, 1000)
        for many in _evaluators(MONOMIAL):
            want = many(model, ts, xs)
            got = np.array([many(model, t, x) for t, x in zip(ts, xs)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, many.__name__)


def test_flow_derivative_closed_forms():
    got = flow_derivative_many(FlowModel(1), [0.7], [0.3])[0]
    assert got == pytest.approx(np.exp(0.7), rel=1e-13)
    assert flow_derivative_many(FlowModel(2), [1.0], [0.5])[0] == pytest.approx(4.0, rel=1e-13)


def test_flow_group_law_both_variants(rng):
    for k in (1, 2, 3):
        for variant in (MONOMIAL, COMPLETE_RESCALED):
            model = FlowModel(k, variant)
            done = 0
            while done < 10:
                x = float(rng.uniform(-0.4, 0.4))
                t = float(rng.uniform(-0.5, 0.5))
                s = float(rng.uniform(-0.5, 0.5))
                if not (model.in_domain(s, x) and model.in_domain(t + s, x)):
                    continue
                mid = flow_eval(model, s, x)
                if not model.in_domain(t, mid):
                    continue
                assert abs(flow_eval(model, t + s, x) - flow_eval(model, t, mid)) <= 1e-8
                done += 1


def test_variants_agree_to_contact_order():
    # the generators differ at order x^(k+2), so halving x shrinks the flow
    # difference by at least 2^(k+1)
    for k in (2, 3):
        mono, resc = FlowModel(k), FlowModel(k, COMPLETE_RESCALED)
        d1 = abs(flow_eval(mono, 0.8, 0.1) - flow_eval(resc, 0.8, 0.1))
        d2 = abs(flow_eval(mono, 0.8, 0.05) - flow_eval(resc, 0.8, 0.05))
        assert d1 / d2 >= 2 ** (k + 1)
    # k = 1: the rescaling factor is identically one, so the flows coincide
    assert abs(
        flow_eval(FlowModel(1), 0.8, 0.1) - flow_eval(FlowModel(1, COMPLETE_RESCALED), 0.8, 0.1)
    ) <= 1e-9


def test_time_reversed_model():
    fwd = FlowModel(2)
    rev = FlowModel(2, time_reversed=True)
    assert flow_eval(rev, 0.5, 0.3) == pytest.approx(flow_eval(fwd, -0.5, 0.3), rel=1e-13)


# ---------------------------------------------------------------------------
# the rescaled flow's time map against ODE oracles
# ---------------------------------------------------------------------------


def rescaled_field(k, sign):
    """sign * x^k (1+x^2)^(-(k-1)/2), written out here rather than taken
    from the model."""
    return lambda _, y: sign * y**k * (1.0 + y * y) ** (-(k - 1) / 2.0)


def dop853_flow(k, sign, ts, xs):
    """phi_t(x) on ts x xs by DOP853 at rtol 1e-12: one solve per time sign,
    every x integrated as one vector system."""
    out = np.empty((ts.size, xs.size))
    for direction in (1.0, -1.0):
        sel = ts * direction >= 0
        sol = flow.solve_ivp(
            rescaled_field(k, sign),
            (0.0, direction * np.max(np.abs(ts))),
            xs,
            method="DOP853",
            rtol=1e-12,
            atol=1e-300,
            dense_output=True,
        )
        assert sol.success
        out[sel] = sol.sol(ts[sel]).T
    return out


@pytest.mark.parametrize("time_reversed", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_rescaled_flow_matches_dop853(rng, k, time_reversed):
    model = FlowModel(k, COMPLETE_RESCALED, time_reversed=time_reversed)
    xs = rng.uniform(0.01, 2.0, 12) * rng.choice([-1.0, 1.0], 12)
    ts = np.sort(np.concatenate([rng.uniform(-3.0, 3.0, 9), [-3.0, 3.0]]))
    want = dop853_flow(k, -1.0 if time_reversed else 1.0, ts, xs)
    got = flow_eval_many(model, ts[:, None], xs)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
    for i, j in ((0, 0), (3, 5), (ts.size - 1, xs.size - 1)):
        assert abs(flow_eval(model, ts[i], xs[j]) - want[i, j]) <= 1e-10 * abs(want[i, j])


@pytest.mark.parametrize("k,x,t", [(2, 0.3, 1.7), (5, -1.3, -2.2), (6, 0.05, 2.9)])
def test_rescaled_flow_matches_mpmath_ode(k, x, t):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        # mpmath integrates forward only, so a negative time runs the
        # negated field for |t|
        sign = 1 if t >= 0 else -1
        field = lambda _, y: sign * y**k * (1 + y * y) ** (-mp.mpf(k - 1) / 2)
        want = mp.odefun(field, 0, mp.mpf(x))(mp.mpf(abs(t)))
        err = abs((flow_eval(FlowModel(k, COMPLETE_RESCALED), t, x) - want) / want)
    assert err <= 1e-13


def test_rescaled_flow_raises_at_nan_within_the_step_bound(monkeypatch):
    clock = flow._rescaled_clock
    calls = []

    def counted(k, z):
        calls.append(1)
        return clock(k, z)

    monkeypatch.setattr(flow, "_rescaled_clock", counted)
    model = FlowModel(3, COMPLETE_RESCALED)
    with pytest.raises(RuntimeError, match="did not converge"):
        flow_eval(model, 0.5, float("nan"))
    # one clock reading for the start, one per Newton step
    assert len(calls) == 1 + flow.NEWTON_MAX_STEPS
    with pytest.raises(RuntimeError):
        flow_eval_many(model, np.array([0.1, 0.2]), np.array([0.3, np.nan]))


def test_model_validation():
    with pytest.raises(ValueError):
        FlowModel(0)
    with pytest.raises(ValueError):
        FlowModel(2, "typo")


def test_model_requires_integer_order():
    with pytest.raises(ValueError):
        FlowModel(2.5)
    assert FlowModel(np.int64(2)) == FlowModel(2)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def test_composition_identity_cases(rng):
    assert check_composition_identity(1, 1) <= 1e-15
    assert check_composition_identity(2, 5, trials=20) <= 1e-12
    # inner series = identity reduces both sides to [m] f^n
    from foliation_lab.flow import series_power

    m_max = 6
    f = rng.uniform(-1, 1, m_max + 1)
    f[0] = 0.0
    g = np.zeros(m_max + 1)
    g[1] = 1.0
    fn = series_power(f, 2, m_max)
    gi = [np.zeros(m_max + 1) for _ in range(m_max + 1)]
    lhs = fn[5]
    rhs = 0.0
    gp = np.zeros(m_max + 1)
    gp[0] = 1.0
    from foliation_lab.flow import series_mul

    for i in range(0, m_max + 1):
        gi[i] = gp.copy()
        gp = series_mul(gp, g, m_max)
    total = sum(gi[i][5] * fn[i] for i in range(2, 6))
    assert abs(lhs - total) <= 1e-15


def test_cocycle_identity_examples():
    # s = 0 collapses to an exact tautology
    assert check_cocycle_identity(2, 1, 3, 1.3, 0.0) == 0.0
    # hand expansion at k=2, n=1, m=3, t=2, s=1: both sides equal 4
    lhs = taylor_coeff(2, 1, 3)(2.0)
    assert lhs == pytest.approx(4.0)
    assert check_cocycle_identity(2, 1, 3, 2.0, 1.0) <= 1e-12
    # k = 1 diagonal: the exponential law
    assert check_cocycle_identity(1, 2, 2, 0.7, 0.3) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=6),
    dm=st.integers(min_value=0, max_value=4),
    t=st.floats(min_value=-1, max_value=1),
    s=st.floats(min_value=-1, max_value=1),
)
def test_cocycle_identity_property(k, n, dm, t, s):
    assert check_cocycle_identity(k, n, n + dm, t, s) <= 1e-10


def test_cocycle_identity_over_a_block_equals_scalar_calls():
    # the block call is the max of the per-point calls, bit for bit
    rng = np.random.default_rng(2024)
    for k in range(1, 5):
        for n in range(7):
            for m in range(n, 7):
                ts = rng.uniform(-1.0, 1.0, (100, 2))
                scalar = max(check_cocycle_identity(k, n, m, float(t), float(s)) for t, s in ts)
                assert check_cocycle_identity(k, n, m, ts[:, 0], ts[:, 1]) == scalar


def test_cocycle_identity_broadcasts_and_returns_float():
    s = np.linspace(-1.0, 1.0, 7)
    got = check_cocycle_identity(3, 1, 5, 0.4, s)
    assert got == max(check_cocycle_identity(3, 1, 5, 0.4, float(v)) for v in s)
    assert type(got) is float
    assert type(check_cocycle_identity(2, 1, 3, 2.0, 1.0)) is float


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def test_cocycle_delta_values():
    m = FlowModel(2)
    x, t = 0.4, 0.9
    assert cocycle_delta_many(m, [t], [x])[0] == pytest.approx(flow_eval(m, t, x) / x, rel=1e-13)
    assert cocycle_delta_many(m, [0.0], [x])[0] == 1.0
    assert cocycle_delta_many(m, [1.7], [0.0])[0] == 1.0  # smooth extension through x = 0
    assert cocycle_delta_many(FlowModel(1), [0.5], [0.0])[0] == pytest.approx(np.exp(0.5))


def test_beta_cocycle_values_and_multiplicativity(rng):
    assert beta_cocycle(FlowModel(3), [0.0], [0.2])[0] == 1.0
    assert beta_cocycle(FlowModel(2), [1.0], [0.5])[0] == pytest.approx(2.0, rel=1e-13)
    assert beta_cocycle(FlowModel(1), [5.0], [0.0])[0] == 1.0  # the case split at x = 0
    for k in (1, 2, 3):
        model = FlowModel(k)
        done = 0
        while done < 100:
            x = float(rng.uniform(0.05, 0.4)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            t = float(rng.uniform(-0.5, 0.5))
            s = float(rng.uniform(-0.5, 0.5))
            if not (model.in_domain(s, x) and model.in_domain(t + s, x)):
                continue
            y = flow_eval(model, s, x)
            if y == 0.0 or not model.in_domain(t, y):
                continue
            lhs = beta_cocycle(model, [t + s], [x])[0]
            rhs = beta_cocycle(model, [t], [y])[0] * beta_cocycle(model, [s], [x])[0]
            assert abs(lhs - rhs) <= 1e-10
            done += 1
