"""Groupoid kernels: convolution, adjoint, module actions, jets, norms.

The convolution oracle evaluates the defining integral by fine trapezoid
quadrature with all factors in closed form (no grids, no interpolation), so
it is independent of the sampled pipeline it checks.
"""

import numpy as np
import pytest

from conftest import make_kernel, mollifier, plateau
from foliation_lab import groupoid_conv
from foliation_lab.coeff_ring import GaussPolyFn, GridSpec, _spline_coeffs
from foliation_lab.flow import (
    COMPLETE_RESCALED,
    FlowDomainError,
    FlowModel,
    beta_cocycle,
    cocycle_delta_many,
    flow_derivative_many,
    flow_eval_many,
)
from foliation_lab.groupoid_conv import (
    DERIVED_SUPPORT_TOL,
    GroupoidKernel,
    adjoint,
    convolve,
    l1_groupoid_norm,
    module_mult_left,
    module_mult_right,
    scale_by_delta,
    taylor_map,
)


def separable_pair(model):
    a = lambda x: mollifier(x, 0.3) * (1.0 + 0.5 * x)
    b = lambda t: mollifier(t, 0.4)
    c = lambda t: mollifier(t, 0.4) * np.cos(2.0 * t)
    f = make_kernel(model, lambda X, T: a(X) * b(T))
    g = make_kernel(model, lambda X, T: a(X) * c(T))
    return f, g, a, b, c


def quad_convolution_oracle(model, f_fn, g_fn, x, t, s_lo=-0.5, s_hi=0.5, n=4001):
    s = np.linspace(s_lo, s_hi, n)
    phis = flow_eval_many(model, s, x)
    vals = f_fn(phis, t - s) * g_fn(np.full_like(s, x), s)
    return np.trapezoid(vals, s)


def test_convolve_with_zero_is_zero():
    model = FlowModel(2)
    f, _, a, b, _ = separable_pair(model)
    z = GroupoidKernel(model, f.x_grid, f.t_grid, np.zeros_like(f.samples))
    assert convolve(f, z).sup_norm() == 0.0
    assert convolve(z, f).sup_norm() == 0.0


def test_convolution_matches_direct_quadrature():
    model = FlowModel(2)
    f_fn = lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.8) * (1.0 + 0.5 * X)
    g_fn = lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.8) * np.cos(2.0 * T)
    f = make_kernel(model, f_fn, x_step=0.002, t_radius=1.0, t_step=0.01)
    g = make_kernel(model, g_fn, x_step=0.002, t_radius=1.0, t_step=0.01)
    fg = convolve(f, g)
    for x, t in [(0.1, 0.3), (-0.2, 0.5), (0.0, -0.4), (0.25, 0.0)]:
        i = int(round((x - fg.x_grid.start) / fg.x_grid.step))
        j = int(round((t - fg.t_grid.start) / fg.t_grid.step))
        # compare at the exact node nearest the requested point
        want = quad_convolution_oracle(
            model, f_fn, g_fn, fg.x_grid.points[i], fg.t_grid.points[j],
            s_lo=-1.0, s_hi=1.0, n=16001,
        )
        assert abs(fg.samples[i, j].real - want) <= 1e-6


def test_convolution_self_convergence():
    # halving both steps shrinks the defect against the oracle
    model = FlowModel(2)
    f_fn = lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4)
    g_fn = lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * np.sin(3.0 * T)
    errs = []
    for refine in (1, 2):
        f = make_kernel(model, f_fn, x_step=0.004 / refine, t_step=0.02 / refine)
        g = make_kernel(model, g_fn, x_step=0.004 / refine, t_step=0.02 / refine)
        fg = convolve(f, g)
        x, t = 0.15, 0.25
        i = int(round((x - fg.x_grid.start) / fg.x_grid.step))
        j = int(round((t - fg.t_grid.start) / fg.t_grid.step))
        want = quad_convolution_oracle(
            model, f_fn, g_fn, fg.x_grid.points[i], fg.t_grid.points[j], n=16001
        )
        errs.append(abs(fg.samples[i, j].real - want))
    assert errs[0] <= 1e-6
    assert errs[1] <= max(errs[0] / 4.0, 1e-11)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_convolution_associativity(k):
    model = FlowModel(k)
    xr = 0.95 if k == 1 else 0.65
    f = make_kernel(model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4), x_radius=xr)
    g = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * np.cos(2 * T), x_radius=xr
    )
    h = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 - X * T), x_radius=xr
    )
    lhs = convolve(convolve(f, g), h)
    rhs = convolve(f, convolve(g, h))
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-6 * lhs.sup_norm()


def test_adjoint_involution_fine_grid():
    model = FlowModel(3)
    f = make_kernel(
        model,
        lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + X + 0.3j * T),
        x_radius=0.42,
        x_step=0.0006,
    )
    back = adjoint(adjoint(f))
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-8 * f.sup_norm()


@pytest.mark.parametrize("k", [1, 2])
def test_adjoint_antimultiplicative(k):
    model = FlowModel(k)
    xr = 0.95 if k == 1 else 0.65
    f = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + 0.5j * X), x_radius=xr
    )
    g = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * np.exp(1j * T), x_radius=xr
    )
    lhs = adjoint(convolve(f, g))
    rhs = convolve(adjoint(g), adjoint(f))
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-6 * lhs.sup_norm()


def adjoint_column_loop(f):
    """The adjoint column by column: the full x-interpolant at each output
    time, of which only the mirrored column is kept."""
    t_grid = GridSpec(-f.t_grid.end, f.t_grid.step, f.t_grid.count)
    warped = flow_eval_many(f.flow, t_grid.points[:, None], f.x_grid.points)
    from scipy.interpolate import CubicSpline  # the oracle; the package does not load scipy

    spline = CubicSpline(f.x_grid.points, f.samples, axis=0, extrapolate=False)  # NaN off the window
    out = np.empty((f.x_grid.count, t_grid.count), dtype=complex)
    for j in range(t_grid.count):
        x = warped[j]
        vals = spline(np.where(np.isnan(x), f.x_grid.start, x))[:, f.t_grid.count - 1 - j]
        vals[np.isnan(x)] = 0.0  # off the flow domain
        out[:, j] = np.conj(np.nan_to_num(vals, nan=0.0))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("complex_kernel", [False, True])
def test_adjoint_matches_column_loop(k, complex_kernel):
    # the long t-window sends warps off the x-window for every k and, for
    # k >= 2, off the flow domain (NaN rows)
    model = FlowModel(k)
    f = make_kernel(
        model,
        lambda X, T: mollifier(X, 0.3)
        * mollifier(T, 0.4)
        * (1 + X)
        * (np.exp(0.7j * T) if complex_kernel else 1.0),
        x_radius=0.5,
        x_step=0.01,
        t_radius=2.0,
        t_step=0.05,
    )
    assert np.iscomplexobj(f.samples) == complex_kernel
    warped = flow_eval_many(model, f.t_grid.points[:, None], f.x_grid.points)
    assert np.any(warped > f.x_grid.end)
    assert np.any(np.isnan(warped)) == (k >= 2)
    # at t = 0 the warped point is the window end itself
    j0 = int(np.argmin(np.abs(f.t_grid.points)))
    assert f.t_grid.points[j0] == 0.0 and warped[j0, -1] == f.x_grid.end
    # the second input's t-support sits off centre, so its leading and
    # trailing zero columns differ in number
    g = GroupoidKernel.from_function(
        model,
        f.x_grid,
        f.t_grid,
        lambda X, T: mollifier(X, 0.3)
        * mollifier(T - 0.2, 0.25)
        * (1 - X)
        * (np.exp(-0.4j * T) if complex_kernel else 1.0),
    )
    assert not np.any(g.samples[:, :35]) and not np.any(g.samples[:, -30:])
    for h in (f, g):
        want = adjoint_column_loop(h)
        got = adjoint(h).samples
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def convolve_column_loop(f, g):
    """The convolution node by node: g's nonzero rows gathered by fancy
    indexing, an interval lookup per node, and the spline of every t-column
    of f, zero or not."""
    xs = f.x_grid.points
    warped = flow_eval_many(f.flow, g.t_grid.points[:, None], xs)
    tol = g.support_tol * max(g.sup_norm(), 1.0)
    c = _spline_coeffs(xs, f.samples)
    trap_w = np.ones(g.t_grid.count)
    trap_w[0] = trap_w[-1] = 0.5
    n_out = f.t_grid.count + g.t_grid.count - 1
    out = np.zeros((xs.size, n_out), dtype=np.result_type(f.samples, g.samples))
    for l in range(g.t_grid.count):
        g_col = g.samples[:, l]
        if not np.any(np.abs(g_col) > tol):
            continue
        rows = np.flatnonzero(g_col)
        at = warped[l, rows]
        outside = ~((at >= xs[0]) & (at <= xs[-1]))
        at = np.where(outside, xs[0], at)
        idx = np.clip(np.searchsorted(xs, at, side="right") - 1, 0, xs.size - 2)
        dx = (at - xs[idx])[:, None]
        vals = ((c[0, idx] * dx + c[1, idx]) * dx + c[2, idx]) * dx + c[3, idx]
        vals[outside] = 0.0
        out[rows, l : l + f.t_grid.count] += (trap_w[l] * f.t_grid.step) * vals * g_col[rows, None]
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("complex_kernel", [False, True])
def test_convolve_matches_column_loop(k, complex_kernel):
    model = FlowModel(k)
    twist = (lambda T: np.exp(0.7j * T)) if complex_kernel else (lambda T: 1.0)
    # f's t-support [-0.15, 0.35] leaves zero columns at both ends of its window
    f = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T - 0.1, 0.25) * (1 + X) * twist(T)
    )
    assert not np.any(f.samples[:, :18]) and not np.any(f.samples[:, -8:])
    # g is zero on the rows 0.03 < x < 0.07, inside its x-support
    g = make_kernel(
        model,
        lambda X, T: mollifier(X, 0.3)
        * mollifier(T, 0.4)
        * np.cos(2 * T)
        * (np.abs(X - 0.05) >= 0.02),
    )
    inner = np.abs(g.x_grid.points - 0.05) < 0.02
    assert np.any(inner) and not np.any(g.samples[inner]) and np.any(g.samples[g.x_grid.points < 0])
    zero = GroupoidKernel(model, f.x_grid, f.t_grid, np.zeros_like(f.samples))
    for a, b in ((f, g), (g, f), (f, f), (zero, g), (g, zero)):
        got = convolve(a, b).samples
        want = convolve_column_loop(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_kernels_keep_sample_dtype():
    model = FlowModel(2)
    ident = lambda x: x
    f = make_kernel(model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + X))
    g = GroupoidKernel.from_function(
        model, f.x_grid, f.t_grid, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4)
    )
    real = [
        f,
        g,
        convolve(f, g),
        adjoint(f),
        module_mult_left(ident, f),
        module_mult_right(f, ident),
        scale_by_delta(f),
    ]
    assert all(h.samples.dtype == np.float64 for h in real)

    z = GroupoidKernel(model, f.x_grid, f.t_grid, f.samples * 1j)
    cplx = [
        z,
        convolve(z, g),
        convolve(g, z),
        adjoint(z),
        module_mult_left(ident, z),
        module_mult_right(z, ident),
        scale_by_delta(z),
    ]
    assert all(h.samples.dtype == np.complex128 for h in cplx)
    want = -1j * adjoint(f).samples
    assert np.max(np.abs(adjoint(z).samples - want)) <= 1e-14 * np.max(np.abs(want))


def test_adjoint_is_t_reflection_when_flow_negligible():
    # order-5 field on |x| <= 0.05 moves points by less than 1e-6, so the
    # adjoint reduces to conjugation plus t-reflection
    model = FlowModel(5)
    f = make_kernel(
        model,
        lambda X, T: mollifier(X, 0.04) * mollifier(T, 0.4) * (1.0 + X),
        x_radius=0.05,
        x_step=0.001,
    )
    astar = adjoint(f)
    reflected = np.conj(f.samples[:, ::-1])
    assert np.max(np.abs(astar.samples - reflected)) <= 1e-4 * f.sup_norm()


def test_module_actions():
    model = FlowModel(2)
    f, g, a_fn, b_fn, c_fn = separable_pair(model)
    one = lambda x: np.ones_like(x)
    assert np.max(np.abs(module_mult_left(one, g).samples - g.samples)) == 0.0
    assert np.max(np.abs(module_mult_right(g, one).samples - g.samples)) == 0.0

    ident = lambda x: x
    fg = convolve(f, g)
    lhs = module_mult_left(ident, fg)
    rhs = convolve(module_mult_left(ident, f), g)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-6 * max(lhs.sup_norm(), 1e-12)
    lhs2 = module_mult_right(fg, ident)
    rhs2 = convolve(f, module_mult_right(g, ident))
    assert np.max(np.abs(lhs2.samples - rhs2.samples)) <= 1e-6 * max(lhs2.sup_norm(), 1e-12)


def test_coordinate_exchange_relation():
    # x . f = (Delta f) . x pointwise on the grid
    for k in (1, 2, 3):
        model = FlowModel(k)
        xr = 0.95 if k == 1 else 0.65
        f = make_kernel(
            model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + X * T), x_radius=xr
        )
        ident = lambda x: x
        lhs = module_mult_left(ident, f)
        rhs = module_mult_right(scale_by_delta(f), ident)
        assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-8


def test_kernel_samples_are_frozen():
    f = make_kernel(FlowModel(2), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4))
    with pytest.raises(ValueError):
        f.samples[0, 0] = 1.0


def test_a_callers_array_is_copied_and_stays_writeable():
    f = make_kernel(FlowModel(2), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4))
    for mine in (np.array(f.samples), np.asfortranarray(f.samples)):
        kernel = GroupoidKernel(f.flow, f.x_grid, f.t_grid, mine)
        assert mine.flags.writeable and not np.shares_memory(mine, kernel.samples)
        mine[...] = 1.0
        assert np.array_equal(kernel.samples, f.samples)


def test_operation_results_are_read_only_in_their_own_layout():
    model = FlowModel(2)
    f, g, *_ = separable_pair(model)
    ident = lambda x: x
    results = (
        convolve(f, g), adjoint(f), module_mult_left(ident, f), module_mult_right(f, ident),
        scale_by_delta(f),
    )
    for result in results:
        assert not result.samples.flags.writeable
        with pytest.raises(ValueError):
            result.samples[0, 0] = 1.0
    assert results[0].samples.flags.c_contiguous
    # the adjoint computes its values time-major, and its kernel keeps them
    # so: the record sums along either axis depend on that layout
    assert results[1].samples.flags.f_contiguous and not results[1].samples.flags.c_contiguous


@pytest.mark.parametrize("k", [1, 2, 3])
def test_operations_warp_only_the_points_they_use(k, monkeypatch):
    """convolve warps g's nonzero rows by its nodes that carry mass, and
    adjoint the output times it fills; both give the whole-grid results bit
    for bit, real with complex either way."""
    model = FlowModel(k)
    f = make_kernel(model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + X))
    # g's mass sits off centre, and its rows move from node to node
    g = make_kernel(
        model,
        lambda X, T: mollifier(X - 0.1 - 0.3 * T, 0.15) * mollifier(T - 0.1, 0.2) * np.exp(0.7j * T),
    )
    warps = []

    def recording(model, t, x):
        warps.append(np.broadcast_shapes(np.shape(t), np.shape(x)))
        return flow_eval_many(model, t, x)

    monkeypatch.setattr(groupoid_conv, "flow_eval_many", recording)
    groupoid_conv._located.cache_clear()  # a kept warp would not be recorded
    for a, b in ((f, g), (g, f)):
        got = convolve(a, b).samples
        assert np.iscomplexobj(got) and np.array_equal(got, convolve_column_loop(a, b))
    rows = np.flatnonzero(np.any(g.samples, axis=1))
    nodes = np.flatnonzero(np.any(np.abs(g.samples) > g.support_tol * g.sup_norm(), axis=0))
    assert warps[0] == (nodes[-1] - nodes[0] + 1, rows[-1] - rows[0] + 1)
    assert warps[0][1] < g.x_grid.count / 2
    columns = np.flatnonzero(np.any(g.samples, axis=0))
    assert columns.size < g.t_grid.count / 2
    warps.clear()
    adjoint(g)
    assert warps == [(columns[-1] - columns[0] + 1, g.x_grid.count)]


def test_kept_warps_give_the_same_kernels_and_stay_bounded():
    """A product or adjoint from kept (memo) warps equals one from fresh warps
    bit for bit, also when g's box differs from the other operands'; the
    memo holds LOCATE_MEMO_SIZE key of read-only arrays."""
    model = FlowModel(2)
    f, g, *_ = separable_pair(model)
    shifted = make_kernel(
        model, lambda X, T: mollifier(X - 0.1 - 0.3 * T, 0.15) * mollifier(T - 0.1, 0.2)
    )
    located = groupoid_conv._located
    ops = [
        lambda: convolve(f, g), lambda: convolve(f, shifted), lambda: convolve(shifted, g),
        lambda: adjoint(g), lambda: adjoint(shifted),
    ]
    fresh = []
    for op in ops:
        located.cache_clear()
        fresh.append(op().samples)
    located.cache_clear()
    for i in (0, 0, 1, 0, 2, 1, 3, 3, 4, 1, 4, 2):
        assert np.array_equal(ops[i]().samples, fresh[i])
    info = located.cache_info()
    assert info.hits >= 2 and info.maxsize == groupoid_conv.LOCATE_MEMO_SIZE == 1
    assert info.currsize == 1
    idx, offset, outside = located(model, f.x_grid, f.t_grid, (3, 9), (10, 20))
    assert idx.dtype == np.int32 and idx.shape == offset.shape == outside.shape == (6, 10)
    for a in (idx, offset, outside):
        assert not a.flags.writeable


# ---------------------------------------------------------------------------
# Taylor map
# ---------------------------------------------------------------------------


def test_taylor_map_exact_monomial():
    model = FlowModel(2)
    f = make_kernel(model, lambda X, T: X * mollifier(T, 0.4) * mollifier(X, 0.55))
    rows = taylor_map(f, 3)
    b = mollifier(f.t_grid.points, 0.4)
    assert rows.shape == (4, f.t_grid.count)
    # inside |x| < 0.15 the kernel is exactly x * b(t); the fit sees that
    assert np.max(np.abs(rows[0])) <= 1e-10
    assert np.max(np.abs(rows[1] - b)) <= 1e-8
    assert np.max(np.abs(rows[2])) <= 1e-6


def test_taylor_map_gaussian_profile():
    # the cutoff is exactly 1 near 0, so the jet is that of exp(-x^2) b(t)
    model = FlowModel(2)
    f = make_kernel(
        model, lambda X, T: np.exp(-(X**2)) * plateau(X, 0.25, 0.55) * mollifier(T, 0.4)
    )
    rows = taylor_map(f, 2)
    b = mollifier(f.t_grid.points, 0.4)
    assert np.max(np.abs(rows[0] - b)) <= 1e-8
    assert np.max(np.abs(rows[1])) <= 1e-7
    assert np.max(np.abs(rows[2] + b)) <= 1e-5


def test_taylor_map_kills_high_order_kernels():
    model = FlowModel(2)
    p = 2
    f = make_kernel(model, lambda X, T: X ** (p + 1) * mollifier(X, 0.55) * mollifier(T, 0.4))
    rows = taylor_map(f, p)
    assert rows.shape == (p + 1, f.t_grid.count)
    assert np.max(np.abs(rows)) <= 1e-6


def test_taylor_map_needs_resolution():
    model = FlowModel(2)
    xg = GridSpec.centered(0.6, 0.1)
    tg = GridSpec.centered(0.5, 0.1)
    f = GroupoidKernel.from_function(
        model, xg, tg, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4)
    )
    with pytest.raises(ValueError):
        taylor_map(f, 5)


def test_taylor_map_requires_zero_inside():
    model = FlowModel(2)
    xg = GridSpec(0.1, 0.01, 51)
    tg = GridSpec.centered(0.5, 0.02)
    samples = np.zeros((51, 51), dtype=complex)
    f = GroupoidKernel(model, xg, tg, samples)
    with pytest.raises(ValueError):
        taylor_map(f, 1)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_l1_norms_zero():
    f = make_kernel(FlowModel(2), lambda X, T: np.zeros_like(X))
    assert l1_groupoid_norm(f) == 0.0


def test_l1_norm_of_product_kernel():
    for k in (1, 2, 3):
        model = FlowModel(k)
        xr = 0.95 if k == 1 else 0.65
        f, _, a_fn, b_fn, _ = separable_pair(model)
        f = make_kernel(model, lambda X, T: a_fn(X) * b_fn(T), x_radius=xr)
        a_sup = float(np.max(np.abs(a_fn(f.x_grid.points))))
        b_l1 = float(np.trapezoid(np.abs(b_fn(f.t_grid.points)), dx=f.t_grid.step))
        assert l1_groupoid_norm(f) == pytest.approx(a_sup * b_l1, rel=1e-6)


def test_l1_norm_adjoint_symmetric():
    model = FlowModel(2)
    f = make_kernel(
        model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4) * (1 + 0.4j * X * T)
    )
    assert l1_groupoid_norm(adjoint(f)) == pytest.approx(l1_groupoid_norm(f), rel=1e-6)


def test_l1_submultiplicative(rng):
    model = FlowModel(2)
    f, g, *_ = separable_pair(model)
    fg = convolve(f, g)
    assert l1_groupoid_norm(fg) <= l1_groupoid_norm(f) * l1_groupoid_norm(g) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# construction and errors
# ---------------------------------------------------------------------------


def test_grid_and_flow_mismatch_errors():
    f = make_kernel(FlowModel(2), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4))
    g = make_kernel(FlowModel(3), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4))
    with pytest.raises(ValueError):
        convolve(f, g)
    h = make_kernel(
        FlowModel(2), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4), x_step=0.008
    )
    with pytest.raises(ValueError):
        convolve(f, h)


def test_step_mismatch_raises_in_both_convolutions():
    # one axis rule, GridSpec.convolved, behind the sampled ring and the
    # groupoid: steps that differ by more than 1e-12 relative are refused
    with pytest.raises(ValueError, match="step mismatch"):
        GridSpec(-1.0, 0.1, 21).convolved(GridSpec(-1.0, 0.1 * (1 + 2e-12), 21))
    a = GaussPolyFn.gaussian().sample(GridSpec.centered(8.0, 0.05))
    b = GaussPolyFn.gaussian().sample(GridSpec.centered(8.0, 0.1))
    with pytest.raises(ValueError, match="step mismatch"):
        a.convolve(b)
    fn = lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4)
    f = make_kernel(FlowModel(2), fn)
    g = make_kernel(FlowModel(2), fn, t_step=0.025)
    with pytest.raises(ValueError, match="step mismatch"):
        convolve(f, g)


def test_boundary_support_enforced():
    model = FlowModel(2)
    xg = GridSpec.centered(0.2, 0.01)
    tg = GridSpec.centered(0.5, 0.02)
    with pytest.raises(ValueError):
        GroupoidKernel.from_function(
            model, xg, tg, lambda X, T: mollifier(X, 0.5) * mollifier(T, 0.4)
        )


def test_domain_violation_at_construction():
    model = FlowModel(2)
    xg = GridSpec.centered(0.9, 0.05)
    tg = GridSpec.centered(2.0, 0.05)
    # mass at x ~ 0.85 with window |t| <= 2 crosses t*x >= 1
    with pytest.raises(FlowDomainError):
        GroupoidKernel.from_function(
            model, xg, tg, lambda X, T: mollifier(X - 0.6, 0.25) * mollifier(T, 1.8)
        )


@pytest.mark.parametrize("support_tol", [np.inf, 1e-6, 0.0, -1e-10, np.nan])
def test_support_tol_outside_its_range_is_rejected(support_tol):
    model = FlowModel(2)
    xg = GridSpec.centered(0.9, 0.02)
    tg = GridSpec.centered(1.5, 0.05)
    with pytest.raises(ValueError, match="support_tol"):
        GroupoidKernel(model, xg, tg, np.zeros((xg.count, tg.count)), support_tol=support_tol)


def test_off_domain_mass_is_rejected_at_the_largest_support_tol():
    # the operations skip the domain check because construction makes it at
    # the threshold they use; mass at t*x >= 1 fails even at the largest one
    model = FlowModel(2)
    xg = GridSpec.centered(0.9, 0.02)
    tg = GridSpec.centered(1.5, 0.05)
    X, T = np.meshgrid(xg.points, tg.points, indexing="ij")
    samples = mollifier(X - 0.7, 0.15) * mollifier(T, 1.4)
    with pytest.raises(FlowDomainError):
        GroupoidKernel(model, xg, tg, samples, support_tol=DERIVED_SUPPORT_TOL)


def test_rescaled_variant_convolves():
    model = FlowModel(2, COMPLETE_RESCALED)
    f = make_kernel(
        model,
        lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4),
        x_step=0.01,
    )
    fg = convolve(f, f)
    assert fg.sup_norm() > 0.0
    # rescaled and monomial agree closely on this small support
    g = make_kernel(
        FlowModel(2), lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4), x_step=0.01
    )
    gg = convolve(g, g)
    assert np.max(np.abs(fg.samples - gg.samples)) <= 1e-3 * gg.sup_norm()


def test_rescaled_derivative_and_cocycles_raise():
    # they are the monomial flow's only; a silent monomial value would be wrong
    model = FlowModel(2, COMPLETE_RESCALED)
    for evaluator in (flow_derivative_many, cocycle_delta_many, beta_cocycle):
        with pytest.raises(ValueError, match="complete_rescaled"):
            evaluator(model, [0.5], [0.3])
    f = make_kernel(model, lambda X, T: mollifier(X, 0.3) * mollifier(T, 0.4), x_step=0.01)
    with pytest.raises(ValueError, match="complete_rescaled"):
        scale_by_delta(f)
