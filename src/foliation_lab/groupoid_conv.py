"""Sampled kernels on the transformation groupoid of a flow on the line.

A ``GroupoidKernel`` is a compactly supported function of (x, t) sampled on a
rectangular grid, where (x, t) stands for the arrow from x to phi_t(x).  The
module implements:

  convolution     (f*g)(x,t) = integral of f(phi_s(x), t-s) g(x,s) ds
  adjoint         f*(x,t)    = conj f(phi_t(x), -t)
  module actions  (a.g)(x,t) = a(phi_t(x)) g(x,t),  (g.a)(x,t) = a(x) g(x,t)
  Taylor map      T(f)_n(t) = (1/n!) d^n f/dx^n (0, t), n <= p, as rows
  L^1 norm        sup over x of the larger t-integral of |f| and |f*|

Quadrature is the trapezoid rule on the t-grid; values of f at the off-grid
points (phi_s(x), t-s) come from cubic interpolation along x (the t argument
stays on-grid because both operands share one t-step).  The interpolant is
the not-a-knot cubic spline of ``coeff_ring._spline_coeffs``, whose
coefficients equal ``CubicSpline``'s bit for bit; ``_spline_locate`` finds the
interval of each point and ``_spline_horner`` evaluates there.  Building a
kernel is the one flow-domain check, at a support tolerance no larger than
DERIVED_SUPPORT_TOL, the mass threshold of the operations; so they evaluate
the flow, NaN exactly off the domain, without checking it again.  The
convolution locates every warped node once per product; for each quadrature
node it evaluates the spline only on the contiguous rows between g's first
and last nonzero row of that column.
A product's t-axis is ``GridSpec.convolved`` of its operands' axes and its
x-window is unchanged; kernels, like ``GridFn``, are built by
``coeff_ring._frozen_samples``.  The adjoint needs f at (phi_tau(x), -tau)
only, so for each output time it evaluates the x-interpolant of the one
mirrored column, straight from the spline's piecewise coefficients.  Both
build and evaluate the spline on f's window of t-columns between its first
and last nonzero one only: a zero column has a zero spline and adds exact
zeros, so every result is the same bit for bit as with the full spline.

Kernels keep the dtype of their samples: real samples stay float64 through
every operation, and a result is complex only when an input is.
"""

from __future__ import annotations

import numpy as np

from .coeff_ring import (
    DEFAULT_SUPPORT_TOL, GridSpec, _frozen_samples, _nonzero_span, _spline_coeffs, _spline_horner,
    _spline_locate,
)
from .flow import FlowDomainError, FlowModel, cocycle_delta_many, flow_eval_many

# kernels produced by interpolating operations carry cubic-interpolation
# ringing off the support edge; their boundary check allows for it
DERIVED_SUPPORT_TOL = 1e-7


class GroupoidKernel:
    """A sampled compactly supported kernel tied to a flow model; support_tol
    lies in (0, DERIVED_SUPPORT_TOL]."""

    __slots__ = ("flow", "x_grid", "t_grid", "samples", "support_tol")

    def __init__(self, flow, x_grid, t_grid, samples, support_tol=DEFAULT_SUPPORT_TOL):
        if not isinstance(flow, FlowModel):
            raise TypeError("flow must be a FlowModel")
        if not 0.0 < support_tol <= DERIVED_SUPPORT_TOL:
            raise ValueError(f"support_tol must lie in (0, {DERIVED_SUPPORT_TOL:g}]")
        x_grid = GridSpec(*x_grid)
        t_grid = GridSpec(*t_grid)
        samples, tol = _frozen_samples(samples, (x_grid, t_grid), support_tol)
        # every sample carrying mass must be a point of the groupoid, i.e.
        # admissible for the flow; the operations rely on it
        mass = np.abs(samples) > tol
        if np.any(mass):
            ok = flow.in_domain(t_grid.points[None, :], x_grid.points[:, None])
            bad = mass & ~ok
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                raise FlowDomainError(
                    f"kernel carries mass at (x={x_grid.points[i]:g}, "
                    f"t={t_grid.points[j]:g}), outside the flow domain"
                )
        self.flow = flow
        self.x_grid = x_grid
        self.t_grid = t_grid
        self.samples = samples
        self.support_tol = support_tol

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_function(cls, flow, x_grid, t_grid, fn, **kw):
        x_grid = GridSpec(*x_grid)
        t_grid = GridSpec(*t_grid)
        X, T = np.meshgrid(x_grid.points, t_grid.points, indexing="ij")
        return cls(flow, x_grid, t_grid, fn(X, T), **kw)

    def sup_norm(self):
        return float(np.max(np.abs(self.samples)))

    def _check_compatible(self, other):
        if self.flow != other.flow:
            raise ValueError("kernels live over different flows")
        if tuple(self.x_grid) != tuple(other.x_grid):
            raise ValueError("x-grid mismatch")


def convolve(f, g):
    """(f*g)(x,t) = integral f(phi_s(x), t-s) g(x,s) ds on the shared grid.

    g's construction put its mass inside the flow domain; a warped node
    off the domain is NaN, where the spline reads 0.
    """
    f._check_compatible(g)
    t_grid = f.t_grid.convolved(g.t_grid)
    flow = f.flow
    xs = f.x_grid.points
    dt = t_grid.step
    out = np.zeros((f.x_grid.count, t_grid.count), dtype=np.result_type(f.samples, g.samples))

    warped = flow_eval_many(flow, g.t_grid.points[:, None], xs)  # (n_s, n_x), NaN off-domain
    mass = np.abs(g.samples.T) > g.support_tol * max(g.sup_norm(), 1.0)  # (n_s, n_x)
    # f's t-columns outside c0:c1 are zero, so their spline is zero and they
    # would add exact zeros
    c0, c1 = _nonzero_span(np.any(f.samples, axis=0))
    spline = _spline_coeffs(xs, f.samples[:, c0:c1])
    idx, offset, outside = _spline_locate(xs, warped)
    trap_w = np.ones(g.t_grid.count)
    trap_w[0] = trap_w[-1] = 0.5

    for l in np.flatnonzero(np.any(mass, axis=1)):
        # the rows from g's first to last nonzero one; a zero row between
        # them adds exact zeros
        lo, hi = _nonzero_span(g.samples[:, l])
        f_slab = _spline_horner(spline, (idx[l, lo:hi],), offset[l, lo:hi, None], outside[l, lo:hi])
        out[lo:hi, l + c0 : l + c1] += (trap_w[l] * dt) * f_slab * g.samples[lo:hi, l, None]

    # freed before the kernel copies out, so that the copy can reuse their
    # memory; with them alive the copy took about twice as long on the
    # refined grids
    del idx, offset, outside, spline
    return GroupoidKernel(flow, f.x_grid, t_grid, out, f.support_tol)


def adjoint(f):
    """f*(x,t) = conj f(phi_t(x), -t); the t-window is reflected.

    Grid points outside the flow domain carry no true mass (the adjoint is
    supported on composable pairs) and become zeros; the construction check
    of the result raises if mass actually lands on an inadmissible row.
    """
    flow = f.flow
    xs = f.x_grid.points
    n_t = f.t_grid.count
    t_grid = GridSpec(-f.t_grid.end, f.t_grid.step, n_t)
    warped = flow_eval_many(flow, t_grid.points[:, None], xs)  # (n_t, n_x)

    # f at (phi_tau(x), -tau); -tau is the mirrored on-grid column, so f's
    # nonzero columns c0:c1 fill the output times n_t - c1 : n_t - c0
    c0, c1 = _nonzero_span(np.any(f.samples, axis=0))
    times = slice(n_t - c1, n_t - c0)
    idx, offset, outside = _spline_locate(xs, warped[times])
    mirrored = np.arange(c1 - c0)[::-1, None]
    vals = np.zeros((n_t, xs.size), dtype=f.samples.dtype)  # (n_t, n_x)
    vals[times] = _spline_horner(
        _spline_coeffs(xs, f.samples[:, c0:c1]), (idx, mirrored), offset, outside
    )
    out = np.conj(vals.T)
    return GroupoidKernel(flow, f.x_grid, t_grid, out, DERIVED_SUPPORT_TOL)


def module_mult_left(a, g):
    """(a.g)(x,t) = a(phi_t(x)) g(x,t) for a callable a of the base coordinate."""
    warped = flow_eval_many(g.flow, g.t_grid.points[:, None], g.x_grid.points)  # (n_t, n_x)
    a_vals = np.asarray(a(np.where(np.isnan(warped), 0.0, warped)))
    a_vals = np.where(np.isnan(warped), 0.0, a_vals)
    return GroupoidKernel(
        g.flow, g.x_grid, g.t_grid, a_vals.T * g.samples, g.support_tol
    )


def module_mult_right(g, a):
    """(g.a)(x,t) = a(x) g(x,t)."""
    a_vals = np.asarray(a(g.x_grid.points))
    return GroupoidKernel(
        g.flow, g.x_grid, g.t_grid, a_vals[:, None] * g.samples, g.support_tol
    )


def scale_by_delta(g):
    """Pointwise multiply by the cocycle Delta(x,t) = phi_t(x)/x (extended)."""
    vals = cocycle_delta_many(g.flow, g.t_grid.points[:, None], g.x_grid.points).T  # (n_x, n_t)
    vals = np.where(np.isnan(vals), 0.0, vals)
    return GroupoidKernel(g.flow, g.x_grid, g.t_grid, vals * g.samples, g.support_tol)


def taylor_map(f, p):
    """The jet of order p of the kernel as its coefficient rows: an array of
    shape (p + 1, n_t) whose row n is (1/n!) d^n f/dx^n (0, t) on f's t-grid.

    Derivatives at 0 come from a least-squares polynomial fit of degree p+2
    over a symmetric stencil of at least 2p+5 points around x = 0, which is
    robust to the quadrature noise that products carry.
    """
    xs = f.x_grid.points
    if not (xs[0] < 0.0 < xs[-1]):
        raise ValueError("x = 0 must lie strictly inside the x-grid")
    width = 2 * p + 5
    degree = p + 2
    if width > xs.size:
        raise ValueError(
            f"taylor_map order {p} needs a stencil of {width} points; "
            f"the x-grid has only {xs.size}"
        )
    i0 = int(np.argmin(np.abs(xs)))
    half = width // 2
    lo = max(0, min(i0 - half, xs.size - width))
    stencil = slice(lo, lo + width)
    xloc = xs[stencil]
    design = np.vander(xloc, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, f.samples[stencil, :], rcond=None)
    return coeffs[: p + 1]


def l1_groupoid_norm(f):
    """sup over x of the larger of the t-integrals of |f| and |f*|."""
    dt = f.t_grid.step
    direct = np.trapezoid(np.abs(f.samples), dx=dt, axis=1)
    adj = np.trapezoid(np.abs(adjoint(f).samples), dx=dt, axis=1)
    return float(np.max(np.maximum(direct, adj)))
