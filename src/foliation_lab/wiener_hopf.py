"""Operator side: Fourier and Cayley unitaries, Toeplitz sections, index data.

Conventions, fixed once
-----------------------

Fourier transform of a function on the line:

    F f (s) = integral f(t) exp(-2 pi i s t) dt

Symbol loops live on the one-point compactification of the line, sampled on
the tangent-substituted grid s = tan(theta/2)/pi with theta running once
around the circle counterclockwise; circle loops are sampled at increasing
angle.  Winding numbers accumulate argument increments along the loop in
that orientation, so z^n winds n.

The K-theory/index bookkeeping of a convolution operator evaluates its
symbol with the *plus* pairing exp(+2 pi i s t), i.e. the loop of a kernel g
is s -> F g (-s).  That is the orientation in which the classical index
theorem for truncated convolution operators on the half-line reads
"index = -winding", and in which the canonical index-one generator loop of
the half-line extension winds +1.  With the minus pairing the same loop
winds -1; only the bookkeeping flips, the operators do not change.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .coeff_ring import GridSpec, _bump, _fft_convolve, _nonzero_span
from .flow import flow_eval_many


class NonFredholmError(ValueError):
    """The symbol loop passes through (or too near) the origin."""


class UnderResolvedLoopError(ValueError):
    """The argument quadrature did not land near an integer winding."""


# ---------------------------------------------------------------------------
# symbol loops
# ---------------------------------------------------------------------------


class SymbolLoop:
    """A closed loop of finite complex values: a symbol on the circle or the
    compactified line."""

    __slots__ = ("values", "kind", "label")

    def __init__(self, values, kind="circle", label=""):
        values = np.ascontiguousarray(values, dtype=complex)
        if values.ndim != 1 or values.size < 3:
            raise ValueError("a loop needs at least three samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("loop samples must be finite")
        self.values = values
        self.kind = kind
        self.label = label

    @classmethod
    def from_circle_function(cls, fn, n=1024):
        theta = 2.0 * np.pi * np.arange(n) / n
        return cls(fn(np.exp(1j * theta)), kind="circle")

    @staticmethod
    def tangent_grid(n):
        """n points s = tan(theta/2)/pi at angle midpoints, poles avoided."""
        theta = -np.pi + (2.0 * np.arange(n) + 1.0) * np.pi / n
        return np.tan(theta / 2.0) / np.pi

    @classmethod
    def from_line_function(cls, fn, n=2048, limit=None, label=""):
        """Sample a line symbol on the compactified grid, s increasing.

        The loop closes through the point at infinity; the two extreme
        samples must already agree within 1 % of the loop's largest modulus,
        and ``limit``, when given, is appended as the closing value.
        """
        s = cls.tangent_grid(n)
        vals = np.asarray(fn(s), dtype=complex)
        span = float(np.max(np.abs(vals))) or 1.0
        if abs(vals[0] - vals[-1]) > 1e-2 * span:
            raise ValueError(
                "line symbol does not close at infinity: "
                f"f(-inf)~{vals[0]:.4g} vs f(+inf)~{vals[-1]:.4g}"
            )
        if limit is not None:
            vals = np.concatenate([[complex(limit)], vals, [complex(limit)]])
        return cls(vals, kind="line", label=label)

    def closed_values(self):
        v = self.values
        if v[0] == v[-1]:
            return v
        return np.concatenate([v, v[:1]])

    def __mul__(self, other):
        """Samplewise product with a loop of the same kind and length."""
        if self.kind != other.kind:
            raise ValueError("cannot combine circle and line loops")
        if self.values.size != other.values.size:
            raise ValueError("loops have different sample counts")
        return SymbolLoop(self.values * other.values, self.kind)


MAX_ARG_STEP = 0.9 * np.pi  # a sampled step this close to pi means aliasing
WINDING_RESIDUAL = 0.05  # turns from the nearest integer a trusted winding may miss by


def winding_number(loop):
    """Total argument increment around the loop, over 2 pi, as an integer.

    Raises NonFredholmError when the loop meets the origin and
    UnderResolvedLoopError when the sampling cannot be trusted: either the
    accumulated argument misses every integer multiple of 2 pi by more than
    WINDING_RESIDUAL turns, or a single step turns by nearly pi (principal
    branches then wrap, which aliases the count).
    """
    raw, residual, _, max_step = winding_diagnostics(loop)
    if residual > WINDING_RESIDUAL:
        raise UnderResolvedLoopError(
            f"winding residual {residual:.3g} exceeds {WINDING_RESIDUAL}; increase the loop resolution"
        )
    if max_step > MAX_ARG_STEP:
        raise UnderResolvedLoopError(
            f"a single loop step turns by {max_step:.3g} rad; "
            "increase the loop resolution"
        )
    return int(round(raw))


def winding_diagnostics(loop):
    """(raw winding, distance to nearest integer, min |loop|, max arg step);
    a minimum modulus at or below 1e-12 counts as meeting the origin."""
    v = loop.closed_values()
    minmod = float(np.min(np.abs(v)))
    if minmod <= 1e-12:
        raise NonFredholmError(
            f"symbol modulus drops to {minmod:.3g}; no index is defined"
        )
    steps = np.angle(v[1:] / v[:-1])
    raw = float(np.sum(steps) / (2.0 * np.pi))
    return raw, abs(raw - round(raw)), minmod, float(np.max(np.abs(steps)))


# ---------------------------------------------------------------------------
# Fourier transform of sampled line functions
# ---------------------------------------------------------------------------


def fourier_transform_values(grid, y, s):
    """F f at the points s by corrected trapezoid quadrature, from the samples
    y of f on the axis grid (a ``GridSpec``); f need not vanish at the window
    edges.

    With B = ceil(sqrt(n)) and t_j = t0 + (a B + b) h, the phase factors as
    exp(-2 pi i s (t0 + a B h)) exp(-2 pi i s b h), so the trapezoid sum is one
    (S x B)(B x A) contraction with w y zero-padded to A B: 2 S sqrt(n)
    exponentials, not S n.  It is an ``einsum``, which unlike BLAS runs on one
    thread; the values differ from the direct sum only by rounding.

    The endpoint correction subtracts h^2/12 (g'(end) - g'(start)) with g the
    integrand, which restores O(h^4) accuracy when f is cut off or kinked at
    a window endpoint (one-sided second-order differences estimate f' there).
    """
    h = grid.step
    n = y.size
    s = np.atleast_1d(np.asarray(s, dtype=float))
    block = int(np.ceil(np.sqrt(n)))
    blocks = -(-n // block)
    wy = np.zeros(blocks * block, dtype=complex)
    wy[:n] = y
    wy[0] = 0.5 * y[0]
    wy[n - 1] = 0.5 * y[-1]
    outer = np.exp(-2j * np.pi * s[:, None] * (grid.start + block * h * np.arange(blocks)))
    inner = np.exp(-2j * np.pi * s[:, None] * (h * np.arange(block)))
    vals = np.sum(outer * np.einsum("sb,ab->sa", inner, wy.reshape(blocks, block)), axis=1) * h
    if n >= 3:
        d0 = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        d1 = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
        twopis = 2j * np.pi * s
        gp0 = (d0 - twopis * y[0]) * np.exp(-2j * np.pi * s * grid.start)
        gp1 = (d1 - twopis * y[-1]) * np.exp(-2j * np.pi * s * grid.end)
        vals = vals - (h * h / 12.0) * (gp1 - gp0)
    return vals


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------


def cayley_basis_image(n):
    """Image on the line of the circle basis vector z^n / sqrt(2 pi).

    For every integer n the image is (1/sqrt(pi)) w(t)^n / (t + i) with
    w(t) = (t - i)/(t + i); n >= 0 spans the Hardy space of the line and
    n < 0 its orthogonal complement.
    """

    def fn(t):
        t = np.asarray(t, dtype=float)
        w = (t - 1j) / (t + 1j)
        return (w**n) / ((t + 1j) * np.sqrt(np.pi))

    return fn


def cayley_gram_matrix(indices):
    """Inner products of basis images: quadrature on 200,001 points of
    [-R, R], R = 1000, plus the exact analytic tail of the integrand (whose
    modulus is 1/(pi (1 + t^2)))."""
    t_radius, n_points = 1000.0, 200001
    t = np.linspace(-t_radius, t_radius, n_points)
    dt = t[1] - t[0]
    w = np.full(n_points, dt)
    w[0] = w[-1] = dt / 2.0
    vals = np.stack([cayley_basis_image(n)(t) for n in indices])
    gram = (vals * w) @ np.conj(vals).T
    for a, na in enumerate(indices):
        for b, nb in enumerate(indices):
            gram[a, b] += _cayley_tail(na - nb, t_radius)
    return gram


def _cayley_tail(d, radius):
    """integral over |t| > R of w(t)^d / (pi (1 + t^2)) dt, in closed form."""
    half_gap = 2.0 * np.arctan(1.0 / radius)
    if d == 0:
        return half_gap / np.pi
    return np.sin(d * half_gap) / (np.pi * d)


# ---------------------------------------------------------------------------
# Toeplitz finite sections
# ---------------------------------------------------------------------------


def toeplitz_finite_section(loop, n):
    """The n x n matrix (T_f)_{jk} = fhat(j - k), an ndarray, from the circle
    Fourier coefficients of the loop (discrete quadrature over the samples)."""
    if loop.kind != "circle":
        raise ValueError("finite sections are built from circle-sampled loops")
    if n < 1:
        raise ValueError("a finite section needs n >= 1")
    vals = loop.values
    m = vals.size
    fft = np.fft.fft(vals) / m  # fft[k] = mean of f(z_j) z_j^{-k} = fhat(k)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % m
    return fft[idx]


def finite_section_kernel_counts(section):
    """(dim ker, dim coker) of the truncation, counted by singular values
    below 1e-10.  A diagnostic only: finite sections of shift-like operators grow
    spurious kernel vectors that the true operator does not have, so the
    index of record always comes from the winding number."""
    svals = np.linalg.svd(section, compute_uv=False)
    n_small = int(np.sum(svals < 1e-10))
    # the matrix is square, so kernel and cokernel counts coincide
    return n_small, n_small


# ---------------------------------------------------------------------------
# the half-line extension generator and its index
# ---------------------------------------------------------------------------


def generator_kernel(t_radius=60.0, t_step=1e-3):
    """The kernel b(t) = exp(-t/2) for t >= 0 sampled on [0, radius], as
    ``(grid, samples)``.

    b jumps to 1 at the left window edge, so it is not a ``GridFn``, whose
    samples vanish at the window edges; the corrected trapezoid in
    ``fourier_transform_values`` handles the cut-off endpoint at O(h^4).
    """
    grid = GridSpec(0.0, t_step, int(round(t_radius / t_step)) + 1)
    return grid, np.exp(-grid.points / 2.0)


def generator_hat_closed_form(s):
    """F b in closed form: 1 / (1/2 + 2 pi i s)."""
    s = np.asarray(s, dtype=float)
    return 1.0 / (0.5 + 2j * np.pi * s)


def generator_symbol_loop(n=4096):
    """Spectral loop of 1 - b: s -> 1 - F b(-s) on the compactified line.

    Evaluated with the plus pairing (see module docstring); this loop winds
    +1 and the extension's boundary map sends its class to -1.
    """
    return SymbolLoop.from_line_function(
        lambda s: 1.0 - generator_hat_closed_form(-s),
        n=n,
        limit=1.0,
        label="one minus half-line generator",
    )


def index_report(loop):
    raw, residual, minmod, _ = winding_diagnostics(loop)
    return {
        "symbol_id": loop.label,
        "winding": int(round(raw)),
        "boundary_index": -int(round(raw)),
        "fredholm_min_modulus": minmod,
        "residual": residual,
    }


# ---------------------------------------------------------------------------
# flow bi-index and parity classification
# ---------------------------------------------------------------------------


# source/sink signature of the fixed point on the two half-lines: +1 for a
# source, -1 for a sink, component one for the left half-line
FlowBiIndex = namedtuple("FlowBiIndex", "left right")


def flow_bi_index(model):
    """Bi-index read off the orbits of x = -0.1 and 0.1 at time 0.1: epsilon
    is +1 on a half-line whose orbit moves away from 0 and -1 on one whose
    orbit moves toward it (0 where the move is below rounding, from k = 16)."""
    moved = np.abs(flow_eval_many(model, 0.1, [-0.1, 0.1])) - 0.1
    return FlowBiIndex(*np.sign(moved).astype(int).tolist())


def parity_invariant(idx):
    """epsilon_1 + epsilon_2: 0 for mixed components, +/-2 for equal ones.

    |sum| = 2 exactly when the field order k is odd, which is the
    isomorphism invariant of the completed algebra.
    """
    return idx.left + idx.right


def bi_index_report(model):
    idx = flow_bi_index(model)
    return {
        "k": model.k,
        "variant": model.variant,
        "epsilon": [idx.left, idx.right],
        "parity_invariant": parity_invariant(idx),
    }


# ---------------------------------------------------------------------------
# non-preservation of the half-line operator algebra under steep warps
# ---------------------------------------------------------------------------


class Diffeomorphism:
    """An orientation-preserving diffeomorphism of the line with u' >= floor,
    inverted numerically (a monotone table on [-60, 60], continued along u's
    tangent lines at its ends, as the seed, bisected back toward the table
    where a convex u outruns its tangent, then Newton polish)."""

    def __init__(self, u, du):
        self.u = u
        self.du = du
        xs = np.linspace(-60.0, 60.0, 120001)
        us = np.asarray(u(xs), dtype=float)
        if np.any(np.diff(us) <= 0):
            raise ValueError("u is not strictly increasing on the tabulated range")
        self._xs = xs
        self._us = us

    @classmethod
    def identity(cls):
        return cls(lambda x: np.asarray(x, dtype=float), lambda x: np.ones_like(np.asarray(x, dtype=float)))

    @classmethod
    def exp_stretch(cls):
        """u(x) = x + e^x: smooth, u' = 1 + e^x >= 1, u' -> infinity.  The
        exponent is clamped at 700, short of overflow, so beyond it u' is 1."""
        return cls(
            lambda x: np.asarray(x, dtype=float) + np.exp(np.minimum(np.asarray(x, dtype=float), 700.0)),
            lambda x: np.where(np.asarray(x) < 700.0, 1.0 + np.exp(np.minimum(x, 700.0)), 1.0),
        )

    def inverse(self, y):
        """u^{-1}(y); raises ValueError where the polished point still misses
        y by more than 1e-9 (1 + |y|)."""
        y = np.asarray(y, dtype=float)
        xs, us = self._xs, self._us
        # np.interp clamps to the table's ends; beyond them the seed follows
        # the tangent line there (a zero step inside the table)
        x = np.array(np.interp(y, us, xs))
        x += np.minimum(y - us[0], 0.0) / self.du(xs[0])
        x += np.maximum(y - us[-1], 0.0) / self.du(xs[-1])
        # a convex u outruns that tangent line, so far beyond the table the
        # seed sits far above the root, where Newton's steps are too short;
        # bisect between the table's end and the seed to a Newton-ready one
        over = np.flatnonzero(y > us[-1])
        over = over[np.asarray(self.u(x.flat[over]), dtype=float) > y.flat[over]]
        if over.size:
            lo, hi, target = np.full(over.size, xs[-1]), x.flat[over], y.flat[over]
            while np.any(hi - lo > 1e-6 * (1.0 + np.abs(hi))):
                mid = 0.5 * (lo + hi)
                above = np.asarray(self.u(mid), dtype=float) >= target
                lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
            x.flat[over] = hi
        for _ in range(4):
            x = x - (np.asarray(self.u(x), dtype=float) - y) / np.asarray(self.du(x), dtype=float)
        miss = np.abs(np.asarray(self.u(x), dtype=float) - y)
        if not np.all(miss <= 1e-9 * (1.0 + np.abs(y))):
            raise ValueError("the Newton polish of u^{-1} did not converge")
        return x


@dataclass(frozen=True)
class GaussianSpec:
    """f(x) = amplitude * exp(-x^2 / (2 sigma^2)); F f is again Gaussian."""

    amplitude: float = 1.0
    sigma: float = 1.0

    def transform_values(self, t):
        t = np.asarray(t, dtype=float)
        return (
            self.amplitude
            * self.sigma
            * np.sqrt(2.0 * np.pi)
            * np.exp(-2.0 * np.pi**2 * self.sigma**2 * t**2)
        )


def nonpreservation_demo(u, f1, f2, n_max=20):
    """Norms of (T1 - U^{-1} T2 U) applied to a marching orthonormal family.

    T_i is convolution by F f_i after projecting to the right half-line, and
    U is the unitary warp (U xi)(x) = sqrt(u'(x)) xi(u(x)).  The test vectors
    xi_n are one smooth unit bump on [0, 2] translated by 3n, so disjoint,
    sampled with step 0.005 on [-20, 3 n_max + 20).  Each
    record reports the full difference norm, the constant first-term norm a,
    and the L^2 and sup norms of the pulled-back second term, so a steep
    warp (u' -> infinity) shows the first term pinned at a while the second
    fades: the difference cannot be a compact perturbation of anything.

    Every convolution and interpolation runs on nonzero windows only: the
    sampled kernels are cut to their nonzero samples once, each vector's
    nonzero window is convolved with that cut kernel by
    ``coeff_ring._fft_convolve``, and ``np.interp`` is evaluated only at the
    warped points the interpolated vector's nonzero window can reach.  The
    values left out are exact zeros; the norms are taken on the whole grid.
    """
    if not isinstance(u, Diffeomorphism):
        raise ValueError("u must be a Diffeomorphism descriptor")
    x = np.arange(-20.0, 3.0 * n_max + 20.0, 0.005)
    dx = x[1] - x[0]
    proj = x >= 0.0

    xi0 = _bump(x - 1.0, 1.0)
    xi0 = xi0 / np.sqrt(np.trapezoid(xi0**2, dx=dx))

    def convolver(spec):
        """vec -> the len(vec) middle of its full convolution with the kernel
        of spec (scipy's mode="same"), from the nonzero windows of both."""
        if spec is None:
            return np.zeros_like
        # the kernel on a symmetric window around 0; the middle starts at
        # full index `start`, and kernel sample k0 is the cut kernel's first
        kernel = spec.transform_values(np.arange(-len(x) // 2, len(x) // 2 + 1) * dx)
        start = (len(kernel) - 1) // 2
        k0, k1 = _nonzero_span(kernel)
        kernel = kernel[k0:k1]

        def conv(vec):
            out = np.zeros(len(vec), dtype=kernel.dtype)  # every vector here is real
            v0, v1 = _nonzero_span(vec != 0)
            if v0 == v1 or k0 == k1:
                return out
            window = _fft_convolve(vec[v0:v1], kernel)
            # window[j] is entry v0 + k0 + j of the full convolution
            lo = v0 + k0 - start
            a, b = max(lo, 0), min(lo + window.size, len(vec))
            if a < b:
                out[a:b] = window[a - lo : b - lo] * dx
            return out

        return conv

    conv1 = convolver(f1)
    conv2 = convolver(f2)

    du_x = np.asarray(u.du(x), dtype=float)
    if np.any(du_x <= 0):
        raise ValueError("u is not orientation-preserving on the grid")
    ux = np.asarray(u.u(x), dtype=float)
    sqrt_du_x = np.sqrt(du_x)
    xinv = u.inverse(x)
    sqrt_du_inv = np.sqrt(np.asarray(u.du(xinv), dtype=float))

    def interp(points, vec):
        """np.interp(points, x, vec, left=0.0, right=0.0) at increasing
        points, evaluated only at those in [x[v0 - 1], x[v1]] for vec's
        nonzero window v0:v1; np.interp gives exact zeros outside it."""
        out = np.zeros(len(points))
        v0, v1 = _nonzero_span(vec != 0)
        if v0 < v1:
            a = np.searchsorted(points, x[max(v0 - 1, 0)])
            b = np.searchsorted(points, x[min(v1, len(x) - 1)], side="right")
            out[a:b] = np.interp(points[a:b], x, vec, left=0.0, right=0.0)
        return out

    records = []
    for n in range(n_max + 1):
        shift = int(round(3.0 * n / dx))
        xi_n = np.zeros_like(xi0)
        xi_n[shift:] = xi0[: xi0.size - shift]

        t1 = conv1(xi_n * proj)

        # U xi_n, T2, then back through U^{-1}; u and u^{-1} are increasing
        u_xi = sqrt_du_x * interp(ux, xi_n)
        t2u = conv2(u_xi * proj)
        pullback = interp(xinv, t2u) / sqrt_du_inv

        diff = t1 - pullback
        records.append(
            {
                "n": n,
                "norm": float(np.sqrt(np.trapezoid(np.abs(diff) ** 2, dx=dx))),
                "first_term_norm": float(np.sqrt(np.trapezoid(np.abs(t1) ** 2, dx=dx))),
                "pullback_l2": float(np.sqrt(np.trapezoid(np.abs(pullback) ** 2, dx=dx))),
                "pullback_sup": float(np.max(np.abs(pullback))),
            }
        )
    return records
