"""Coefficient ring: smooth functions of one time variable under convolution.

``GaussPolyFn`` is the ring: an exact finite sum of atoms
``p(u) * exp(-u^2 / (2*variance))`` with ``u = t - mean`` and polynomial
``p``.  The family is closed, in closed form, under convolution,
multiplication by polynomials in ``t`` and multiplication by exponentials
``exp(c*t)``, which is everything the twisted jet products require; every
jet coefficient is one.

``GridSpec`` is the one sampled axis, (start, step, count), of both
``GridFn`` and the groupoid kernels.  ``GridSpec.convolved`` is the axis of
a discrete convolution: the steps must agree, and it starts at the sum of
the starts, whatever the offsets.  ``_frozen_samples`` is the one
construction rule of a sampled function: read-only samples, below
``support_tol * max(1, peak)`` on the boundary of its window, copied from
the caller's array, or kept as they are when an operation has just
allocated them (``_Fresh``).

``GridFn`` is a function sampled on a ``GridSpec``, zero outside the
sampled window.  Its one operation is convolution, discrete quadrature
through a zero-padded ``numpy.fft`` product (``_fft_convolve``); real samples
stay ``float64``.  ``sampled_ring_matches_exact_ring`` convolves it, and the
non-preservation demo shares ``_fft_convolve``.

The exact kernel works on plain coefficient arrays, each atom's in powers
of its own ``u``.  Two atoms convolve by the Gaussian moment integral as
``A @ H @ B.T`` with the Hankel matrix ``H`` of moments; the product is
centred at the sum of the means, so no polynomial is shifted.  The index and
binomial tables are built on first use per degree.  The operands of every
atom convolution are put in a fixed order (by mean, variance, then
coefficients) and the atoms of every element are kept sorted by (mean,
variance), so ``f*g`` and ``g*f`` are identical bit for bit.  The product
of each ordered atom pair is memoised for the last ``ATOM_PAIR_MEMO_SIZE``
(2,048) distinct pairs, about one jets-exact pass; the key is the two atoms
and the type of every coefficient, so float and complex coefficients of
equal value never share an entry.  Every polynomial but the spline's cubic
pieces (``_spline_horner``, below) is evaluated by the in-place ``horner``.

One evaluator, ``GaussPolyFn._values``, serves ``__call__``, ``sample`` and
``sup_norm``.  It sums the atoms from zero in atom order, each through
preallocated buffers, or all at once on an (atoms x points) array for the
short grids of the sup-norm refinements.  ``sup_norm`` searches the window
12 standard deviations around every atom: 4,001 evenly spaced points, then
three 81-point grids around the running argmax.

The not-a-knot cubic spline of ``_spline_coeffs``, with its interval lookup
``_spline_locate`` and Horner pass ``_spline_horner``, lives here too; the
groupoid kernels are its one user.

Gaussian atoms are not compactly supported; they decay fast enough that the
window-edge values of any sampling are far below the support tolerance, and
we treat them as effectively compact.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import comb, pi, prod, sqrt

import numpy as np

DEFAULT_SUPPORT_TOL = 1e-10


class RepresentationMismatchError(TypeError):
    """Raised when an operation mixes GridFn and GaussPolyFn operands."""


def horner(coeffs, t, out):
    """The polynomial with ascending coefficients ``coeffs`` at t, written in
    place into ``out``, of the result's shape and dtype, by Horner's rule in
    the operations and order of ``numpy.polynomial.polynomial.polyval``: its
    values bit for bit, up to the sign of a zero, as the pass starts from
    ``coeffs[-1]`` rather than ``coeffs[-1] + t * 0``."""
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


# ---------------------------------------------------------------------------
# sampled representation
# ---------------------------------------------------------------------------


def _fft_plan(n, real):
    """Padded length and transform pair for a linear convolution of length n.

    Both operands are zero-padded to at least n, so the cyclic product of
    the transforms is the linear one.  The padded length is the shortest of
    ``2^p``, ``3 * 2^p`` and ``5 * 2^p``: a length with a large prime factor
    is slow, and a plain power of two can cost twice the work.  Real
    operands (``real``) go through ``rfft`` and give a real (``float64``)
    result; otherwise the pair is ``fft``/``ifft``.
    """
    size = min(m << (-(-n // m) - 1).bit_length() for m in (1, 3, 5))
    if real:
        return size, np.fft.rfft, lambda spectrum: np.fft.irfft(spectrum, size)
    return size, np.fft.fft, np.fft.ifft


def _nonzero_span(mask):
    """(first, last + 1) of the true entries of a 1-d mask; (0, 0) if none."""
    nz = np.flatnonzero(mask)
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


def _fft_convolve(a, b):
    """Full linear convolution of two 1-d arrays, length ``len(a) + len(b) - 1``."""
    n = a.size + b.size - 1
    size, forward, inverse = _fft_plan(n, np.isrealobj(a) and np.isrealobj(b))
    return inverse(forward(a, size) * forward(b, size))[:n]


def _spline_coeffs(x, y):
    """The not-a-knot cubic spline through (x, y), along axis 0 of y.

    Returns the piecewise coefficients as ``scipy.interpolate.CubicSpline``
    stores them: an array ``c`` of shape ``(4, len(x) - 1) + y.shape[1:]``,
    piece i being ``sum_m c[m, i] (s - x[i])^(3 - m)``.  The node slopes
    solve the tridiagonal system CubicSpline builds, with its two not-a-knot
    end rows, by elimination along x vectorized over the trailing axes, with
    per-interval steps.  On a uniform grid each pivot outweighs the entry
    below it, so LAPACK's gtsv, which CubicSpline calls, swaps no rows
    either, and the coefficients agree with CubicSpline's bit for bit.  Two
    or three nodes give the interpolating line or parabola, as in
    CubicSpline.
    """
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n < 4:
        bend = (slope[-1] - slope[0]) / (x[-1] - x[0])
        s = slope[0] + bend * (2.0 * x.reshape((-1,) + dxr.shape[1:]) - x[0] - x[1])
    else:
        diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
        upper = [x[2] - x[0]] + dx[:-1].tolist()
        lower = dx[1:].tolist() + [x[-1] - x[-3]]
        s = np.empty(y.shape, dtype=slope.dtype)
        s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        s[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        s[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        # the matrix is real, so complex right-hand sides are eliminated as
        # their real and imaginary parts, as zgtsv's arithmetic does
        rows = list(s.reshape(n, -1).view(float))
        for i in range(n - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            rows[i + 1] -= fact * rows[i]
        rows[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            rows[i] -= upper[i] * rows[i + 1]
            rows[i] /= diag[i]
    # the Hermite coefficients from values and slopes, as CubicHermiteSpline
    # computes them, written plane by plane into one array: c[0] first holds
    # t = (s[:-1] + s[1:] - 2 slope) / dx, then becomes t / dx
    c = np.empty((4,) + slope.shape, dtype=slope.dtype)
    c[3] = y[:-1]
    c[2] = s[:-1]
    t = np.add(s[:-1], s[1:], out=c[0])
    t -= np.multiply(2, slope, out=c[1])
    t /= dxr
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dxr
    c[1] -= t
    t /= dxr
    return c


def _spline_locate(x, at):
    """The spline interval of each point ``at`` for nodes x, found as
    CubicSpline finds it (the window end falls in the last one).

    Returns ``(idx, dx, outside)``: the interval index, the offset from its
    left node, and the mask of points outside [x[0], x[-1]] or NaN, which
    are located at x[0] so that they stay finite.
    """
    outside = ~((at >= x[0]) & (at <= x[-1]))
    at = np.where(outside, x[0], at)
    idx = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    return idx, at - x[idx], outside


def _spline_horner(c, pick, dx, outside):
    """The spline with coefficients c at located points, by one Horner pass:
    ``c[(m, *pick)]`` is plane m at those points, dx (broadcastable against
    it) their offsets, and rows of the result where ``outside`` holds are 0.
    """
    # ((c0 dx + c1) dx + c2) dx + c3, in place
    vals = c[(0, *pick)] * dx
    vals += c[(1, *pick)]
    vals *= dx
    vals += c[(2, *pick)]
    vals *= dx
    vals += c[(3, *pick)]
    vals[outside] = 0.0
    return vals


class GridSpec(namedtuple("GridSpec", "start step count")):
    """(start, step, count) of a uniform axis."""

    __slots__ = ()

    def __new__(cls, start, step, count):
        if not step > 0:
            raise ValueError("grid step must be positive")
        if count < 2:
            raise ValueError("grid needs at least two points")
        return super().__new__(cls, float(start), float(step), int(count))

    @classmethod
    def centered(cls, radius, step):
        n = int(round(radius / step))
        return cls(-n * step, step, 2 * n + 1)

    @property
    def end(self):
        return self.start + self.step * (self.count - 1)

    @property
    def points(self):
        return self.start + self.step * np.arange(self.count)

    def convolved(self, other):
        """The axis of the discrete convolution of samples on self and other:
        with a shared step h, sum_j f(a + (n - j) h) g(b + j h) is the value at
        a + b + n h, so it starts at the sum of the starts, whatever the
        offsets, and has count + count' - 1 points.  The steps must agree to
        1e-12 relative."""
        if abs(self.step - other.step) > 1e-12 * self.step:
            raise ValueError(f"step mismatch: {self.step} vs {other.step}")
        return GridSpec(self.start + other.start, self.step, self.count + other.count - 1)


# a float or complex array that an operation has just allocated, handed to
# a constructor to keep: ``_frozen_samples`` freezes it in place
_Fresh = namedtuple("_Fresh", "array")


def _frozen_samples(samples, grids, support_tol):
    """The construction rule of every sampled function on the axes ``grids``:
    a read-only float or complex array of ``samples`` in their shape, which
    is an owned copy unless samples come as ``_Fresh``, whose array is kept
    as it is, memory order included.  Returned with the mass threshold
    ``support_tol * max(1, peak)``, which no sample on the window's boundary
    (first and last along each axis) exceeds."""
    if isinstance(samples, _Fresh):
        samples = samples.array
    else:
        samples = np.asarray(samples)
        samples = np.array(samples, dtype=np.result_type(samples, float))  # own the data
    shape = tuple(grid.count for grid in grids)
    if samples.shape != shape:
        raise ValueError(f"samples shape {samples.shape} does not match the grid shape {shape}")
    tol = support_tol * max(1.0, float(np.max(np.abs(samples))))
    edge = max(
        float(np.max(np.abs(samples.take([0, -1], axis=a)))) for a in range(samples.ndim)
    )
    if edge > tol:
        raise ValueError(
            f"kernel does not vanish on the grid boundary (max {edge:.3e}); "
            "enlarge the window"
        )
    samples.setflags(write=False)  # sampled functions are immutable after construction
    return samples, tol


class GridFn:
    """A function of t sampled on a ``GridSpec``, zero outside the window."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid, samples):
        self.grid = GridSpec(*grid)
        self.samples = _frozen_samples(samples, (self.grid,), DEFAULT_SUPPORT_TOL)[0]

    def convolve(self, other):
        """(f*g)(t) = integral f(t-s) g(s) ds by discrete quadrature, on the
        axis ``GridSpec.convolved`` gives.

        Endpoint samples vanish by the support invariant, so the plain
        Riemann sum coincides with the trapezoid rule.
        """
        if not isinstance(other, GridFn):
            raise RepresentationMismatchError(
                "cannot combine GridFn with " + type(other).__name__
            )
        grid = self.grid.convolved(other.grid)
        return GridFn(grid, _Fresh(_fft_convolve(self.samples, other.samples) * grid.step))


# ---------------------------------------------------------------------------
# exact representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussAtom:
    """One term p(u) * exp(-u^2 / (2*variance)) with u = t - mean; ``poly``
    holds p's coefficients in ascending powers of u."""

    poly: tuple
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("atom variance must be positive")


@lru_cache(maxsize=None)
def _split_tables(n, sign):
    """For q(cw*w + sign*v) with deg q < n and sign = +-1: the index i + j
    (clipped), C(i + j, j) sign^j, zero where i + j >= n, and the powers
    0..n-1 as a column."""
    i, j = np.indices((n, n))
    binom = np.array(
        [[comb(r + c, c) * sign**c if r + c < n else 0 for c in range(n)] for r in range(n)],
        dtype=float,
    )
    return np.minimum(i + j, n - 1), binom, np.arange(n)[:, None]


@lru_cache(maxsize=None)
def _moment_tables(na, nb):
    """Hankel index j1 + j2 (na x nb), (j-1)!! for even j and 0 for odd j,
    the exponents j // 2, and the 0/1 matrix summing antidiagonals of a
    flattened na x nb array."""
    i, j = np.indices((na, nb))
    n = na + nb - 1
    dfact = np.array([0.0 if r % 2 else float(prod(range(r - 1, 0, -2))) for r in range(n)])
    antidiag = ((i + j).reshape(-1, 1) == np.arange(n)).astype(float)
    return i + j, dfact, np.arange(n) // 2, antidiag


def _poly_shift(coeffs, x0):
    """Coefficients of p(x0 + y) in y, given p's coefficients in x, by
    Horner's Taylor shift; a product with the matrix C(i, j) x0^(i-j) was
    more than an order of magnitude less accurate against mpmath."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += x0 * c[j + 1]
    return c


def _split(coeffs, cw, sign):
    """[i, j] coefficient of w^i v^j in q(cw*w + sign*v), q given by its
    coefficients.  The factor sign^j rides on the binomial table: a factor
    +-1 is exact, so this equals coeffs[i + j] C(i + j, j) times the outer
    product cw^i sign^j bit for bit."""
    index, binom, powers = _split_tables(coeffs.size, sign)
    return coeffs[index] * binom * cw**powers


def _poly_key(poly):
    return tuple((c.real, c.imag) for c in map(complex, poly))


# distinct ordered atom pairs whose products are kept: one jets-exact pass at
# the default config asks for 1,751 of them
ATOM_PAIR_MEMO_SIZE = 2048


def _convolve_atoms(a, b):
    """Exact convolution of two atoms (Gaussian moment integration).

    The operands are put in a fixed order first, so a*b and b*a agree bit
    for bit and commutators of exact elements cancel to the zero function.
    The product of the ordered pair is memoised (``_convolve_ordered``).
    """
    ka, kb = (a.mean, a.variance), (b.mean, b.variance)
    if kb < ka or (kb == ka and _poly_key(b.poly) < _poly_key(a.poly)):
        a, b = b, a
    return _convolve_ordered(a, b, *map(type, a.poly), *map(type, b.poly))


@lru_cache(maxsize=ATOM_PAIR_MEMO_SIZE)
def _convolve_ordered(a, b, *coeff_types):
    """The product of an ordered atom pair, kept for the last
    ``ATOM_PAIR_MEMO_SIZE`` distinct pairs.  The coefficient types are part
    of the key, because a float and a complex tuple of the same values
    compare and hash equal but give products of different dtypes.

    With w = t - mean_a - mean_b, s = variance_a + variance_b and v centred
    Gaussian of variance sig2 = variance_a * variance_b / s, the integrand of
    (a*b)(t) is p_a(w variance_a/s - v) p_b(w variance_b/s + v) times the
    density of v times exp(-w^2 / 2s), each p in its atom's centred
    variable.  Expanding both factors in (w, v) as A and B, the v-integral is
    A H B^T with the Hankel matrix H of Gaussian moments, and its
    antidiagonal sums are the coefficients in w, the centred variable of the
    product.
    """
    s = a.variance + b.variance
    sig2 = a.variance * b.variance / s
    A = _split(np.array(a.poly), a.variance / s, -1.0)
    B = _split(np.array(b.poly), b.variance / s, 1.0)
    hankel, dfact, half, antidiag = _moment_tables(len(A), len(B))
    H = (dfact * sig2**half)[hankel]
    w_poly = (A @ H @ B.T).ravel() @ antidiag * sqrt(2.0 * pi * sig2)
    return GaussAtom(tuple(w_poly.tolist()), a.mean + b.mean, s)


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple(map(operator.add, p, q)) + p[len(q):]


def _trimmed(atom):
    """The atom without trailing zero coefficients, or None if all vanish."""
    poly = atom.poly
    if len(poly) and poly[-1] != 0:
        return atom
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return GaussAtom(tuple(coeffs), atom.mean, atom.variance) if coeffs else None


def _gauss_terms(coeffs, mean, variance, t, u, p):
    """p(u) exp(-u^2 / (2 variance)) with u = t - mean, written into p with
    u as scratch: Horner, then u*u divided by -(2 variance), which is
    -(u*u) / (2 variance) bit for bit, exponentiated and multiplied in.  One
    atom on buffers of t's shape, or a stack of atoms along a first axis,
    with mean, variance and each coefficient as columns."""
    np.subtract(t, mean, out=u)
    horner(coeffs, u, out=p)
    np.multiply(u, u, out=u)
    u /= -2.0 * variance
    p *= np.exp(u, out=u)
    return p


class GaussPolyFn:
    """Exact coefficient function: a finite sum of polynomial-Gaussian atoms."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        """Merge atoms with equal (mean, variance) and keep them in key order."""
        merged = {}
        for atom in atoms:
            key = (atom.mean, atom.variance)
            prev = merged.get(key)
            merged[key] = atom if prev is None else GaussAtom(_poly_add(prev.poly, atom.poly), *key)
        self.atoms = tuple(
            [atom for key in sorted(merged) if (atom := _trimmed(merged[key])) is not None]
        )

    @classmethod
    def gaussian(cls, amplitude=1.0, mean=0.0, variance=1.0):
        return cls([GaussAtom((amplitude,), mean, variance)])

    @classmethod
    def zero(cls):
        return cls(())

    def __call__(self, t):
        """Values at t (``_values``); real atoms give ``float64``, scalar t a scalar."""
        if not self.atoms:
            return np.zeros(np.shape(t))
        return self._values(t, self._stack())[()]

    def _stack(self):
        """The atoms as columns: the coefficients by ascending power, each
        polynomial zero-padded at the top degree, shape (degree + 1, atoms,
        1); then the means and the variances, shape (atoms, 1).  Its dtype is
        that of the values."""
        size = max(len(a.poly) for a in self.atoms)
        coeffs = np.array([a.poly + (0.0,) * (size - len(a.poly)) for a in self.atoms])
        moments = np.array([(a.mean, a.variance) for a in self.atoms])
        return coeffs.T[:, :, None], moments[:, :1], moments[:, 1:]

    def _values(self, t, stack, stacked=False):
        """The one evaluator, behind ``__call__``, ``sample`` and ``sup_norm``:
        the sum from zero, in atom order, of every atom's
        p(u) exp(-u^2 / (2 variance)) at t (``_gauss_terms``), ``stack``
        being ``self._stack()``.

        Atom by atom through buffers allocated once; with ``stacked``, all
        atoms at once on (atoms, len(t)) buffers, for short 1-d t.  There a
        polynomial's zero top coefficients seed Horner with zeros, so the
        padding changes no value, and ``np.add.reduce`` along the first axis
        adds the rows one after another in atom order.
        """
        t = np.asarray(t, dtype=float)
        coeffs, means, variances = stack
        if stacked:
            u = np.empty((means.shape[0], t.size))
            terms = _gauss_terms(coeffs, means, variances, t, u, np.empty(u.shape, coeffs.dtype))
            return np.add.reduce(terms, axis=0)
        out = np.zeros(t.shape, coeffs.dtype)
        u = np.empty(t.shape)
        p = np.empty(t.shape, coeffs.dtype)
        for atom in self.atoms:
            out += _gauss_terms(atom.poly, atom.mean, atom.variance, t, u, p)
        return out

    # -- ring operations -----------------------------------------------------

    def convolve(self, other):
        if not isinstance(other, GaussPolyFn):
            raise RepresentationMismatchError(
                "cannot combine GaussPolyFn with " + type(other).__name__
            )
        return GaussPolyFn(
            [_convolve_atoms(a, b) for a in self.atoms for b in other.atoms]
        )

    def mul_by_t(self):
        return self.mul_by_poly((0.0, 1.0))

    def mul_by_poly(self, coeffs):
        """Multiply by the polynomial with ascending coefficients in t."""
        out = []
        for a in self.atoms:
            poly = np.convolve(a.poly, _poly_shift(coeffs, a.mean))  # the multiplier in powers of u
            out.append(GaussAtom(tuple(poly.tolist()), a.mean, a.variance))
        return GaussPolyFn(out)

    def mul_by_exp(self, c):
        # e^{ct} p(u) e^{-u^2/2v} = [e^{cm + c^2 v/2} p(u' + cv)] e^{-u'^2/2v}, u' = u - cv
        out = []
        for a in self.atoms:
            scale = np.exp(c * a.mean + c * c * a.variance / 2.0)
            poly = tuple((np.asarray(_poly_shift(a.poly, c * a.variance)) * scale).tolist())
            out.append(GaussAtom(poly, a.mean + c * a.variance, a.variance))
        return GaussPolyFn(out)

    def add(self, other):
        if not isinstance(other, GaussPolyFn):
            raise RepresentationMismatchError(
                "cannot combine GaussPolyFn with " + type(other).__name__
            )
        return GaussPolyFn(self.atoms + other.atoms)

    def scale(self, c):
        return GaussPolyFn(
            [
                GaussAtom(tuple((np.asarray(a.poly) * c).tolist()), a.mean, a.variance)
                for a in self.atoms
            ]
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    # -- sampling and norms ----------------------------------------------------

    def support_window(self):
        """A window, 12 standard deviations around every atom, outside which
        every atom is far below rounding."""
        if not self.atoms:
            return (-1.0, 1.0)
        lo = min(a.mean - 12.0 * sqrt(a.variance) for a in self.atoms)
        hi = max(a.mean + 12.0 * sqrt(a.variance) for a in self.atoms)
        return (lo, hi)

    def sample(self, grid):
        return GridFn(grid, self(grid.points))

    def sup_norm(self):
        """max |f|, searched on ``support_window()``: 4,001 evenly spaced
        points, then three times 81 points spanning two steps of the last
        grid on either side of its argmax, the best value seen kept."""
        if not self.atoms:
            return 0.0
        stack = self._stack()
        t = _linspace(_RAMP_4001, *self.support_window())
        vals = np.abs(self._values(t, stack))
        i = int(np.argmax(vals))
        best = float(vals[i])
        lo = t[max(i - 2, 0)]
        hi = t[min(i + 2, t.size - 1)]
        for _ in range(3):
            local = _linspace(_RAMP_81, lo, hi)
            lvals = np.abs(self._values(local, stack, stacked=True))
            j = int(np.argmax(lvals))
            best = max(best, float(lvals[j]))
            lo = local[max(j - 2, 0)]
            hi = local[min(j + 2, 80)]
        return best


# the sample counts of GaussPolyFn.sup_norm's search, as ramps 0, 1, ..., n - 1
_RAMP_4001 = np.arange(4001.0)
_RAMP_81 = np.arange(81.0)


def _linspace(ramp, lo, hi):
    """np.linspace(lo, hi, ramp.size) by linspace's own arithmetic on a ramp
    built once: ramp * step + lo, with the last point set to hi."""
    out = ramp * ((hi - lo) / (ramp.size - 1)) + lo
    out[-1] = hi
    return out


def _bump(u, radius):
    """Smooth bump exp(1 - 1/(1 - (u/radius)^2)) on |u| < radius, 0 outside;
    the one mollifier of the suites and the non-preservation demo."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < radius
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - (u[inside] / radius) ** 2))
    return out


def _bump_series(radius, order):
    """Taylor coefficients of ``_bump(u, radius)`` at 0 up to u^order.  With
    y = (u/radius)^2 the bump is exp(g(y)), g = -y/(1-y) = -(y + y^2 + ...),
    so its y-series c has n c_n = sum_m m g_m c_(n-m) = -sum_m m c_(n-m)."""
    c = [1.0]
    for n in range(1, order // 2 + 1):
        c.append(-sum(m * c[n - m] for m in range(1, n + 1)) / n)
    out = [0.0] * (order + 1)
    out[::2] = [cn / radius ** (2 * n) for n, cn in enumerate(c)]
    return out


def random_gauss_poly(rng, n_atoms=1, max_degree=2, real=True):
    """Seeded random element of the exact ring (used by suites and tests).

    Polynomial coefficients in t are drawn in [-1, 1], means in [-2, 2] and
    variances in [0.5, 2].
    """
    atoms = []
    for _ in range(n_atoms):
        deg = int(rng.integers(0, max_degree + 1))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        if not real:
            coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, deg + 1)
        mean, variance = float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2))
        atoms.append(GaussAtom(tuple(_poly_shift(coeffs.tolist(), mean)), mean, variance))
    return GaussPolyFn(atoms)
