"""Truncated twisted series: coefficient functions of t times powers of x.

A ``Jet`` of truncation order p models the quotient of the groupoid
convolution algebra by the ideal of kernels vanishing to order p+1 at x = 0,
i.e. a series f_0 + f_1 x + ... + f_p x^p with coefficients in the
convolution ring of the t variable, each an exact ``GaussPolyFn``; a
statement about the quotient by x^p reads "jets of truncation order p-1".
``groupoid_conv.taylor_map`` carries a sampled kernel onto the jet's
coefficient rows; verify-groupoid compares them with exact jets.

The product twists the coefficient ring by the Taylor data of the flow:

    (f g)_q = sum over n <= m <= q of  f_n * (phi_m^n . g_{q-m})

where * is convolution in t and phi_m^n . h is pointwise multiplication by
the flow-power Taylor coefficient ``flow.taylor_coeff(k, n, m)``, poly(t)
e^(rate t): a polynomial in t for k >= 2, e^(n t) on the diagonal for
k = 1.  The twist has one home, ``_twist_terms``, which lists the nonzero
phi_m^n . g_{q-m} of one (n, q).  Multiplication by the indeterminate x
uses the same sums for the jet x, whose one coefficient is the
convolution unit: right multiplication shifts coefficients up one degree,
and left multiplication picks up the twist

    (x f)_q = sum over 1 <= m <= q of phi_m^1 . f_{q-m} ,

whose first nontrivial term reproduces x f = f x + delta(f) x^k at order k
(delta(h)(t) = t h(t)), and x f = Delta(f) x for k = 1 (Delta = e^t twist).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .coeff_ring import GaussPolyFn, random_gauss_poly
from .flow import taylor_coeff


class Jet:
    """A truncated series with p+1 coefficient functions and flow order k."""

    __slots__ = ("k", "p", "coeffs")

    def __init__(self, k, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")
        self.k = int(k)
        self.p = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def from_coefficient(cls, k, f, p):
        """The degree-0 jet (f, 0, ..., 0) of truncation order p."""
        return cls(k, [f] + [GaussPolyFn.zero()] * p)

    def truncate(self, q):
        if q > self.p:
            raise ValueError("cannot extend a jet by truncation")
        return Jet(self.k, self.coeffs[: q + 1])

    def add(self, other):
        self._check_match(other)
        return Jet(self.k, [a.add(b) for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c):
        return Jet(self.k, [a.scale(c) for a in self.coeffs])

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def sup_norm(self):
        return max(c.sup_norm() for c in self.coeffs)

    def _check_match(self, other):
        if self.k != other.k:
            raise ValueError(f"flow order mismatch: k={self.k} vs k={other.k}")
        if self.p != other.p:
            raise ValueError(f"truncation order mismatch: p={self.p} vs p={other.p}")


def _twist_terms(k, n, q, g):
    """The nonzero phi_m^n . g_(q-m) for n <= m <= q, in order of m."""
    terms = ((taylor_coeff(k, n, m), g.coeffs[q - m]) for m in range(n, q + 1))
    return [c.apply(h) for c, h in terms if not c.is_zero()]


def jet_mul(f, g):
    """Twisted product, exact in the coefficient ring: each term convolved on
    its own and summed in (n, m) order."""
    f._check_match(g)
    out = []
    for q in range(f.p + 1):
        terms = [f.coeffs[n].convolve(h) for n in range(q + 1) for h in _twist_terms(f.k, n, q, g)]
        out.append(reduce(GaussPolyFn.add, terms))  # phi_0^0 = 1: never empty
    return Jet(f.k, out)


def x_mult_right(f):
    """(f x): shift coefficients up one degree and truncate."""
    if f.p < 1:
        raise ValueError("x-multiplication needs truncation order p >= 1")
    return Jet(f.k, [GaussPolyFn.zero()] + f.coeffs[: f.p])


def x_mult_left(f):
    """(x f): ``jet_mul``'s sums for the jet x, whose one coefficient x_1 is
    the convolution unit, so order q is the sum of phi_m^1 . f_(q-m)."""
    if f.p < 1:
        raise ValueError("x-multiplication needs truncation order p >= 1")
    twisted = (reduce(GaussPolyFn.add, _twist_terms(f.k, 1, q, f)) for q in range(1, f.p + 1))
    return Jet(f.k, [GaussPolyFn.zero(), *twisted])


def commutator(f, g):
    return jet_mul(f, g) - jet_mul(g, f)


def commutativity_witness(k):
    """The deterministic pair whose commutator at order k is b*(t c) (k >= 2)
    or b*(e^t c) - c*b (k = 1), with unit-sup-norm Gaussian b, c."""
    b = GaussPolyFn.gaussian()
    c = GaussPolyFn.gaussian()
    zero = GaussPolyFn.zero()
    f = Jet(k, [zero, b] + [zero] * (k - 1))
    g = Jet(k, [c] + [zero] * k)
    return f, g


def commutativity_report(k, max_order, trials=10, seed=0):
    """Max commutator sup-norm per truncation order over random exact jets.

    The quotient is commutative exactly at orders <= k-1; the report includes
    the deterministic unit-norm witness at order k so the noncommutative side
    is bounded away from zero, not just nonzero with luck.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for q in range(max_order + 1):
        worst = 0.0
        for _ in range(trials):
            f = Jet(k, [random_gauss_poly(rng) for _ in range(q + 1)])
            g = Jet(k, [random_gauss_poly(rng) for _ in range(q + 1)])
            worst = max(worst, commutator(f, g).sup_norm())
        if q == k:
            f, g = commutativity_witness(k)
            worst = max(worst, commutator(f.truncate(q), g.truncate(q)).sup_norm())
        rows.append((q, worst))
    return rows
