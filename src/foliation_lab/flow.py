"""Flows generated by order-k vector fields on the line, and their Taylor data.

Two variants are supported:

``monomial``
    the field x^k d/dx itself.  For k = 1 the flow is e^t x; for k >= 2 it is
    x / (1 - (k-1) t x^(k-1))^(1/(k-1)), defined where (k-1) t x^(k-1) < 1.
    All Taylor data at 0 is exact: each entry is poly(t) e^(rate t), a
    polynomial in t for k >= 2 and e^(n t) for k = 1.

``complete_rescaled``
    the globally defined field v(x) = (1+x^2)^(-(k-1)/2) x^k d/dx, which
    agrees with the monomial field near 0 and has sublinear growth.  Its flow
    is the inverse of the exact time map: phi_t(x) solves
    T(phi_t(x)) = T(x) + t with T' = 1/v, which has a closed form for every
    k, inverted by Newton's method in log|x|.  Only its flow is evaluated;
    the derivative and the cocycles raise ValueError for it.

The module also provides the Taylor coefficients phi_m^n (coefficient of x^m
in (phi_t(x))^n), one cached ``FlowCoeff`` per (k, n, m) from the closed form
in ``taylor_coeff``, the multiplicative cocycles of the monomial flow
``cocycle_delta_many`` (phi_t(x)/x, smoothly extended through x = 0) and
``beta_cocycle`` ((phi_t'(x))^(1/2) for x != 0, and 1 on the isotropy line
x = 0 -- note the x = 0 value makes beta discontinuous when k = 1, where
phi_t' = e^t everywhere; the case split is deliberate, not smoothed), and
residual checks for the composition and cocycle identities satisfied by the
phi_m^n.  Every flow evaluator takes (model, t, x), with t and x broadcast
together (a grid is ``ts[:, None]`` against ``xs``), and is NaN exactly where
``in_domain`` fails.  A point passed as 0-d input gets the bits it gets
inside an array, because the one non-integer power is ``np.power``, not
``**`` (which numpy computes on 0-d scalars with libm's pow); so
``flow_eval`` is ``flow_eval_many`` at its scalars, where that NaN raises
FlowDomainError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isnan, prod

import numpy as np

from .coeff_ring import horner

MONOMIAL = "monomial"
COMPLETE_RESCALED = "complete_rescaled"

DEFAULT_M_MAX = 8
# Newton steps allowed when inverting the rescaled field's time map; from
# its start the inversion took at most 9 for k <= 6, |x| in [1e-4, 100] and
# |t| <= 30
NEWTON_MAX_STEPS = 50


class FlowDomainError(ValueError):
    """Evaluation requested outside the domain of an incomplete flow."""


@dataclass(frozen=True)
class FlowModel:
    """Order k plus variant; ``time_reversed`` negates the generating field."""

    k: int
    variant: str = MONOMIAL
    time_reversed: bool = False

    def __post_init__(self):
        # a fractional k makes the rescaled field NaN for x < 0, and its time
        # map is a closed form only for integer k
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.variant not in (MONOMIAL, COMPLETE_RESCALED):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def sign(self):
        return -1.0 if self.time_reversed else 1.0

    def in_domain(self, t, x):
        """Vectorized admissibility predicate for (x, t)."""
        t = self.sign * np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.variant == COMPLETE_RESCALED or self.k == 1:
            return np.ones(np.broadcast(t, x).shape, dtype=bool)
        return (self.k - 1) * t * x ** (self.k - 1) < 1.0


def _monomial_power(model, t, x, a):
    """base^(-a/(k-1)) with base = 1 - (k-1) t x^(k-1) for the monomial flow
    (t signed by the model), NaN where base <= 0, i.e. off the domain; the
    k = 1 limit is e^(a t).

    Delta = phi_t(x)/x is a = 1, phi_t'(x) is a = k and phi_t(x) = x Delta.
    t broadcasts against x.
    """
    t = model.sign * t
    k = model.k
    if k == 1:
        return np.exp(a * t) * np.ones_like(x)
    base = 1.0 - (k - 1) * t * x ** (k - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(base > 0, np.power(np.abs(base), -a / (k - 1)), np.nan)


def _rescaled_clock(k, z):
    """(T, s) at u = e^z > 0 for the rescaled field, T' = 1/v.

    With s = sqrt(1 + u^-2), dT/dz = s^(k-1) and
    T = -sum over m = k-1, k-3, ... > 0 of s^m / m, plus log u for odd k or
    asinh u for even k.  Every term of the sum has the same sign, and asinh
    is accurate at both ends, so nothing cancels.
    """
    s = np.sqrt(1.0 + np.exp(-2.0 * z))
    clock = z if k % 2 else np.arcsinh(np.exp(z))
    for m in range(k - 1, 0, -2):
        clock = clock - s**m / m
    return clock, s


def _rescaled_flow(model, t, x):
    """phi_t(x) of the rescaled field for t and x broadcast together.

    Solves T(z) = T(log|x|) + t for z = log|phi_t(x)| by Newton's method.
    T is increasing and concave in z, so Newton started below the root climbs
    to it without overshooting.  The start is the largest of these lower
    bounds: log|x| itself for t >= 0; log|x| - |t|, since dT/dz >= 1; the
    monomial flow for t < 0, since the rescaled field is the slower one; and
    tau - C_k, since T(z) - z increases to its limit C_k.  A point that has not
    converged after NEWTON_MAX_STEPS steps (a NaN, say) raises RuntimeError.
    """
    k = model.k
    t, x = np.broadcast_arrays(model.sign * np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    # phi_t(-a) = -phi_{(-1)^(k+1) t}(a), and x = 0 is fixed
    t = np.where((x < 0) & (k % 2 == 0), -t, t).ravel()
    out = np.array(x, dtype=float)
    moving = np.flatnonzero(out != 0.0)
    a = np.abs(out.flat[moving])
    t = t[moving]
    z0 = np.log(a)
    tau = _rescaled_clock(k, z0)[0] + t
    c_k = (0.0 if k % 2 else np.log(2.0)) - sum(1.0 / m for m in range(k - 1, 0, -2))
    lower = [z0 + np.minimum(t, 0.0), tau - c_k]
    if k > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            toward = z0 - np.log1p((1 - k) * t * a ** (k - 1)) / (k - 1)
        lower.append(np.where(t < 0, toward, z0))
    z = np.maximum.reduce(lower)
    active = np.arange(z.size)
    for _ in range(NEWTON_MAX_STEPS):
        clock, s = _rescaled_clock(k, z[active])
        step = (clock - tau[active]) / s ** (k - 1)
        z[active] -= step
        # the step bounds the error before it, and Newton squares that error
        # (|T''/T'| < k - 1), so what is left sits below rounding
        active = active[~(np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(z[active])))]
        if active.size == 0:
            break
    else:
        raise RuntimeError(
            f"rescaled flow: Newton did not converge in {NEWTON_MAX_STEPS} steps "
            f"at x={out.flat[moving[active[0]]]!r}, t={t[active[0]]!r}"
        )
    out.flat[moving] = np.copysign(a * np.exp(z - z0), out.flat[moving])
    return out


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.

    No suite integrates an ODE; the flow tests use this as their oracle, and
    the benchmark tracer counts calls under this name.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def flow_eval_many(model, t, x):
    """phi_t(x) for t and x broadcast together; NaN exactly where
    ``in_domain`` fails.  A grid is ``flow_eval_many(model, ts[:, None], xs)``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if model.variant == MONOMIAL:
        return x * _monomial_power(model, t, x, 1)
    return _rescaled_flow(model, t, x)


def flow_derivative_many(model, t, x):
    """d phi_t / dx of the monomial flow for t and x broadcast together; NaN
    exactly where ``in_domain`` fails."""
    if model.variant != MONOMIAL:
        raise ValueError(f"no derivative of the {model.variant} flow; it is the monomial flow's")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return _monomial_power(model, t, x, model.k)


def flow_eval(model, t, x):
    """phi_t(x) for a scalar pair; raises FlowDomainError outside the domain."""
    value = float(flow_eval_many(model, t, x))
    if isnan(value):
        raise FlowDomainError(
            f"(x={x}, t={t}) outside the domain of the order-{model.k} monomial flow"
        )
    return value


# ---------------------------------------------------------------------------
# Taylor coefficients of powers of the flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowCoeff:
    """One entry phi_m^n: poly(t) e^(rate t), poly in ascending powers of t."""

    poly: tuple = (0.0,)
    rate: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = horner(self.poly, t, np.empty(t.shape))
        return out * np.exp(self.rate * t) if self.rate else out

    def is_zero(self):
        return not any(self.poly)

    def apply(self, f):
        """Pointwise-multiply a coefficient function by this entry; a unit
        polynomial and a zero rate are skipped, as f * 1.0 is exactly f."""
        if self.poly != (1.0,):
            f = f.mul_by_poly(self.poly)
        return f.mul_by_exp(self.rate) if self.rate else f


@lru_cache(maxsize=None)
def taylor_coeff(k, n, m):
    """phi_m^n, the coefficient of x^m in (phi_t(x))^n, for the monomial flow
    of order k: e^(n t) on the diagonal when k = 1, otherwise a polynomial in
    t that vanishes unless m = n + j (k-1), j >= 0, where it is
    rising(n/(k-1), j) (k-1)^j / j! t^j.  Zero below the diagonal m < n.
    One cached entry per (k, n, m), so every caller sees the same one."""
    if k == 1:
        return FlowCoeff((1.0,), float(n)) if m == n else FlowCoeff()
    d = m - n
    if d < 0 or d % (k - 1) or (n == 0 and d):
        return FlowCoeff()
    j = d // (k - 1)
    # rising(n/(k-1), j) (k-1)^j = n (n + k-1) ... (n + (j-1)(k-1)): an integer,
    # so one correctly rounded division gives the coefficient
    return FlowCoeff((0.0,) * j + (prod(range(n, n + j * (k - 1), k - 1)) / factorial(j),))


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def cocycle_delta_many(model, t, x):
    """Delta(x, t) = phi_t(x)/x of the monomial flow for t and x broadcast
    together, extended smoothly through x = 0 as
    (1 - (k-1) t x^(k-1))^(-1/(k-1)) (e^t when k = 1); NaN off the domain."""
    if model.variant != MONOMIAL:
        raise ValueError(f"no Delta of the {model.variant} flow; it is the monomial flow's")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return _monomial_power(model, t, x, 1)


def beta_cocycle(model, t, x):
    """beta(x, t) = (phi_t'(x))^(1/2) for x != 0, and 1 at x = 0, for t and x
    broadcast together; NaN off the domain."""
    x = np.asarray(x, dtype=float)
    return np.where(x == 0.0, 1.0, np.sqrt(flow_derivative_many(model, t, x)))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_cocycle_identity(k, n, m, t, s):
    """max |phi_m^n(t) - sum_i phi_m^i(t-s) phi_i^n(s)| over t and s, which
    broadcast; each point's residual is the one a scalar call gives."""
    lhs = taylor_coeff(k, n, m)(t)
    rhs = 0.0
    for i in range(n, m + 1):
        rhs += taylor_coeff(k, i, m)(t - s) * taylor_coeff(k, n, i)(s)
    return float(np.max(np.abs(lhs - rhs)))


# small truncated-series helpers (scalar coefficients, index = power of x)


def series_mul(a, b, m_max):
    return np.convolve(a, b)[: m_max + 1]


def series_power(a, n, m_max):
    out = np.zeros(m_max + 1)
    out[0] = 1.0
    for _ in range(n):
        out = series_mul(out, a, m_max)
    return out


def check_composition_identity(n, m, trials=20, seed=0):
    """Max residual of [m](f o g)^n = sum_i ([m] g^i)([i] f^n) over random
    truncated series f, g vanishing at 0.

    The identity is purely formal, so no flow order enters it.
    """
    m_max = max(m, DEFAULT_M_MAX)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = rng.uniform(-1, 1, m_max + 1)
        g = rng.uniform(-1, 1, m_max + 1)
        f[0] = 0.0
        g[0] = 0.0
        gpows = [np.eye(1, m_max + 1)[0]]  # g^0 = 1, then g^i by one product each
        for i in range(1, m_max + 1):
            gpows.append(series_mul(gpows[-1], g, m_max))
        fog = sum(f[i] * gpows[i] for i in range(1, m_max + 1))  # f o g, as g(0) = 0
        lhs = series_power(fog, n, m_max)[m]
        fn = series_power(f, n, m_max)
        rhs = 0.0
        for i in range(n, m + 1):
            rhs += gpows[i][m] * fn[i]
        worst = max(worst, abs(lhs - rhs))
    return worst
