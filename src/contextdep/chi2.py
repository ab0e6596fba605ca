"""Chi-squared tail functions built on the incomplete gamma function.

The survival function of a chi-squared variable with k degrees of freedom
is the regularized upper incomplete gamma function Q(k/2, x/2).  Q and its
complement P are computed by the classic pair of algorithms: a power
series for x < a + 1 and a modified Lentz continued fraction otherwise.
Both converge to near machine precision across the full support until the
series needs more than 10,000 terms: chi2_isf(0.025, k) stops converging
(RuntimeError) from about k = 3.68e6, and far larger k raise ArithmeticError.

The quantile chi2_isf is solved on the survival side in log space
(DiDonato & Morris, ACM TOMS 12:377, 1986), so it stays accurate below
p = 1.1e-16, where 1 - p rounds to 1, down to the smallest positive double.

Survival values returned as p-values are not clipped: one below the
smallest double underflows to 0.0, which still lies below every positive
significance threshold.
"""

from __future__ import annotations

import math

__all__ = ["chi2_sf", "chi2_isf"]

_EPS = 1e-15
_FPMIN = 1e-290
_MAX_ITER = 10_000

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_error(a: float) -> float:
    # lgamma(a) - [(a - 1/2) log a - a + log(2 pi)/2], by asymptotic series
    # for large a where the direct difference would cancel.
    if a < 20.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_TWO_PI)
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - r / 1188.0) * r) * r) * r) / a


def _deviance(a: float, x: float) -> float:
    # a log(a/x) + x - a, computed by series in (a-x)/(a+x) when the direct
    # form would cancel (a close to x).
    if abs(a - x) < 0.1 * (a + x):
        v = (a - x) / (a + x)
        s = (a - x) * v
        term = 2.0 * a * v
        v2 = v * v
        for j in range(1, 1000):
            term *= v2
            s_next = s + term / (2 * j + 1)
            if s_next == s:
                return s_next
            s = s_next
    return a * math.log(a / x) + x - a


def _log_front(a: float, x: float) -> float:
    # log of x^a e^-x / Gamma(a); the naive expression loses ~half its
    # digits to cancellation once a is large.
    return 0.5 * math.log(a) - _HALF_LOG_TWO_PI - _stirling_error(a) - _deviance(a, x)


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized gamma P(a, x) by series expansion; needs x < a + 1.
    if x == 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            log_front = _log_front(a, x)
            if log_front < -745.0:
                return 0.0
            return total * math.exp(log_front)
    raise RuntimeError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _q_fraction(a: float, x: float) -> float:
    # The Lentz continued fraction h with Q(a, x) = x^a e^-x / Gamma(a) * h;
    # needs x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError(f"incomplete gamma continued fraction failed to converge (a={a}, x={x})")


def _log_sf(a: float, x: float) -> float:
    # log Q(a, x): finite even where Q itself underflows.
    if x < a + 1.0:
        return math.log1p(-_gamma_p_series(a, x))
    return _log_front(a, x) + math.log(_q_fraction(a, x))


def _check_args(x: float, k: int) -> tuple[float, float]:
    k_int = int(k)
    if k_int != k or k_int < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {k!r}")
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"chi-squared statistic must be non-negative, got {x!r}")
    return x, 0.5 * k_int


def chi2_sf(x: float, k: int) -> float:
    """Survival function 1 - CDF, in [0, 1].

    This is the p-value of an observed statistic x under the chi-squared
    null with k degrees of freedom.  It is not clipped: a survival value
    below the smallest positive double is returned as 0.0.
    """
    x, a = _check_args(x, k)
    if x == 0.0:
        return 1.0
    half_x = 0.5 * x
    if half_x < a + 1.0:
        q = 1.0 - _gamma_p_series(a, half_x)
    else:
        h = _q_fraction(a, half_x)
        log_front = _log_front(a, half_x)
        q = 0.0 if log_front < -745.0 else math.exp(log_front) * h
    return min(q, 1.0)


def chi2_isf(p: float, k: int) -> float:
    """Inverse survival function: the x with Q(k/2, x/2) == p, for p in (0, 1].

    Newton steps on log Q(k/2, x/2) = log p, safeguarded by bisection on a
    bracketing interval, so convergence does not depend on the starting
    point.  Working in logs keeps every p down to the smallest positive
    double resolvable; the returned quantile reproduces p to about 1e-12
    relative.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {p!r}")
    _, a = _check_args(0.0, k)
    if p == 1.0:
        return 0.0
    log_p = math.log(p)

    lo = 0.0
    hi = float(k) + 10.0 * math.sqrt(2.0 * k) + 10.0
    while hi < math.inf and _log_sf(a, 0.5 * hi) > log_p:
        lo, hi = hi, 2.0 * hi
    if hi == math.inf:
        raise OverflowError("no bracket of the chi-squared quantile below the largest double")
    x = max(float(k), lo)
    for _ in range(300):
        half_x = 0.5 * x
        log_q = _log_sf(a, half_x)
        f = log_q - log_p
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        else:
            return x
        # f falls with slope density / Q, where the density is front / x.
        slope = math.exp(_log_front(a, half_x) - log_q) / x
        x_next = x + f / slope if slope > 0.0 else hi
        # A Newton step below the tolerance has converged, even one that
        # rounds back onto the bracket's edge.
        if abs(x_next - x) > 4.0 * _EPS * x and not lo < x_next < hi:
            x_next = 0.5 * (lo + hi)
        if abs(x_next - x) <= 4.0 * _EPS * x:
            return x_next
        x = x_next
    return x
