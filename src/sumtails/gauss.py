"""Standard normal primitives: density, CDF, Mills ratio, Stein function.

The CDF is built on an in-module rational approximation of the complementary
error function (the classic Cody kernel) rather than a platform ``erf``.  The
kernel still calls ``math.exp``, which comes from the platform's C library,
so the numbers feeding calibration suprema are bit-identical from run to run
on one platform but may differ in the last bits between platforms.

The Mills ratio r(s) = Phi(-s) / phi(s) is never formed as a ratio of two
underflowing quantities: for s above ~0.66 it is computed from the scaled
complement erfcx, which stays O(1/s) all the way out (r(40) ~ 1/40 even
though phi(40) underflows to zero in doubles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GaussEval",
    "erfc",
    "erfcx",
    "mills",
    "norm_cdf",
    "norm_pdf",
    "std_normal",
    "stein_f",
]

# Rational coefficients for erf on |x| <= 0.46875
_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
# erfcx on 0.46875 <= x <= 4
_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
# erfcx on x > 4
_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)

_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)
_THRESH = 0.46875
_XBIG = 26.543  # erfc underflows beyond this
_XNEG = -26.628  # erfcx overflows below this
_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)
_MILLS_SWITCH = _THRESH / _SQRT1_2  # s above which erfcx drives the Mills ratio


def _erf_small(x: float) -> float:
    """erf(x) for |x| <= 0.46875."""
    y = abs(x)
    ysq = y * y if y > 1.11e-16 else 0.0
    xnum = _A[4] * ysq
    xden = ysq
    for i in range(3):
        xnum = (xnum + _A[i]) * ysq
        xden = (xden + _B[i]) * ysq
    return x * (xnum + _A[3]) / (xden + _B[3])


def _erfcx_core(y: float) -> float:
    """erfcx(y) = exp(y^2) erfc(y) for y >= 0.46875."""
    if y <= 4.0:
        xnum = _C[8] * y
        xden = y
        for i in range(7):
            xnum = (xnum + _C[i]) * y
            xden = (xden + _D[i]) * y
        return (xnum + _C[7]) / (xden + _D[7])
    ysq = 1.0 / (y * y)
    xnum = _P[5] * ysq
    xden = ysq
    for i in range(4):
        xnum = (xnum + _P[i]) * ysq
        xden = (xden + _Q[i]) * ysq
    result = ysq * (xnum + _P[4]) / (xden + _Q[4])
    return (_SQRPI - result) / y


def _exp_neg_sq(y: float) -> float:
    """exp(-y^2) with the split-argument trick for low relative error."""
    ysq = math.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return math.exp(-ysq * ysq) * math.exp(-delta)


def erfc(x: float) -> float:
    """Complementary error function, ~1 ulp relative accuracy."""
    y = abs(x)
    if y <= _THRESH:
        return 1.0 - _erf_small(x)
    if y > _XBIG:
        result = 0.0
    else:
        result = _erfcx_core(y) * _exp_neg_sq(y)
    return 2.0 - result if x < 0.0 else result


def erfcx(x: float) -> float:
    """Scaled complement exp(x^2) erfc(x); no underflow for large positive x."""
    if x >= _THRESH:
        return _erfcx_core(x)
    if x < _XNEG:
        raise OverflowError(f"erfcx overflows double precision at x={x}")
    return math.exp(x * x) * erfc(x)


def norm_pdf(s: float) -> float:
    """Standard normal density phi(s)."""
    return math.exp(-0.5 * s * s) / _SQRT_2PI


def norm_cdf(s: float) -> float:
    """Standard normal distribution function Phi(s)."""
    return 0.5 * erfc(-s * _SQRT1_2)


def mills(s: float) -> float:
    """Mills ratio r(s) = Phi(-s) / phi(s), stable out to s = 40 and beyond."""
    if s >= _MILLS_SWITCH:
        return _SQRT_PI_2 * erfcx(s * _SQRT1_2)
    return norm_cdf(-s) / norm_pdf(s)


@dataclass(frozen=True)
class GaussEval:
    """Density, CDF and Mills ratio of the standard normal at one point."""

    s: float
    phi: float
    Phi: float
    mills: float


def std_normal(s: float) -> GaussEval:
    """Evaluate phi, Phi and the Mills ratio at ``s``."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"argument must be finite, got {s}")
    return GaussEval(s=s, phi=norm_pdf(s), Phi=norm_cdf(s), mills=mills(s))


def stein_f(z: float, s: float) -> float:
    """Stein kernel f_z(s) = Phi(z) r(s) 1{s > z} + Phi(-z) r(-s) 1{s <= z}.

    Continuous at s = z (both sides equal Phi(z) Phi(-z) / phi(z)), positive
    everywhere, and maximized over s at s = z.
    """
    z = float(z)
    s = float(s)
    if not (math.isfinite(z) and math.isfinite(s)):
        raise ValueError(f"arguments must be finite, got z={z}, s={s}")
    if s > z:
        return norm_cdf(z) * mills(s)
    return norm_cdf(-z) * mills(-s)
