"""Brent's root finder and bounded scalar minimizer, without ``scipy.optimize``.

The library needs exactly two one-dimensional solvers: a bracketing root
finder for the Gamma/Pareto splice point ``x_th``
(:func:`repro.distributions.hybrid._find_splice_point`) and a bounded
minimizer for Whittle's MLE (:func:`repro.analysis.hurst.whittle`).
Importing ``scipy.optimize`` for them also loads ``scipy.linalg``,
``sparse``, ``spatial`` and ``fft``: about 0.4 s and 23 MB of start-up
that no result uses.

Both functions are ports, not re-derivations, so every result is the
same float scipy returns:

- :func:`brentq` follows scipy's C ``brentq`` (``Zeros/brentq.c``)
  statement for statement: the same IEEE operations in the same order,
  ``maxiter`` 100, and ``f`` called with a Python float and its value
  read back as a Python float, as the C does through its callback.  A
  zero divisor gives C's IEEE quotient, never ``ZeroDivisionError``.
- :func:`bounded_minimize` follows scipy's pure-Python
  ``_minimize_scalar_bounded`` (``minimize_scalar(method="bounded")``)
  with the same numpy scalar operations and ``maxfun`` 500.

``tests/test_brent.py`` compares both with scipy bit for bit.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = ["brentq", "bounded_minimize", "BoundedMinimum"]

_BRENTQ_MAXITER = 100
_BRENTQ_MIN_RTOL = 4 * sys.float_info.epsilon
_BOUNDED_MAXFUN = 500


def _div(num, den):
    """``num / den`` with the IEEE quotient C gives for a zero ``den``."""
    if den != 0.0:
        return num / den
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(num) / np.float64(den))


def _value(f, x):
    """``f(x)`` as the C callback sees it; a NaN value stops the solver."""
    fx = f(x)
    if np.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return float(fx)


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def brentq(f, a, b, xtol, rtol):
    """A root of ``f`` in the bracket ``[a, b]`` (``scipy.optimize.brentq``).

    ``f(a)`` and ``f(b)`` must differ in sign.  Converges when the
    bracket half-width drops below ``(xtol + rtol * |x|) / 2``.  Raises
    ``ValueError`` for a bad tolerance, a bracket whose ends have the same
    sign or a NaN function value, and ``RuntimeError`` after 100
    iterations without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_MIN_RTOL:g})")
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


class BoundedMinimum(NamedTuple):
    """Outcome of :func:`bounded_minimize`, named as scipy's result fields."""

    x: float
    fun: float
    nfev: int
    status: int
    """0 converged, 1 out of function calls, 2 NaN seen."""


def bounded_minimize(f, lo, hi, args=(), xatol=1e-5):
    """Minimize ``f(x, *args)`` over ``[lo, hi]`` (``minimize_scalar(method="bounded")``).

    Brent's golden-section search with parabolic steps; converges when
    the bracket around the best point is within ``xatol`` (plus a
    relative ``sqrt(eps)`` term).  Stops after 500 function calls with
    status 1.  Raises ``ValueError`` for non-finite or reversed bounds.
    """
    if not (np.size(lo) == 1 and np.isfinite(lo) and np.size(hi) == 1 and np.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")

    flag = 0
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x, *args)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x, *args)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BOUNDED_MAXFUN:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return BoundedMinimum(x=xf, fun=fx, nfev=num, status=flag)
