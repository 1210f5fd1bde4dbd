"""Scalar numerics that only the tests use.

``scalar_find_root`` is the one-bracket root finder that the lane-wise
:func:`switchosc.numerics.find_root` replaced, kept as its bit-for-bit
reference with the same step rule.  ``second_derivative`` is a
finite-difference check of closed forms.
"""

from typing import Callable

from switchosc import NoSignChange, RangeError, ToleranceNotMet


def scalar_find_root(f: Callable[[float], float], bracket: tuple[float, float],
                     tol: float = 1e-12, max_iter: int = 200) -> float:
    """Locate a zero of ``f`` inside a sign-changing bracket to within ``tol``.

    A secant step is followed by another if it at least halved the bracket
    and by bisection if it did not (Dekker's rule), so the bracket at least
    halves every other iteration regardless of how the secant behaves.  A secant
    point lies at least ``tol`` inside the bracket, so a converged secant
    step is followed by one that closes the bracket around the root.  When
    ``tol`` is finer than the spacing of doubles near the root, the search
    ends once the bracket ends are adjacent doubles.
    """
    a, b = bracket
    if not a < b:
        raise RangeError(f"bracket must satisfy lo < hi, got {bracket!r}")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")
    use_secant = True
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        # no double strictly between a and b: the bracket cannot shrink further
        if b - a <= 2.0 * tol or not a < m < b:
            return m
        width = b - a
        if use_secant and fb != fa:
            # a secant point at least tol inside the bracket
            x = min(max(b - fb * width / (fb - fa), a + tol), b - tol)
            if not a < x < b:
                x = m
        else:
            x = m
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        use_secant = not use_secant or b - a <= 0.5 * width
    raise ToleranceNotMet(f"root not located to {tol!r} within {max_iter} iterations")


def second_derivative(f, x: float, h: float = 1e-3):
    """Fourth-order central difference d2f/dx2; f may be real or complex valued."""
    return (
        -f(x - 2 * h) + 16.0 * f(x - h) - 30.0 * f(x) + 16.0 * f(x + h) - f(x + 2 * h)
    ) / (12.0 * h * h)
