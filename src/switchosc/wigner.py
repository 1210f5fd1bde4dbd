"""Gaussian phase-space distribution of the minimum-uncertainty states.

The distribution is evaluated from the first and second moments alone, on a
rectangular grid centered at the means.  The prefactor is 1/(pi*hbar): with
the determinant identity sq2*sp2 - cqp^2 = hbar^2/4 that is the unique choice
integrating to one over phase space (a factor-2 variant circulates; the
validation report shows its integral is 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classical import amplitude
from .emit import csv_pieces, format_float, grid_chunks, json_pieces
from .errors import DomainError, NotNormalized
from .frequency import OscParams
from .quantum import CovarianceState, FirstMoments, first_moments_of, second_moments_of


@dataclass(frozen=True)
class WignerGrid:
    """Distribution values on a uniform phase-space grid.

    ``values[i, j]`` is the density at (q_axis[i], p_axis[j]); densities are
    nonnegative everywhere.  The instant, the oscillator parameters, and the
    state label are carried along for provenance.
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    t: float
    params: OscParams
    z: complex


def _density(dq, dp, cov: CovarianceState, hbar: float) -> np.ndarray:
    """The density at offsets (dq, dp) from the means, for floats or broadcast arrays.

    exp{-(2/hbar^2)[sq2*dp^2 - 2*cqp*dp*dq + sp2*dq^2]} normalized by
    1/(pi*hbar); the peak value 1/(pi*hbar) sits exactly at the means for
    every instant (purity is conserved).  The result, an array of the
    broadcast shape, is the one full-size array: each operation after the
    cross term writes into it, in the order the expression reads.
    """
    w = np.asarray(2.0 * cov.cqp * dp * dq)
    np.subtract(cov.sq2 * dp * dp, w, out=w)
    np.add(w, cov.sp2 * dq * dq, out=w)
    np.multiply(-(2.0 / (hbar * hbar)), w, out=w)
    np.exp(w, out=w)
    np.divide(w, math.pi * hbar, out=w)
    return w


def wigner_value(q: float, p: float, fm: FirstMoments, cov: CovarianceState,
                 hbar: float) -> float:
    """Density at one phase-space point, by the formula :func:`wigner_grid` evaluates.

    A grid cell is the density at its own offsets from the means, so it is
    ``wigner_value`` at those offsets with both means 0, bit for bit. Called
    at the grid's axis values instead, it subtracts the means again, and the
    differences may land an ulp from the offsets.

    Raises:
        DomainError: if ``cov`` violates the determinant identity beyond 1e-6
            relative — the closed form presumes a minimum-uncertainty state.
    """
    det = cov.sq2 * cov.sp2 - cov.cqp * cov.cqp
    if not (cov.sq2 > 0.0 and cov.sp2 > 0.0) or abs(det * 4.0 / (hbar * hbar) - 1.0) > 1e-6:
        raise DomainError(
            f"covariances {cov!r} do not describe a minimum-uncertainty state "
            f"(det={det!r}, expected {hbar * hbar / 4.0!r})"
        )
    return float(_density(q - fm.q_mean, p - fm.p_mean, cov, hbar))


def wigner_grid(t: float, z: complex, p: OscParams,
                half_widths: tuple[float, float] = (6.0, 6.0),
                resolution: tuple[int, int] = (256, 256)) -> WignerGrid:
    """Evaluate the distribution on a grid spanning +-n_sigma per axis.

    The grid is centered at the first moments and spans ``half_widths`` times
    the marginal standard deviation along each axis. Each axis is the mean
    plus offsets that are exactly odd, and the density is evaluated at those
    offsets, so every cell equals its mirror cell bit for bit,
    ``values == values[::-1, ::-1]``; for an odd resolution the centre sits
    exactly at the means and holds exactly 1/(pi*hbar).

    Raises:
        DomainError: if a resolution is below 16 or a half width is below 3
            or not finite.
    """
    n_q, n_p = resolution
    hw_q, hw_p = half_widths
    if n_q < 16 or n_p < 16:
        raise DomainError(f"resolution must be at least 16 per axis, got {resolution!r}")
    if not all(hw >= 3.0 and math.isfinite(hw) for hw in half_widths):
        raise DomainError(f"half widths must be finite and at least 3 sigma, got {half_widths!r}")
    amp = amplitude([t], p)
    fm = FirstMoments(*(v.item() for v in first_moments_of(z, *amp, p)))
    cov = CovarianceState(*(v.item() for v in second_moments_of(*amp, p)))
    dq = _odd_offsets(n_q, hw_q * math.sqrt(cov.sq2))
    dp = _odd_offsets(n_p, hw_p * math.sqrt(cov.sp2))
    values = _density(dq[:, None], dp[None, :], cov, p.hbar)
    return WignerGrid(q_axis=fm.q_mean + dq, p_axis=fm.p_mean + dp, values=values,
                      t=t, params=p, z=complex(z))


def _odd_offsets(n: int, half_width: float) -> np.ndarray:
    """``n`` uniform offsets from ``-half_width`` to ``half_width``, each exactly the negative of its mirror.

    ``u - u[::-1]`` is exactly odd whatever ``linspace`` rounded, and so are
    its products: ``d[::-1] == -d`` holds exactly, and the middle offset of
    an odd ``n`` is 0.0.
    """
    u = np.linspace(-1.0, 1.0, n)
    return half_width * (0.5 * (u - u[::-1]))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on ``n`` uniform points with spacing ``h``.

    For an even point count the last three intervals use the 3/8 rule, which
    keeps fourth-order accuracy without restricting the grid parity.
    """
    if n < 8:
        raise DomainError(f"need at least 8 points for the composite rule, got {n}")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= h / 3.0
    else:
        w[0] = 1.0
        w[1 : n - 4 : 2] = 4.0
        w[2 : n - 4 : 2] = 2.0
        w[n - 4] = 1.0
        w *= h / 3.0
        w[n - 4 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def _weights_and_total(g: WignerGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """The Simpson weights of both axes and the grid's total mass under them."""
    wq = _simpson_weights(len(g.q_axis), float(g.q_axis[1] - g.q_axis[0]))
    wp = _simpson_weights(len(g.p_axis), float(g.p_axis[1] - g.p_axis[0]))
    return wq, wp, float(wq @ g.values @ wp)


def grid_integral(g: WignerGrid) -> float:
    """Total mass of the grid by the composite Simpson rule on both axes."""
    return _weights_and_total(g)[2]


def grid_moments(g: WignerGrid) -> tuple[FirstMoments, CovarianceState]:
    """Recover first and second moments from the grid by discrete quadrature.

    Closes the loop: at 6 sigma and 256^2 the recovered moments match the
    analytic ones to better than 1e-4 relative.

    Raises:
        NotNormalized: if the grid mass deviates from one by more than 1e-4.
    """
    wq, wp, total = _weights_and_total(g)
    if abs(total - 1.0) > 1e-4:
        raise NotNormalized(f"grid mass {total!r} deviates from 1 by more than 1e-4")
    q = g.q_axis
    p = g.p_axis
    q_mean = float((wq * q) @ g.values @ wp) / total
    p_mean = float(wq @ g.values @ (wp * p)) / total
    dq = q - q_mean
    dp = p - p_mean
    sq2 = float((wq * dq * dq) @ g.values @ wp) / total
    sp2 = float(wq @ g.values @ (wp * dp * dp)) / total
    cqp = float((wq * dq) @ g.values @ (wp * dp)) / total
    return FirstMoments(q_mean=q_mean, p_mean=p_mean), CovarianceState(sq2=sq2, sp2=sp2, cqp=cqp)


def _meta_items(g: WignerGrid) -> list[tuple[str, str]]:
    return [
        ("t", format_float(g.t)),
        ("m", format_float(g.params.m)),
        ("hbar", format_float(g.params.hbar)),
        ("alpha", format_float(g.params.alpha)),
        ("omega", format_float(g.params.omega)),
        ("z_re", format_float(g.z.real)),
        ("z_im", format_float(g.z.imag)),
        ("n_q", str(len(g.q_axis))),
        ("n_p", str(len(g.p_axis))),
    ]


def grid_csv_pieces(g: WignerGrid, comments: tuple[tuple[str, str], ...] = ()) -> Iterator[str]:
    """The text of :func:`grid_to_csv` in pieces: the metadata head, blocks of rows, the tail.

    Raises:
        RangeError: while iterating, if a value is NaN or infinite.
    """
    return csv_pieces((*_meta_items(g), *comments), "q,p,w",
                      grid_chunks(g.q_axis, g.p_axis, g.values))


def grid_json_pieces(g: WignerGrid, extra_meta: dict | None = None) -> Iterator[str]:
    """The text of :func:`grid_to_json` in pieces: the metadata, each array in blocks, the tail.

    Raises:
        RangeError: while iterating, if a value is NaN or infinite.
    """
    meta = {**dict(_meta_items(g)), **(extra_meta or {})}
    return json_pieces({"meta": meta}, (("q_axis", g.q_axis), ("p_axis", g.p_axis),
                                        ("values", g.values.reshape(-1))))


def grid_to_csv(g: WignerGrid, comments: tuple[tuple[str, str], ...] = ()) -> str:
    """Render the grid as '(q, p, w)' triplet rows with '#' metadata comments.

    Values are written with full round-trip precision (better than the 15
    significant digits the format guarantees).
    """
    return "".join(grid_csv_pieces(g, comments))


def grid_to_json(g: WignerGrid, extra_meta: dict | None = None) -> str:
    """Render the grid as compact JSON: metadata, both axes, row-major values."""
    return "".join(grid_json_pieces(g, extra_meta))
