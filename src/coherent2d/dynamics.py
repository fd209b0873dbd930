"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them. The spectral
route stays in the polar (m, n_r) eigenbasis, built from normalized real
ladders on one grid quadrant, and calls nothing of the closed form.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .expansion import CoefficientTable
from .states import (
    Grid2D,
    PacketParams,
    _default_half_width,
    _packet_factors,
    coherent_2d,
)

__all__ = [
    "SpectralEvolver",
    "TrajectorySample",
    "aligned_max_difference",
    "evolve_closed_form",
    "orbit_signed_area",
    "trace_orbit",
]

_SQRT_PI = math.sqrt(math.pi)
_SPECTRAL_TAIL_LIMIT = 1e-10
# Largest m n k of one synthesis product. OpenBLAS computes a product up to
# 2^18 on the calling thread; a larger one wakes worker threads, which spin
# on after it returns. Products near 2^16 also ran fastest on one thread.
_SERIAL_PRODUCT = 2**16
# Times synthesized per pass over the field stacks. A pass reads every
# stack once, so this divides the memory traffic of each time.
_TIMES_PER_PASS = 4


@dataclass(frozen=True)
class TrajectorySample:
    """Density observables of the packet at one time."""

    t: float
    centroid_xi: float
    centroid_eta: float
    var_xi: float
    var_eta: float
    norm: float
    peak_density: float


def evolve_closed_form(params: PacketParams, grid: Grid2D, t: float) -> Grid2D:
    """Sample the closed-form packet on the grid at time t.

    The packet is evaluated on the xi column and the eta row, so the grid
    costs O(P) exponentials and one outer product.
    """
    values = coherent_2d(params, grid.xi_axis[:, None], grid.eta_axis[None, :], t)
    return grid.with_values(values)


def _mirror_start(axis: np.ndarray) -> int:
    """First index of the axis on which the spectral fields need to be built.

    When the axis is exactly antisymmetric, as ``make_grid`` builds it,
    this is its first coordinate >= 0: the fields at the negative
    coordinates are symmetry images of those built (``SpectralEvolver``).
    Any other axis is built whole, so this is 0.
    """
    return axis.size // 2 if np.array_equal(axis, -axis[::-1]) else 0


def _principal_fields(
    table: CoefficientTable, xi_axis: np.ndarray, eta_axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums F_N = sum C psi grouped by principal number N.

    Returns the K levels N that hold a stored mode, ascending, and their
    fields as one real array of shape (2, K, len(xi_axis), len(eta_axis)):
    Re F_N, then Im F_N, of each level.

    With z = xi + i eta and u = |z|^2, psi_{a,k} = l_k s_a and
    psi_{-a,k} = l_k conj(s_a) for the normalized ladders

        s_a = z^a e^{-u/2} / sqrt(pi a!),      s_{a+1} = z s_a / sqrt(a + 1),
        l_k = sqrt(k! a! / (k + a)!) L_k^a(u),

    l_k by the three-term Laguerre recurrence. C is real, so each (a, k)
    adds (C_+ + C_-) l_k Re s_a to Re F_N and (C_+ - C_-) l_k Im s_a to
    Im F_N, in ascending a. No factor is a bare power of rho, so the fields
    stay finite where rho^|m| overflows. Past u ~ 1490 e^{-u/2} underflows
    to zero, and where l_k overflows there too the fields are NaN.
    """
    m, n_r, c = table.m, table.n_r, table.c
    plus = np.zeros((table.n_max + 1, table.n_max // 2 + 1))
    minus = np.zeros_like(plus)
    np.add.at(plus, (m[m >= 0], n_r[m >= 0]), c[m >= 0])
    np.add.at(minus, (-m[m < 0], n_r[m < 0]), c[m < 0])
    stored = np.zeros(plus.shape, dtype=bool)
    stored[np.abs(m), n_r] = True
    re_coef = plus + minus
    im_coef = plus - minus
    im_coef[0] = 0.0  # s_0 is real

    levels = np.unique(table.principal)
    slot = {n: i for i, n in enumerate(levels.tolist())}

    x = xi_axis[:, None]
    y = eta_axis[None, :]
    u = x * x + y * y
    fields = np.zeros((2, levels.size, *u.shape))
    s_re = np.exp(-0.5 * u) / _SQRT_PI
    s_im = np.zeros_like(u)
    scratch = np.empty_like(u)
    term = np.empty_like(u)
    a = 0
    for am in np.flatnonzero(stored.any(axis=1)).tolist():
        while a < am:
            gx = x / math.sqrt(a + 1.0)
            gy = y / math.sqrt(a + 1.0)
            np.multiply(s_re, gx, out=scratch)
            np.multiply(s_im, gy, out=term)
            scratch -= term
            np.multiply(s_im, gx, out=term)
            np.multiply(s_re, gy, out=s_im)
            s_im += term
            s_re, scratch = scratch, s_re
            a += 1
        coefs = (re_coef[a].tolist(), im_coef[a].tolist())
        prev = np.zeros_like(u)
        ladder = np.ones_like(u)
        k = 0
        for top in np.flatnonzero(stored[a]).tolist():
            while k < top:
                np.subtract(2.0 * k + a + 1.0, u, out=scratch)
                scratch *= ladder
                prev *= math.sqrt(k * (k + a))
                scratch -= prev
                scratch /= math.sqrt((k + 1.0) * (k + a + 1.0))
                prev, ladder, scratch = ladder, scratch, prev
                k += 1
            for part, s_part, coef in zip(fields[:, slot[a + 2 * k]], (s_re, s_im), coefs):
                if coef[k]:
                    np.multiply(ladder, s_part, out=term)
                    term *= coef[k]
                    part += term
    return levels, fields


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    The fields F_N = R_N + i I_N are built once, on the rows and columns
    from ``_mirror_start``: the xi >= 0, eta >= 0 quadrant of a
    ``make_grid`` grid, the whole of an axis that is not antisymmetric.
    C is real and N = |m| (mod 2), so the rest of the grid holds images:

        F_N(xi, -eta) = conj F_N(xi, eta),
        F_N(-xi, eta) = (-1)^N conj F_N(xi, eta).

    The quadrant is cut into blocks of whole rows, and [R; I] over the K
    stored levels into (count, 2K, band) real stacks of consecutive points.
    At time t an (8, 2K) matrix of the cos and sin of (N+1) w t, with the
    parity signs, times a stack gives the real and imaginary parts of
    sum_N e^{-i (N+1) w t} F_N at its points and at their three images.
    Up to g = ``_TIMES_PER_PASS`` times share one pass over the stacks:
    their matrices are stacked into one (8g, 2K) matrix, whose product with
    a block's stacks fills an (8g, points) buffer. Each band's product is
    small enough to run on the calling thread, so no BLAS worker wakes.
    Each time's (8, points) rows are then written into strided views of
    its own frame.
    """

    def __init__(self, table: CoefficientTable, grid: Grid2D):
        if table.tail_mass >= _SPECTRAL_TAIL_LIMIT:
            warnings.warn(
                f"tail mass {table.tail_mass:.3e} exceeds {_SPECTRAL_TAIL_LIMIT:.0e}; "
                "spectral agreement with the closed form is degraded",
                stacklevel=2,
            )
        self._grid = grid
        self._omega = table.params.omega
        xi, eta = grid.xi_axis, grid.eta_axis
        self._start = row0, col0 = _mirror_start(xi), _mirror_start(eta)
        self._levels, fields = _principal_fields(table, xi[row0:], eta[col0:])
        self._parity = 1 - 2 * (self._levels % 2)
        rows, cols = xi.size - row0, eta.size - col0
        flat = fields.reshape(2 * self._levels.size, rows * cols)
        planes = max(1, len(flat))
        size = grid.values.size
        # A band's (8g, 2K) @ (2K, band) product has m n k <= _SERIAL_PRODUCT.
        # A stack holds at most one grid's values (2 size reals), and so does
        # a block's (8g, points) product, its points padded to whole bands.
        lines = 8 * _TIMES_PER_PASS
        capacity = 2 * size // lines
        band = max(1, min(_SERIAL_PRODUCT // (lines * planes), 2 * size // planes,
                          capacity - cols + 1))
        per_stack = max(1, 2 * size // (band * planes))
        height = max(1, min(rows, (capacity - band + 1) // cols))
        self._width = -(-height * cols // band) * band
        self._blocks = []
        for i in range(0, rows if len(flat) else 0, height):
            first, points = i * cols, (min(i + height, rows) - i) * cols
            stacks = []
            for lo in range(first, first + points, per_stack * band):
                full, rest = divmod(min(per_stack * band, first + points - lo), band)
                tail = lo + full * band
                stack = np.empty((full + (rest > 0), len(flat), band))
                stack[:full] = flat[:, lo:tail].reshape(len(flat), full, band).transpose(1, 0, 2)
                stack[full:, :, :rest] = flat[:, tail : tail + rest]
                stack[full:, :, rest:] = 0.0
                stacks.append(stack)
            self._blocks.append((i, points, stacks))

    def at(self, t: float) -> Grid2D:
        """The synthesized packet sum_N F_N e^{-i (N+1) w t} at time t."""
        return self._synthesize([t])[0]

    def frames(self, times) -> Iterator[Grid2D]:
        """The synthesized packet at each of the times, in order.

        The times are taken ``_TIMES_PER_PASS`` at a time, each group in
        one pass over the stacks, so at most that many frames are held here.
        """
        times = iter(times)
        while group := list(itertools.islice(times, _TIMES_PER_PASS)):
            yield from self._synthesize(group)

    def _synthesize(self, times: list) -> list[Grid2D]:
        """The frames at up to ``_TIMES_PER_PASS`` times, from one pass."""
        phase = np.outer(self._omega * np.asarray(times, dtype=float), self._levels + 1)
        c, s = np.cos(phase), np.sin(phase)
        # Re and Im rows at (xi, eta) and (xi, -eta), then their (-xi, .)
        # images, each (2, times, K); stacked per time as (8 times, 2K)
        upper = np.array([[c, s], [-s, c], [c, -s], [-s, -c]])
        rows = np.concatenate([upper, upper[[2, 3, 0, 1]] * self._parity])
        weights = rows.transpose(2, 0, 1, 3).reshape(8 * len(times), 2 * self._levels.size)
        # The blocks and their images cover the grid; with no level there is
        # no block and the frames stay zero.
        alloc = np.empty if self._blocks else np.zeros
        frames = [alloc(self._grid.values.shape, dtype=complex) for _ in times]
        row0, col0 = self._start
        # Each frame seen from the built quadrant and from its images at
        # -eta, -xi and both, indexed like the quadrant; an axis that is not
        # antisymmetric has none. The quadrant is written last, over the
        # zero of an odd axis, which is its own image.
        views = [
            (
                values[row0:, col0:],
                values[row0:, ::-1][:, col0:] if col0 else None,
                values[::-1, col0:][row0:] if row0 else None,
                values[::-1, ::-1][row0:, col0:] if row0 and col0 else None,
            )
            for values in frames
        ]
        cols = self._grid.values.shape[1] - col0
        buffer = np.empty((weights.shape[0], self._width))
        for i, points, stacks in self._blocks:
            lo = 0
            for stack in stacks:
                count, _, band = stack.shape
                out = buffer[:, lo : lo + count * band].reshape(-1, count, band)
                np.matmul(weights, stack, out=out.transpose(1, 0, 2))
                lo += count * band
            for j, images in enumerate(views):
                product = buffer[8 * j : 8 * j + 8, :points].reshape(8, -1, cols)
                for q in (3, 2, 1, 0):
                    if images[q] is not None:
                        target = images[q][i : i + product.shape[1]]
                        target.real = product[2 * q]
                        target.imag = product[2 * q + 1]
        return [self._grid.with_values(values) for values in frames]


def aligned_max_difference(reference: Grid2D, candidate: Grid2D) -> float:
    """Max pointwise |difference| after removing one global phase.

    The phase is fixed at the point of maximum reference density, matching
    the convention that constant phases are physically irrelevant.
    """
    ref = reference.values
    cand = candidate.values
    modulus = np.abs(ref)
    idx = np.unravel_index(np.argmax(modulus), ref.shape)
    if cand[idx] == 0.0:
        diff = ref - cand
    else:
        factor = ref[idx] / cand[idx]
        factor /= abs(factor)
        diff = np.multiply(factor, cand)
        np.subtract(ref, diff, out=diff)
    return float(np.max(np.abs(diff, out=modulus)))


def trace_orbit(params: PacketParams, times, grid: Grid2D) -> list[TrajectorySample]:
    """Centroid, variance, norm and peak of the closed-form density per time.

    The density is |X(xi)|^2 |Y(eta)|^2, so each time costs O(P): the mass
    is a product of two axis sums and each centroid and variance a ratio
    of sums along its own axis.

    The grid must span at least +/- (max(xi0, eta0) + 6) per axis, the
    default half width, so the Riemann sums see the whole Gaussian;
    integrals then carry errors far below the 1e-6 trajectory tolerances.
    """
    need = _default_half_width(params)
    slack = 1e-9
    if (
        grid.xi_axis[0] > -need + slack
        or grid.xi_axis[-1] < need - slack
        or grid.eta_axis[0] > -need + slack
        or grid.eta_axis[-1] < need - slack
    ):
        raise ValueError(f"grid must span at least +/-{need} on both axes")
    xi, eta = grid.xi_axis, grid.eta_axis
    samples = []
    for t in times:
        x_factor, y_factor = _packet_factors(params, xi, eta, t)
        wx = np.abs(x_factor) ** 2
        wy = np.abs(y_factor) ** 2
        mass_x = float(np.sum(wx))
        mass_y = float(np.sum(wy))
        cx = float(np.sum(xi * wx)) / mass_x
        cy = float(np.sum(eta * wy)) / mass_y
        samples.append(
            TrajectorySample(
                t=float(t),
                centroid_xi=cx,
                centroid_eta=cy,
                var_xi=float(np.sum((xi - cx) ** 2 * wx)) / mass_x,
                var_eta=float(np.sum((eta - cy) ** 2 * wy)) / mass_y,
                norm=mass_x * mass_y * grid.cell_area,
                peak_density=float(np.max(wx) * np.max(wy)),
            )
        )
    return samples


def orbit_signed_area(samples: list[TrajectorySample]) -> float:
    """Shoelace area of the sampled centroid polygon; the sign is the orientation."""
    x = np.array([s.centroid_xi for s in samples])
    y = np.array([s.centroid_eta for s in samples])
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
