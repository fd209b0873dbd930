"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them. The spectral
route takes only the table's polar (m, n_r) coefficients and calls
nothing of the closed form: it rotates each level of the table into the
Cartesian states |N - k, k> and builds the fields from Hermite functions
on one grid quadrant. No field is stored: each pass over the quadrant
builds the level planes of one run of rows at a time, uses them for
every time of the call and drops them, so memory stays a few grids
whatever the number of levels. The polar eigenbasis is not evaluated on
the grid; the tests pin it, each single-mode table against
``states.eigenstate``.
"""

from __future__ import annotations

import bisect
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
    "closed_form_factors",
    "evolve_closed_form",
    "orbit_signed_area",
    "trace_orbit",
]

_SQRT_PI = math.sqrt(math.pi)
# Dekker's split of a double into two 26-bit halves, and ln 2 in two parts
# whose first times any integer below 2^21 is exact (Cody-Waite reduction).
_DEKKER_SPLIT = 2.0**27 + 1.0
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SPECTRAL_TAIL_LIMIT = 1e-10
# Largest m n k of one synthesis product. OpenBLAS computes a product up to
# 2^18 on the calling thread; a larger one wakes worker threads, which spin
# on after it returns. Products near 2^16 also ran fastest on one thread.
_SERIAL_PRODUCT = 2**16
# Times in one product of the product transform: each group of times is
# one (n g, K) @ (K, points) product over a run's planes.
_TIMES_PER_GROUP = 4
# A multiple of the points a BLAS product kernel takes at once, and the
# spare columns at each end of a run's planes and products (``_product``).
_GROUP = 8
_MARGIN = 2 * _GROUP - 1


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


def _hermite_functions(x: np.ndarray, top: int) -> np.ndarray:
    """phi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), n = 0..top, as rows.

    The normalized recurrence

        phi_n = sqrt(2/n) x phi_{n-1} - sqrt((n-1)/n) phi_{n-2}

    runs on mantissas, each point carrying its own binary exponent, taken
    out by ``frexp`` at every step and put back by ``ldexp`` into the table
    (Gil, Segura & Temme, *Numerical Methods for Special Functions*, SIAM
    2007, ch. 4). So nothing underflows on the way: a value is 0 only where
    it is below the smallest double, though e^{-x^2/2} alone is 0 past
    |x| ~ 38.6. phi_0's exponent is split off x^2/2 by Cody-Waite reduction,
    with x^2 taken exactly from a Dekker split of x, so phi_0 is correct to
    a few ulp at every |x|.
    """
    x = np.asarray(x, dtype=float)
    split = _DEKKER_SPLIT * x
    hi = split - (split - x)
    lo = x - hi
    half_square = 0.5 * hi * hi  # exact: hi has 26 bits
    # past 2^20 halvings every phi_n with n < 10^5 is 0; halvings ln2_hi stays exact
    halvings = np.minimum(np.rint(half_square / _LN2), 2.0**20)
    rest = (half_square - halvings * _LN2_HI) - halvings * _LN2_LO + lo * (hi + 0.5 * lo)
    current = np.exp(-rest) / math.sqrt(_SQRT_PI)
    exponent = -halvings.astype(np.int64)
    previous = np.zeros_like(x)
    table = np.empty((top + 1, x.size))
    np.ldexp(current, exponent, out=table[0])
    for n in range(1, top + 1):
        step = x * current
        step *= math.sqrt(2.0 / n)
        step -= math.sqrt((n - 1.0) / n) * previous
        mantissa, shift = np.frexp(step)
        previous = np.ldexp(current, -shift)
        current = mantissa
        exponent += shift
        np.ldexp(current, exponent, out=table[n])
    return table


def _binomial_amplitudes(n: int) -> np.ndarray:
    """sqrt(C(n, j) / 2^n), j = 0..n.

    From 1 at the middle outward by cumulative products of the term ratios
    sqrt((n - j) / (j + 1)), then scaled to unit sum of squares. The ends,
    2^{-n/2}, are normal doubles up to n = 2044.
    """
    j = np.arange(n)
    ratio = np.sqrt((n - j) / (j + 1.0))
    mid = n // 2
    down = np.cumprod(1.0 / ratio[:mid][::-1])[::-1]
    amplitudes = np.concatenate([down, [1.0], np.cumprod(ratio[mid:])])
    return amplitudes / math.sqrt(np.sum(amplitudes * amplitudes))


def _krawtchouk_rows(
    big_n: np.ndarray, m: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The rows of the rotation of polar modes (N, m) into the Cartesian basis.

    Level N holds the polar states |n+, n-> (n+ + n- = N, n+ - n- = m) and
    the Cartesian states |N - k, k>, and <N - k, k | n+, n-> = i^k w_k. Here
    w is the real unit eigenvector, of eigenvalue m, of the symmetric
    tridiagonal J_N with off-diagonals sqrt((N - k)(k + 1)): a symmetric
    Krawtchouk vector (Koekoek, Lesky & Swarttouw, *Hypergeometric
    Orthogonal Polynomials*, Springer 2010, 9.11), with w_0 =
    sqrt(C(N, n+) / 2^N) and w_{N-k} = (-1)^{n-} w_k. In optics this is the
    Laguerre-Gauss to Hermite-Gauss relation (Beijersbergen et al., Opt.
    Commun. 96, 123, 1993).

    ``big_n`` must be ascending. For k = 0..max(N) // 2, yields k, the
    first mode with N >= 2k, and w_k of every mode from it on in two
    factors, w_k = b_k q_k: q_k of each mode, as a view that the next step
    overwrites, and b_k = sqrt(C(N, k) / 2^N) of each level with N >= 2k,
    the same for all the modes of a level. q runs J_N's recurrence with
    b taken out, which leaves no square root in it:

        (N - k) q_{k+1} = m q_k - k q_{k-1},    q_0 = w_0 / b_0.

    It runs from the end of each level to its middle, over all levels at
    once; the reflection gives the other half. From the end, w first
    grows, so the recurrence is stable; q stays below 2^{N/2}. Its state
    is rows of one buffer over all modes, each step writing the tail of
    one row in place.
    """
    levels, first = np.unique(big_n, return_index=True)
    offsets = np.concatenate([[0], np.cumsum(levels + 1)])
    amplitudes = np.empty(offsets[-1])
    previous, current, step, divisor, big_n_f, m_f = np.zeros((6, big_n.size))
    big_n_f[:] = big_n
    m_f[:] = m
    ends = [*first[1:].tolist(), big_n.size]
    for n, lo, hi, at in zip(levels.tolist(), first.tolist(), ends, offsets.tolist()):
        amplitudes[at : at + n + 1] = b = _binomial_amplitudes(n)
        current[lo:hi] = b[(n + m[lo:hi]) // 2] / b[0]
    lo = at = 0
    for k in range(int(big_n[-1]) // 2 + 1 if big_n.size else 0):
        yield k, lo, current[lo:], amplitudes[offsets[at:-1] + k]
        # the modes that still need q_{k+1}: N >= 2k + 2
        lo = int(np.searchsorted(big_n, 2 * k + 2))
        at = int(np.searchsorted(levels, 2 * k + 2))
        out, before = step[lo:], previous[lo:]
        np.multiply(m_f[lo:], current[lo:], out=out)
        before *= k
        out -= before
        np.subtract(big_n_f[lo:], k, out=divisor[lo:])
        out /= divisor[lo:]
        previous, current, step = current, step, previous


def _cartesian_coefficients(
    table: CoefficientTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table rotated level by level into the Cartesian states |N - k, k>.

    Returns the K levels N that hold a stored mode, ascending, the K + 1
    offsets of their runs in r, and r: the real r_k, k = 0..N, of each
    level, one run after another. With psi_{m,n_r} = (-1)^{n_r} |n+, n->,
    level N of the packet is sum_k i^k r_k |N - k, k>, r_k the sum over the
    level's modes of (-1)^{n_r} C w_k (``_krawtchouk_rows``). Each row is
    summed into r as it is made, so no level's rotation matrix is held.
    The table's rows must be in level order, as ``CoefficientTable`` keeps
    them.
    """
    big_n, m = table.principal, table.m
    if np.any(big_n[1:] < big_n[:-1]):
        raise ValueError("the table's rows are not in level order")
    levels, first = np.unique(big_n, return_index=True)
    offsets = np.concatenate([[0], np.cumsum(levels + 1)])
    r = np.zeros(offsets[-1])
    coef, mirrored, terms = np.empty((3, big_n.size))
    np.multiply(np.where(table.n_r % 2, -1.0, 1.0), table.c, out=coef)
    np.copyto(mirrored, np.where((big_n - m) // 2 % 2, -coef, coef))  # w_{N-k} = (-1)^{n-} w_k
    for k, lo, q, b in _krawtchouk_rows(big_n, m):
        at = levels.size - b.size
        starts = first[at:] - lo
        # the middle row of an even level is written twice, its own row last
        np.multiply(mirrored[lo:], q, out=terms[lo:])
        r[offsets[at:-1] + levels[at:] - k] = b * np.add.reduceat(terms[lo:], starts)
        np.multiply(coef[lo:], q, out=terms[lo:])
        r[offsets[at:-1] + k] = b * np.add.reduceat(terms[lo:], starts)
    return levels, offsets, r


def _bands(terms: np.ndarray, cols: int) -> list[tuple[int, int, int, int]]:
    """The bands of a product a @ b with ``cols`` columns, where row i of a
    is zero past its first terms[i] entries and terms is ascending.

    The rows go in bands from the last, each band's product taking only the
    terms of its own last row, and in bands of columns too where one row is
    too many, so that every product has m n k <= ``_SERIAL_PRODUCT``.
    Returns (lo, hi, terms, width) per band of rows lo..hi - 1. No band is
    left with one row where it can take two: BLAS takes a one-row product
    by its matrix-vector kernel, whose sums can differ in the last bit.
    """
    bands = []
    terms = terms.tolist()
    hi = len(terms)
    while hi > 0:
        inner = terms[hi - 1] or 1
        lo = hi - (_SERIAL_PRODUCT // (inner * cols) or 1)
        if lo < 0:
            lo = 0
        elif lo == 1 and hi > 3:
            lo = 2
        bands.append((lo, hi, inner, min(cols, _SERIAL_PRODUCT // ((hi - lo) * inner) or 1)))
        hi = lo
    return bands


def _banded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray, bands: list) -> None:
    """out = a @ b over the ``_bands`` of the product."""
    for lo, hi, inner, width in bands:
        for j in range(0, b.shape[1], width):
            np.matmul(a[lo:hi, :inner], b[:inner, j : j + width], out=out[lo:hi, j : j + width])


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    The fields F_N = R_N + i I_N live on the rows and columns from
    ``_mirror_start``: the xi >= 0, eta >= 0 quadrant of a ``make_grid``
    grid, the whole of an axis that is not antisymmetric. C is real and
    N = |m| (mod 2), so the rest of the grid holds images:

        F_N(xi, -eta) = conj F_N(xi, eta),
        F_N(-xi, eta) = (-1)^N conj F_N(xi, eta).

    With Q(t) = sum_N e^{-i (N+1) w t} F_N on the quadrant, each mirrored
    part of the grid is one entry of an image table, Q taken at a time
    tau = s (t + [flip xi] pi/w), negated where xi is flipped and
    conjugated where s = -1:

        (flip xi, flip eta) = (F, T): conj Q(-t),
                              (T, F): -conj Q(-t - pi/w),
                              (T, T): -Q(t + pi/w).

    The table holds the quadrant and the images of the mirrored axes, and
    every reader takes Q at the image times from it, then the image's sign
    and conjugate. No field is stored: the evolver keeps the table rotated
    into the Cartesian basis (``_cartesian_coefficients``) and the Hermite
    functions on the quadrant's axes. Each reader makes one pass over the
    quadrant in runs of rows (``_runs``). On each run it builds the level
    planes F_N there (``_builder``), in chunks of levels, and each chunk
    goes through a transform for every time of the call before the next
    chunk is built; the transform's output then goes to its consumer. A
    run holds the planes of all K levels in one chunk wherever a row of
    them fits in half a grid; each chunk of planes, and a transform's
    (lines, points) output over one run, hold at most half a grid's and
    one grid's values.

    - The product transform takes any times, g = ``_TIMES_PER_GROUP`` at a
      time: an (n g, K) matrix of e^{-i (N+1) w tau} at the image times of
      each time, times the run's (K, points) planes, gives Q at its points
      at every image time. It multiplies in bands of points small enough
      that each product runs on the calling thread, so no BLAS worker
      wakes; the bands are fixed over the quadrant, so a point's value
      does not depend on the runs (``_product``). Every group of times
      reads the same planes; where the levels
      go in several chunks, each group sums its products over the chunks,
      and the groups whose sums fit in one grid make one pass.
    - The FFT transform takes T times that sweep M whole periods in equal
      steps, w t_k = 2 pi M k / T, when T is even. It folds the run's
      planes into T bins, G_r = sum of F_N over N + 1 = r (mod T), N
      ascending, and takes one length-T FFT per point, whose bin j is Q at
      w tau = 2 pi j / T, so image time k is bin s (M k + [flip xi] T/2)
      (mod T).

    ``at`` writes the frame at one time from the product transform; it is
    the only consumer that builds a frame, and it builds the planes anew
    on every call. ``residuals`` compares the synthesis with a separable
    reference, run by run, through the FFT transform where the times allow
    it and the product transform otherwise.
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
        xi, eta = xi[row0:], eta[col0:]
        self._levels, self._offsets, self._r = _cartesian_coefficients(table)
        top = int(self._levels[-1]) if self._levels.size else 0
        self._hx = _hermite_functions(xi, top)
        self._hy = self._hx if np.array_equal(xi, eta) else _hermite_functions(eta, top)
        # the image table: (flip xi, flip eta, s, sign), the quadrant first
        self._images = [
            (fx, fy, -1 if fx != fy else 1, -1.0 if fx else 1.0)
            for fx in (False, True)[: 1 + bool(row0)]
            for fy in (False, True)[: 1 + bool(col0)]
        ]

    def at(self, t: float) -> Grid2D:
        """The synthesized packet sum_N F_N e^{-i (N+1) w t} at time t."""
        values = np.empty(self._grid.values.shape, dtype=complex)
        row0, col0 = self._start
        # The frame seen from the quadrant and from each image, indexed like
        # the quadrant. The quadrant is written last, over the zero of an
        # odd axis, which is its own image.
        views = [
            values[:: -1 if fx else 1, :: -1 if fy else 1][row0:, col0:]
            for fx, fy, _, _ in self._images
        ]
        runs = self._runs(len(views))
        build = self._builder(_height(runs[0]))
        (transform,) = self._product_passes([t], None, runs[0])
        for rows in runs:
            for series, _, _ in transform(rows, build(rows)):
                for q in reversed(range(len(views))):
                    _, _, s, sign = self._images[q]
                    image = series[q].reshape(rows.stop - rows.start, -1)
                    views[q][rows] = sign * (image.conj() if s < 0 else image)
        return self._grid.with_values(values)

    def residuals(self, times, factors) -> list[float]:
        """Max |X_k(xi) Y_k(eta) - f_k S(t_k)| over the grid at each time.

        ``factors`` is the pair (X, Y) of reference factors, row k of each
        at the k-th time on the xi and eta axes, as ``closed_form_factors``
        returns them; S(t) is the synthesized packet and f_k the
        unit phase that ``aligned_max_difference`` would take, from the
        reference and S at (argmax |X_k|, argmax |Y_k|). No frame is built:
        each run's transform is reduced against the outer product of the
        factors over its rows. A NaN anywhere makes that time's maximum NaN.
        """
        times = [float(t) for t in times]
        if not times:
            return []
        x, y = (np.asarray(factor, dtype=complex) for factor in factors)
        if x.shape != (len(times), self._grid.xi_axis.size) or y.shape != (
            len(times), self._grid.eta_axis.size
        ):
            raise ValueError("need one pair of factors on the grid axes per time")
        unit = self._alignment(times, x, y)
        # made one image at a time: the transform keeps only its reordered copies
        references = (self._references(x, y, unit, image) for image in self._images)
        turns = self._whole_turns(times)
        lines = 2 * len(times) if turns else 2 * len(self._images) * _TIMES_PER_GROUP
        runs = self._runs(lines)
        build = self._builder(_height(runs[0]))
        if turns:
            passes = [self._fft_transform(len(times), turns, references, runs[0])]
        else:
            passes = self._product_passes(times, references, runs[0])
        worst = np.zeros(len(times))
        with np.errstate(invalid="ignore"):  # NaN propagates through the maxima
            for transform in passes:
                for rows in runs:
                    for series, plans, scratch in transform(rows, build(rows)):
                        for ks, at, xq, yq in plans:
                            peaks = _peaks(series[at], xq[:, rows], yq, scratch)
                            np.maximum.at(worst, ks, peaks)
                    # drop the run's series before the next run's transform
                    del series, plans, scratch
        return worst.tolist()

    def _fft_transform(self, count: int, turns: int, references, largest: slice):
        """The FFT transform over ``count`` bins, with the reference of each image.

        Returns a function of a run's chunks of planes that yields one
        (count, points) complex array, whose line j is Q at w t =
        2 pi j / count on the run's points, with its plans and a scratch
        buffer for ``_peaks``: per slice of its lines, the plans hold the
        times those lines hold and the matching (times, quadrant) reference
        factors. The folded buffer, sized for the ``largest`` run, is the
        scratch once its transform is taken, and the next run folds into it
        again.
        """
        step = math.gcd(turns, count)
        plans = []
        for (fx, _, s, _), (xq, yq) in zip(self._images, references):
            bins = s * (turns * np.arange(count) + (count // 2 if fx else 0)) % count
            # each used bin serves `step` times; take one of them per slice
            order = np.argsort(bins, kind="stable")
            for r in range(step):
                ks = order[r::step]
                plans.append((ks, slice(int(bins[ks[0]]), None, step), xq[ks], yq[ks]))
        levels = self._levels
        first = ((levels + 1) % count).tolist()
        layer = (levels + 1) // count
        # runs of consecutive levels in one turn of the bins fold as slices,
        # N ascending, so that each bin sums its levels in order
        breaks = np.flatnonzero((np.diff(levels) != 1) | (np.diff(layer) != 0)) + 1
        edges = [0, *breaks.tolist(), levels.size]
        cols = self._hy.shape[1]
        buffer = np.empty(count * _size(largest, cols), dtype=complex)

        def transform(rows, chunks):
            points = _size(rows, cols)
            folded = buffer[: count * points].reshape(count, points)
            folded[...] = 0.0
            for a, b, planes in chunks:
                # the spans that meet levels a..b - 1, cut to them
                span = bisect.bisect_right(edges, a) - 1
                while edges[span] < b:
                    s, e = edges[span], edges[span + 1]
                    span += 1
                    i, j = max(s, a), min(e, b)
                    at = first[s] + i - s
                    for part, bins in zip(planes, (folded.real, folded.imag)):
                        bins[at : at + j - i] += part[i - a : j - a].reshape(j - i, points)
            yield np.fft.fft(folded, axis=0), plans, buffer

        return transform

    def _product_passes(self, times: list, references, largest: slice) -> list:
        """The product transform's passes, ``_TIMES_PER_GROUP`` times a group.

        Each pass is a function of a run's chunks of planes that yields,
        group by group, an (n g, points) complex view whose line q g + j is
        Q at the time of image q of the table at time j of the group, with
        its one plan over all its lines and a scratch of its size. Each
        group's product keeps the layout of bands of its number of lines
        (``_product``). Where all the levels are one chunk, each group is
        yielded as soon as it is multiplied, in one buffer, and one pass
        takes every group. Otherwise each group of a pass sums its products
        over the chunks in its own buffer, and a pass takes the groups whose
        buffers fit in one grid, sized for the ``largest`` run. Without
        references (None) the plans are None.
        """
        references = None if references is None else list(references)
        cols = self._hy.shape[1]
        total = self._hx.shape[1] * cols
        groups = []
        for lo, weights in zip(range(0, len(times), _TIMES_PER_GROUP), self._weights(times)):
            group = np.arange(lo, min(lo + _TIMES_PER_GROUP, len(times)))
            plans = None
            if references is not None:
                xs = np.concatenate([xq[group] for xq, _ in references])
                ys = np.concatenate([yq[group] for _, yq in references])
                plans = [(np.tile(group, len(references)), slice(None), xs, ys)]
            span = max(1, self._grid.values.size // (len(weights) * cols)) * cols
            groups.append((weights, (span, total), plans))
        width = _size(largest, cols) + 2 * _MARGIN
        size = len(groups[0][0]) * width
        chunk = self._chunk(_height(largest), cols)
        chunked = chunk < self._levels.size
        count = max(1, self._grid.values.size // size) if chunked else len(groups)
        # the group sums, the complex planes of a chunk, and the scratch,
        # which takes each later chunk's product until its group is summed
        sums = np.empty((min(count, len(groups)) if chunked else 1, size), complex)
        joined = np.empty(chunk * width, dtype=complex)
        scratch = np.empty(size, dtype=complex)

        def transform(rows, chunks, groups):
            first, points = rows.start * cols, _size(rows, cols) + 2 * _MARGIN
            for a, b, parts in chunks:
                planes = _joined(parts, joined)
                for i, (weights, layout, plans) in enumerate(groups):
                    out = sums[i % len(sums)][: len(weights) * points]
                    out = out.reshape(len(weights), points)
                    _product(weights[:, a:b], planes, out, first, layout, scratch if a else None)
                    if b == self._levels.size:
                        yield out[:, _MARGIN:-_MARGIN], plans, scratch

        return [
            lambda rows, chunks, part=groups[i : i + count]: transform(rows, chunks, part)
            for i in range(0, len(groups), count)
        ]

    def _weights(self, times: list) -> list[np.ndarray]:
        """The (n g, K) matrices e^{-i (N+1) w tau} of the product transform,
        ``_TIMES_PER_GROUP`` times each: line q g + j at the time of image q
        of the table at time j of the group."""
        out = []
        for lo in range(0, len(times), _TIMES_PER_GROUP):
            group = times[lo : lo + _TIMES_PER_GROUP]
            phase = np.outer(
                np.concatenate([self._image_times(group, image) for image in self._images]),
                self._levels + 1,
            )
            out.append(np.exp(-1j * phase))
        return out

    def _whole_turns(self, times: list) -> int:
        """M if the times sweep M >= 1 whole periods in an even number of steps.

        That is t_k = (2 pi M) k / T / w for k < T, checked exactly against
        that arithmetic, which is how ``evolve`` spaces its times over a
        span of 2 pi M. It is 0 otherwise, and also where one quadrant row
        of the FFT's (T, points) buffer would hold more than half a grid.
        """
        count = len(times)
        cols = self._hy.shape[1]
        if count < 2 or count % 2 or 2 * count * cols > self._grid.values.size:
            return 0
        turns = round(times[1] * self._omega * count / math.tau)
        span = turns * math.tau
        if turns < 1 or any(
            t != span * k / count / self._omega for k, t in enumerate(times)
        ):
            return 0
        return turns

    def _image_times(self, times, image) -> np.ndarray:
        """w tau = s w (t + [flip xi] pi/w) of each time at one image."""
        fx, _, s, _ = image
        shift = math.pi / self._omega if fx else 0.0
        return s * self._omega * (np.asarray(times, dtype=float) + shift)

    def _alignment(self, times: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Unit phase f_k = ref / S at each time's (argmax |X_k|, argmax |Y_k|).

        S there is Q summed directly over the levels at the time of the
        image that holds the point, then given that image's sign and
        conjugate; f is 1 where S is 0, as in ``aligned_max_difference``.
        The levels at the points come from one build of the planes on the
        quadrant rows that hold them, as the passes build them, so S is the
        sum of the passes' values.
        """
        ks = np.arange(len(times))
        i, j = np.argmax(np.abs(x), axis=1), np.argmax(np.abs(y), axis=1)
        ref = x[ks, i] * y[ks, j]
        row0, col0 = self._start
        flip_x, flip_y = i < row0, j < col0
        qi = np.where(flip_x, x.shape[1] - 1 - i, i) - row0
        qj = np.where(flip_y, y.shape[1] - 1 - j, j) - col0
        rows = np.unique(qi)
        qi = np.searchsorted(rows, qi)
        levels = np.empty((self._levels.size, len(times)), dtype=complex)
        for a, b, (re, im) in self._builder(rows.size)(rows):
            levels.real[a:b], levels.imag[a:b] = re[:, qi, qj], im[:, qi, qj]
        value = np.empty(len(times), dtype=complex)
        for image in self._images:
            fx, fy, s, sign = image
            at = np.flatnonzero((flip_x == fx) & (flip_y == fy))
            if not at.size:
                continue
            phase = np.outer(self._image_times([times[k] for k in at], image), self._levels + 1)
            q = np.sum(levels[:, at].T * np.exp(-1j * phase), axis=1)
            value[at] = sign * (q.conj() if s < 0 else q)
        unit = np.ones(len(times), dtype=complex)
        nonzero = value != 0.0
        unit[nonzero] = ref[nonzero] / value[nonzero]
        unit[nonzero] /= np.abs(unit[nonzero])
        return unit

    def _references(self, x, y, unit, image):
        """One image's reference factors as (T, quadrant) stacks, so that
        |X Y - unit S| = |x y - Q| there, Q at the image's times."""
        fx, fy, s, sign = image
        row0, col0 = self._start
        xq = (x[:, ::-1] if fx else x)[:, row0:]
        yq = (y[:, ::-1] if fy else y)[:, col0:]
        unit = sign * unit
        if s < 0:
            xq, yq, unit = xq.conj(), yq.conj(), unit.conj()
        return xq * unit.conj()[:, None], yq

    def _runs(self, lines: int) -> list[slice]:
        """The quadrant's rows in runs, the tallest first, over each of which
        a complex (lines, points) array holds at most one grid's values and,
        where a row of them fits, the K level planes at most half a grid's;
        where none fits, the levels go in chunks (``_chunk``)."""
        rows, cols = self._hx.shape[1], self._hy.shape[1]
        size = self._grid.values.size
        if 2 * self._levels.size * cols <= size:
            lines = max(lines, 2 * self._levels.size)
        return _runs_of(rows, cols, size // lines)

    def _chunk(self, height: int, width: int) -> int:
        """Levels per chunk of the planes on ``height`` rows of ``width``
        columns: each chunk's planes hold at most half a grid's values, and
        its gathered factor a quarter grid's."""
        terms = int(self._levels[-1]) // 2 + 1 if self._levels.size else 1
        chunk = self._grid.values.size // (2 * height * max(width, terms))
        return min(max(1, chunk), max(1, self._levels.size))

    def _builder(self, height: int):
        """A function of a run of at most ``height`` quadrant rows, a slice
        or an index array of them, that yields the level planes F_N on it.

        The function yields the chunks of levels (``_chunk``) in order, each
        as (a, b, planes), the planes of levels a..b - 1 a real
        (2, b - a, rows, cols) view of one buffer, real parts then imaginary
        parts, which the next chunk overwrites. Each level is

            Re F_N = sum_{k even} (-1)^{k/2} r_k phi_{N-k}(xi) phi_k(eta),
            Im F_N = sum_{k odd} (-1)^{(k-1)/2} r_k phi_{N-k}(xi) phi_k(eta),

        with r_k from ``_cartesian_coefficients``. A chunk's part of one
        parity is one real (levels rows, L) @ (L, cols) product over the
        tabulated Hermite functions, L the terms of its top level, the
        lower levels' terms padded with zeros, in bands within
        ``_SERIAL_PRODUCT`` that each take only the terms of their own top
        level (``_bands``). Its left factor, the gathered
        phi_{N-k}(xi) times the signed r_k, is one (L, levels, rows) buffer
        read transposed, and the product goes straight to its planes. A
        chunk's gather tables, and its bands for each run height, are kept
        until another chunk is built: with one chunk every run reads the
        same. No Laguerre function, power of rho or angle is
        evaluated on the grid: the polar eigenbasis enters only through the
        rotation, which the eigenstate tests pin. The Hermite functions stay
        finite and carry their own exponents, so the planes are finite on
        any grid.
        """
        hx, hy = self._hx, self._hy
        levels, offsets, r = self._levels, self._offsets, self._r
        width = hy.shape[1]
        chunk = self._chunk(height, width)
        chunks = [(a, min(a + chunk, levels.size)) for a in range(0, max(levels.size, 1), chunk)]
        terms = int(levels[-1]) // 2 + 1 if levels.size else 1
        planes = np.empty(2 * chunk * height * width)
        gathered = np.empty(chunk * height * terms)
        # per parity, the last chunk's (a, index, coefs, bands per run height)
        last = [(None,), (None,)]

        def table(a: int, b: int, parity: int):
            """phi_{N-k} rows and signed r_k of levels a..b - 1, k = parity,
            parity + 2, ..., as (terms, levels) tables, the terms past a
            level's own reading phi_0 with r 0."""
            n = levels[a:b]
            count = (int(n[-1]) - parity) // 2 + 1 if n.size else 0
            k = parity + 2 * np.arange(max(count, 0))[:, None]
            at = offsets[a:b] + k
            coefs = r.take(at, mode="clip")
            coefs *= k <= n
            coefs[1::2] *= -1.0  # i^k = (-1)^(k // 2) i^(k % 2)
            np.subtract(n, k, out=at)
            return at, coefs

        def build(rows) -> Iterator[tuple[int, int, np.ndarray]]:
            # np.take reads a contiguous table: one copy per run, not per chunk
            run = np.ascontiguousarray(hx[:, rows])
            h = run.shape[1]
            for a, b in chunks:
                out = planes[: 2 * (b - a) * h * width].reshape(2, b - a, h, width)
                for parity, part in enumerate(out):
                    if last[parity][0] != a:
                        last[parity] = (a, *table(a, b, parity), {})
                    _, index, coefs, bands = last[parity]
                    if not len(index):  # no level here has a term of this parity
                        part[...] = 0.0
                        continue
                    if h not in bands:
                        n = levels[a:b]
                        bands[h] = _bands(np.repeat((n - parity) // 2 + 1, h), width)
                    xs = gathered[: index.size * h].reshape(*index.shape, h)
                    np.take(run, index, axis=0, out=xs, mode="clip")
                    xs *= coefs[:, :, None]
                    product = part.reshape((b - a) * h, width)
                    _banded_product(xs.reshape(len(index), -1).T, hy[parity::2], product, bands[h])
                yield a, b, out

        return build


def _height(rows: slice) -> int:
    """The rows of a run."""
    return rows.stop - rows.start


def _size(rows: slice, cols: int) -> int:
    """The points of a run of rows."""
    return _height(rows) * cols


def _runs_of(rows: int, cols: int, points: int) -> list[slice]:
    """``rows`` rows in runs of at most ``points`` points each, at least
    one row, as even as they can be; the first run is the tallest."""
    count = max(1, -(-rows // max(1, points // max(1, cols))))
    edges = [rows - rows * i // count for i in range(count, -1, -1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _joined(parts: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """A chunk's (2, levels, rows, cols) real and imaginary planes as complex
    (levels, rows * cols + 2 _MARGIN) planes in ``buffer``, the points
    between zeroed margins of ``_MARGIN`` columns (``_product``)."""
    _, levels, rows, cols = parts.shape
    width = rows * cols + 2 * _MARGIN
    planes = buffer[: levels * width].reshape(levels, width)
    planes[:, :_MARGIN] = planes[:, -_MARGIN:] = 0.0
    inner = planes[:, _MARGIN:-_MARGIN]
    inner.real, inner.imag = parts.reshape(2, levels, rows * cols)
    return planes


def _product(weights, planes, out, first: int, layout: tuple, partial=None) -> None:
    """out = weights @ planes over a run's points, or out += it through
    ``partial``, a buffer of at least out's size.

    ``planes`` (levels, n) and ``out`` (lines, n) hold the run's points
    between margins of ``_MARGIN`` columns; the run's first point is point
    ``first`` of the quadrant. ``layout`` is (span, total): the quadrant's
    ``total`` points go in spans of ``span`` points, each cut from its
    start into bands whose (lines, levels) @ (levels, band) products have
    m n k <= ``_SERIAL_PRODUCT``. Each band that the run holds whole is
    one product. BLAS takes a band's points in groups by one kernel and
    the last few by another, whose sums can differ in the last bit, and a
    single point by its matrix-vector kernel. So of a band cut by the
    run's ends, the run multiplies the points it holds in whole
    ``_GROUP``s from the band's start, and the band's last few with the
    group before them, the margins taking what falls outside the run:
    each point's value is then the same however the quadrant's rows go
    in runs.
    """
    lines, levels = weights.shape
    span, total = layout
    band = max(1, _SERIAL_PRODUCT // (lines * max(1, levels)))
    target = out if partial is None else partial[: out.size].reshape(out.shape)
    point, stop = first, first + out.shape[1] - 2 * _MARGIN
    while point < stop:
        start = point - point % span
        lo = start + (point - start) // band * band
        hi = min(lo + band, start + span, total)
        if lo < point or stop < hi:  # a band cut by the run's ends
            whole = lo + (hi - lo) // _GROUP * _GROUP
            last = hi if whole == hi else max(lo, whole - _GROUP)  # the last window's start
            if point < last:  # whole groups
                ends = lo + (point - lo) // _GROUP * _GROUP, stop + (lo - stop) % _GROUP
                lo, hi = ends[0], min(last, ends[1])
            else:  # the band's last whole group, if any, with its last few points
                lo = last
        a, b = lo - first + _MARGIN, hi - first + _MARGIN
        np.matmul(weights, planes[:, a:b], out=target[:, a:b])
        point = hi
    if partial is not None:
        # the run's points only, row by row: numpy buffers a ufunc over
        # non-contiguous 2-D views
        for line, part in zip(out, target):
            line[_MARGIN:-_MARGIN] += part[_MARGIN:-_MARGIN]


def _peaks(series: np.ndarray, x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per line n, max over the points of |x[n, i] y[n, j] - series[n, (i, j)]|.

    ``series`` is (n, rows * cols) over a run's points, row-major; the
    maximum propagates NaN. The differences are taken in ``scratch``, a
    complex buffer of at least series' size.
    """
    diff = scratch[: series.size].reshape(len(x), x.shape[1], y.shape[1])
    # row by row: numpy buffers a broadcast complex product's operands, up
    # to getbufsize() elements; one row's product keeps that to one row
    for i in range(x.shape[1]):
        np.multiply(x[:, i, None], y, out=diff[:, i])
    diff -= series.reshape(diff.shape)
    # |diff|^2 into the real parts in place: no scratch beside diff
    parts = diff.reshape(len(diff), -1).view(float)
    np.square(parts, out=parts)
    real = parts[:, 0::2]
    np.add(real, parts[:, 1::2], out=real)
    return np.sqrt(real.max(axis=1))


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


def closed_form_factors(params: PacketParams, grid: Grid2D, times) -> tuple:
    """The closed form's x and y factors on the grid axes at every time.

    Returns two complex arrays (X, Y) of shapes (T, len(xi_axis)) and
    (T, len(eta_axis)), row k at the k-th of the T times, from one call of
    the packet's factors on the column of times. The outer product of
    their rows is ``evolve_closed_form`` at that time; they are the
    reference ``SpectralEvolver.residuals`` takes, and ``trace_orbit``
    reduces them to moments.
    """
    t = np.fromiter(times, dtype=float)[:, None]
    return _packet_factors(params, grid.xi_axis, grid.eta_axis, t)


def _axis_moments(axis: np.ndarray, factor: np.ndarray):
    """Mass, centroid, variance and peak of |factor|^2 along its rows.

    Each is one reduction over the last axis of the (T, points) weights;
    besides them, at most one array of their shape is alive.
    """
    weight = np.abs(factor)
    np.square(weight, out=weight)
    mass = np.sum(weight, axis=-1)
    centroid = np.sum(axis * weight, axis=-1) / mass
    spread = axis - centroid[:, None]
    np.square(spread, out=spread)
    spread *= weight
    return mass, centroid, np.sum(spread, axis=-1) / mass, np.max(weight, axis=-1)


def trace_orbit(params: PacketParams, times, grid: Grid2D, factors) -> list[TrajectorySample]:
    """Centroid, variance, norm and peak of the closed-form density per time.

    The density is |X(xi)|^2 |Y(eta)|^2, so the mass is a product of two
    axis sums and each centroid and variance a ratio of sums along its own
    axis. ``factors`` is the times' ``closed_form_factors`` (X, Y), which
    ``evolve`` also compares against; each moment of all the times is one
    reduction over the last axis of |X|^2 or |Y|^2, O(T P) in all.

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
    times = [float(t) for t in times]
    x_factor, y_factor = factors
    if len(x_factor) != len(times) or len(y_factor) != len(times):
        raise ValueError("need one row of each factor per time")
    mass_x, cx, var_x, peak_x = _axis_moments(grid.xi_axis, x_factor)
    mass_y, cy, var_y, peak_y = _axis_moments(grid.eta_axis, y_factor)
    columns = (
        times,
        cx.tolist(),
        cy.tolist(),
        var_x.tolist(),
        var_y.tolist(),
        (mass_x * mass_y * grid.cell_area).tolist(),
        (peak_x * peak_y).tolist(),
    )
    return [TrajectorySample(*row) for row in zip(*columns)]


def orbit_signed_area(samples: list[TrajectorySample]) -> float:
    """Shoelace area of the sampled centroid polygon; the sign is the orientation."""
    x = np.array([s.centroid_xi for s in samples])
    y = np.array([s.centroid_eta for s in samples])
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
