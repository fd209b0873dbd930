"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them. The spectral
route takes only the table's polar (m, n_r) coefficients and calls
nothing of the closed form: it rotates each level of the table into the
Cartesian states |N - k, k> and synthesizes from Hermite functions on one
grid quadrant. No field is stored. A time is one fused product
e^{-i w t} Phi_xi(t)^T D Phi_eta(t) over the rotated table D, in chunks
of its rows, with the comparison's reference folded in, which writes the
grid itself; a sweep of whole periods builds the level planes of one run
of rows at a time and takes one FFT per point, whose images of the
quadrant give the rest of the grid. Either way memory stays a few grids
whatever the number of levels. The polar eigenbasis is not evaluated on
the grid; the tests pin it, each single-mode table against
``states.eigenstate``.
"""

from __future__ import annotations

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
# on after it returns. Against 2^16, 2^18 ran verify's oracle deck 2-6 %
# faster, and no orbit deck or large-packet run got slower or larger.
_SERIAL_PRODUCT = 2**18
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^n at n mod 4


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


def _level_start(big_n):
    """Where level N's run r_0..r_N starts in the rotated table, whose runs
    are those of the levels 0..top one after another: N (N + 1) / 2."""
    return big_n * (big_n + 1) // 2


def _cartesian_coefficients(table: CoefficientTable) -> np.ndarray:
    """The table rotated level by level into the Cartesian states |N - k, k>.

    Returns r, the real r_k, k = 0..N, of every level N = 0..top as one
    triangle: level N's run starts at N (N + 1) / 2 (``_level_start``), a
    level that holds no mode is a run of zeros, and an empty table is the
    one zero level 0. With psi_{m,n_r} = (-1)^{n_r} |n+, n->, level N of
    the packet is sum_k i^k r_k |N - k, k>, r_k the sum over the level's
    modes of (-1)^{n_r} C w_k (``_krawtchouk_rows``). Each row is summed
    into r as it is made, so no level's rotation matrix is held. The
    table's rows must be in level order, as ``CoefficientTable`` keeps
    them.
    """
    big_n, m = table.principal, table.m
    if np.any(big_n[1:] < big_n[:-1]):
        raise ValueError("the table's rows are not in level order")
    levels, first = np.unique(big_n, return_index=True)
    starts = _level_start(levels)
    r = np.zeros(_level_start(big_n.max(initial=0) + 1))
    coef, mirrored, terms = np.empty((3, big_n.size))
    np.multiply(np.where(table.n_r % 2, -1.0, 1.0), table.c, out=coef)
    np.copyto(mirrored, np.where((big_n - m) // 2 % 2, -coef, coef))  # w_{N-k} = (-1)^{n-} w_k
    for k, lo, q, b in _krawtchouk_rows(big_n, m):
        at = levels.size - b.size
        runs = first[at:] - lo
        # the middle row of an even level is written twice, its own row last
        np.multiply(mirrored[lo:], q, out=terms[lo:])
        r[starts[at:] + levels[at:] - k] = b * np.add.reduceat(terms[lo:], runs)
        np.multiply(coef[lo:], q, out=terms[lo:])
        r[starts[at:] + k] = b * np.add.reduceat(terms[lo:], runs)
    return r


def _bands(terms: list, cols: int) -> list[tuple[list[slice], int, list[slice]]]:
    """The tiles of a product a @ b with ``cols`` columns, where row i of a
    is zero past its first terms[i] entries and terms is ascending.

    The rows go in bands from the last, each band's product taking only the
    terms of its own last row, and its columns in bands too where one row is
    too many, so that every product has m n k <= ``_SERIAL_PRODUCT``.
    Returns (row bands, terms, column bands) per group of bands that take
    the same terms: one group where every row has the same. Rows and
    columns each go as even as they can be (``_pieces``), and two at least
    where there are two: BLAS takes a product of one row or one column by
    its matrix-vector kernel, whose sums can differ in the last bit.
    """
    groups = []
    hi = len(terms)
    while hi > 0:
        inner = terms[hi - 1] or 1
        count = _pieces(hi, _SERIAL_PRODUCT // (inner * cols))
        # an even spread of the rows left at this band's terms: all of it
        # where every row left has these terms, else its last band
        edges = [hi * i // count for i in range(0 if terms[0] == inner else count - 1, count + 1)]
        pieces = _pieces(cols, _SERIAL_PRODUCT // (-(-hi // count) * inner))
        columns = [slice(cols * j // pieces, cols * (j + 1) // pieces) for j in range(pieces)]
        groups.append(([slice(*pair) for pair in zip(edges, edges[1:])], inner, columns))
        hi = edges[0]
    return groups


def _pieces(size: int, most: int) -> int:
    """How many pieces as even as they can be ``size`` goes in: of at most
    ``most`` each where that leaves two at least, and two at least where
    there are two."""
    return max(1, min(-(-size // max(2, most)), size // 2))


def _banded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray, bands: list, scratch=None) -> None:
    """out = a @ b over the ``_bands`` of the product, or out += a @ b
    through the flat buffer ``scratch``, which holds the largest tile."""
    for rows, inner, columns in bands:
        rights = [(cs, b[:inner, cs]) for cs in columns]
        for band in rows:
            left = a[band, :inner]
            for cs, right in rights:
                if scratch is None:
                    np.matmul(left, right, out=out[band, cs])
                    continue
                tile = scratch[: len(left) * right.shape[1]].reshape(len(left), -1)
                np.matmul(left, right, out=tile)
                out[band, cs] += tile


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    The evolver keeps the table rotated into the Cartesian basis, r of the
    levels 0..top as one triangle, level N's run at N (N + 1) / 2
    (``_cartesian_coefficients``), so that every reader finds r_k of level
    N from (N, k) alone; the Hermite functions phi_n on the rows and columns
    from ``_mirror_start``; and the FFT sweep's image table. It stores no
    field. Its quadrant is the xi >= 0, eta >= 0 quarter of a
    ``make_grid`` grid, the whole of an axis that is not antisymmetric.
    With the box A[nx, ny] = i^ny r_{nx+ny, ny} of the rotated table, the
    packet is

        S(t) = e^{-i w t} Phi_xi(t)^T A Phi_eta(t),  Phi(t)[n] = e^{-i n w t} phi_n,

    and phi_n(-x) = (-1)^n phi_n(x) gives the mirrored half of an axis
    from the quadrant's Hermite functions with the signs (-1)^n.

    - The fused product (``_fused``) takes any times, one at a time: the
      phase e^{-i (N+1) w t} goes on the box as a scaling of its rows and
      columns, with the comparison's unit phase on the rows, and one real
      product per block of the grid's columns writes f S - X Y there, the
      reference folded in. ``at`` takes it with no reference.
    - The FFT transform takes T times that sweep M whole periods in equal
      steps, w t_k = 2 pi M k / T, when T is even. It builds the level
      planes F_N of one run of quadrant rows at a time (``_runs``,
      ``_builder``), folds them into T bins, G_r = sum of F_N over
      N + 1 = r (mod T), N ascending, and takes one length-T FFT per point,
      whose bin j is Q(tau) = sum_N e^{-i (N+1) w tau} F_N at
      w tau = 2 pi j / T. C is real and N = |m| (mod 2), so
      F_N(xi, -eta) = conj F_N(xi, eta) and
      F_N(-xi, eta) = (-1)^N conj F_N(xi, eta). Each entry (flip xi,
      flip eta, s, sign) of the image table, the quadrant first, names the
      part of the grid seen from the quadrant with those axes reversed,
      and that image is sign Q(tau), conjugated where s = -1, at
      tau = s (t + [flip xi] pi/w),

          (flip xi, flip eta) = (F, T): conj Q(-t),
                                (T, F): -conj Q(-t - pi/w),
                                (T, T): -Q(t + pi/w),

      so image time k is bin s (M k + [flip xi] T/2) (mod T).

    ``residuals`` compares the synthesis with a separable reference through
    the FFT transform where the times allow it and the fused product
    otherwise. Every product has m n k <= ``_SERIAL_PRODUCT`` and no operand
    of one row, and a call's working arrays hold a few grids' values at
    most, whatever the number of levels.
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
        self._r = _cartesian_coefficients(table)
        # r holds _level_start(top + 1) = (top + 1)(top + 2) / 2 numbers
        self._top = (math.isqrt(8 * self._r.size + 1) - 3) // 2
        # phi_0..phi_3 at least: each parity of the box's columns reads two rows
        top = max(self._top, 3)
        self._hx = _hermite_functions(xi, top)
        self._hy = self._hx if np.array_equal(xi, eta) else _hermite_functions(eta, top)
        # the image table: (flip xi, flip eta, s, sign), the quadrant first
        self._images = [
            (fx, fy, -1 if fx != fy else 1, -1.0 if fx else 1.0)
            for fx in (False, True)[: 1 + bool(row0)]
            for fy in (False, True)[: 1 + bool(col0)]
        ]

    def at(self, t: float) -> Grid2D:
        """The synthesized packet sum_N F_N e^{-i (N+1) w t} at time t, from
        one fused product."""
        x, y = (np.zeros((1, size)) for size in self._grid.values.shape)
        ((_, blocks),) = self._fused([float(t)], np.ones(1), x, y)
        return self._grid.with_values(np.concatenate(blocks, axis=1))

    def residuals(self, times, factors) -> list[float]:
        """Max |X_k(xi) Y_k(eta) - f_k S(t_k)| over the grid at each time.

        ``factors`` is the pair (X, Y) of reference factors, row k of each
        at the k-th time on the xi and eta axes, as ``closed_form_factors``
        returns them; S(t) is the synthesized packet and f_k the
        unit phase that ``aligned_max_difference`` would take, from the
        reference and S at (argmax |X_k|, argmax |Y_k|). No frame is built:
        the fused product gives the difference itself, and each run of the
        FFT transform is reduced against the outer product of the factors
        over its rows. A NaN anywhere makes that time's maximum NaN.
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
        turns = self._whole_turns(times)
        worst = np.zeros(len(times))
        with np.errstate(invalid="ignore"):  # NaN propagates through the maxima
            if not turns:
                squares = np.empty(self._grid.values.size)
                for k, (flat, _) in enumerate(self._fused(times, unit, x, y)):
                    worst[k] = _largest_modulus(flat, squares)
                return worst.tolist()
            # made one image at a time: the transform keeps only its reordered copies
            references = (self._references(x, y, unit, image) for image in self._images)
            runs = self._runs(2 * len(times))
            plans, scratch, transform = self._fft_transform(len(times), turns, references, runs[0])
            build = self._builder(runs[0].stop - runs[0].start)
            for rows in runs:
                series = transform(rows, build(rows))
                for ks, at, xq, yq in plans:
                    np.maximum.at(worst, ks, _peaks(series[at], xq[:, rows], yq, scratch))
                # drop the run's series before the next run's transform
                del series
        return worst.tolist()

    def _fused(self, times: list, units, x: np.ndarray, y: np.ndarray) -> Iterator[tuple]:
        """f S(t) - X Y on the grid, time by time.

        Yields per time k a real buffer of one grid's values, which the next
        time overwrites, and the complex blocks of it that tile the grid's
        columns in order: the mirrored eta < 0 columns where eta is
        mirrored, then the rest. They hold units[k] S(t_k) - X_k Y_k, X_k and
        Y_k row k of ``x`` and ``y`` on the grid axes.

        At each time the box goes in chunks of nx rows (``_box``), and each
        chunk in one pass over its entries takes the phase
        f e^{-i w t} e^{-i nx w t} e^{-i ny w t} of its row and column, real
        and imaginary parts apart. Its even and odd columns times the
        quadrant's phi_ny(eta) give B_e and B_o, and B is B_e + B_o on the
        quadrant's columns and B_e - B_o read in reverse on the mirrored
        ones, its real and imaginary parts interleaved. The left factor
        phi_nx(xi) covers the whole xi axis: the quadrant's rows, and before
        them the mirrored rows, the quadrant's read in reverse with the
        signs (-1)^nx. Then one real product per block

            [phi_nx(xi)^T | Re X | Im X] @ [B; -Y; -i Y]

        is f S - X Y on it, read as complex; a later chunk adds phi^T B
        alone.
        """
        hx, hy = self._hx, self._hy
        size_x, size_y = self._grid.values.shape
        row0, col0 = self._start
        cols = hy.shape[1]
        chunks = self._box_chunks()
        height = max(b - a for a, b in chunks)
        width = _box_columns(self._top + 1).size
        box, phased = np.empty(height * width), np.empty(2 * height * width)
        even, odd = np.empty((2, 2 * height * cols))
        lefts, rights = np.empty(size_x * (height + 2)), np.empty((height + 2) * 2 * size_y)
        flat = np.empty(2 * self._grid.values.size)
        # each block's real columns in the right factor, and its output
        edges = [0, col0, size_y] if col0 else [0, size_y]
        spans = [slice(2 * lo, 2 * hi) for lo, hi in zip(edges, edges[1:])]
        outputs = [flat[size_x * s.start : size_x * s.stop].reshape(size_x, -1) for s in spans]
        blocks = [output.view(complex) for output in outputs]
        # a later chunk's tiles before they are added: m n <= _SERIAL_PRODUCT / k,
        # k the chunk's rows
        largest = max(output.size for output in outputs)
        fewest = min(b - a for a, b in chunks)
        scratch = np.empty(min(_SERIAL_PRODUCT // fewest, largest)) if len(chunks) > 1 else None
        n = np.arange(hx.shape[0])
        signs = np.where(n % 2, -1.0, 1.0)  # phi_n(-x) = (-1)^n phi_n(x)
        tiles = {}  # the bands of each shape of product, the same at every time

        def product(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch=None) -> None:
            shape = (*a.shape, b.shape[1])
            if shape not in tiles:
                tiles[shape] = _bands([a.shape[1]] * a.shape[0], b.shape[1])
            _banded_product(a, b, out, tiles[shape], scratch)

        for k, t in enumerate(times):
            wt = self._omega * t
            row_phase = units[k] * np.exp(-1j * ((n + 1) * wt))
            column_phase = _I_POWERS[n % 4] * np.exp(-1j * (n * wt))
            for c, (a, b) in enumerate(chunks):
                h = b - a
                ny = _box_columns(self._top + 1 - a)
                split = (ny.size + 1) // 2
                gathered = box[: h * ny.size].reshape(h, ny.size)
                self._box(a, b, ny, gathered)
                phase = np.multiply.outer(row_phase[a:b], column_phase[ny])
                box_t = phased[: 2 * h * ny.size].reshape(h, 2, ny.size)
                np.multiply(gathered, phase.real, out=box_t[:, 0])
                np.multiply(gathered, phase.imag, out=box_t[:, 1])
                b_even = even[: 2 * h * cols].reshape(2 * h, cols)
                b_odd = odd[: 2 * h * cols].reshape(2 * h, cols)
                evens, odds = box_t[:, :, :split], box_t[:, :, split:]
                product(evens.reshape(2 * h, -1), hy[0::2][:split], b_even)
                product(odds.reshape(2 * h, -1), hy[1::2][: ny.size - split], b_odd)
                lhs = lefts[: size_x * (h + 2)].reshape(size_x, h + 2)
                lhs[row0:, :h] = hx[a:b].T
                np.multiply(lhs[::-1][:row0, :h], signs[a:b], out=lhs[:row0, :h])
                lhs[:, h], lhs[:, h + 1] = x[k].real, x[k].imag
                rhs = rights[: (h + 2) * 2 * size_y].reshape(h + 2, 2 * size_y)
                # (re, im) of each column side by side, taken along the columns
                interleaved = rhs[:h].reshape(h, size_y, 2).transpose(0, 2, 1)
                terms = [part.reshape(h, 2, cols) for part in (b_even, b_odd)]
                np.add(*terms, out=interleaved[:, :, col0:])
                mirrored = (part[:, :, ::-1][:, :, :col0] for part in terms)
                np.subtract(*mirrored, out=interleaved[:, :, :col0])
                np.negative(y[k].real, out=rhs[h, 0::2])
                np.negative(y[k].imag, out=rhs[h, 1::2])
                rhs[h + 1, 0::2] = y[k].imag
                np.negative(y[k].real, out=rhs[h + 1, 1::2])
                for output, span in zip(outputs, spans):
                    if c:
                        product(lhs[:, :h], rhs[:h, span], output, scratch)
                    else:
                        product(lhs, rhs[:, span], output)
            yield flat, blocks

    def _box_chunks(self) -> list[tuple[int, int]]:
        """The box's nx rows 0..top in chunks (a, b) of rows a..b - 1, as
        even as they can be and of two rows at least where there are two:
        each chunk's real box holds at most a quarter as many numbers as the
        grid has points, and each of its products B_e and B_o, (2 rows,
        cols), an eighth as many complex values as the grid."""
        total = self._top + 1
        size = self._grid.values.size
        most = min(size // (4 * _box_columns(total).size), size // (8 * self._hy.shape[1]))
        count = _pieces(total, most)
        edges = [total * i // count for i in range(count + 1)]
        return list(zip(edges, edges[1:]))

    def _box(self, a: int, b: int, ny: np.ndarray, out: np.ndarray) -> None:
        """Rows a..b - 1 of the real box r_{nx+ny, ny}, at the columns ``ny``,
        into ``out``: r_k of level N = nx + ny is r at _level_start(N) + k,
        and the box is 0 past the top level."""
        big_n = np.add.outer(np.arange(a, b), ny)
        np.take(self._r, _level_start(big_n) + ny, mode="clip", out=out)
        out[big_n > self._top] = 0.0

    def _fft_transform(self, count: int, turns: int, references, largest: slice):
        """The FFT transform over ``count`` bins, with the reference of each image.

        Returns the plans, a scratch buffer for ``_peaks``, and a function
        of a run's chunks of planes that returns one (count, points) complex
        array, whose line j is Q at w t = 2 pi j / count on the run's
        points. Per slice of those lines, the plans hold the times the lines
        hold and the matching (times, quadrant) reference factors. The
        folded buffer, sized for the ``largest`` run, is the scratch once
        its transform is taken, and the next run folds into it again.
        """
        step = math.gcd(turns, count)
        plans = []
        for (fx, _, s, _), (xq, yq) in zip(self._images, references):
            # the bins depend on the turns modulo count alone, which no int64 overflows
            bins = s * (turns % count * np.arange(count) + (count // 2 if fx else 0)) % count
            # each used bin serves `step` times; take one of them per slice
            order = np.argsort(bins, kind="stable")
            for r in range(step):
                ks = order[r::step]
                plans.append((ks, slice(int(bins[ks[0]]), None, step), xq[ks], yq[ks]))
        cols = self._hy.shape[1]
        buffer = np.empty(count * (largest.stop - largest.start) * cols, dtype=complex)

        def transform(rows, chunks):
            points = (rows.stop - rows.start) * cols
            folded = buffer[: count * points].reshape(count, points)
            folded[...] = 0.0
            for a, b, planes in chunks:
                # level N goes to bin (N + 1) mod count: levels a..b - 1 fold as slices
                # cut where the bins wrap, N ascending, so each bin sums them in order
                cuts = [a, *range(a + count - (a + 1) % count, b, count), b]
                for i, j in zip(cuts, cuts[1:]):
                    at = (i + 1) % count
                    for part, bins in zip(planes, (folded.real, folded.imag)):
                        bins[at : at + j - i] += part[i - a : j - a].reshape(j - i, points)
            return np.fft.fft(folded, axis=0)

        return plans, buffer, transform

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


    def _alignment(self, times: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Unit phase f_k = ref / S at each time's (argmax |X_k|, argmax |Y_k|).

        S there is u^T A v over the box, chunk by chunk (``_box``), with
        u[nx] = e^{-i (nx+1) w t} phi_nx(xi) and v[ny] = i^ny e^{-i ny w t}
        phi_ny(eta) at the point, the Hermite functions read from the
        quadrant's tables, times (-1)^n at a mirrored coordinate. f is 1
        where S is 0, as in ``aligned_max_difference``.
        """
        ks = np.arange(len(times))
        i, j = np.argmax(np.abs(x), axis=1), np.argmax(np.abs(y), axis=1)
        ref = x[ks, i] * y[ks, j]
        n = np.arange(self._hx.shape[0])[:, None]
        theta = self._omega * np.asarray(times)
        u = _hermite_at(self._hx, i, self._start[0]) * np.exp(-1j * (n + 1) * theta)
        v = _hermite_at(self._hy, j, self._start[1]) * np.exp(-1j * n * theta)
        v *= _I_POWERS[n % 4]
        value = np.zeros(len(times), dtype=complex)
        for a, b in self._box_chunks():
            ny = _box_columns(self._top + 1 - a)
            box = np.empty((b - a, ny.size))
            self._box(a, b, ny, box)
            value += np.einsum("ak,ab,bk->k", u[a:b], box, v[ny])
        unit = np.ones(len(times), dtype=complex)
        nonzero = value != 0.0
        unit[nonzero] = _unit_phase(ref[nonzero], value[nonzero])
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
        where a row of them fits, the top + 1 level planes at most half a
        grid's; where none fits, the levels go in chunks (``_chunk``)."""
        rows, cols = self._hx.shape[1], self._hy.shape[1]
        size = self._grid.values.size
        levels = self._top + 1
        if 2 * levels * cols <= size:
            lines = max(lines, 2 * levels)
        return _runs_of(rows, cols, size // lines)

    def _chunk(self, height: int, width: int) -> int:
        """Levels per chunk of the planes on ``height`` rows of ``width``
        columns: each chunk's planes hold at most half a grid's values, and
        its gathered factor a quarter grid's."""
        terms = self._top // 2 + 1
        chunk = self._grid.values.size // (2 * height * max(width, terms))
        return min(max(1, chunk), self._top + 1)

    def _builder(self, height: int):
        """A function of a run of at most ``height`` quadrant rows, a slice,
        that yields the level planes F_N on it.

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
        r, levels = self._r, self._top + 1
        width = hy.shape[1]
        chunk = self._chunk(height, width)
        chunks = [(a, min(a + chunk, levels)) for a in range(0, levels, chunk)]
        terms = self._top // 2 + 1
        planes = np.empty(2 * chunk * height * width)
        gathered = np.empty(chunk * height * terms)
        # per parity, the last chunk's (a, index, coefs, bands per run height)
        last = [(None,), (None,)]

        def table(a: int, b: int, parity: int):
            """phi_{N-k} rows and signed r_k of levels a..b - 1, k = parity,
            parity + 2, ..., as (terms, levels) tables, the terms past a
            level's own reading phi_0 with r 0."""
            n = np.arange(a, b)
            k = parity + 2 * np.arange((b - 1 - parity) // 2 + 1)[:, None]
            at = _level_start(n) + k
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
                        n = np.arange(a, b)
                        bands[h] = _bands(np.repeat((n - parity) // 2 + 1, h).tolist(), width)
                    xs = gathered[: index.size * h].reshape(*index.shape, h)
                    np.take(run, index, axis=0, out=xs, mode="clip")
                    xs *= coefs[:, :, None]
                    product = part.reshape((b - a) * h, width)
                    _banded_product(xs.reshape(len(index), -1).T, hy[parity::2], product, bands[h])
                yield a, b, out

        return build


def _runs_of(rows: int, cols: int, points: int) -> list[slice]:
    """``rows`` rows in runs of at most ``points`` points each, at least
    one row, as even as they can be; the first run is the tallest."""
    count = max(1, -(-rows // max(1, points // max(1, cols))))
    edges = [rows - rows * i // count for i in range(count, -1, -1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _hermite_at(hermite: np.ndarray, index: np.ndarray, start: int) -> np.ndarray:
    """phi_n, n = 0..top, as rows, at the points ``index`` of an axis whose
    table ``hermite`` holds its coordinates from ``start`` on: a point
    before ``start`` is the mirror of one in the table, and
    phi_n(-x) = (-1)^n phi_n(x)."""
    flip = index < start
    last = start + hermite.shape[1] - 1
    n = np.arange(len(hermite))[:, None]
    columns = hermite[:, np.where(flip, last - index, index) - start]
    return columns * np.where(flip & (n % 2 == 1), -1.0, 1.0)


def _box_columns(count: int) -> np.ndarray:
    """The box's columns ny = 0..count - 1, even ny first, then odd ny, each
    parity padded to two columns at least (``_box`` gives them 0)."""
    even, odd = 2 * np.arange(max(2, (count + 1) // 2)), 2 * np.arange(max(2, count // 2)) + 1
    return np.concatenate([even, odd])


def _largest_modulus(values: np.ndarray, squares: np.ndarray) -> float:
    """max |re + i im| over a flat array of real and imaginary parts
    interleaved; the maximum propagates NaN. The parts are squared in place
    and their sums taken in ``squares``, a contiguous buffer of half their
    size, where the maximum runs unstrided."""
    np.square(values, out=values)
    np.add(values[0::2], values[1::2], out=squares)
    return math.sqrt(squares.max())


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


def _unit_phase(ref, value):
    """ref / value over its modulus, value nonzero. Where that is not finite
    though ref and value are, as when a subnormal value makes the quotient
    overflow, the phase is e^{i (arg ref - arg value)} instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        unit = ref / value
        unit /= abs(unit)  # numpy's scalar abs, on a scalar, rounds apart from np.abs
        lost = ~np.isfinite(unit) & np.isfinite(ref) & np.isfinite(value)
        return np.where(lost, np.exp(1j * (np.angle(ref) - np.angle(value))), unit)


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
        diff = np.multiply(_unit_phase(ref[idx], cand[idx]), cand)
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
