"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them. The spectral
route takes only the table's polar (m, n_r) coefficients and calls
nothing of the closed form: it rotates each level of the table into the
Cartesian states |N - k, k> and builds the fields from Hermite functions
on one grid quadrant. The polar eigenbasis is not evaluated on the grid;
the tests pin it, each single-mode table against ``states.eigenstate``.
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
# on after it returns. Products near 2^16 also ran fastest on one thread.
_SERIAL_PRODUCT = 2**16
# Times synthesized per pass over the fields. A pass reads every field
# once, so this divides the memory traffic of each time.
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


def _principal_fields(
    table: CoefficientTable, xi_axis: np.ndarray, eta_axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums F_N = sum C psi grouped by principal number N.

    Returns the K levels N that hold a stored mode, ascending, and their
    fields as one complex array of shape (K, len(xi_axis), len(eta_axis)),
    level-major: F_N of each level.

    Each level is built in the Cartesian Hermite basis, from the table
    rotated by ``_cartesian_coefficients``, F_N = sum_k i^k r_k |N - k, k>:

        Re F_N = sum_{k even} (-1)^{k/2} r_k phi_{N-k}(xi) phi_k(eta),
        Im F_N = sum_{k odd} (-1)^{(k-1)/2} r_k phi_{N-k}(xi) phi_k(eta),

    each one real (rows, n) @ (n, cols) product over the tabulated Hermite
    functions (``_hermite_functions``), in bands whose m n k is at most
    ``_SERIAL_PRODUCT``. No Laguerre function, power of rho or angle is
    evaluated on the grid: the polar eigenbasis enters only through the
    rotation, which the eigenstate tests pin. The Hermite functions stay
    finite and carry their own exponents, so the fields are finite on any
    grid.

    On an exactly antisymmetric axis (``_mirror_start``) only its
    coordinates >= 0 are built; the rest are written as exact images,
    F_N(xi, -eta) = conj F_N(xi, eta) and
    F_N(-xi, eta) = (-1)^N conj F_N(xi, eta), so the fields are bitwise
    mirror-symmetric there, and bitwise those of a build on the half axes.
    """
    row0, col0 = _mirror_start(xi_axis), _mirror_start(eta_axis)
    xi, eta = xi_axis[row0:], eta_axis[col0:]
    top = int(table.principal.max(initial=0))
    hx = _hermite_functions(xi, top)
    hy = hx if np.array_equal(xi, eta) else _hermite_functions(eta, top)
    levels, offsets, r = _cartesian_coefficients(table)
    fields = np.zeros((levels.size, xi_axis.size, eta_axis.size), dtype=complex)
    if not levels.size:
        return levels, fields
    plane = np.empty((xi.size, eta.size))
    for level, big_n, lo in zip(fields[:, row0:, col0:], levels.tolist(), offsets.tolist()):
        coefs = r[lo : lo + big_n + 1]
        for parity, part in enumerate((level.real, level.imag)):
            if big_n < parity:
                continue
            # k = parity, parity + 2, ..., N - (N - parity) % 2, with phi_{N-k} on xi
            xs = coefs[parity::2, None] * hx[big_n - parity :: -2]
            xs[1::2] *= -1.0  # i^k = (-1)^(k // 2) i^(k % 2)
            ys = hy[parity::2][: len(xs)]
            _banded_product(xs.T, ys, plane)
            part[...] = plane
    if row0:
        parity = np.where(levels % 2, -1.0, 1.0)[:, None, None]
        np.multiply(np.conj(fields[:, ::-1][:, :row0]), parity, out=fields[:, :row0])
    if col0:
        np.conjugate(fields[:, :, ::-1][:, :, :col0], out=fields[:, :, :col0])
    return levels, fields


def _banded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b, in bands of out's rows (and of its columns, where one
    row is too many) whose products have m n k <= ``_SERIAL_PRODUCT``."""
    inner, cols = b.shape
    height = max(1, _SERIAL_PRODUCT // (inner * cols))
    width = min(cols, max(1, _SERIAL_PRODUCT // (height * inner)))
    for i in range(0, len(a), height):
        for j in range(0, cols, width):
            np.matmul(a[i : i + height], b[:, j : j + width], out=out[i : i + height, j : j + width])


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    The fields F_N = R_N + i I_N are built once, on the rows and columns
    from ``_mirror_start``: the xi >= 0, eta >= 0 quadrant of a
    ``make_grid`` grid, the whole of an axis that is not antisymmetric.
    C is real and N = |m| (mod 2), so the rest of the grid holds images:

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
    and conjugate. The fields are stored once, as ``_principal_fields``
    builds them in the Cartesian Hermite basis: one complex (K, rows, cols)
    array over the K stored levels and the quadrant's points. Every use of the fields is one pass over
    them, each run of quadrant rows going through a transform and then
    into a consumer; a transform's (lines, points) output over one run
    holds at most one grid's values.

    - The product transform takes any times, up to g = ``_TIMES_PER_PASS``
      per pass: an (n g, K) matrix of e^{-i (N+1) w tau} at the image times
      of each time, times the (K, points) fields of the run, gives Q at its
      points at every image time. It multiplies in bands of points small
      enough that each product runs on the calling thread, so no BLAS
      worker wakes.
    - The FFT transform takes T times that sweep M whole periods in equal
      steps, w t_k = 2 pi M k / T, when T is even. It folds the levels
      into T bins, G_r = sum of F_N over N + 1 = r (mod T), and takes one
      length-T FFT per point, whose bin j is Q at w tau = 2 pi j / T, so
      image time k is bin s (M k + [flip xi] T/2) (mod T). Its runs are a
      few rows each, so that the folded (T, points) buffer and its
      transform hold one grid between them.

    ``at`` writes the frame at one time from the product transform; it is
    the only consumer that builds a frame. ``residuals`` compares the
    synthesis with a separable reference, run by run, through the FFT
    transform where the times allow it and the product transform otherwise.
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
        self._levels, self._fields = _principal_fields(table, xi[row0:], eta[col0:])
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
        cols = self._fields.shape[2]
        # The frame seen from the quadrant and from each image, indexed like
        # the quadrant. The quadrant is written last, over the zero of an
        # odd axis, which is its own image.
        views = [
            values[:: -1 if fx else 1, :: -1 if fy else 1][row0:, col0:]
            for fx, fy, _, _ in self._images
        ]
        for rows, series in self._product_runs([t]):
            for q in reversed(range(len(views))):
                _, _, s, sign = self._images[q]
                image = series[q].reshape(-1, cols)
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
        references = [self._references(x, y, unit, image) for image in self._images]
        turns = self._whole_turns(times)
        if turns:
            passes = self._fft_passes(len(times), turns, references)
        else:
            passes = self._product_passes(times, references)
        worst = np.zeros(len(times))
        with np.errstate(invalid="ignore"):  # NaN propagates through the maxima
            for runs, plans in passes:
                for rows, series in runs:
                    for ks, lines, xq, yq in plans:
                        np.maximum.at(worst, ks, _peaks(series[lines], xq[:, rows], yq))
        return worst.tolist()

    def _fft_passes(self, count: int, turns: int, references: list) -> list:
        """The FFT transform's one pass, with the reference of each image.

        A pass is a transform's runs and, per slice of their series lines,
        the times those lines hold and the matching (times, quadrant)
        reference factors, as ``_peaks`` takes them.
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
        return [(self._fft_runs(count), plans)]

    def _product_passes(self, times: list, references: list) -> list:
        """The product transform's passes, ``_TIMES_PER_PASS`` times each,
        with the references of every image at those times."""
        passes = []
        for lo in range(0, len(times), _TIMES_PER_PASS):
            group = np.arange(lo, min(lo + _TIMES_PER_PASS, len(times)))
            xs = np.concatenate([xq[group] for xq, _ in references])
            ys = np.concatenate([yq[group] for _, yq in references])
            ks = np.tile(group, len(references))
            runs = self._product_runs([times[k] for k in group])
            passes.append((runs, [(ks, slice(None), xs, ys)]))
        return passes

    def _whole_turns(self, times: list) -> int:
        """M if the times sweep M >= 1 whole periods in an even number of steps.

        That is t_k = (2 pi M) k / T / w for k < T, checked exactly against
        that arithmetic, which is how ``evolve`` spaces its times over a
        span of 2 pi M. It is 0 otherwise, and also where one quadrant row
        of the FFT's (T, points) buffer would hold more than half a grid.
        """
        count = len(times)
        cols = self._fields.shape[2]
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
        image that holds the point, from the stored fields of its quadrant
        point, then given that image's sign and conjugate; f is 1 where S
        is 0, as in ``aligned_max_difference``.
        """
        ks = np.arange(len(times))
        i, j = np.argmax(np.abs(x), axis=1), np.argmax(np.abs(y), axis=1)
        ref = x[ks, i] * y[ks, j]
        row0, col0 = self._start
        value = np.empty(len(times), dtype=complex)
        for image in self._images:
            fx, fy, s, sign = image
            at = np.flatnonzero(((i < row0) == fx) & ((j < col0) == fy))
            if not at.size:
                continue
            rows = (x.shape[1] - 1 - i[at] if fx else i[at]) - row0
            cols = (y.shape[1] - 1 - j[at] if fy else j[at]) - col0
            phase = np.outer(self._image_times([times[k] for k in at], image), self._levels + 1)
            q = np.sum(self._fields[:, rows, cols].T * np.exp(-1j * phase), axis=1)
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

    def _row_runs(self, lines: int) -> list[slice]:
        """The quadrant's rows in runs, tallest first, over each of which a
        complex (lines, points) array holds at most one grid's values."""
        _, rows, cols = self._fields.shape
        height = max(1, self._grid.values.size // (lines * cols))
        return [slice(i, min(i + height, rows)) for i in range(0, rows, height)]

    def _product_runs(self, times: list) -> Iterator[tuple[slice, np.ndarray]]:
        """The product transform at up to ``_TIMES_PER_PASS`` times.

        Yields each run's rows and an (n g, points) complex view whose line
        q g + j is Q at the time of image q of the table at time j. The
        view's buffer is reused by the next run.
        """
        phase = np.outer(
            np.concatenate([self._image_times(times, image) for image in self._images]),
            self._levels + 1,
        )
        weights = np.exp(-1j * phase)
        levels, rows, cols = self._fields.shape
        fields = self._fields.reshape(levels, rows * cols)
        lines = len(weights)
        # each band's (lines, K) @ (K, band) product has m n k <= _SERIAL_PRODUCT
        band = max(1, _SERIAL_PRODUCT // (lines * max(1, levels)))
        runs = self._row_runs(lines)
        buffer = np.empty(lines * runs[0].stop * cols, dtype=complex)
        for run in runs:
            lo, hi = run.start * cols, run.stop * cols
            series = buffer[: lines * (hi - lo)].reshape(lines, hi - lo)
            for b in range(lo, hi, band):
                e = min(b + band, hi)
                np.matmul(weights, fields[:, b:e], out=series[:, b - lo : e - lo])
            yield run, series

    def _fft_runs(self, count: int) -> Iterator[tuple[slice, np.ndarray]]:
        """The FFT transform over ``count`` bins.

        Yields each run's rows and a (count, points) complex array whose
        line j is Q at w t = 2 pi j / count on the run's quadrant points.
        The folded buffer is reused by the next run.
        """
        bins = (self._levels + 1) % count
        layer = (self._levels + 1) // count
        # runs of consecutive levels in one turn of the bins fold as slices
        breaks = np.flatnonzero((np.diff(self._levels) != 1) | (np.diff(layer) != 0)) + 1
        edges = [0, *breaks.tolist(), self._levels.size]
        spans = [(a, b, int(bins[a])) for a, b in zip(edges, edges[1:]) if a < b]
        cols = self._fields.shape[2]
        # the folded levels and their transform hold one grid between them
        runs = self._row_runs(2 * count)
        buffer = np.empty(count * runs[0].stop * cols, dtype=complex)
        for run in runs:
            points = (run.stop - run.start) * cols
            folded = buffer[: count * points].reshape(count, points)
            folded[...] = 0.0
            for a, b, first in spans:
                folded[first : first + b - a] += self._fields[a:b, run].reshape(b - a, points)
            yield run, np.fft.fft(folded, axis=0)


def _peaks(series: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per line n, max over the points of |x[n, i] y[n, j] - series[n, (i, j)]|.

    ``series`` is (n, rows * cols) over a run's points, row-major; the
    maximum propagates NaN.
    """
    diff = np.empty((len(x), x.shape[1], y.shape[1]), dtype=complex)
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
