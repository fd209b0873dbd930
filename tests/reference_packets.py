"""Direct formulas for the coherent packets, as references for the tests.

Each re-derives a special case of ``coherent2d.coherent_2d`` from its own
exponent, so a test can pin the library's factored evaluation against it.
``packet_factors_at`` and ``orbit_moments_at`` are the packet's factors and
the orbit moments one time at a time, which the library takes for all
times in one array pass. ``principal_fields`` and ``FieldEvolver`` are the
spectral synthesis from fields stored whole, which the library builds run
by run.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from coherent2d import CoefficientTable, Grid2D, SpectralEvolver
from coherent2d.dynamics import (
    _SERIAL_PRODUCT,
    _cartesian_coefficients,
    _hermite_functions,
    _level_start,
    _mirror_start,
)


def coherent_1d(xi0: float, xi, t: float):
    """1D coherent packet at unit frequency.

    pi^{-1/4} exp[-i t/2 - xi^2/2 - (xi0^2/4)(1 + e^{2it}) + xi0 xi e^{-it}];
    its density is the rigidly translating Gaussian
    pi^{-1/2} exp[-(xi - xi0 cos t)^2].
    """
    expo = (
        -0.5j * t
        - 0.5 * np.multiply(xi, xi)
        - 0.25 * xi0**2 * (1.0 + np.exp(2.0j * t))
        + xi0 * np.asarray(xi) * np.exp(-1.0j * t)
    )
    return math.pi**-0.25 * np.exp(expo)


def initial_state(params, xi, eta):
    """The t = 0 packet with the constant e^{i s pi/4} phase dropped.

    (1/sqrt(pi)) exp[-(xi^2 + eta^2)/2 - xi0^2/2 + xi0 xi + i s eta0 eta],
    where s is +1 for retarded and -1 for advanced chirality.
    """
    s = params.chirality.sign
    expo = (
        -0.5 * (np.multiply(xi, xi) + np.multiply(eta, eta))
        - 0.5 * params.xi0**2
        + params.xi0 * np.asarray(xi)
        + 1j * s * params.eta0 * np.asarray(eta)
    )
    return np.exp(expo) / math.sqrt(math.pi)


def packet_factors_at(params, xi, eta, t: float):
    """The x and y factors of ``coherent_2d`` at one time, from the joint
    exponent split term by term, one time per call."""
    s = params.chirality.sign
    theta = params.omega * t
    twice = np.exp(2.0j * theta)
    back = np.exp(-1.0j * theta)
    x_expo = (
        -1.0j * theta
        + 0.25j * s * math.pi
        - 0.5 * np.multiply(xi, xi)
        - 0.25 * params.xi0**2 * (1.0 + twice)
        + params.xi0 * np.asarray(xi) * back
    )
    y_expo = (
        -0.5 * np.multiply(eta, eta)
        - 0.25 * params.eta0**2 * (1.0 - twice)
        + 1j * s * params.eta0 * np.asarray(eta) * back
    )
    return np.exp(x_expo) / math.sqrt(math.pi), np.exp(y_expo)


def orbit_moments_at(t: float, x_factor, y_factor, grid) -> tuple:
    """(t, centroid_xi, centroid_eta, var_xi, var_eta, norm, peak_density) of
    |x_factor(xi)|^2 |y_factor(eta)|^2 at one time, each moment a sum over
    one axis, in the field order of ``coherent2d.TrajectorySample``."""
    xi, eta = grid.xi_axis, grid.eta_axis
    wx = np.abs(x_factor) ** 2
    wy = np.abs(y_factor) ** 2
    mass_x = float(np.sum(wx))
    mass_y = float(np.sum(wy))
    cx = float(np.sum(xi * wx)) / mass_x
    cy = float(np.sum(eta * wy)) / mass_y
    return (
        float(t),
        cx,
        cy,
        float(np.sum((xi - cx) ** 2 * wx)) / mass_x,
        float(np.sum((eta - cy) ** 2 * wy)) / mass_y,
        mass_x * mass_y * grid.cell_area,
        float(np.max(wx) * np.max(wy)),
    )


# The spectral synthesis with its fields stored whole: the whole-quadrant
# build of every level, the frames summed from the stored (K, rows, cols)
# array, the FFT transform and an alignment that read it. The evolver builds
# the planes of one run at a time and takes other times by one fused product
# over the rotated table; the tests pin its planes and FFT residuals to these
# bit for bit, and its frames and other residuals to the last units in the
# place of their largest values.


def principal_fields(
    table: CoefficientTable, xi_axis: np.ndarray, eta_axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums F_N = sum C psi grouped by principal number N.

    Returns the K levels N that hold a stored mode, ascending, and their
    fields as one complex array of shape (K, len(xi_axis), len(eta_axis)),
    level-major: F_N of each level.

    Each level is built in the Cartesian Hermite basis, from the table
    rotated by ``_cartesian_coefficients``, F_N = sum_k i^k r_k |N - k, k>,
    r_k of level N read at ``_level_start(N)`` + k in the rotated triangle:

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
    levels = np.unique(table.principal)
    r = _cartesian_coefficients(table)
    fields = np.zeros((levels.size, xi_axis.size, eta_axis.size), dtype=complex)
    plane = np.empty((xi.size, eta.size))
    for level, big_n in zip(fields[:, row0:, col0:], levels.tolist()):
        lo = _level_start(big_n)
        coefs = r[lo : lo + big_n + 1]
        for parity, part in enumerate((level.real, level.imag)):
            if big_n < parity:
                continue
            # k = parity, parity + 2, ..., N - (N - parity) % 2, with phi_{N-k} on xi
            xs = coefs[parity::2, None] * hx[big_n - parity :: -2]
            xs[1::2] *= -1.0  # i^k = (-1)^(k // 2) i^(k % 2)
            ys = hy[parity::2][: len(xs)]
            banded_product(xs.T, ys, plane)
            part[...] = plane
    if row0:
        parity = np.where(levels % 2, -1.0, 1.0)[:, None, None]
        np.multiply(np.conj(fields[:, ::-1][:, :row0]), parity, out=fields[:, :row0])
    if col0:
        np.conjugate(fields[:, :, ::-1][:, :, :col0], out=fields[:, :, :col0])
    return levels, fields


def banded_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b, in bands of out's rows (and of its columns, where one
    row is too many) whose products have m n k <= ``_SERIAL_PRODUCT``."""
    inner, cols = b.shape
    height = max(1, _SERIAL_PRODUCT // (inner * cols))
    width = min(cols, max(1, _SERIAL_PRODUCT // (height * inner)))
    for i in range(0, len(a), height):
        for j in range(0, cols, width):
            np.matmul(a[i : i + height], b[:, j : j + width], out=out[i : i + height, j : j + width])


class FieldEvolver(SpectralEvolver):
    """``SpectralEvolver`` with its fields stored once, as
    ``principal_fields`` builds them on the quadrant, and read in place: a
    frame is the stored fields summed at each image's time, level by level,
    and the FFT transform folds them run by run. The image table, the
    alignment, the reference factors and the sweep test are the evolver's
    own; ``field_alignment`` is the alignment read off the stored fields."""

    def __init__(self, table, grid):
        super().__init__(table, grid)
        row0, col0 = self._start
        xi, eta = grid.xi_axis[row0:], grid.eta_axis[col0:]
        self._field_levels, self._fields = principal_fields(table, xi, eta)

    def quadrant_sum(self, tau: float) -> np.ndarray:
        """Q(tau) = sum_N e^{-i (N+1) w tau} F_N on the quadrant, N ascending."""
        total = np.zeros(self._fields.shape[1:], dtype=complex)
        for big_n, field in zip(self._field_levels.tolist(), self._fields):
            total += np.exp(-1j * (big_n + 1) * self._omega * tau) * field
        return total

    def at(self, t: float) -> Grid2D:
        """The synthesized packet sum_N F_N e^{-i (N+1) w t} at time t: each
        image of the quadrant is sign Q(tau), conjugated where s = -1, at
        tau = s (t + [flip xi] pi/w)."""
        values = np.empty(self._grid.values.shape, dtype=complex)
        row0, col0 = self._start
        # The quadrant is written last, over the zero of an odd axis, which
        # is its own image.
        for fx, fy, s, sign in reversed(self._images):
            q = self.quadrant_sum(s * (t + (math.pi / self._omega if fx else 0.0)))
            view = values[:: -1 if fx else 1, :: -1 if fy else 1][row0:, col0:]
            view[...] = sign * (q.conj() if s < 0 else q)
        return self._grid.with_values(values)

    def residuals(self, times, factors) -> list[float]:
        """Max |X_k(xi) Y_k(eta) - f_k S(t_k)| over the grid at each time,
        f_k the evolver's unit phase: through the FFT transform where the
        times allow it, as the evolver takes it, and from the frame ``at``
        otherwise. A NaN anywhere makes that time's maximum NaN."""
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
        if not turns:
            return [
                float(np.max(np.abs(np.outer(x[k], y[k]) - unit[k] * self.at(t).values)))
                for k, t in enumerate(times)
            ]
        references = [self._references(x, y, unit, image) for image in self._images]
        worst = np.zeros(len(times))
        with np.errstate(invalid="ignore"):  # NaN propagates through the maxima
            for runs, plans in self._fft_passes(len(times), turns, references):
                for rows, series in runs:
                    for ks, lines, xq, yq in plans:
                        np.maximum.at(worst, ks, peaks(series[lines], xq[:, rows], yq))
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

    def field_alignment(self, times: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
        for fx, fy, s, sign in self._images:
            at = np.flatnonzero(((i < row0) == fx) & ((j < col0) == fy))
            if not at.size:
                continue
            rows = (x.shape[1] - 1 - i[at] if fx else i[at]) - row0
            cols = (y.shape[1] - 1 - j[at] if fy else j[at]) - col0
            shift = math.pi / self._omega if fx else 0.0
            taus = s * self._omega * (np.asarray([times[k] for k in at]) + shift)
            phase = np.outer(taus, self._field_levels + 1)
            q = np.sum(self._fields[:, rows, cols].T * np.exp(-1j * phase), axis=1)
            value[at] = sign * (q.conj() if s < 0 else q)
        unit = np.ones(len(times), dtype=complex)
        nonzero = value != 0.0
        unit[nonzero] = ref[nonzero] / value[nonzero]
        unit[nonzero] /= np.abs(unit[nonzero])
        return unit

    def _row_runs(self, lines: int) -> list[slice]:
        """The quadrant's rows in runs, tallest first, over each of which a
        complex (lines, points) array holds at most one grid's values."""
        _, rows, cols = self._fields.shape
        height = max(1, self._grid.values.size // (lines * cols))
        return [slice(i, min(i + height, rows)) for i in range(0, rows, height)]

    def _fft_runs(self, count: int) -> Iterator[tuple[slice, np.ndarray]]:
        """The FFT transform over ``count`` bins.

        Yields each run's rows and a (count, points) complex array whose
        line j is Q at w t = 2 pi j / count on the run's quadrant points.
        The folded buffer is reused by the next run.
        """
        levels = self._field_levels
        bins = (levels + 1) % count
        layer = (levels + 1) // count
        # runs of consecutive levels in one turn of the bins fold as slices
        breaks = np.flatnonzero((np.diff(levels) != 1) | (np.diff(layer) != 0)) + 1
        edges = [0, *breaks.tolist(), levels.size]
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


def peaks(series: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
