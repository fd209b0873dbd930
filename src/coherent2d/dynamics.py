"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them. The spectral
route stays in the polar (m, n_r) eigenbasis, built from normalized real
ladders on one grid quadrant, and calls nothing of the closed form.
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
_SPECTRAL_TAIL_LIMIT = 1e-10
# Largest m n k of one synthesis product. OpenBLAS computes a product up to
# 2^18 on the calling thread; a larger one wakes worker threads, which spin
# on after it returns. Products near 2^16 also ran fastest on one thread.
_SERIAL_PRODUCT = 2**16
# Times synthesized per pass over the field blocks. A pass reads every
# block once, so this divides the memory traffic of each time.
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

        s_a = z^a e^{-u/4} / sqrt(pi a!),      s_{a+1} = z s_a / sqrt(a + 1),
        l_k = e^{-u/4} sqrt(k! a! / (k + a)!) L_k^a(u),

    l_k by the three-term Laguerre recurrence. C is real, so each (a, k)
    adds (C_+ + C_-) l_k Re s_a to Re F_N and (C_+ - C_-) l_k Im s_a to
    Im F_N, in ascending a. No factor is a bare power of rho, so the fields
    stay finite where rho^|m| overflows. Each ladder carries half of the
    Gaussian, so neither starts at zero before e^{-u/4} underflows, past
    u ~ 2980; where l_k overflows there the fields are NaN.
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
    quarter = np.exp(-0.25 * u)
    s_re = quarter / _SQRT_PI
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
        ladder = quarter.copy()
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

    With Q(t) = sum_N e^{-i (N+1) w t} F_N on the quadrant, each mirrored
    part of the grid is one entry of an image table, Q taken at a time
    tau = s (t + [flip xi] pi/w), negated where xi is flipped and
    conjugated where s = -1:

        (flip xi, flip eta) = (F, T): conj Q(-t),
                              (T, F): -conj Q(-t - pi/w),
                              (T, T): -Q(t + pi/w).

    The table holds the quadrant and the images of the mirrored axes, and
    every reader takes Q at the image times from it, then the image's sign
    and conjugate. The quadrant is cut into blocks of whole rows, each one
    complex (points, K) array of its fields over the K stored levels,
    zero-padded to whole bands. Every use of the fields is one pass over
    the blocks, each block going through a transform and then into a
    consumer:

    - The product transform takes any times, up to g = ``_TIMES_PER_PASS``
      per pass: a (2K, 8g) matrix of the cos and sin of (N+1) w tau at each
      image time, times a block's (count, band, 2K) real view, gives Q at
      its points at every image time. Each band's product is small enough
      to run on the calling thread, so no BLAS worker wakes, and a block's
      product holds at most one grid's values.
    - The FFT transform takes T times that sweep M whole periods in equal
      steps, w t_k = 2 pi M k / T, when T is even. It folds the levels
      into T bins, G_r = sum of F_N over N + 1 = r (mod T), and takes one
      length-T FFT per point, whose bin j is Q at w tau = 2 pi j / T, so
      image time k is bin s (M k + [flip xi] T/2) (mod T). The blocks go
      through it a few rows at a time, so that the folded (points, T)
      buffer and its transform hold one grid between them.

    ``at`` writes the frame at one time from the product transform; it is
    the only consumer that builds a frame. ``residuals`` compares the
    synthesis with a separable reference, block by block, through the FFT
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
        self._levels, fields = _principal_fields(table, xi[row0:], eta[col0:])
        # the image table: (flip xi, flip eta, s, sign), the quadrant first
        self._images = [
            (fx, fy, -1 if fx != fy else 1, -1.0 if fx else 1.0)
            for fx in (False, True)[: 1 + bool(row0)]
            for fy in (False, True)[: 1 + bool(col0)]
        ]
        rows, self._cols = xi.size - row0, eta.size - col0
        cols, levels = self._cols, self._levels.size
        # A band's (band, 2K) @ (2K, 8g) product has m n k <= _SERIAL_PRODUCT,
        # and a block's (points, 8g) product, its points padded to whole
        # bands, holds at most one grid's values (2 size reals).
        lines = 8 * _TIMES_PER_PASS
        capacity = 2 * grid.values.size // lines
        self._band = band = max(
            1, min(_SERIAL_PRODUCT // (lines * max(1, 2 * levels)), capacity - cols + 1)
        )
        self._height = height = max(1, min(rows, (capacity - band + 1) // cols))
        flat = fields.reshape(2, levels, rows * cols)
        self._blocks = []
        for i in range(0, rows, height):
            lo, hi = i * cols, min(i + height, rows) * cols
            block = np.zeros((-(-(hi - lo) // band) * band, levels), dtype=complex)
            pairs = block.view(float)
            # level by level: one copy of the whole transpose ran 4x slower
            for level, pair in enumerate(flat[:, :, lo:hi].transpose(1, 0, 2)):
                pairs[: hi - lo, 2 * level : 2 * level + 2] = pair.T
            self._blocks.append((i, (hi - lo) // cols, block))

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
        for i, height, series in self._product_blocks([t]):
            for q in reversed(range(len(views))):
                _, _, s, sign = self._images[q]
                image = series[:, q].reshape(height, self._cols)
                views[q][i : i + height] = sign * (image.conj() if s < 0 else image)
        return self._grid.with_values(values)

    def residuals(self, times, factors) -> list[float]:
        """Max |X_k(xi) Y_k(eta) - f_k S(t_k)| over the grid at each time.

        ``factors`` holds one (X_k, Y_k) pair of reference factors per time,
        on the xi and eta axes; S(t) is the synthesized packet and f_k the
        unit phase that ``aligned_max_difference`` would take, from the
        reference and S at (argmax |X_k|, argmax |Y_k|). No frame is built:
        each block's transform is reduced against the outer product of the
        factors over its rows. A NaN anywhere makes that time's maximum NaN.
        """
        times = [float(t) for t in times]
        if not times:
            return []
        x = np.array([pair[0] for pair in factors], dtype=complex)
        y = np.array([pair[1] for pair in factors], dtype=complex)
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
            for blocks, plans in passes:
                for i, height, series in blocks:
                    for ks, columns, xq, yq in plans:
                        peaks = _peaks(series[:, columns], xq[i : i + height], yq)
                        np.maximum.at(worst, ks, peaks)
        return worst.tolist()

    def _fft_passes(self, count: int, turns: int, references: list) -> list:
        """The FFT transform's one pass, with the reference of each image.

        A pass is a transform's blocks and, per slice of their series
        columns, the times those columns hold and the matching reference
        factors over the quadrant, as ``_peaks`` takes them.
        """
        step = math.gcd(turns, count)
        plans = []
        for (fx, _, s, _), (xq, yq) in zip(self._images, references):
            bins = s * (turns * np.arange(count) + (count // 2 if fx else 0)) % count
            # each used bin serves `step` times; take one of them per slice
            order = np.argsort(bins, kind="stable")
            for r in range(step):
                ks = order[r::step]
                columns = slice(int(bins[ks[0]]), None, step)
                plans.append((ks, columns, _columns(xq[ks]), _columns(yq[ks])))
        return [(self._fft_blocks(count), plans)]

    def _product_passes(self, times: list, references: list) -> list:
        """The product transform's passes, ``_TIMES_PER_PASS`` times each,
        with the references of every image at those times."""
        passes = []
        for lo in range(0, len(times), _TIMES_PER_PASS):
            group = np.arange(lo, min(lo + _TIMES_PER_PASS, len(times)))
            xs = _columns(np.concatenate([xq[group] for xq, _ in references]))
            ys = _columns(np.concatenate([yq[group] for _, yq in references]))
            ks = np.tile(group, len(references))
            blocks = self._product_blocks([times[k] for k in group])
            passes.append((blocks, [(ks, slice(None), xs, ys)]))
        return passes

    def _whole_turns(self, times: list) -> int:
        """M if the times sweep M >= 1 whole periods in an even number of steps.

        That is t_k = (2 pi M) k / T / w for k < T, checked exactly against
        that arithmetic, which is how ``evolve`` spaces its times over a
        span of 2 pi M. It is 0 otherwise, and also where one quadrant row
        of the FFT's (points, T) buffer would hold more than half a grid.
        """
        count = len(times)
        if count < 2 or count % 2 or 2 * count * self._cols > self._grid.values.size:
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
            fields = np.array([
                self._blocks[r // self._height][2][r % self._height * self._cols + c]
                for r, c in zip(rows.tolist(), cols.tolist())
            ]).reshape(at.size, self._levels.size)
            phase = np.outer(self._image_times([times[k] for k in at], image), self._levels + 1)
            q = np.sum(fields * np.exp(-1j * phase), axis=1)
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

    def _product_blocks(self, times: list) -> Iterator[tuple[int, int, np.ndarray]]:
        """The product transform at up to ``_TIMES_PER_PASS`` times.

        Yields each block's first row, its row count and a (points, n g)
        complex view whose column q g + j is Q at the time of image q of
        the table at time j. The view's buffer is reused by the next block.
        """
        phase = np.outer(
            np.concatenate([self._image_times(times, image) for image in self._images]),
            self._levels + 1,
        )
        c, s = np.cos(phase), np.sin(phase)
        # (R + i I)(c - i s) in real and imaginary parts, by rows R, I
        weights = np.array([[c, -s], [s, c]]).transpose(3, 0, 2, 1)
        weights = weights.reshape(2 * self._levels.size, 2 * len(phase))
        out = np.empty((len(self._blocks[0][2]), weights.shape[1]))
        for i, height, block in self._blocks:
            count = len(block) // self._band
            real = block.view(float).reshape(count, self._band, 2 * self._levels.size)
            np.matmul(real, weights, out=out[: len(block)].reshape(count, self._band, -1))
            yield i, height, out.view(complex)[: height * self._cols]

    def _fft_blocks(self, count: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """The FFT transform over ``count`` bins.

        Yields each chunk's first row, its row count and a (points, count)
        complex array whose column j is Q at w t = 2 pi j / count on the
        quadrant. The array is reused by the next chunk.
        """
        cols = self._cols
        bins = (self._levels + 1) % count
        layer = (self._levels + 1) // count
        # runs of consecutive levels in one turn of the bins fold as slices
        breaks = np.flatnonzero((np.diff(self._levels) != 1) | (np.diff(layer) != 0)) + 1
        edges = [0, *breaks.tolist(), self._levels.size]
        runs = [(a, b, int(bins[a])) for a, b in zip(edges, edges[1:]) if a < b]
        # the folded levels and their transform hold one grid between them
        height = max(1, min(self._height, self._grid.values.size // (2 * count * cols)))
        buffer = np.empty((height * cols, count), dtype=complex)
        for i, block_rows, block in self._blocks:
            for row in range(0, block_rows, height):
                rows = min(height, block_rows - row)
                folded = buffer[: rows * cols]
                folded[...] = 0.0
                fields = block[row * cols : (row + rows) * cols]
                for a, b, first in runs:
                    folded[:, first : first + b - a] += fields[:, a:b]
                yield i + row, rows, np.fft.fft(folded, axis=-1)


def _columns(stack: np.ndarray) -> np.ndarray:
    """A (T, points) stack as a contiguous (points, T) array: the layout of
    ``_peaks``, whose broadcast products run several times slower on a
    strided view."""
    return np.ascontiguousarray(stack.T)


def _peaks(series: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per column n, max over the points of |x[i, n] y[j, n] - series[(i, j), n]|.

    ``series`` is (rows * cols, n) over a block's points, row-major; the
    maximum propagates NaN.
    """
    diff = np.empty((len(x), *y.shape), dtype=complex)
    # row by row: numpy buffers a broadcast complex product's operands, up
    # to getbufsize() elements; one row's product keeps that to one row
    for row, factor in zip(diff, x):
        np.multiply(factor, y, out=row)
    diff -= series.reshape(diff.shape)
    # |diff|^2 into the real parts in place: no scratch beside diff
    parts = diff.reshape(-1, diff.shape[2]).view(float)
    real, imag = parts[:, 0::2], parts[:, 1::2]
    np.multiply(real, real, out=real)
    np.multiply(imag, imag, out=imag)
    np.add(real, imag, out=real)
    return np.sqrt(real.max(axis=0))


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


def closed_form_factors(params: PacketParams, grid: Grid2D, times) -> list:
    """The closed form's (x factor, y factor) on the grid axes at each time.

    Their outer product is ``evolve_closed_form`` at that time; they are
    the reference ``SpectralEvolver.residuals`` takes, and ``trace_orbit``
    reduces them to moments.
    """
    return [_packet_factors(params, grid.xi_axis, grid.eta_axis, t) for t in times]


def trace_orbit(params: PacketParams, times, grid: Grid2D, factors) -> list[TrajectorySample]:
    """Centroid, variance, norm and peak of the closed-form density per time.

    The density is |X(xi)|^2 |Y(eta)|^2, so each time costs O(P): the mass
    is a product of two axis sums and each centroid and variance a ratio
    of sums along its own axis. ``factors`` are the times'
    ``closed_form_factors``, which ``evolve`` also compares against.

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
    for t, (x_factor, y_factor) in zip(times, factors, strict=True):
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
