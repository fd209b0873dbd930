"""Time evolution by two independent routes.

The closed-form packet and the truncated spectral synthesis
sum C e^{-i (N+1) w t} psi_{m n_r} must agree up to a constant phase;
this module provides both, plus centroid/variance trajectory extraction
and the phase-quotient comparison used to confront them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expansion import CoefficientTable
from .specialfn import log_factorial
from .states import Grid2D, PacketParams, _packet_factors, coherent_2d

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


def _mirror_start(eta_axis: np.ndarray) -> int:
    """First eta column on which the spectral fields need to be built.

    When the eta axis is exactly antisymmetric, as ``make_grid`` builds it,
    this is the first eta >= 0 column: rho is even in eta, the polar angle
    odd and C real, so F_N(xi, -eta) = conj F_N(xi, eta), bitwise. Any other
    axis needs every column, so this is 0.
    """
    return eta_axis.size // 2 if np.array_equal(eta_axis, -eta_axis[::-1]) else 0


def _principal_fields(
    table: CoefficientTable, xi_axis: np.ndarray, eta_axis: np.ndarray
) -> list[np.ndarray | None]:
    """Partial sums C psi grouped by principal number N, indexed by N.

    Each field has shape (len(xi_axis), len(eta_axis)); levels with no
    stored mode hold None. Grouping by |m| lets one Laguerre ladder, one
    radial power and one angular phasor serve every mode of that order.
    The groups are taken in ascending |m| and each keeps the table's row
    order, which fixes the order in which each field is accumulated.
    """
    xi, eta = np.meshgrid(xi_axis, eta_axis, indexing="ij")
    rho = np.hypot(xi, eta)
    u = rho * rho
    gauss = np.exp(-0.5 * u)
    eiphi = np.exp(1j * np.arctan2(eta, xi))

    abs_m = np.abs(table.m)
    principal = table.principal

    fields: list[np.ndarray | None] = [None] * (table.n_max + 1)
    radial = np.empty_like(u)
    term = np.empty_like(eiphi)
    angular = np.ones_like(eiphi)
    radial_pow = np.ones_like(u)
    current = 0
    for am in np.unique(abs_m).tolist():
        while current < am:
            angular = angular * eiphi
            radial_pow = radial_pow * rho
            current += 1
        group = abs_m == am
        max_nr = int(table.n_r[group].max())
        ladder = [np.ones_like(u)]
        if max_nr >= 1:
            ladder.append(1.0 + am - u)
        for k in range(1, max_nr):
            ladder.append(
                ((2.0 * k + am + 1.0 - u) * ladder[k] - (k + am) * ladder[k - 1])
                / (k + 1.0)
            )
        base = radial_pow * gauss
        conj_angular = np.conj(angular)
        rows = zip(
            table.m[group].tolist(),
            table.n_r[group].tolist(),
            principal[group].tolist(),
            table.c[group].tolist(),
        )
        for m, n_r, key, c in rows:
            prefactor = (
                c
                * math.exp(0.5 * (log_factorial(n_r) - log_factorial(am + n_r)))
                / _SQRT_PI
            )
            np.multiply(prefactor, base, out=radial)
            radial *= ladder[n_r]
            if fields[key] is None:
                fields[key] = radial * (angular if m >= 0 else conj_angular)
            else:
                np.multiply(radial, angular if m >= 0 else conj_angular, out=term)
                fields[key] += term
    return fields


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    The fields F_N are built once, on the eta columns from
    ``_mirror_start`` on: the eta >= 0 half of a ``make_grid`` grid, all
    columns of any other. They are kept as flat chunks stacked over the
    stored levels, each chunk no larger than one grid's values. With
    w_N = e^{-i (N+1) w t}, the sums U = sum Re(w_N) F_N and
    V = sum Im(w_N) F_N take one real matrix product per chunk. The built
    columns are U + iV; the mirrored ones are conj(U - iV), read in
    reverse, since F_N(xi, -eta) = conj F_N(xi, eta).
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
        self._first = _mirror_start(grid.eta_axis)
        fields = _principal_fields(table, grid.xi_axis, grid.eta_axis[self._first :])
        self._levels = np.array([n for n, field in enumerate(fields) if field is not None])
        flat = [field.reshape(-1) for field in fields if field is not None]
        built = grid.xi_axis.size * (grid.eta_axis.size - self._first)
        # a chunk, and its product with the two weight rows, stay within
        # one grid's values
        step = max(1, grid.values.size // max(2, len(flat)))
        self._chunks = [
            np.stack([field[lo : lo + step] for field in flat])
            for lo in range(0, built if flat else 0, step)
        ]
        self._u = np.zeros(built, dtype=complex)
        self._v = np.zeros(built, dtype=complex)

    def at(self, t: float) -> Grid2D:
        """The synthesized packet sum_N F_N e^{-i (N+1) w t} at time t."""
        phase = (self._levels + 1) * (self._omega * t)
        weights = np.stack([np.cos(phase), -np.sin(phase)])
        lo = 0
        for chunk in self._chunks:
            hi = lo + chunk.shape[1]
            product = weights @ chunk.view(float)
            self._u[lo:hi] = product[0].view(complex)
            self._v[lo:hi] = product[1].view(complex)
            lo = hi
        first = self._first
        values = np.empty(self._grid.values.shape, dtype=complex)
        u = self._u.reshape(values.shape[0], -1)
        v = self._v.reshape(values.shape[0], -1)
        built = values[:, first:]
        np.multiply(v, 1j, out=built)
        built += u
        if first:
            mirrored = values[:, :first]
            np.multiply(v[:, : -first - 1 : -1], -1j, out=mirrored)
            mirrored += u[:, : -first - 1 : -1]
            np.conjugate(mirrored, out=mirrored)
        return self._grid.with_values(values)


def aligned_max_difference(reference: Grid2D, candidate: Grid2D) -> float:
    """Max pointwise |difference| after removing one global phase.

    The phase is fixed at the point of maximum reference density, matching
    the convention that constant phases are physically irrelevant.
    """
    ref = reference.values
    cand = candidate.values
    idx = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if cand[idx] == 0.0:
        return float(np.max(np.abs(ref - cand)))
    factor = ref[idx] / cand[idx]
    factor /= abs(factor)
    return float(np.max(np.abs(ref - factor * cand)))


def trace_orbit(params: PacketParams, times, grid: Grid2D) -> list[TrajectorySample]:
    """Centroid, variance, norm and peak of the closed-form density per time.

    The density is |X(xi)|^2 |Y(eta)|^2, so each time costs O(P): the mass
    is a product of two axis sums and each centroid and variance a ratio
    of sums along its own axis.

    The grid must span at least +/- (max(xi0, eta0) + 6) per axis so the
    Riemann sums see the whole Gaussian; integrals then carry errors far
    below the 1e-6 trajectory tolerances.
    """
    need = max(params.xi0, params.eta0) + 6.0
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
