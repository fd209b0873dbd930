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
from .states import Grid2D, PacketParams, coherent_2d

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
    """Sample the closed-form packet on the grid at time t."""
    xi, eta = grid.meshes()
    return grid.with_values(coherent_2d(params, xi, eta, t))


def _principal_fields(table: CoefficientTable, grid: Grid2D) -> dict[int, np.ndarray]:
    """Partial sums C psi grouped by principal number N.

    Grouping by |m| lets one Laguerre ladder, one radial power and one
    angular phasor serve every mode of that order. The groups are taken in
    ascending |m| and each keeps the table's row order, which fixes the
    order in which each field is accumulated.
    """
    rho, phi = grid.polar()
    u = rho * rho
    gauss = np.exp(-0.5 * u)
    eiphi = np.exp(1j * phi)

    abs_m = np.abs(table.m)
    principal = table.principal

    fields: dict[int, np.ndarray] = {}
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
            contrib = prefactor * base * ladder[n_r]
            contrib = contrib * (angular if m >= 0 else np.conj(angular))
            if key in fields:
                fields[key] += contrib
            else:
                fields[key] = contrib
    return fields


class SpectralEvolver:
    """Reusable spectral synthesis for one table on one grid.

    Building the per-N partial fields once makes evaluation at each time a
    handful of phased grid additions, so sweeping many times is cheap.
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
        self._fields = _principal_fields(table, grid)

    def at(self, t: float) -> Grid2D:
        values = np.zeros(
            (self._grid.xi_axis.size, self._grid.eta_axis.size), dtype=complex
        )
        for big_n, field in self._fields.items():
            values += np.exp(-1j * (big_n + 1) * self._omega * t) * field
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
    xi, eta = grid.meshes()
    cell = grid.cell_area
    samples = []
    for t in times:
        density = np.abs(coherent_2d(params, xi, eta, t)) ** 2
        mass = float(np.sum(density)) * cell
        cx = float(np.sum(xi * density)) * cell / mass
        cy = float(np.sum(eta * density)) * cell / mass
        vx = float(np.sum((xi - cx) ** 2 * density)) * cell / mass
        vy = float(np.sum((eta - cy) ** 2 * density)) * cell / mass
        samples.append(
            TrajectorySample(
                t=float(t),
                centroid_xi=cx,
                centroid_eta=cy,
                var_xi=vx,
                var_eta=vy,
                norm=mass,
                peak_density=float(np.max(density)),
            )
        )
    return samples


def orbit_signed_area(samples: list[TrajectorySample]) -> float:
    """Shoelace area of the sampled centroid polygon; the sign is the orientation."""
    x = np.array([s.centroid_xi for s in samples])
    y = np.array([s.centroid_eta for s in samples])
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
