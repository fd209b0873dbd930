"""Angular-momentum and energy structure of a coefficient table.

Direct weighted moments over every stored amplitude, as exactly rounded
sums of column products reduced together in numpy, the branch-resolved
partial moments, their closed-form values, and distribution marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._exactsum import fsum_products
from .expansion import CoefficientTable
from .states import PacketParams

__all__ = [
    "LadderMoments",
    "ObservableReport",
    "PartialMoments",
    "closed_form_energy",
    "closed_form_lz",
    "compute_report",
    "marginals",
    "partial_moment_identities",
]

_REPORT_TAIL_LIMIT = 1e-6
_IDENTITY_TAIL_LIMIT = 1e-9


@dataclass(frozen=True)
class PartialMoments:
    """Branch-resolved first moments over the m >= 0 and m < 0 ladders."""

    nr_m_nonneg: float  # mean n_r restricted to m >= 0
    nr_m_neg: float  # mean n_r restricted to m < 0
    ccw_quanta_m_nonneg: float  # mean (m + n_r) over m >= 0
    cw_quanta_m_neg: float  # mean (-m + n_r) over m < 0


@dataclass(frozen=True)
class ObservableReport:
    """Mean quantum numbers of a packet, summed directly from its table.

    mean_lz is in units of hbar, mean_energy in units of hbar omega, and
    norm_deficit is the truncation tail carried over from the table.
    """

    mean_m: float
    mean_abs_m: float
    mean_nr: float
    mean_lz: float
    mean_energy: float
    norm_deficit: float
    partials: PartialMoments


class LadderMoments(NamedTuple):
    """Combined branch moments and their closed-form targets.

    cw_quanta and ccw_quanta are the mean numbers of clockwise and
    counter-clockwise circular quanta; principal is the mean of
    2 n_r + |m| and net_m the mean of m.
    """

    cw_quanta: float
    ccw_quanta: float
    principal: float
    net_m: float


def compute_report(table: CoefficientTable) -> ObservableReport:
    """Weighted moments sum C^2 f(m, n_r) over the stored modes.

    Each is the exactly rounded sum of a column product, restricted to a
    branch by a mask where needed, equal to ``math.fsum`` over the same
    products; all eight are reduced in one pass over the table, and the
    order of the rows does not matter. Rejects tables whose truncation
    tail exceeds 1e-6, since the moments would silently lose that much
    weight.
    """
    if table.tail_mass >= _REPORT_TAIL_LIMIT:
        raise ValueError(
            f"tail mass {table.tail_mass:.3e} too large for trustworthy moments"
        )
    m, n_r = table.m, table.n_r
    nonneg = m >= 0
    negative = ~nonneg
    (
        mean_m,
        nr_m_nonneg,
        nr_m_neg,
        ccw_quanta_m_nonneg,
        cw_quanta_m_neg,
        mean_abs_m,
        mean_nr,
        mean_energy,
    ) = fsum_products(
        table.c_squared,
        [
            (m, None),
            (n_r, nonneg),
            (n_r, negative),
            (m + n_r, nonneg),
            (n_r - m, negative),
            (np.abs(m), None),
            (n_r, None),
            (table.principal + 1, None),
        ],
    )
    return ObservableReport(
        mean_m=mean_m,
        mean_abs_m=mean_abs_m,
        mean_nr=mean_nr,
        mean_lz=mean_m,
        mean_energy=mean_energy,
        norm_deficit=table.tail_mass,
        partials=PartialMoments(
            nr_m_nonneg=nr_m_nonneg,
            nr_m_neg=nr_m_neg,
            ccw_quanta_m_nonneg=ccw_quanta_m_nonneg,
            cw_quanta_m_neg=cw_quanta_m_neg,
        ),
    )


def closed_form_lz(params: PacketParams) -> float:
    """Mean angular momentum xi0 eta0 in hbar units, negated for advanced chirality.

    The circular case reduces to xi0^2, i.e. M R^2 omega in physical units.
    """
    return params.chirality.sign * params.xi0 * params.eta0


def closed_form_energy(params: PacketParams) -> float:
    """Mean energy (xi0^2 + eta0^2)/2 + 1 in hbar omega units.

    The classical orbit energy plus the zero-point term.
    """
    return params.mean_quanta + 1.0


def partial_moment_identities(table: CoefficientTable) -> LadderMoments:
    """Branch-moment combinations with closed-form circular-quanta values.

    For a retarded packet: cw_quanta = half_diff^2, ccw_quanta = half_sum^2,
    principal = their sum and net_m = their difference (advanced chirality
    swaps the two quanta means). Sums are taken directly over table entries.
    """
    return _ladder_moments(table, None)


def _ladder_moments(
    table: CoefficientTable, report: ObservableReport | None
) -> LadderMoments:
    """``partial_moment_identities(table)``, from ``report`` when one is given.

    ``report`` must be ``compute_report(table)``; a table whose tail mass
    reaches 1e-9 is refused either way.
    """
    if table.tail_mass >= _IDENTITY_TAIL_LIMIT:
        raise ValueError(
            f"tail mass {table.tail_mass:.3e} too large for identity checks"
        )
    if report is None:
        report = compute_report(table)
    p = report.partials
    return LadderMoments(
        cw_quanta=p.nr_m_nonneg + p.cw_quanta_m_neg,
        ccw_quanta=p.nr_m_neg + p.ccw_quanta_m_nonneg,
        principal=2.0 * report.mean_nr + report.mean_abs_m,
        net_m=report.mean_m,
    )


def marginals(table: CoefficientTable) -> tuple[dict[int, float], dict[int, float]]:
    """Distributions over m and over the principal number N.

    Both sum to 1 - tail_mass; keys are sorted ascending.
    """
    return _marginal(table.m, table.c_squared), _marginal(table.principal, table.c_squared)


def _marginal(keys: np.ndarray, weights: np.ndarray) -> dict[int, float]:
    """Sum of the weights per distinct key, the keys ascending.

    ``np.bincount`` adds each key's weights in row order from 0.0, so every
    sum is rounded exactly as the same additions over the rows in Python.
    """
    low = keys.min(initial=0)
    shifted = keys - low
    # the keys present, ascending; np.unique would import numpy.ma on numpy 2
    present = np.flatnonzero(np.bincount(shifted))
    sums = np.bincount(shifted, weights=weights)
    return dict(zip((present + low).tolist(), sums[present].tolist()))
