"""Eigenbasis expansion coefficients of the initial coherent packet.

The closed-form amplitudes, each the product of one term from each of
two normalized circular-quanta ladders (the square roots of two Poisson
pmfs), gathered for whole columns of modes; the coefficient table,
three read-only columns (m, n_r, c) in (N, m) order with a Poisson-bounded
cutoff; and the independent projection-integral oracle (Gauss-Laguerre
radial quadrature crossed with the periodic trapezoid rule in the angle,
batched over modes, with orders chosen from the packet amplitude).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from ._exactsum import fsum
from .specialfn import gauss_laguerre, laguerre_ladder, log_factorial
from .states import Chirality, ModeIndex, PacketParams, mode_columns

__all__ = [
    "CoefficientTable",
    "auto_truncation",
    "build_table",
    "coeff_elliptic",
    "coeff_quadrature",
    "coeff_quadrature_batch",
    "oracle_orders",
]

_TAIL_BOUND = 1e-13
_TAIL_MARGIN = 4
# Largest principal cutoff a table may have: the closed form runs over all
# (n_max + 1)(n_max + 2)/2 modes at once. At this cutoff a full table holds
# 1.13 M rows and `coeffs`, which streams them, takes 0.8-1.1 s and peaks
# near 108 MB of RSS in either format (2-core x86-64).
# `observables` keeps its tolerance up to it; it stays here because
# `evolve` holds one grid-sized field per level, so that binds first.
_MAX_TABLE_CUTOFF = 1500
# Longest circular-quanta ladder `_ladder` builds: as many terms as a full
# table at the guard has rows, so its work stays that of one table column
# whatever the amplitude (radii up to about 1040 pass).
_MAX_LADDER = (_MAX_TABLE_CUTOFF + 1) * (_MAX_TABLE_CUTOFF + 2) // 2
# Standard deviations below the Poisson mean where the cutoff search
# starts: the left tail skipped there is below e^{-26.5^2/2} < 1e-150.
_LEFT_TAIL_SIGMAS = 26.5
# A Poisson term below this, past the mean, ends the cutoff search.
_NEGLIGIBLE_TERM = 1e-30
_ALIAS_LOG_BOUND = math.log(1e-15)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Truncated coefficient table of one packet, as columns.

    Row k is the mode (m[k], n_r[k]) with amplitude c[k]; the rows are in
    (N, m) order with N = 2 n_r + |m| (the ``principal`` column), and exact
    zeros are omitted, so a circular packet's table carries only the
    nodeless ladder. ``c_squared`` is the column c^2 and ``sum_c_squared``
    its exactly rounded sum. ``tail_mass``, the weight excluded by the
    truncation, defaults to 1 - sum_c_squared clamped at zero against
    summation roundoff. The constructor keeps read-only copies of the
    columns, so a table can be shared between callers. (``build_table``
    hands over columns it has just made, which are kept without a copy.)
    """

    params: PacketParams
    n_max: int
    m: np.ndarray
    n_r: np.ndarray
    c: np.ndarray
    tail_mass: float | None = None
    c_squared: np.ndarray = field(init=False, repr=False)
    sum_c_squared: float = field(init=False)
    _: KW_ONLY
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool):
        for name, dtype in (("m", np.int64), ("n_r", np.int64), ("c", float)):
            column = (np.asarray if _owned else np.array)(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.m.ndim != 1 or not self.m.shape == self.n_r.shape == self.c.shape:
            raise ValueError("the m, n_r and c columns must be 1-D and of equal length")
        if np.any(self.n_r < 0):
            raise ValueError("radial quantum numbers must be non-negative")
        if np.any(self.principal > self.n_max):
            raise ValueError(f"a mode exceeds the table cutoff {self.n_max}")
        c_squared = self.c * self.c
        c_squared.flags.writeable = False
        object.__setattr__(self, "c_squared", c_squared)
        object.__setattr__(self, "sum_c_squared", fsum(c_squared))
        if self.tail_mass is None:
            object.__setattr__(self, "tail_mass", max(0.0, 1.0 - self.sum_c_squared))
        if self.tail_mass < 0.0:
            raise ValueError("tail mass cannot be negative")

    @property
    def principal(self) -> np.ndarray:
        """Principal number N = 2 n_r + |m| of every row."""
        return 2 * self.n_r + np.abs(self.m)

    def __len__(self) -> int:
        return self.c.size


def _ladder(r: float, top: int) -> np.ndarray:
    """The circular-quanta amplitudes e^{-r^2/2} r^n / sqrt(n!), n = 0..top.

    Their squares are the Poisson pmf of mean r^2. The magnitudes start
    from 1 at the mode floor(r^2) and run outward by cumulative products of
    the term ratios, |r| / sqrt(n) upward and sqrt(n) / |r| downward, so
    none exceeds 1; they are then scaled to unit sum of squares over
    n <= mode + 40 |r| + 40, past which every Poisson term is below
    e^{-275} times the mode's. That range depends on r alone, so a longer
    ladder extends a shorter one bit for bit. Odd terms carry the sign of
    r; r = 0 gives the unit ladder (1, 0, 0, ...). Every term above 1e-290
    is within 1e-14 relative of its exact value, the heavy ones within a
    few ulps; no special function is evaluated. A ladder that would run
    past ``_MAX_LADDER`` terms, from the top or from the normalization
    range, is refused.
    """
    x = abs(r)
    if max(top, x * x + 40.0 * x + 41.0) > _MAX_LADDER:
        raise ValueError(
            f"a ladder of radius {x:.6g} to n = {top} is longer than the size "
            f"guard of {_MAX_LADDER} terms"
        )
    mode = math.floor(x * x)
    span = mode + math.ceil(40.0 * x) + 40
    n = np.arange(1, max(top, span) + 1)
    ladder = np.empty(n.size + 1)
    ladder[mode] = 1.0
    ladder[mode + 1 :] = np.cumprod(x / np.sqrt(n[mode:]))
    ladder[:mode] = np.cumprod(np.sqrt(n[:mode][::-1]) / x)[::-1]
    ladder /= math.sqrt(math.fsum((ladder[: span + 1] ** 2).tolist()))
    if r < 0.0:
        ladder[1::2] *= -1.0
    return ladder[: top + 1]


def _closed_form(params: PacketParams, m: np.ndarray, n_r: np.ndarray) -> np.ndarray:
    """Closed-form amplitudes of the modes (m[k], n_r[k]), elementwise.

    ``coeff_elliptic`` gives the formula: the product of two ``_ladder``
    terms, A of a = half_diff at n_r and B of b = half_sum at |m| + n_r,
    times (-1)^{n_r}, with A and B swapped on the mirrored branch. The two
    ladders are built once, as far as the largest |m| + n_r, and every mode
    gathers its two terms from them; exact zeros come from the unit ladder
    of a zero radius, or from underflow.
    """
    k_big = np.abs(m) + n_r
    size = int(k_big.max(initial=0)) + 1
    a = _ladder(params.half_diff, size - 1)
    b = _ladder(params.half_sum, size - 1)
    alternate = np.resize([1.0, -1.0], size)
    # rows of the retarded m >= 0 branch read the first half of each, the
    # mirrored rows the second
    radial = np.concatenate([alternate * a, alternate * b])
    angular = np.concatenate([b, a])
    mirrored = m < 0 if params.chirality is Chirality.RETARDED else m > 0
    offset = mirrored * size
    c = radial[n_r + offset]
    c *= angular[k_big + offset]
    return c


def coeff_elliptic(params: PacketParams, mode: ModeIndex) -> float:
    """Closed-form amplitude of a general (elliptic) packet on one mode.

    With a = half_diff and b = half_sum, the m >= 0 retarded amplitude is

        (-1)^{n_r} e^{-xi0^2/2 + a b} a^{n_r} b^{m + n_r}
            / sqrt(n_r! (m + n_r)!)
      = (-1)^{n_r} A_{n_r} B_{m + n_r},

    since -xi0^2/2 + a b = -(a^2 + b^2)/2, where A_n = e^{-a^2/2} a^n / sqrt(n!)
    and B_n likewise in b are the circular-quanta ladders of ``_ladder``;
    for m < 0 the roles of a and b swap. Advanced chirality mirrors the
    index to (-m, n_r). Equal amplitudes (a = 0, a circular orbit) leave
    only the nodeless m >= 0 ladder, xi0^m e^{-xi0^2/2} / sqrt(m!). This is
    the one-mode case of the gathered closed form behind ``build_table``,
    and equal to its entry bit for bit.
    """
    return float(_closed_form(params, np.array([mode.m]), np.array([mode.n_r]))[0])


def _log_alias_bound(params: PacketParams, abs_m: int, principal: int, points: int) -> float:
    """ln of a bound on the trapezoid aliasing error of a mode's overlap.

    P points alias the kernel's Fourier coefficient of index nu = P - |m|
    onto m. With a = half_diff and b = half_sum the kernel is
    exp(rho (b e^{i phi} + a e^{-i phi})) (mirrored for the advanced
    chirality), whose coefficient of index nu is bounded by
    (b rho)^nu / nu! * e^{|ab| rho^2 / (nu + 1)}. For a straight-line
    packet (a = b) it is the I_nu(xi0 rho) of Trefethen & Weideman's
    estimate (SIAM Rev. 2014); a circular packet (a = 0) has
    (xi0 rho)^nu / nu!, 2^nu times larger, so max(xi0, eta0) rho would
    understate it. The bound is the maximum over rho of that coefficient
    under the Gaussian e^{-rho^2 - xi0^2/2} and the degree-N radial
    function, in closed form.
    """
    nu = points - abs_m
    spread = 1.0 - abs(params.half_diff * params.half_sum) / (nu + 1.0)
    if spread <= 0.0:
        return math.inf
    power = 0.5 * (principal + 1 + nu)
    return (
        -0.5 * params.xi0**2
        + power * (math.log(power / spread) - 1.0)
        + nu * math.log(params.half_sum)
        - math.lgamma(nu + 1.0)
    )


def oracle_orders(params: PacketParams, abs_m: int, principal: int) -> tuple[int, int]:
    """Radial order and angular point count the quadrature oracle needs.

    For a mode with the given |m| and principal number N, or for every mode
    up to both, on this packet. The radial order is the amplitude-free
    N/2 + |m| + 8, which covers the polynomial part of the radial
    integrand, plus A (3 + A/16) nodes, A = max(xi0, eta0), for the growth
    and the oscillation the packet adds; that term holds the oracle to
    roundoff (below 1e-14) in sweeps up to A = 60 and reaches the largest
    rule order, 512, near A = 67. The angular count starts at 4 |m| + 32
    and grows in steps of 8 until the trapezoid aliasing bound of
    ``_log_alias_bound`` falls below 1e-15.
    """
    amplitude = max(params.xi0, params.eta0)
    radial = math.ceil(principal / 2 + abs_m + 8 + amplitude * (3.0 + amplitude / 16.0))
    angular = 4 * abs_m + 32
    if params.half_sum > 0.0:
        while _log_alias_bound(params, abs_m, principal, angular) > _ALIAS_LOG_BOUND:
            angular += 8
    return radial, angular


def coeff_quadrature(
    params: PacketParams,
    mode: ModeIndex,
    radial_order: int = 96,
    angular_points: int = 128,
) -> complex:
    """Projection-integral oracle for the closed-form amplitudes.

    Evaluates the overlap of the initial packet with one eigenstate by
    Gauss-Laguerre quadrature in u = rho^2 (the e^{-u} weight absorbs the
    Gaussian product exactly) and the periodic trapezoid rule in phi; this
    is the one-mode case of ``coeff_quadrature_batch``.

    The orders are the caller's. ``oracle_orders`` gives the ones this
    packet and mode need: the radial order grows with the larger amplitude,
    and the angular count is the smallest (in steps of 8) whose trapezoid
    aliasing bound, which grows with both amplitudes, is below 1e-15.
    ``verify`` projects every mode it checks at the orders of its highest
    level. Orders below ``oracle_orders`` trigger a degraded-accuracy
    warning rather than a failure.
    """
    recommended_radial, recommended_angular = oracle_orders(
        params, abs(mode.m), mode.principal
    )
    if radial_order < recommended_radial:
        warnings.warn(
            f"radial order {radial_order} below recommended "
            f"{recommended_radial}; accuracy degraded",
            stacklevel=2,
        )
    if angular_points < recommended_angular:
        warnings.warn(
            f"angular point count {angular_points} below recommended "
            f"{recommended_angular}; accuracy degraded",
            stacklevel=2,
        )
    return complex(
        coeff_quadrature_batch(params, [mode], radial_order, angular_points)[0]
    )


def coeff_quadrature_batch(
    params: PacketParams,
    modes,
    radial_order: int,
    angular_points: int,
) -> np.ndarray:
    """Projection-integral oracle for many modes from one kernel evaluation.

    The packet kernel is evaluated once on the (radial node x phi) grid.
    One FFT over phi gives its periodic trapezoid sum against e^{-i m phi}
    for every m at once, and one upward Laguerre ladder per |m| gives the
    radial functions of every n_r. Returns the complex overlaps in the
    order of ``modes``; no order is checked here (see ``coeff_quadrature``
    and ``oracle_orders``).
    """
    pairs = [(mode.m, mode.n_r) for mode in modes]
    return _quadrature(params, pairs, radial_order, angular_points)


def _quadrature(params: PacketParams, pairs, radial_order: int, angular_points: int) -> np.ndarray:
    """``coeff_quadrature_batch`` on the modes given as (m, n_r) pairs of ints."""
    rule = gauss_laguerre(radial_order)
    u = rule.nodes
    rho = np.sqrt(u)
    phi = 2.0 * math.pi * np.arange(angular_points) / angular_points
    s = params.chirality.sign
    # e^{xi0 rho} is taken out of each kernel row and joins e^{-xi0^2/2} in
    # the exponent of the row's weight, so that nothing overflows at large
    # amplitudes; underflowed weights stay zero
    kernel = np.exp(
        params.xi0 * rho[:, None] * (np.cos(phi)[None, :] - 1.0)
        + 1j * s * params.eta0 * rho[:, None] * np.sin(phi)[None, :]
    )
    angular = np.fft.fft(kernel, axis=1) * (2.0 * math.pi / angular_points)
    positive = rule.weights > 0.0
    log_weights = np.log(rule.weights, where=positive, out=np.full_like(u, -np.inf))
    weights = np.exp(log_weights + params.xi0 * rho - 0.5 * params.xi0**2)
    top_nr: dict[int, int] = {}
    for mode_m, mode_nr in pairs:
        am = abs(mode_m)
        top_nr[am] = max(top_nr.get(am, 0), mode_nr)
    radial = {}
    for am, top in top_nr.items():
        power = np.power(rho, am)
        ladder = itertools.islice(laguerre_ladder(float(am), u), top + 1)
        for k, values in enumerate(ladder):
            radial[am, k] = power * values
    out = np.empty(len(pairs), dtype=complex)
    for i, (mode_m, mode_nr) in enumerate(pairs):
        am = abs(mode_m)
        prefactor = math.exp(
            0.5 * (log_factorial(mode_nr) - log_factorial(am + mode_nr))
        ) / math.pi
        column = angular[:, mode_m % angular_points]
        out[i] = prefactor * 0.5 * np.dot(weights, radial[am, mode_nr] * column)
    return out


def _poisson_terms(s: float, n: int, pmf: float):
    """Poisson(s) terms (n, pmf), (n + 1, pmf s / (n + 1)), ... upward.

    The stream ends once a term past the mean falls below 1e-30.
    """
    while n <= s or pmf >= _NEGLIGIBLE_TERM:
        yield n, pmf
        n += 1
        pmf *= s / n


def auto_truncation(params: PacketParams) -> int:
    """Smallest principal cutoff whose Poisson tail is below 1e-13, plus margin.

    The principal-number marginal of the packet is Poisson with mean
    s = (xi0^2 + eta0^2)/2, so the bound is tight. The upward pmf
    recurrence starts at n0 = max(0, floor(s - 26.5 sqrt(s))) from a
    log-space value, so e^{-s} never underflows; the left tail it skips is
    below 1e-150, and n0 = 0 for s <= 702. Past that the log-space start
    carries a relative error near 1e-12, enough to hold 1 - cdf above the
    bound for good (at s = 1250 it stalls at 2.1e-13) or to stop early, so
    the terms are first scaled to sum to one. A packet whose mean already
    exceeds the table size guard is refused.
    """
    s = params.mean_quanta
    if s == 0.0:
        return _TAIL_MARGIN
    if s > _MAX_TABLE_CUTOFF:
        raise ValueError(
            f"mean quanta {s:.6g} put the table cutoff past the size guard "
            f"{_MAX_TABLE_CUTOFF}"
        )
    n0 = max(0, math.floor(s - _LEFT_TAIL_SIGMAS * math.sqrt(s)))
    start = math.exp(-s + n0 * math.log(s) - math.lgamma(n0 + 1.0))
    if n0:
        start /= math.fsum(pmf for _, pmf in _poisson_terms(s, n0, start))
    cdf = 0.0
    for n, pmf in _poisson_terms(s, n0, start):
        cdf += pmf
        if 1.0 - cdf < _TAIL_BOUND:
            break
    return n + _TAIL_MARGIN


def build_table(params: PacketParams, n_max: int | None = None) -> CoefficientTable:
    """Closed-form coefficient table over every mode with N <= n_max.

    n_max defaults to the Poisson-tail cutoff of ``auto_truncation``. The
    closed form runs once over the mode columns of ``mode_columns``; exact
    zeros are dropped and tail_mass records 1 - sum C^2 (clamped at zero
    against summation roundoff).
    """
    if n_max is None:
        n_max = auto_truncation(params)
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("the table cutoff must be non-negative")
    if n_max > _MAX_TABLE_CUTOFF:
        raise ValueError(
            f"table cutoff {n_max} exceeds the size guard {_MAX_TABLE_CUTOFF}"
        )
    m, n_r = mode_columns(n_max)
    c = _closed_form(params, m, n_r)
    kept = np.flatnonzero(c)
    return CoefficientTable(params, n_max, m[kept], n_r[kept], c[kept], _owned=True)
