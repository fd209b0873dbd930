"""Eigenbasis expansion coefficients of the initial coherent packet.

Closed-form amplitudes for the circular and elliptic ladders, the
independent projection-integral oracle (Gauss-Laguerre radial quadrature
crossed with the periodic trapezoid rule in the angle, batched over modes,
with orders chosen from the packet amplitude), the angular integral
series, and truncated coefficient tables with Poisson-bounded tails.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .specialfn import gauss_laguerre, laguerre_ladder, log_factorial
from .states import Chirality, ModeIndex, PacketParams, modes_up_to

__all__ = [
    "CoefficientTable",
    "angular_integral",
    "auto_truncation",
    "build_table",
    "coeff_circular",
    "coeff_elliptic",
    "coeff_quadrature",
    "coeff_quadrature_batch",
    "oracle_orders",
]

_TAIL_BOUND = 1e-13
_TAIL_MARGIN = 4
_MAX_TABLE_CUTOFF = 10**4
_SERIES_CUTOFF = 1e-17
_ALIAS_LOG_BOUND = math.log(1e-15)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Truncated map of eigenmode amplitudes for one packet.

    Entries are keyed by mode in (N, m) order; exact zeros are omitted, so
    circular-packet tables only carry the nodeless ladder. ``tail_mass`` is
    1 - sum C^2, the weight excluded by the truncation.
    """

    params: PacketParams
    n_max: int
    entries: MappingProxyType
    tail_mass: float

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "n_max", int(self.n_max))
        for mode in self.entries:
            if mode.principal > self.n_max:
                raise ValueError(f"mode {mode} exceeds the table cutoff {self.n_max}")
        if self.tail_mass < 0.0:
            raise ValueError("tail mass cannot be negative")

    def amplitude(self, mode: ModeIndex) -> float:
        return self.entries.get(mode, 0.0)

    def weight(self, mode: ModeIndex) -> float:
        c = self.entries.get(mode, 0.0)
        return c * c

    def __len__(self) -> int:
        return len(self.entries)


def coeff_circular(xi0: float, mode: ModeIndex) -> float:
    """Amplitude on the circular ladder: xi0^m e^{-xi0^2/2} / sqrt(m!).

    Supported only on m >= 0, n_r = 0 (a circular classical orbit has a
    nodeless radial function); zero elsewhere. Evaluated in log space so
    large m cannot overflow.
    """
    if mode.m < 0 or mode.n_r > 0:
        return 0.0
    if xi0 == 0.0:
        return 1.0 if mode.m == 0 else 0.0
    log_mag = mode.m * math.log(xi0) - 0.5 * xi0**2 - 0.5 * log_factorial(mode.m)
    return math.exp(log_mag)


def coeff_elliptic(params: PacketParams, mode: ModeIndex) -> float:
    """Closed-form amplitude of a general (elliptic) packet on one mode.

    With a = half_diff and b = half_sum, the m >= 0 retarded amplitude is

        (-1)^{n_r} e^{-xi0^2/2 + a b} a^{n_r} b^{m + n_r}
            / sqrt(n_r! (m + n_r)!)

    and for m < 0 the roles of a and b swap. Advanced chirality mirrors the
    index to (-m, n_r). Reduces to ``coeff_circular`` when the amplitudes
    coincide (a = 0 kills every n_r > 0 mode). Magnitudes are accumulated
    in log space with an explicit sign.
    """
    m = mode.m if params.chirality is Chirality.RETARDED else -mode.m
    am = abs(m)
    if m >= 0:
        base_nr, base_big = params.half_diff, params.half_sum
    else:
        base_nr, base_big = params.half_sum, params.half_diff
    k_nr, k_big = mode.n_r, am + mode.n_r
    if (base_nr == 0.0 and k_nr > 0) or (base_big == 0.0 and k_big > 0):
        return 0.0
    sign = -1.0 if mode.n_r % 2 else 1.0
    if base_nr < 0.0 and k_nr % 2:
        sign = -sign
    if base_big < 0.0 and k_big % 2:
        sign = -sign
    log_mag = (
        -0.5 * (log_factorial(mode.n_r) + log_factorial(k_big))
        - 0.5 * params.xi0**2
        + params.half_diff * params.half_sum
    )
    if k_nr:
        log_mag += k_nr * math.log(abs(base_nr))
    if k_big:
        log_mag += k_big * math.log(abs(base_big))
    return sign * math.exp(log_mag)


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
    modes = list(modes)
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
    for mode in modes:
        am = abs(mode.m)
        top_nr[am] = max(top_nr.get(am, 0), mode.n_r)
    radial = {}
    for am, top in top_nr.items():
        power = np.power(rho, am)
        ladder = itertools.islice(laguerre_ladder(float(am), u), top + 1)
        for n_r, values in enumerate(ladder):
            radial[am, n_r] = power * values
    out = np.empty(len(modes), dtype=complex)
    for i, mode in enumerate(modes):
        am = abs(mode.m)
        prefactor = math.exp(
            0.5 * (log_factorial(mode.n_r) - log_factorial(am + mode.n_r))
        ) / math.pi
        column = angular[:, mode.m % angular_points]
        out[i] = prefactor * 0.5 * np.dot(weights, radial[am, mode.n_r] * column)
    return out


def angular_integral(m: int, params: PacketParams, rho_tilde: float) -> complex:
    """Angular projection of the packet kernel onto e^{i m phi} at fixed radius.

    int_0^{2pi} exp[xi0 xi + i s eta0 eta] e^{-i m phi} dphi with
    xi = rho cos phi, eta = rho sin phi. Expands as the real series
    2 pi sum_k (a rho)^k (b rho)^{k + |m|} / (k! (k + |m|)!) with (a, b)
    the circular-decomposition amplitudes ordered by branch and chirality;
    terms are accumulated until they drop below 1e-17 of the running sum.
    On the circular ladder (a = 0) only the k = 0 term survives, giving
    2 pi (xi0 rho)^m / m! for m >= 0 and zero for m < 0.
    """
    m_eff = m if params.chirality is Chirality.RETARDED else -m
    am = abs(m_eff)
    if m_eff >= 0:
        a, b = params.half_diff, params.half_sum
    else:
        a, b = params.half_sum, params.half_diff
    rho_tilde = float(rho_tilde)
    if b == 0.0 and am > 0:
        return complex(0.0)
    if b * rho_tilde == 0.0:
        term = 1.0 if am == 0 else 0.0
    else:
        sign = -1.0 if (b < 0.0 and am % 2) else 1.0
        term = sign * math.exp(am * math.log(abs(b) * rho_tilde) - log_factorial(am))
    total = 0.0
    k = 0
    while True:
        total += term
        k += 1
        term *= (a * rho_tilde) * (b * rho_tilde) / (k * (k + am))
        if abs(term) <= _SERIES_CUTOFF * max(1.0, abs(total)) or k > 1000:
            break
    return complex(2.0 * math.pi * total)


def auto_truncation(params: PacketParams) -> int:
    """Smallest principal cutoff whose Poisson tail is below 1e-13, plus margin.

    The principal-number marginal of the packet is Poisson with mean
    (xi0^2 + eta0^2)/2, so the bound is tight.
    """
    s = params.mean_quanta
    if s == 0.0:
        return _TAIL_MARGIN
    pmf = math.exp(-s)
    cdf = pmf
    n = 0
    while 1.0 - cdf >= _TAIL_BOUND and n < 600:
        n += 1
        pmf *= s / n
        cdf += pmf
    return n + _TAIL_MARGIN


def build_table(params: PacketParams, n_max: int | None = None) -> CoefficientTable:
    """Closed-form coefficient table over every mode with N <= n_max.

    n_max defaults to the Poisson-tail cutoff of ``auto_truncation``; exact
    zeros are skipped and tail_mass records 1 - sum C^2 (clamped at zero
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
    entries = {}
    for mode in modes_up_to(n_max):
        c = coeff_elliptic(params, mode)
        if c != 0.0:
            entries[mode] = c
    captured = math.fsum(c * c for c in entries.values())
    return CoefficientTable(
        params=params,
        n_max=n_max,
        entries=entries,
        tail_mass=max(0.0, 1.0 - captured),
    )
