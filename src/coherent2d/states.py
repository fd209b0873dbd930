"""Closed-form wavefunctions of the 2D isotropic harmonic oscillator.

Energy/angular-momentum eigenstates, the 1D and 2D coherent packets, the
classical ellipse they follow, and the shared parameter types. Internal
convention: hbar = M = 1 with unit oscillator length, so coordinates are
the dimensionless (xi, eta); physical scaling enters only through
``to_dimensionless``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specialfn import laguerre, log_factorial

__all__ = [
    "Chirality",
    "Grid2D",
    "ModeIndex",
    "PacketParams",
    "PhysicalUnits",
    "classical_center",
    "coherent_1d",
    "coherent_2d",
    "eigenstate",
    "initial_state",
    "make_grid",
    "mode_columns",
    "modes_up_to",
    "to_dimensionless",
]

_SQRT_PI = math.sqrt(math.pi)


class Chirality(str, enum.Enum):
    """Sense of the pi/2 relative phase between the y and x packets."""

    RETARDED = "retarded"  # y lags x: counter-clockwise orbit, support on m >= 0
    ADVANCED = "advanced"  # y leads x: clockwise orbit, mirrored support

    @property
    def sign(self) -> int:
        return 1 if self is Chirality.RETARDED else -1


@dataclass(frozen=True)
class ModeIndex:
    """Eigenstate label (m, n_r) with principal number N = 2 n_r + |m|."""

    m: int
    n_r: int

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n_r", int(self.n_r))
        if self.n_r < 0:
            raise ValueError(f"radial quantum number must be non-negative, got {self.n_r}")

    @property
    def principal(self) -> int:
        return 2 * self.n_r + abs(self.m)


@dataclass(frozen=True)
class PacketParams:
    """Dimensionless packet amplitudes plus the phase convention.

    xi0 and eta0 are the classical semi-axes in oscillator-length units.
    ``half_diff`` and ``half_sum`` are the radii of the two counter-rotating
    circular motions whose superposition traces the ellipse; their squares
    are the mean numbers of clockwise and counter-clockwise circular quanta
    (for the retarded convention).
    """

    xi0: float
    eta0: float
    chirality: Chirality = Chirality.RETARDED
    omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "xi0", float(self.xi0))
        object.__setattr__(self, "eta0", float(self.eta0))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "chirality", Chirality(self.chirality))
        if not (0.0 <= self.xi0 < math.inf and 0.0 <= self.eta0 < math.inf):
            raise ValueError("packet amplitudes must be non-negative and finite")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")

    @property
    def half_diff(self) -> float:
        return 0.5 * (self.xi0 - self.eta0)

    @property
    def half_sum(self) -> float:
        return 0.5 * (self.xi0 + self.eta0)

    @property
    def mean_quanta(self) -> float:
        """Poisson mean of the principal number, (xi0^2 + eta0^2) / 2."""
        return 0.5 * (self.xi0**2 + self.eta0**2)


@dataclass(frozen=True)
class PhysicalUnits:
    """Physical oscillator parameters; the length scale is 1/alpha."""

    mass: float
    omega: float
    hbar: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.mass, self.omega, self.hbar)):
            raise ValueError("mass, omega and hbar must be positive and finite")
        if not (0.0 <= self.x0 < math.inf and 0.0 <= self.y0 < math.inf):
            raise ValueError("orbit amplitudes must be non-negative and finite")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.mass * self.omega / self.hbar)


def to_dimensionless(units: PhysicalUnits) -> PacketParams:
    """Convert physical orbit amplitudes to dimensionless packet parameters."""
    a = units.alpha
    return PacketParams(xi0=a * units.x0, eta0=a * units.y0, omega=units.omega)


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Uniform rectangular grid over dimensionless (xi, eta) with complex samples.

    ``values`` has shape (len(xi_axis), len(eta_axis)), row-major over
    (xi, eta).
    """

    xi_axis: np.ndarray
    eta_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi_axis, dtype=float)
        eta = np.asarray(self.eta_axis, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "xi_axis", xi)
        object.__setattr__(self, "eta_axis", eta)
        object.__setattr__(self, "values", values)
        for axis in (xi, eta):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError("axes must be 1-D with at least two points")
            steps = np.diff(axis)
            if np.min(steps) <= 0.0:
                raise ValueError("axis spacing must be strictly positive")
            if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
                raise ValueError("axes must be uniformly spaced")
        if values.shape != (xi.size, eta.size):
            raise ValueError(
                f"values shape {values.shape} does not match axes {(xi.size, eta.size)}"
            )

    @property
    def dxi(self) -> float:
        return float(self.xi_axis[1] - self.xi_axis[0])

    @property
    def deta(self) -> float:
        return float(self.eta_axis[1] - self.eta_axis[0])

    @property
    def cell_area(self) -> float:
        return self.dxi * self.deta

    def meshes(self):
        """Coordinate meshes (XI, ETA), each of the value shape."""
        return np.meshgrid(self.xi_axis, self.eta_axis, indexing="ij")

    def with_values(self, values) -> "Grid2D":
        return Grid2D(self.xi_axis, self.eta_axis, values)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        """Riemann-sum norm of the sampled field."""
        return float(np.sum(self.density()) * self.cell_area)


def make_grid(params: PacketParams, half_width: float | None = None, points: int = 257) -> Grid2D:
    """Centered square grid; the default half-width is max(xi0, eta0) + 6.

    Axes are built antisymmetric about zero (index offsets times spacing) so
    mirror-symmetry comparisons hold to rounding; the default extent keeps
    Gaussian tails below 1e-15 at the boundary. Values start at zero.
    """
    if half_width is None:
        half_width = max(params.xi0, params.eta0) + 6.0
    points = int(points)
    if points < 2:
        raise ValueError("a grid needs at least two points per axis")
    if half_width <= 0.0:
        raise ValueError("half width must be positive")
    spacing = 2.0 * half_width / (points - 1)
    axis = (np.arange(points) - (points - 1) / 2.0) * spacing
    values = np.zeros((points, points), dtype=complex)
    return Grid2D(axis, axis.copy(), values)


def mode_columns(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns (m, n_r) of every mode with principal number <= n_max.

    Sorted by (N, m): level N holds m = -N, -N + 2, ..., N with
    n_r = (N - |m|) / 2, so it starts at index N (N + 1) / 2.
    """
    n_max = int(n_max)
    levels = np.arange(n_max + 1)
    big_n = np.repeat(levels, levels + 1)
    m = 2 * (np.arange(big_n.size) - big_n * (big_n + 1) // 2) - big_n
    return m, (big_n - np.abs(m)) // 2


def modes_up_to(n_max: int) -> list[ModeIndex]:
    """All mode labels with principal number <= n_max, sorted by (N, m)."""
    m, n_r = mode_columns(n_max)
    return [ModeIndex(m=m, n_r=n_r) for m, n_r in zip(m.tolist(), n_r.tolist())]


def eigenstate(mode: ModeIndex, rho_tilde, phi):
    """Normalized simultaneous (H, l_z) eigenstate at polar coordinates.

    sqrt(n_r! / (pi (|m| + n_r)!)) e^{i m phi} rho^{|m|} e^{-rho^2/2}
    L_{n_r}^{|m|}(rho^2), orthonormal under the measure rho drho dphi.
    Accepts scalars or broadcastable arrays.
    """
    am = abs(mode.m)
    prefactor = math.exp(0.5 * (log_factorial(mode.n_r) - log_factorial(am + mode.n_r)))
    prefactor /= _SQRT_PI
    u = np.multiply(rho_tilde, rho_tilde)
    radial = prefactor * np.power(rho_tilde, am) * np.exp(-0.5 * u)
    radial = radial * laguerre(mode.n_r, am, u)
    return radial * np.exp(1j * mode.m * np.asarray(phi, dtype=float))


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


def _packet_factors(params: PacketParams, xi, eta, t: float):
    """The x and y factors whose product is ``coherent_2d``.

    The packet's exponent has no xi-eta cross term, so it splits into an x
    part and a y part, each exponentiated on its own. The constant phase
    and the 1/sqrt(pi) normalization ride on the x factor. The y factor
    keeps the e^{2i theta} and e^{-i theta} of the joint exponent rather
    than being ``coherent_1d`` at a shifted time, whose rounded shift would
    be multiplied by eta0^2 / 4.
    """
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
    return np.exp(x_expo) / _SQRT_PI, np.exp(y_expo)


def coherent_2d(params: PacketParams, xi, eta, t: float):
    """2D coherent packet: the x packet times the pi/2 phase-shifted y packet.

    Retarded chirality shifts the y phase by -pi/2 (counter-clockwise center
    motion), advanced by +pi/2. At t = 0 this equals ``initial_state`` times
    the constant phase e^{i s pi/4}. The x factor is evaluated at ``xi`` and
    the y factor at ``eta`` before they are multiplied, so passing a column
    of xi and a row of eta gives the whole grid from O(P) exponentials;
    scalars and meshes broadcast as well.
    """
    x_factor, y_factor = _packet_factors(params, xi, eta, t)
    return x_factor * y_factor


def initial_state(params: PacketParams, xi, eta):
    """The t = 0 packet with the constant e^{i pi/4} phase dropped.

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
    return np.exp(expo) / _SQRT_PI


def classical_center(params: PacketParams, t: float) -> tuple[float, float]:
    """Packet center (xi0 cos wt, +/- eta0 sin wt): the classical ellipse."""
    theta = params.omega * t
    return (
        params.xi0 * math.cos(theta),
        params.chirality.sign * params.eta0 * math.sin(theta),
    )
