"""Direct formulas for the coherent packets, as references for the tests.

Each re-derives a special case of ``coherent2d.coherent_2d`` from its own
exponent, so a test can pin the library's factored evaluation against it.
``packet_factors_at`` and ``orbit_moments_at`` are the packet's factors and
the orbit moments one time at a time, which the library takes for all
times in one array pass.
"""

import math

import numpy as np


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
