import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coherent2d import (
    Chirality,
    ModeIndex,
    PacketParams,
    PhysicalUnits,
    classical_center,
    coherent_2d,
    eigenstate,
    gauss_laguerre,
    make_grid,
    modes_up_to,
    to_dimensionless,
)
from reference_packets import coherent_1d, initial_state

SQRT_PI = math.sqrt(math.pi)


def polar_quadrature_mesh(radial_order=48, angular_points=96):
    """Nodes for int f(rho, phi) e^{-rho^2} rho drho dphi via u = rho^2."""
    rule = gauss_laguerre(radial_order)
    phi = 2.0 * math.pi * np.arange(angular_points) / angular_points
    return rule, phi


class TestModeIndex:
    def test_principal_number(self):
        assert ModeIndex(-3, 2).principal == 7
        assert ModeIndex(0, 0).principal == 0

    def test_rejects_negative_radial(self):
        with pytest.raises(ValueError):
            ModeIndex(1, -1)

    def test_degeneracy_count(self):
        # the number of modes at each energy level equals the level index + 1
        modes = modes_up_to(20)
        for big_n in range(21):
            count = sum(1 for mode in modes if mode.principal == big_n)
            assert count == big_n + 1

    def test_modes_sorted_by_level_then_m(self):
        modes = modes_up_to(5)
        keys = [(mode.principal, mode.m) for mode in modes]
        assert keys == sorted(keys)


class TestPacketParams:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PacketParams(-0.1, 0.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            PacketParams(1.0, 1.0, omega=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        for args in [(value, 1.0), (1.0, value), (1.0, 1.0, "retarded", value)]:
            with pytest.raises(ValueError, match="finite"):
                PacketParams(*args)

    def test_chirality_from_string(self):
        assert PacketParams(1, 1, chirality="advanced").chirality is Chirality.ADVANCED

    @given(
        xi0=st.floats(min_value=0.0, max_value=10.0),
        eta0=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_amplitude_decomposition_identities(self, xi0, eta0):
        p = PacketParams(xi0, eta0)
        a, b = p.half_diff, p.half_sum
        assert b >= abs(a) >= 0.0
        assert b * b - a * a == pytest.approx(xi0 * eta0, abs=1e-12, rel=1e-12)
        assert a * a + b * b == pytest.approx(p.mean_quanta, abs=1e-12, rel=1e-12)


class TestUnits:
    def test_unit_scale(self):
        params = to_dimensionless(PhysicalUnits(mass=1, omega=1, hbar=1, x0=2, y0=1))
        assert (params.xi0, params.eta0) == (2.0, 1.0)

    def test_heavy_mass_scale(self):
        params = to_dimensionless(PhysicalUnits(mass=4, omega=1, hbar=1, x0=1, y0=0))
        assert params.xi0 == pytest.approx(2.0, abs=0)
        assert params.eta0 == 0.0

    def test_ground_state(self):
        params = to_dimensionless(PhysicalUnits(mass=3, omega=2, hbar=1.5))
        assert (params.xi0, params.eta0) == (0.0, 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalUnits(mass=0, omega=1, hbar=1)

    @pytest.mark.parametrize("field", ["mass", "omega", "hbar", "x0", "y0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        values = dict(mass=1.0, omega=1.0, hbar=1.0, x0=1.0, y0=1.0)
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            PhysicalUnits(**values)


class TestEigenstate:
    def test_ground_state_value(self):
        for rho in (0.0, 0.8, 2.3):
            got = eigenstate(ModeIndex(0, 0), rho, 1.234)
            assert got == pytest.approx(math.exp(-0.5 * rho * rho) / SQRT_PI, rel=1e-14)
            assert got.imag == 0.0

    def test_single_quantum_value(self):
        got = eigenstate(ModeIndex(1, 0), 1.0, 0.0)
        assert got == pytest.approx(math.exp(-0.5) / SQRT_PI, rel=1e-12)

    def test_normalization_by_quadrature(self):
        rule, phi = polar_quadrature_mesh()
        rho = np.sqrt(rule.nodes)
        for mode in modes_up_to(10):
            vals = eigenstate(mode, rho[:, None], phi[None, :])
            # |psi|^2 carries e^{-u}; re-weight so the rule sees the rest
            f = np.abs(vals) ** 2 * np.exp(rule.nodes)[:, None]
            angular = f.mean(axis=1) * 2.0 * math.pi
            norm = 0.5 * float(np.dot(rule.weights, angular))
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_by_quadrature(self):
        rule, phi = polar_quadrature_mesh()
        rho = np.sqrt(rule.nodes)
        modes = modes_up_to(8)
        vals = np.array([eigenstate(mode, rho[:, None], phi[None, :]) for mode in modes])
        boost = np.exp(rule.nodes)[:, None]
        for i, mode_i in enumerate(modes):
            for j in range(i, len(modes)):
                prod = np.conj(vals[i]) * vals[j] * boost
                angular = prod.mean(axis=1) * 2.0 * math.pi
                overlap = 0.5 * complex(np.dot(rule.weights, angular))
                expect = 1.0 if i == j else 0.0
                assert abs(overlap - expect) < 1e-10


class TestCoherent1D:
    def test_ground_peak(self):
        assert coherent_1d(0.0, 0.0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)

    @pytest.mark.parametrize("xi0,t", [(0.5, 0.0), (2.0, 0.7), (3.0, 4.2)])
    def test_peak_density_constant(self, xi0, t):
        peak = abs(coherent_1d(xi0, xi0 * math.cos(t), t)) ** 2
        assert peak == pytest.approx(1.0 / SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.7, math.pi])
    def test_normalization(self, t):
        xi0 = 1.3
        xs = np.linspace(-xi0 - 9.0, xi0 + 9.0, 4001)
        density = np.abs(coherent_1d(xi0, xs, t)) ** 2
        # the trapezoid rule, written out: numpy 1.24 has no np.trapezoid
        norm = float(np.sum(np.diff(xs) * (density[1:] + density[:-1]) / 2.0))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_density_translates_rigidly(self):
        xi0, t = 1.7, 2.3
        xs = np.linspace(-8.0, 8.0, 301)
        density = np.abs(coherent_1d(xi0, xs, t)) ** 2
        expect = np.exp(-((xs - xi0 * math.cos(t)) ** 2)) / SQRT_PI
        assert np.max(np.abs(density - expect)) < 1e-13


class TestCoherent2D:
    def test_stationary_ground_state(self):
        p = PacketParams(0.0, 0.0)
        for t in (0.0, 1.1, 4.0):
            val = coherent_2d(p, 0.3, -0.4, t)
            assert abs(val) ** 2 == pytest.approx(math.exp(-0.25) / math.pi, rel=1e-12)

    def test_peak_density(self):
        p = PacketParams(1.2, 0.7)
        for t in (0.0, 0.9, 2.5, 5.8):
            cx, cy = classical_center(p, t)
            val = coherent_2d(p, cx, cy, t)
            assert abs(val) ** 2 == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_matches_initial_state_at_t0(self):
        for chirality in Chirality:
            p = PacketParams(1.5, 0.5, chirality=chirality)
            grid = make_grid(p, half_width=5.0, points=101)
            xi, eta = grid.meshes()
            phase = np.exp(1j * chirality.sign * math.pi / 4)
            diff = coherent_2d(p, xi, eta, 0.0) - phase * initial_state(p, xi, eta)
            assert np.max(np.abs(diff)) < 1e-14

    def test_shape_preservation(self):
        axis = np.linspace(-8.0, 8.0, 81)
        xi, eta = np.meshgrid(axis, axis, indexing="ij")
        for xi0, eta0 in [(1.0, 1.0), (1.5, 0.5), (3.0, 3.0), (0.0, 2.0)]:
            p = PacketParams(xi0, eta0)
            for t in (0.0, 0.4, 0.5 * math.pi, 2.2, math.pi, 4.9):
                cx, cy = classical_center(p, t)
                density = np.abs(coherent_2d(p, xi, eta, t)) ** 2
                expect = np.exp(-((xi - cx) ** 2) - (eta - cy) ** 2) / math.pi
                assert np.max(np.abs(density - expect)) < 1e-12

    def test_periodicity_of_density(self):
        p = PacketParams(2.0, 1.0)
        grid = make_grid(p, points=101)
        xi, eta = grid.meshes()
        for t in (0.3, 1.9):
            d0 = np.abs(coherent_2d(p, xi, eta, t)) ** 2
            d1 = np.abs(coherent_2d(p, xi, eta, t + 2.0 * math.pi)) ** 2
            assert np.max(np.abs(d0 - d1)) < 1e-12

    def test_chirality_mirror_density(self):
        ret = PacketParams(1.5, 0.5, chirality=Chirality.RETARDED)
        adv = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = make_grid(ret, points=101)
        xi, eta = grid.meshes()
        for t in (0.0, 0.8, 2.9):
            d_adv = np.abs(coherent_2d(adv, xi, eta, t)) ** 2
            d_ret_mirror = np.abs(coherent_2d(ret, xi, -eta, t)) ** 2
            assert np.max(np.abs(d_adv - d_ret_mirror)) < 1e-12

    def test_matches_high_precision_exponent(self):
        # the seed's joint exponent at 40 digits, at 200 seeded points near
        # the packet center, amplitudes up to 20 and t in [-10, 30]
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(20260501)
        worst = 0.0
        for k in range(200):
            chirality = (Chirality.RETARDED, Chirality.ADVANCED)[k % 2]
            xi0, eta0 = rng.uniform(0.0, 20.0, size=2)
            p = PacketParams(xi0, eta0, chirality=chirality)
            t = float(rng.uniform(-10.0, 30.0))
            cx, cy = classical_center(p, t)
            xi = cx + float(rng.uniform(-2.0, 2.0))
            eta = cy + float(rng.uniform(-2.0, 2.0))
            s = chirality.sign
            theta, x, y = mp.mpf(t), mp.mpf(xi), mp.mpf(eta)
            a, b = mp.mpf(p.xi0), mp.mpf(p.eta0)
            expo = (
                -1j * theta
                + 0.25j * s * mp.pi
                - (x * x + y * y) / 2
                - a * a / 4 * (1 + mp.exp(2j * theta))
                - b * b / 4 * (1 - mp.exp(2j * theta))
                + (a * x + 1j * s * b * y) * mp.exp(-1j * theta)
            )
            expect = complex(mp.exp(expo) / mp.sqrt(mp.pi))
            worst = max(worst, abs(coherent_2d(p, xi, eta, t) - expect))
        assert worst < 1e-13

    def test_axes_and_meshes_agree_bitwise(self):
        for chirality in Chirality:
            p = PacketParams(2.5, 1.3, chirality=chirality)
            grid = make_grid(p, points=65)
            xi, eta = grid.meshes()
            column, row = grid.xi_axis[:, None], grid.eta_axis[None, :]
            for t in (0.0, 1.7, 23.4):
                on_axes = coherent_2d(p, column, row, t)
                assert on_axes.shape == xi.shape
                assert np.array_equal(on_axes, coherent_2d(p, xi, eta, t))

    def test_initial_state_trivial_value(self):
        assert initial_state(PacketParams(0, 0), 0.0, 0.0) == pytest.approx(
            1.0 / SQRT_PI, rel=1e-15
        )

    def test_initial_state_formula_values(self):
        p = PacketParams(1.0, 1.0)
        # exponent -(xi^2+eta^2)/2 - xi0^2/2 + xi0 xi + i eta0 eta, directly
        assert initial_state(p, 1.0, 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-14)
        val = initial_state(p, 0.0, 1.0)
        assert abs(val) == pytest.approx(math.exp(-1.0) / SQRT_PI, rel=1e-14)
        expect = math.exp(-1.0) * complex(math.cos(1.0), math.sin(1.0)) / SQRT_PI
        assert val == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("xi0,eta0", [(1.0, 1.0), (1.5, 0.5), (2.0, 0.0)])
    def test_initial_state_normalization(self, xi0, eta0):
        p = PacketParams(xi0, eta0)
        grid = make_grid(p, points=257)
        xi, eta = grid.meshes()
        norm = float(np.sum(np.abs(initial_state(p, xi, eta)) ** 2)) * grid.cell_area
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestClassicalCenter:
    def test_start_of_orbit(self):
        assert classical_center(PacketParams(1.5, 0.5), 0.0) == (1.5, 0.0)

    def test_quarter_period_retarded(self):
        cx, cy = classical_center(PacketParams(1.5, 0.5), 0.5 * math.pi)
        assert cx == pytest.approx(0.0, abs=1e-15)
        assert cy == pytest.approx(0.5, abs=1e-15)

    def test_quarter_period_advanced(self):
        cx, cy = classical_center(
            PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED), 0.5 * math.pi
        )
        assert cy == pytest.approx(-0.5, abs=1e-15)

    def test_omega_scaling(self):
        p = PacketParams(1.0, 1.0, omega=2.0)
        cx, cy = classical_center(p, 0.25 * math.pi)
        assert cx == pytest.approx(0.0, abs=1e-15)
        assert cy == pytest.approx(1.0, abs=1e-15)

    @given(
        xi0=st.floats(min_value=0.1, max_value=3.0),
        eta0=st.floats(min_value=0.1, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_ellipse_identity(self, xi0, eta0, t):
        p = PacketParams(xi0, eta0)
        cx, cy = classical_center(p, t)
        assert (cx / xi0) ** 2 + (cy / eta0) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestGrid:
    def test_default_extent(self):
        grid = make_grid(PacketParams(1.5, 0.5))
        assert grid.xi_axis.size == 257
        assert grid.xi_axis[0] == pytest.approx(-7.5, abs=1e-12)
        assert grid.xi_axis[-1] == pytest.approx(7.5, abs=1e-12)

    def test_axes_antisymmetric(self):
        grid = make_grid(PacketParams(0.0, 3.0), points=65)
        assert np.all(grid.xi_axis == -grid.xi_axis[::-1])
        assert grid.xi_axis[32] == 0.0

    def test_value_shape_checked(self):
        grid = make_grid(PacketParams(1, 1), points=65)
        with pytest.raises(ValueError):
            grid.with_values(np.zeros((3, 3)))
        other = grid.with_values(np.ones((65, 65)))
        assert other.xi_axis is grid.xi_axis and other.eta_axis is grid.eta_axis
        assert other.values.dtype == complex and np.all(other.values == 1.0)
        assert np.all(grid.values == 0.0)

    def test_rejects_non_uniform_axis(self):
        from coherent2d import Grid2D

        with pytest.raises(ValueError):
            Grid2D(
                np.array([0.0, 1.0, 3.0]),
                np.array([0.0, 1.0, 2.0]),
                np.zeros((3, 3), dtype=complex),
            )
