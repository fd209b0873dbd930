import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coherent2d import (
    Chirality,
    ModeIndex,
    PacketParams,
    angular_integral,
    auto_truncation,
    build_table,
    coeff_circular,
    coeff_elliptic,
    coeff_quadrature,
    modes_up_to,
)
from coherent2d.expansion import coeff_quadrature_batch, oracle_orders

SQRT_PI = math.sqrt(math.pi)


def trapezoid_angular(m, params, rho, points=256):
    """Direct periodic-trapezoid value of the angular projection integral."""
    phi = 2.0 * math.pi * np.arange(points) / points
    s = params.chirality.sign
    f = np.exp(
        params.xi0 * rho * np.cos(phi)
        + 1j * s * params.eta0 * rho * np.sin(phi)
        - 1j * m * phi
    )
    return complex(f.mean() * 2.0 * math.pi)


class TestCircularCoefficients:
    def test_ground_amplitude(self):
        assert coeff_circular(1.0, ModeIndex(0, 0)) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_negative_m_vanishes(self):
        assert coeff_circular(1.0, ModeIndex(-2, 0)) == 0.0

    def test_nodal_modes_vanish(self):
        assert coeff_circular(1.0, ModeIndex(3, 1)) == 0.0

    def test_log_space_value(self):
        expect = 2.0**4 * math.exp(-2.0) / math.sqrt(24.0)
        assert coeff_circular(2.0, ModeIndex(4, 0)) == pytest.approx(expect, rel=1e-13)

    def test_large_m_does_not_overflow(self):
        c = coeff_circular(3.0, ModeIndex(400, 0))
        assert math.isfinite(c)
        assert c >= 0.0

    def test_point_packet(self):
        assert coeff_circular(0.0, ModeIndex(0, 0)) == 1.0
        assert coeff_circular(0.0, ModeIndex(1, 0)) == 0.0


class TestEllipticCoefficients:
    def test_reduces_to_circular_on_equal_amplitudes(self):
        for xi0 in (0.0, 1.0, 2.5):
            p = PacketParams(xi0, xi0)
            for mode in modes_up_to(8):
                assert coeff_elliptic(p, mode) == pytest.approx(
                    coeff_circular(xi0, mode), abs=1e-15
                )

    def test_straight_line_packet_value(self):
        p = PacketParams(1.0, 0.0)
        assert coeff_elliptic(p, ModeIndex(0, 0)) == pytest.approx(
            math.exp(-0.25), rel=1e-14
        )

    def test_negative_m_value(self):
        p = PacketParams(1.5, 0.5)
        expect = 0.5 * math.exp(-1.125) * math.exp(0.5)
        assert coeff_elliptic(p, ModeIndex(-1, 0)) == pytest.approx(expect, rel=1e-13)

    def test_alternating_sign_in_radial_number(self):
        p = PacketParams(1.0, 0.0)
        for n_r in range(5):
            c = coeff_elliptic(p, ModeIndex(0, n_r))
            assert math.copysign(1.0, c) == (-1.0) ** n_r

    def test_advanced_mirrors_retarded(self):
        ret = PacketParams(1.5, 0.5)
        adv = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        for mode in modes_up_to(8):
            mirrored = ModeIndex(-mode.m, mode.n_r)
            assert coeff_elliptic(adv, mode) == coeff_elliptic(ret, mirrored)

    def test_retarded_positive_m_always_dominates(self):
        # the retarded orbit circulates counter-clockwise whichever semi-axis
        # is longer, so the half_sum amplitude feeds m > 0 in every case
        for xi0, eta0 in [(0.3, 2.1), (2.1, 0.3)]:
            p = PacketParams(xi0, eta0)
            for m in (1, 2, 3):
                pos = coeff_elliptic(p, ModeIndex(m, 0))
                neg = coeff_elliptic(p, ModeIndex(-m, 0))
                assert abs(pos) > abs(neg)

    def test_negative_half_diff_sign(self):
        # eta0 > xi0 makes half_diff negative; odd powers carry its sign
        p = PacketParams(0.3, 2.1)
        assert p.half_diff < 0.0
        assert coeff_elliptic(p, ModeIndex(-3, 0)) < 0.0
        assert coeff_elliptic(p, ModeIndex(-2, 0)) > 0.0


class TestQuadratureOracle:
    def test_ground_state_self_overlap(self):
        q = coeff_quadrature(PacketParams(0.0, 0.0), ModeIndex(0, 0), 16, 32)
        assert q == pytest.approx(1.0 + 0.0j, abs=1e-13)

    @pytest.mark.parametrize("xi0,eta0", [(1.0, 1.0), (1.5, 0.5), (0.3, 2.1)])
    def test_matches_closed_form(self, xi0, eta0):
        p = PacketParams(xi0, eta0)
        for mode in modes_up_to(8):
            q = coeff_quadrature(p, mode, 96, 4 * abs(mode.m) + 64)
            a = coeff_elliptic(p, mode)
            assert abs(q - a) < 1e-10
            assert abs(q.imag) < 1e-12

    def test_matches_closed_form_advanced(self):
        p = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        for mode in modes_up_to(6):
            q = coeff_quadrature(p, mode, 96, 4 * abs(mode.m) + 64)
            assert abs(q - coeff_elliptic(p, mode)) < 1e-10

    def test_warns_below_recommended_orders(self):
        p = PacketParams(1.0, 1.0)
        with pytest.warns(UserWarning, match="radial order"):
            coeff_quadrature(p, ModeIndex(4, 2), radial_order=8, angular_points=64)
        with pytest.warns(UserWarning, match="angular point count"):
            coeff_quadrature(p, ModeIndex(10, 0), radial_order=64, angular_points=48)


class TestBatchedOracle:
    @pytest.mark.parametrize(
        "params",
        [PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED), PacketParams(2.5, 1.0)],
    )
    def test_batch_matches_single_mode_calls(self, params):
        modes = modes_up_to(12)
        radial, angular = oracle_orders(params, 12, 12)
        batch = coeff_quadrature_batch(params, modes, radial, angular)
        for mode, quad in zip(modes, batch):
            assert abs(quad - coeff_quadrature(params, mode, radial, angular)) <= 1e-15

    def test_amplitude_free_orders_at_the_origin(self):
        # a point packet keeps the amplitude-free margins
        assert oracle_orders(PacketParams(0.0, 0.0), 4, 8) == (16, 48)
        assert oracle_orders(PacketParams(0.0, 0.0), 12, 12) == (26, 80)

    def test_orders_grow_with_amplitude(self):
        small = oracle_orders(PacketParams(1.0, 1.0), 12, 12)
        large = oracle_orders(PacketParams(6.0, 3.0), 12, 12)
        assert large[0] > small[0] and large[1] > small[1]
        with pytest.warns(UserWarning, match="angular point count"):
            coeff_quadrature(PacketParams(6.0, 3.0), ModeIndex(-12, 0), large[0], small[1])

    # verify projects N <= 12 at oracle_orders(params, 12, 12) and checks the
    # circular support on N <= 8
    @pytest.mark.parametrize(
        "xi0,eta0", [(2.8, 2.8), (3.0, 3.0), (3.777, 3.777), (6.0, 3.0), (10.0, 5.0)]
    )
    @pytest.mark.parametrize("chirality", list(Chirality))
    def test_meets_verify_tolerances_at_large_amplitudes(self, xi0, eta0, chirality):
        params = PacketParams(xi0, eta0, chirality=chirality)
        modes = modes_up_to(12)
        quads = coeff_quadrature_batch(params, modes, *oracle_orders(params, 12, 12))
        closed = np.array([coeff_elliptic(params, mode) for mode in modes])
        assert np.max(np.abs(quads - closed)) <= 1e-10
        assert np.max(np.abs(quads.imag)) <= 1e-12
        if xi0 == eta0:
            wrong_sign = -1 if chirality is Chirality.RETARDED else 1
            forbidden = [
                abs(q) for mode, q in zip(modes, quads)
                if mode.principal <= 8 and (mode.n_r > 0 or mode.m * wrong_sign > 0)
            ]
            assert max(forbidden) <= 1e-12


class TestAngularIntegral:
    def test_circular_negative_m_vanishes(self):
        p = PacketParams(1.3, 1.3)
        for rho in (0.0, 0.5, 2.0):
            assert angular_integral(-1, p, rho) == 0.0

    def test_circular_closed_form(self):
        p = PacketParams(1.0, 1.0)
        assert angular_integral(2, p, 1.0) == pytest.approx(math.pi, rel=1e-14)
        for m in range(5):
            for rho in (0.3, 1.0, 2.2):
                expect = 2.0 * math.pi * (1.0 * rho) ** m / math.factorial(m)
                assert angular_integral(m, p, rho) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 5])
    def test_series_matches_trapezoid(self, m):
        for params in (PacketParams(1.5, 0.5), PacketParams(0.3, 2.1)):
            for rho in (0.0, 0.7, 1.9, 3.5):
                got = angular_integral(m, params, rho)
                ref = trapezoid_angular(m, params, rho)
                assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_advanced_mirrors_m(self):
        ret = PacketParams(1.5, 0.5)
        adv = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        for m in (-2, 0, 3):
            assert angular_integral(m, adv, 1.1) == angular_integral(-m, ret, 1.1)

    def test_zero_radius(self):
        p = PacketParams(1.5, 0.5)
        assert angular_integral(0, p, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert angular_integral(2, p, 0.0) == 0.0


class TestCoefficientTable:
    def test_point_packet_single_entry(self):
        table = build_table(PacketParams(0.0, 0.0))
        assert dict(table.entries) == {ModeIndex(0, 0): 1.0}
        assert table.tail_mass == 0.0

    def test_circular_support(self):
        table = build_table(PacketParams(1.0, 1.0))
        assert all(mode.m >= 0 and mode.n_r == 0 for mode in table.entries)
        for mode, c in table.entries.items():
            assert c * c == pytest.approx(
                math.exp(-1.0) / math.factorial(mode.m), rel=1e-12
            )

    def test_advanced_circular_support(self):
        table = build_table(PacketParams(1.0, 1.0, chirality=Chirality.ADVANCED))
        assert all(mode.m <= 0 and mode.n_r == 0 for mode in table.entries)

    def test_cutoff_respected(self):
        table = build_table(PacketParams(1.5, 0.5), n_max=6)
        assert all(mode.principal <= 6 for mode in table.entries)

    def test_normalization_at_auto_cutoff(self):
        for xi0 in (0.0, 1.0, 3.0):
            for eta0 in (0.0, 1.5, 3.0):
                table = build_table(PacketParams(xi0, eta0))
                total = math.fsum(c * c for c in table.entries.values())
                assert total >= 1.0 - 1e-12
                assert total + table.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_captured_mass_monotone_in_cutoff(self):
        p = PacketParams(1.5, 0.5)
        previous = -1.0
        for n_max in range(0, 21, 2):
            total = math.fsum(
                c * c for c in build_table(p, n_max=n_max).entries.values()
            )
            assert total >= previous
            previous = total

    def test_rejects_oversized_cutoff(self):
        with pytest.raises(ValueError):
            build_table(PacketParams(1, 1), n_max=10_001)

    def test_entries_read_only(self):
        table = build_table(PacketParams(1.0, 1.0))
        with pytest.raises(TypeError):
            table.entries[ModeIndex(0, 0)] = 2.0

    def test_auto_truncation_grows_with_packet(self):
        assert auto_truncation(PacketParams(0, 0)) < auto_truncation(PacketParams(2, 1))
        assert auto_truncation(PacketParams(2, 1)) < auto_truncation(PacketParams(3, 3))

    @given(
        xi0=st.floats(min_value=0.0, max_value=2.5),
        eta0=st.floats(min_value=0.0, max_value=2.5),
    )
    def test_normalization_random_packets(self, xi0, eta0):
        table = build_table(PacketParams(xi0, eta0))
        total = math.fsum(c * c for c in table.entries.values())
        assert total >= 1.0 - 1e-12

    def test_principal_marginal_is_poisson(self):
        # the two circular quanta are independent Poisson variables, so the
        # level populations follow Poisson((xi0^2 + eta0^2)/2)
        p = PacketParams(1.5, 0.5)
        table = build_table(p)
        s = p.mean_quanta
        level_mass: dict[int, float] = {}
        for mode, c in table.entries.items():
            level_mass[mode.principal] = level_mass.get(mode.principal, 0.0) + c * c
        for big_n in range(21):
            pmf = math.exp(-s + big_n * math.log(s) - math.lgamma(big_n + 1))
            assert level_mass.get(big_n, 0.0) == pytest.approx(pmf, abs=1e-10)
