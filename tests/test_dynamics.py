import math

import numpy as np
import pytest

from coherent2d import (
    Chirality,
    PacketParams,
    SpectralEvolver,
    aligned_max_difference,
    build_table,
    classical_center,
    coherent_2d,
    evolve_closed_form,
    initial_state,
    make_grid,
    orbit_signed_area,
    trace_orbit,
)


class TestClosedFormEvolution:
    def test_t0_equals_initial_state_up_to_phase(self, elliptic_params, elliptic_grid):
        closed = evolve_closed_form(elliptic_params, elliptic_grid, 0.0)
        xi, eta = elliptic_grid.meshes()
        expect = np.exp(0.25j * math.pi) * initial_state(elliptic_params, xi, eta)
        assert np.max(np.abs(closed.values - expect)) < 1e-14

    def test_peak_density_on_orbit(self, elliptic_params, elliptic_grid):
        for t in (0.0, 1.3, 4.7):
            cx, cy = classical_center(elliptic_params, t)
            value = coherent_2d(elliptic_params, cx, cy, t)
            assert abs(value) ** 2 == pytest.approx(1.0 / math.pi, rel=1e-12)
            # the sampled grid maximum sits within one cell of the true peak
            closed = evolve_closed_form(elliptic_params, elliptic_grid, t)
            assert np.max(closed.density()) == pytest.approx(1.0 / math.pi, rel=5e-3)

    def test_full_period_restores_density(self, elliptic_params, elliptic_grid):
        d0 = evolve_closed_form(elliptic_params, elliptic_grid, 0.4).density()
        d1 = evolve_closed_form(
            elliptic_params, elliptic_grid, 0.4 + 2.0 * math.pi
        ).density()
        assert np.max(np.abs(d0 - d1)) < 1e-12

    def test_norm_conserved(self, elliptic_params, elliptic_grid):
        norms = [
            evolve_closed_form(elliptic_params, elliptic_grid, t).norm()
            for t in (0.0, 0.9, 2.2, 5.5)
        ]
        for norm in norms:
            assert norm == pytest.approx(1.0, abs=1e-9)


class TestSpectralEvolution:
    def test_point_packet_is_stationary_mode(self):
        p = PacketParams(0.0, 0.0)
        grid = make_grid(p, points=65)
        table = build_table(p)
        t = 0.8
        spectral = SpectralEvolver(table, grid).at(t)
        xi, eta = grid.meshes()
        expect = (
            np.exp(-1j * t)
            * np.exp(-0.5 * (xi**2 + eta**2))
            / math.sqrt(math.pi)
        )
        assert np.max(np.abs(spectral.values - expect)) < 1e-14

    def test_agrees_with_closed_form(self, elliptic_params, elliptic_grid):
        table = build_table(elliptic_params)
        assert table.tail_mass < 1e-10
        evolver = SpectralEvolver(table, elliptic_grid)
        for t in (0.0, 0.7, math.pi, 5.1):
            closed = evolve_closed_form(elliptic_params, elliptic_grid, t)
            err = aligned_max_difference(closed, evolver.at(t))
            assert err < 1e-8

    def test_norm_matches_captured_mass(self, elliptic_params, elliptic_grid):
        table = build_table(elliptic_params)
        spectral = SpectralEvolver(table, elliptic_grid).at(1.1)
        assert spectral.norm() == pytest.approx(1.0 - table.tail_mass, abs=1e-9)

    def test_warns_on_heavy_tail(self, elliptic_params, elliptic_grid):
        table = build_table(elliptic_params, n_max=6)
        with pytest.warns(UserWarning, match="tail mass"):
            SpectralEvolver(table, elliptic_grid).at(0.0)

    def test_omega_rescales_time(self):
        fast = PacketParams(1.0, 0.5, omega=2.0)
        slow = PacketParams(1.0, 0.5, omega=1.0)
        grid = make_grid(fast, points=65)
        fast_field = evolve_closed_form(fast, grid, 0.35)
        slow_field = evolve_closed_form(slow, grid, 0.7)
        # same phase omega*t means the same density snapshot
        assert np.max(np.abs(fast_field.density() - slow_field.density())) < 1e-12
        spectral = SpectralEvolver(build_table(fast), grid).at(0.35)
        assert aligned_max_difference(fast_field, spectral) < 1e-8


class TestTrajectory:
    def test_centroid_tracks_classical_ellipse(self, elliptic_params, elliptic_grid, period):
        times = [period * k / 64 for k in range(64)]
        samples = trace_orbit(elliptic_params, times, elliptic_grid)
        for t, s in zip(times, samples):
            cx, cy = classical_center(elliptic_params, t)
            assert abs(s.centroid_xi - cx) < 1e-6
            assert abs(s.centroid_eta - cy) < 1e-6
            assert abs(s.var_xi - 0.5) < 1e-6
            assert abs(s.var_eta - 0.5) < 1e-6
            assert s.norm == pytest.approx(1.0, abs=1e-9)

    def test_nonspreading_across_packets(self, period):
        times = [period * k / 32 for k in range(32)]
        for xi0, eta0 in [(0.0, 0.0), (1.0, 1.0), (3.0, 0.5)]:
            p = PacketParams(xi0, eta0)
            samples = trace_orbit(p, times, make_grid(p, points=129))
            for s in samples:
                assert abs(s.var_xi - 0.5) < 1e-6
                assert abs(s.var_eta - 0.5) < 1e-6

    def test_orbit_closure(self, elliptic_params, elliptic_grid, period):
        t0 = 0.7
        first, second = trace_orbit(
            elliptic_params, [t0, t0 + period], elliptic_grid
        )
        assert abs(first.centroid_xi - second.centroid_xi) < 1e-9
        assert abs(first.centroid_eta - second.centroid_eta) < 1e-9

    def test_quarter_period_position(self, elliptic_params, elliptic_grid):
        (sample,) = trace_orbit(elliptic_params, [0.5 * math.pi], elliptic_grid)
        assert sample.centroid_xi == pytest.approx(0.0, abs=1e-6)
        assert sample.centroid_eta == pytest.approx(0.5, abs=1e-6)

    def test_orientation_flips_with_chirality(self, period):
        times = [period * k / 64 for k in range(64)]
        ret = PacketParams(1.5, 0.5)
        adv = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = make_grid(ret, points=129)
        area_ret = orbit_signed_area(trace_orbit(ret, times, grid))
        area_adv = orbit_signed_area(trace_orbit(adv, times, grid))
        assert area_ret > 0.0
        assert area_adv < 0.0
        assert abs(area_adv + area_ret) < 1e-12

    def test_rejects_under_spanned_grid(self, elliptic_params):
        small = make_grid(elliptic_params, half_width=4.0, points=65)
        with pytest.raises(ValueError, match="span"):
            trace_orbit(elliptic_params, [0.0], small)

    def test_ellipse_residual(self, elliptic_params, elliptic_grid, period):
        times = [period * k / 32 for k in range(32)]
        for s in trace_orbit(elliptic_params, times, elliptic_grid):
            residual = (
                (s.centroid_xi / elliptic_params.xi0) ** 2
                + (s.centroid_eta / elliptic_params.eta0) ** 2
                - 1.0
            )
            assert abs(residual) < 1e-6


class TestPhaseAlignment:
    def test_detects_real_difference(self, elliptic_params, elliptic_grid):
        a = evolve_closed_form(elliptic_params, elliptic_grid, 0.0)
        b = evolve_closed_form(elliptic_params, elliptic_grid, 0.3)
        assert aligned_max_difference(a, b) > 1e-3

    def test_quotients_constant_phase(self, elliptic_params, elliptic_grid):
        a = evolve_closed_form(elliptic_params, elliptic_grid, 0.6)
        b = a.with_values(a.values * np.exp(0.77j))
        assert aligned_max_difference(a, b) < 1e-13
