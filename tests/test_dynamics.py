import math

import numpy as np
import pytest

from coherent2d import (
    Chirality,
    Grid2D,
    ModeIndex,
    PacketParams,
    SpectralEvolver,
    aligned_max_difference,
    build_table,
    classical_center,
    coherent_2d,
    eigenstate,
    evolve_closed_form,
    initial_state,
    make_grid,
    orbit_signed_area,
    trace_orbit,
)
from coherent2d.dynamics import _mirror_start, _principal_fields
from coherent2d.expansion import CoefficientTable
from coherent2d.specialfn import log_factorial

SQRT_PI = math.sqrt(math.pi)


def full_grid_fields(table, grid):
    """Reference per-N fields: every grid point built directly, no mirroring.

    The same grouping by |m|, Laguerre ladder and accumulation order as the
    library, over the whole grid.
    """
    xi, eta = grid.meshes()
    rho, phi = np.hypot(xi, eta), np.arctan2(eta, xi)
    u = rho * rho
    gauss = np.exp(-0.5 * u)
    eiphi = np.exp(1j * phi)
    abs_m = np.abs(table.m)
    fields = {}
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
            table.principal[group].tolist(),
            table.c[group].tolist(),
        )
        for m, n_r, key, c in rows:
            prefactor = (
                c
                * math.exp(0.5 * (log_factorial(n_r) - log_factorial(am + n_r)))
                / SQRT_PI
            )
            contrib = prefactor * base * ladder[n_r]
            contrib = contrib * (angular if m >= 0 else np.conj(angular))
            if key in fields:
                fields[key] += contrib
            else:
                fields[key] = contrib
    return fields


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


def offset_grid(params, points):
    """A grid whose eta axis is shifted by half a step, so it has no mirror."""
    axis = make_grid(params, points=points).xi_axis
    step = axis[1] - axis[0]
    return Grid2D(axis, axis + 0.5 * step, np.zeros((points, points), dtype=complex))


class TestPrincipalFields:
    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "xi0,eta0,points",
        [(1.5, 0.5, 257), (3.0, 1.0, 129), (0.0, 2.0, 128), (2.5, 2.5, 97)],
    )
    def test_half_build_is_bitwise_the_full_build(self, xi0, eta0, points, chirality):
        p = PacketParams(xi0, eta0, chirality=chirality)
        grid = make_grid(p, points=points)
        table = build_table(p)
        first = _mirror_start(grid.eta_axis)
        assert first == points // 2
        assert np.all(grid.eta_axis[first:] >= 0.0)
        fields = _principal_fields(table, grid.xi_axis, grid.eta_axis[first:])
        expect = full_grid_fields(table, grid)
        assert len(fields) == table.n_max + 1
        for big_n, field in enumerate(fields):
            if big_n not in expect:
                assert field is None
                continue
            assert np.array_equal(field, expect[big_n][:, first:])
            # the columns left out are the conjugate mirror image, exactly
            mirrored = np.conj(expect[big_n][:, : -first - 1 : -1])
            assert np.array_equal(expect[big_n][:, :first], mirrored)

    def test_unmirrored_grid_matches_eigenstate_sums(self):
        p = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = offset_grid(p, 65)
        assert _mirror_start(grid.eta_axis) == 0
        table = build_table(p)
        fields = _principal_fields(table, grid.xi_axis, grid.eta_axis)
        xi, eta = grid.meshes()
        rho, phi = np.hypot(xi, eta), np.arctan2(eta, xi)
        expect = {}
        for m, n_r, c in zip(table.m.tolist(), table.n_r.tolist(), table.c.tolist()):
            mode = ModeIndex(m, n_r)
            term = c * eigenstate(mode, rho, phi)
            expect[mode.principal] = expect.get(mode.principal, 0.0) + term
        for big_n, field in enumerate(fields):
            assert (field is None) == (big_n not in expect)
            if field is not None:
                assert np.max(np.abs(field - expect[big_n])) < 1e-12

    def test_level_without_modes_holds_no_array(self):
        p = PacketParams(0.0, 0.0)
        grid = make_grid(p, points=33)
        fields = _principal_fields(build_table(p, n_max=3), grid.xi_axis, grid.eta_axis)
        assert fields[0] is not None
        assert fields[1:] == [None, None, None]


class TestSynthesis:
    @pytest.mark.parametrize(
        "params,points,mirrored",
        [
            (PacketParams(1.5, 0.5), 129, True),
            (PacketParams(3.0, 1.0, chirality=Chirality.ADVANCED), 128, True),
            (PacketParams(2.0, 2.0, omega=2.0), 97, True),
            (PacketParams(2.0, 0.7), 65, False),
        ],
    )
    def test_matches_direct_sum(self, params, points, mirrored):
        grid = make_grid(params, points=points) if mirrored else offset_grid(params, points)
        table = build_table(params)
        fields = full_grid_fields(table, grid)
        evolver = SpectralEvolver(table, grid)
        for t in (0.0, 0.7, 3.1, 29.3):
            direct = sum(
                np.exp(-1j * (big_n + 1) * params.omega * t) * field
                for big_n, field in fields.items()
            )
            assert np.max(np.abs(evolver.at(t).values - direct)) < 1e-13

    def test_empty_table_synthesizes_zero(self):
        p = PacketParams(1.0, 0.0)
        empty = CoefficientTable(p, 2, [], [], [], tail_mass=1.0)
        with pytest.warns(UserWarning, match="tail mass"):
            evolver = SpectralEvolver(empty, make_grid(p, points=33))
        assert not np.any(evolver.at(0.3).values)


class TestTrajectory:
    @pytest.mark.parametrize(
        "params",
        [
            PacketParams(1.5, 0.5),
            PacketParams(3.7, 0.9, chirality=Chirality.ADVANCED),
            PacketParams(0.0, 2.2, omega=0.6),
            PacketParams(4.0, 4.0),
        ],
    )
    def test_moments_match_grid_sums(self, params):
        grid = make_grid(params, points=129)
        xi, eta = grid.meshes()
        cell = grid.cell_area
        times = [0.0, 0.4, 2.9, 17.3]
        for t, sample in zip(times, trace_orbit(params, times, grid)):
            density = np.abs(coherent_2d(params, xi, eta, t)) ** 2
            mass = float(np.sum(density)) * cell
            cx = float(np.sum(xi * density)) * cell / mass
            cy = float(np.sum(eta * density)) * cell / mass
            expect = {
                "norm": mass,
                "centroid_xi": cx,
                "centroid_eta": cy,
                "var_xi": float(np.sum((xi - cx) ** 2 * density)) * cell / mass,
                "var_eta": float(np.sum((eta - cy) ** 2 * density)) * cell / mass,
                "peak_density": float(np.max(density)),
            }
            for name, value in expect.items():
                assert abs(getattr(sample, name) - value) < 1e-13, name

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
