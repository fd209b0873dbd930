import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherent2d import (
    Chirality,
    Grid2D,
    ModeIndex,
    PacketParams,
    SpectralEvolver,
    aligned_max_difference,
    build_table,
    classical_center,
    closed_form_factors,
    coherent_2d,
    eigenstate,
    evolve_closed_form,
    make_grid,
    orbit_signed_area,
    trace_orbit,
)
from coherent2d import dynamics
from coherent2d.dynamics import (
    _SERIAL_PRODUCT,
    _banded_product,
    _bands,
    _hermite_functions,
    _krawtchouk_rows,
    _cartesian_coefficients,
    _mirror_start,
    _runs_of,
)
from coherent2d.expansion import CoefficientTable
from coherent2d.specialfn import log_factorial
from coherent2d.states import _default_half_width
from reference_packets import (
    FieldEvolver,
    initial_state,
    orbit_moments_at,
    packet_factors_at,
    principal_fields,
)

SQRT_PI = math.sqrt(math.pi)


def full_grid_fields(table, grid):
    """Reference per-N fields by the direct polar build, on every grid point.

    rho^|m|, e^{i m phi}, log-factorial prefactors and the unnormalized
    Laguerre ladder, one complex term per mode: an algorithm independent of
    the library's build in the Cartesian Hermite basis.
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


def evolver_planes(evolver, lines=4):
    """The planes of the levels 0..top that the evolver builds, run by run,
    over its quadrant (the whole of an axis that is not mirrored), as one
    (top + 1, rows, cols) array, and the runs."""
    rows, cols = evolver._hx.shape[1], evolver._hy.shape[1]
    planes = np.empty((evolver._top + 1, rows, cols), dtype=complex)
    runs = evolver._runs(lines)
    build = evolver._builder(runs[0].stop - runs[0].start)
    for run in runs:
        for a, b, (re, im) in build(run):
            planes.real[a:b, run], planes.imag[a:b, run] = re, im
    return planes, runs


def built_fields(table, grid, lines=4):
    """The evolver's levels 0..top and their planes on ``grid`` with ``table``."""
    evolver = SpectralEvolver(table, grid)
    return np.arange(evolver._top + 1), evolver_planes(evolver, lines)[0]


def quadrant(grid):
    """The index of the evolver's quadrant in grid-shaped arrays."""
    return (slice(_mirror_start(grid.xi_axis), None), slice(_mirror_start(grid.eta_axis), None))


def fixed_phase_difference(params, grid, t, frame):
    """max |closed - e^{i s pi/4} frame| over the grid, the closed form at t:
    the spectral comparison at the one constant phase the conventions fix."""
    closed = evolve_closed_form(params, grid, t).values
    phase = np.exp(0.25j * math.pi * params.chirality.sign)
    return float(np.max(np.abs(closed - phase * frame)))


def scale_ulps(got, expect, scale=None):
    """max |got - expect| in units of the last place of max |scale|, by
    default of max |expect|."""
    scale = expect if scale is None else scale
    return float(np.max(np.abs(got - expect)) / np.spacing(np.max(np.abs(scale))))


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


def offset_grid(params, points, xi_shift=0.0, eta_shift=0.5):
    """A grid with axes shifted by fractions of a step; a shifted axis has no mirror."""
    axis = make_grid(params, points=points).xi_axis
    step = axis[1] - axis[0]
    return Grid2D(
        axis + xi_shift * step,
        axis + eta_shift * step,
        np.zeros((points, points), dtype=complex),
    )


def complex_fields(built):
    """The builder's (levels, fields) as complex arrays keyed by N."""
    levels, fields = built
    return dict(zip(levels.tolist(), fields))


def eigenstate_sum(table, grid, t):
    """sum C e^{-i (N+1) w t} psi_{m n_r} on the grid, one ``eigenstate`` per mode."""
    xi, eta = grid.meshes()
    rho, phi = np.hypot(xi, eta), np.arctan2(eta, xi)
    total = np.zeros(xi.shape, dtype=complex)
    for m, n_r, c in zip(table.m.tolist(), table.n_r.tolist(), table.c.tolist()):
        mode = ModeIndex(m, n_r)
        phase = np.exp(-1j * (mode.principal + 1) * table.params.omega * t)
        total += c * phase * eigenstate(mode, rho, phi)
    return total


class TestPrincipalFields:
    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "xi0,eta0,points",
        [(1.5, 0.5, 257), (3.0, 1.0, 129), (0.0, 2.0, 128), (2.5, 2.5, 97)],
    )
    def test_half_build_is_bitwise_the_full_build(self, xi0, eta0, points, chirality):
        """The planes built run by run on the quadrant are bitwise those of
        the reference build on the full axes there, and the other three
        quadrants of the full build are their exact images, which the image
        table reads."""
        p = PacketParams(xi0, eta0, chirality=chirality)
        grid = make_grid(p, points=points)
        table = build_table(p)
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)
        assert row0 == col0 == points // 2
        assert np.all(grid.xi_axis[row0:] >= 0.0)
        levels, planes = built_fields(table, grid)
        full_levels, whole = principal_fields(table, grid.xi_axis, grid.eta_axis)
        assert np.array_equal(levels, full_levels)
        assert np.array_equal(levels, np.unique(table.principal))
        assert np.array_equal(planes, whole[:, row0:, col0:])
        for big_n, field in zip(levels.tolist(), whole):
            # F(xi, -eta) = conj F(xi, eta); F(-xi, eta) = (-1)^N conj F(xi, eta)
            sign = (-1) ** big_n
            re, im = field.real, field.imag
            assert np.array_equal(re[:, ::-1], re)
            assert np.array_equal(im[:, ::-1], -im)
            assert np.array_equal(re[::-1, :], sign * re)
            assert np.array_equal(im[::-1, :], -sign * im)

    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "params,points",
        [(PacketParams(1.5, 0.5), 129), (PacketParams(3.0, 1.0), 128),
         (PacketParams(4.0, 4.0), 97)],
    )
    def test_matches_the_polar_reference(self, params, points, chirality):
        """Within 1e-13 of the direct rho^|m|, e^{i m phi} build on every point."""
        p = PacketParams(params.xi0, params.eta0, chirality=chirality)
        grid = make_grid(p, points=points)
        table = build_table(p)
        fields = complex_fields(built_fields(table, grid))
        expect = full_grid_fields(table, grid)
        assert fields.keys() == expect.keys()
        for big_n, field in fields.items():
            assert np.max(np.abs(field - expect[big_n][quadrant(grid)])) < 1e-13

    def test_unmirrored_grid_matches_eigenstate_sums(self):
        p = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = offset_grid(p, 65)
        assert _mirror_start(grid.eta_axis) == 0
        table = build_table(p)
        fields = complex_fields(built_fields(table, grid))
        xi, eta = (mesh[quadrant(grid)] for mesh in grid.meshes())
        rho, phi = np.hypot(xi, eta), np.arctan2(eta, xi)
        expect = {}
        for m, n_r, c in zip(table.m.tolist(), table.n_r.tolist(), table.c.tolist()):
            mode = ModeIndex(m, n_r)
            term = c * eigenstate(mode, rho, phi)
            expect[mode.principal] = expect.get(mode.principal, 0.0) + term
        assert fields.keys() == expect.keys()
        for big_n, field in fields.items():
            assert np.max(np.abs(field - expect[big_n])) < 1e-12

    @pytest.mark.parametrize(
        "xi_shift,eta_shift,points", [(0.0, 0.5, 65), (0.25, 0.0, 65), (0.0, 0.5, 64)]
    )
    def test_one_mirrored_axis_synthesizes_eigenstate_sums(self, xi_shift, eta_shift, points):
        p = PacketParams(2.0, 0.7, chirality=Chirality.ADVANCED)
        grid = offset_grid(p, points, xi_shift, eta_shift)
        starts = (_mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis))
        assert sorted(starts) == [0, points // 2]
        table = build_table(p)
        evolver = SpectralEvolver(table, grid)
        for t in (0.0, 1.9):
            err = np.max(np.abs(evolver.at(t).values - eigenstate_sum(table, grid, t)))
            assert err < 1e-12

    def test_level_without_modes_holds_no_array(self):
        p = PacketParams(0.0, 0.0)
        grid = make_grid(p, points=33)
        levels, fields = built_fields(build_table(p, n_max=3), grid)
        assert levels.tolist() == [0]
        assert fields.shape == (1, 17, 17)

    def test_finite_where_the_radial_power_overflows(self):
        """A cutoff far past the packet on a wide, coarse grid: rho^|m| is
        inf at the corners, the Hermite functions stay finite there."""
        p = PacketParams(1.5, 0.5)
        grid = make_grid(p, half_width=60.0, points=33)
        table = build_table(p, n_max=170)
        assert int(np.abs(table.m).max()) == 170
        xi, eta = grid.meshes()
        rho = np.hypot(xi, eta)
        overflowing = 170 * np.log10(rho, where=rho > 0, out=np.zeros_like(rho)) > 308
        assert np.count_nonzero(overflowing) >= 4
        levels, fields = built_fields(table, grid)
        assert levels.size == 171
        assert np.count_nonzero(overflowing[quadrant(grid)]) >= 1
        assert np.all(np.isfinite(fields[:, overflowing[quadrant(grid)]]))
        assert np.all(np.isfinite(fields))
        assert np.all(np.isfinite(SpectralEvolver(table, grid).at(0.4).values))

    @settings(max_examples=5)
    @given(
        xi0=st.floats(min_value=0.0, max_value=20.0),
        eta0=st.floats(min_value=0.0, max_value=20.0),
        chirality=st.sampled_from(list(Chirality)),
    )
    def test_finite_up_to_amplitude_20(self, xi0, eta0, chirality):
        """Every field is finite at the automatic cutoff on a grid that
        reaches the default half width, where u is largest at its corners."""
        p = PacketParams(xi0, eta0, chirality=chirality)
        grid = make_grid(p, points=17)
        assert grid.xi_axis[-1] == pytest.approx(_default_half_width(p))
        _, fields = built_fields(build_table(p), grid)
        assert np.all(np.isfinite(fields))

    def test_finite_at_amplitude_28(self):
        """Past u ~ 1490 e^{-u/2} underflows; the Hermite functions carry
        their own binary exponents, so none is zero where the product of two
        of them is a double."""
        p = PacketParams(28.0, 0.0)
        grid = make_grid(p, points=17)
        with np.errstate(over="raise", invalid="raise"):
            _, fields = built_fields(build_table(p), grid)
        assert np.all(np.isfinite(fields))


def krawtchouk_matrix(n):
    """W[k, j] = w_k of mode m = 2 j - n of level n, assembled from the rows
    ``_krawtchouk_rows`` yields and the reflection w_{n-k} = (-1)^{n-} w_k."""
    m = np.arange(-n, n + 1, 2)
    w = np.empty((n + 1, n + 1))
    for k, lo, q, (b,) in _krawtchouk_rows(np.full(n + 1, n), m):
        assert lo == 0
        w[k] = b * q
        w[n - k] = np.where((n - m) // 2 % 2, -w[k], w[k])
    return m, w


class TestCartesianRotation:
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_single_modes_are_eigenstates(self, mirrored):
        """A table of one mode with C = 1 gives that polar eigenstate, for
        every (m, n_r) with N <= 8 and m of both signs: the rotation's sign
        convention psi_{m,n_r} = (-1)^{n_r} |n+, n-> and d_k = i^k r_k. The
        levels below N hold no mode, and their planes are exactly 0."""
        p = PacketParams(0.0, 0.0)
        grid = make_grid(p, half_width=5.0, points=33) if mirrored else offset_grid(p, 33, 0.3)
        xi, eta = (mesh[quadrant(grid)] for mesh in grid.meshes())
        rho, phi = np.hypot(xi, eta), np.arctan2(eta, xi)
        for big_n in range(9):
            for m in range(-big_n, big_n + 1, 2):
                mode = ModeIndex(m, (big_n - abs(m)) // 2)
                table = CoefficientTable(p, big_n, [m], [mode.n_r], [1.0])
                levels, fields = built_fields(table, grid)
                assert levels.tolist() == list(range(big_n + 1))
                assert not np.any(fields[:big_n])
                expect = eigenstate(mode, rho, phi)
                assert np.max(np.abs(fields[big_n] - expect)) < 1e-14, (m, mode.n_r)

    @pytest.mark.parametrize("n", [58, 423])
    def test_rows_are_orthonormal_eigenvectors(self, n):
        """Column m of W is the unit eigenvector of J_n for eigenvalue m,
        and W is orthogonal, to 1e-12."""
        m, w = krawtchouk_matrix(n)
        assert np.max(np.abs(w.T @ w - np.eye(n + 1))) <= 1e-12
        k = np.arange(n)
        off = np.sqrt((n - k) * (k + 1.0))
        j_w = np.zeros_like(w)
        j_w[:-1] += off[:, None] * w[1:]
        j_w[1:] += off[:, None] * w[:-1]
        assert np.max(np.abs(j_w - w * m)) <= 1e-12

    def test_levels_run_together_as_alone(self):
        """The recurrence over several levels at once gives each level's rows
        as a run over that level alone, bitwise."""
        big_n = np.array([0, 3, 3, 4, 7, 7, 7, 7, 8])
        m = np.array([0, -3, 1, 2, -7, -1, 5, 7, -8])
        together = [(k, lo, q.copy(), b) for k, lo, q, b in _krawtchouk_rows(big_n, m)]
        assert [k for k, _, _, _ in together] == list(range(5))
        levels = np.unique(big_n).tolist()
        for level in levels:
            at = np.flatnonzero(big_n == level)
            for k, lo, q, (b,) in _krawtchouk_rows(big_n[at], m[at]):
                assert lo == 0
                _, lo_all, q_all, b_all = together[k]
                assert np.array_equal(q_all[at - lo_all], q)
                assert b_all[levels.index(level) - len(levels)] == b

    def test_rows_out_of_level_order_are_refused(self):
        p = PacketParams(1.0, 0.0)
        table = CoefficientTable(p, 2, [2, 0], [0, 0], [0.6, 0.8])
        grid = make_grid(p, points=9)
        with pytest.raises(ValueError, match="level order"):
            SpectralEvolver(table, grid)

    def test_build_products_are_serial(self, monkeypatch):
        """Every product of the plane build has m n k <= _SERIAL_PRODUCT and
        at least two rows where the build has them; banding in columns too,
        where one row is too many, keeps a @ b, and each band takes only
        the terms of its last row."""
        products = []
        matmul = np.matmul

        def recording(a, b, out):
            products.append((a.shape[0], a.shape[0] * a.shape[1] * b.shape[1]))
            return matmul(a, b, out=out)

        p = PacketParams(1.5, 0.5)
        grid = make_grid(p, points=65)
        table = build_table(p, n_max=130)
        rng = np.random.default_rng(3)
        # one row of the product is two bounds' worth, so its columns band too
        cols = -(-2 * _SERIAL_PRODUCT // 700)
        a, b = rng.standard_normal((5, 700)), rng.standard_normal((700, cols))
        terms = np.array([3, 3, 650, 700, 700])
        a[np.arange(700) >= terms[:, None]] = 0.0
        out = np.empty((5, cols))
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", recording)
            built_fields(table, grid)
            assert products and max(size for _, size in products) <= _SERIAL_PRODUCT
            assert min(rows for rows, _ in products) >= 2
            products.clear()
            _banded_product(a, b, out, _bands(terms, cols))
        assert len(products) > 5 and max(size for _, size in products) <= _SERIAL_PRODUCT
        assert np.max(np.abs(out - a @ b)) < 1e-12


class TestHermiteFunctions:
    def test_matches_mpmath_past_the_gaussian_underflow(self):
        """phi_n(x) against 50-digit mpmath for n <= 1500 and |x| <= 60.

        Past the turning point x^2 = 2n + 1, where phi_n has no zeros, each
        normal value is within 1e-13 relative; inside it, within 1e-13 of
        max(|phi_n|, |phi_{n-1}|), the scale of the recurrence's rounding
        (phi_n itself vanishes at its zeros). A value is 0 only where the
        true one is below the smallest double."""
        mpmath = pytest.importorskip("mpmath")
        xs = np.array([0.0, 1e-3, -0.7, 5.3, -17.25, 28.9, 37.6, -38.7, 42.0, 47.3,
                       -54.8, 58.21, 59.99, 60.0])
        table = _hermite_functions(xs, 1500)
        assert table.shape == (1501, xs.size)

        def exact(n, x):
            x = mpmath.mpf(float(x))
            if n < 0:
                return mpmath.mpf(0)
            norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
            return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm

        smallest = mpmath.mpf(float(np.nextafter(0.0, 1.0)))
        normal = mpmath.mpf(float(np.finfo(float).tiny))
        checked = 0
        with mpmath.workdps(50):
            for n in (0, 1, 2, 17, 160, 400, 777, 1000, 1499, 1500):
                for x, got in zip(xs, table[n]):
                    true = exact(n, x)
                    if abs(true) >= smallest:
                        assert got != 0.0, (n, x)
                    if abs(true) < normal:
                        continue
                    checked += 1
                    err = abs(mpmath.mpf(float(got)) - true)
                    if x * x >= 2 * n + 1:
                        assert err <= 1e-13 * abs(true), (n, x)
                    assert err <= 1e-13 * max(abs(true), abs(exact(n - 1, x))), (n, x)
        assert checked > 80

    def test_parity_and_zeros(self):
        """phi_n(-x) = (-1)^n phi_n(x) bitwise, phi_n(0) = 0 for odd n, and
        far out every phi_n is exactly 0."""
        xs = np.array([0.0, 0.5, -0.5, 40.0, -40.0, 1e4])
        table = _hermite_functions(xs, 300)
        sign = np.where(np.arange(301) % 2, -1.0, 1.0)
        assert np.array_equal(table[:, 2], sign * table[:, 1])
        assert np.array_equal(table[:, 4], sign * table[:, 3])
        assert not np.any(table[1::2, 0])
        assert np.all(table[0::2, 0] != 0.0)
        assert not np.any(table[:, 5])
        assert np.all(np.isfinite(table))


SYNTHESIS_PACKETS = [
    (PacketParams(1.5, 0.5), 129, True),
    (PacketParams(3.0, 1.0, chirality=Chirality.ADVANCED), 128, True),
    (PacketParams(2.0, 2.0, omega=2.0), 97, True),
    (PacketParams(2.0, 0.7), 65, False),
]


def direct_sum(fields, omega, t):
    return sum(np.exp(-1j * (big_n + 1) * omega * t) * field for big_n, field in fields.items())


def recorded_products(monkeypatch, call) -> list[tuple[int, int, int]]:
    """The (m, k, n) of every np.matmul that ``call()`` makes."""
    products = []
    matmul = np.matmul

    def recording(a, b, out):
        products.append((*a.shape, b.shape[1]))
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", recording)
        call()
    return products


def assert_serial(products):
    """Every product has m n k <= _SERIAL_PRODUCT, operands of two rows at
    least and two columns of output: BLAS takes a product of one row or one
    column by its matrix-vector kernel."""
    assert products
    for m, k, n in products:
        assert m * k * n <= _SERIAL_PRODUCT
        assert m >= 2 and k >= 2 and n >= 2


def assert_within_serial_bounds(evolver, grid, monkeypatch):
    """verify's four times and one frame through the fused product, and the
    plane build over every run of a sweep's FFT transform: every product of
    the fused route is serial (``assert_serial``), and every product of the
    build has m n k <= _SERIAL_PRODUCT and two rows at least; each time's
    output, column blocks of one buffer, tiles the grid's columns in order
    and holds at most one grid's values, and each chunk of planes half a
    grid's; and the runs cover the quadrant's rows in order, each
    built once.

    Returns the (m, k, n) of every product of the fused route."""
    times = [0.0, 0.7, math.pi, 5.1]
    rows = evolver._hx.shape[1]
    col0 = _mirror_start(grid.eta_axis)
    x = np.zeros((len(times), grid.xi_axis.size))
    y = np.zeros((len(times), grid.eta_axis.size))

    def fused():
        for values, blocks in evolver._fused(times, x, y):
            assert values.nbytes <= grid.values.nbytes
            assert len(blocks) == 1 + bool(col0)
            assert all(np.shares_memory(block, values) for block in blocks)
            assert sum(block.nbytes for block in blocks) == values.nbytes
            assert [block.shape[1] for block in blocks[:-1]] == [col0] * bool(col0)
            assert np.concatenate(blocks, axis=1).shape == grid.values.shape
        evolver.at(0.3)

    products = recorded_products(monkeypatch, fused)
    assert_serial(products)
    runs = evolver._runs(2 * 8)
    build = evolver._builder(runs[0].stop - runs[0].start)
    covered = 0

    def planes():
        nonlocal covered
        for run in runs:
            assert run.start == covered
            for _, _, parts in build(run):
                assert parts.nbytes <= grid.values.nbytes // 2
            covered = run.stop

    builds = recorded_products(monkeypatch, planes)
    assert builds and all(m * k * n <= _SERIAL_PRODUCT and m >= 2 for m, k, n in builds)
    assert covered == rows
    return products


class TestSynthesis:
    @pytest.mark.parametrize("params,points,mirrored", SYNTHESIS_PACKETS)
    def test_matches_direct_sum(self, monkeypatch, params, points, mirrored):
        grid = make_grid(params, points=points) if mirrored else offset_grid(params, points)
        table = build_table(params)
        fields = full_grid_fields(table, grid)
        evolver = SpectralEvolver(table, grid)
        assert_within_serial_bounds(evolver, grid, monkeypatch)
        for t in (0.0, 0.7, 3.1, 29.3):
            direct = direct_sum(fields, params.omega, t)
            assert np.max(np.abs(evolver.at(t).values - direct)) < 1e-13

    @pytest.mark.parametrize("params,points,mirrored", SYNTHESIS_PACKETS)
    def test_stacks_hold_the_quadrant_planes(self, monkeypatch, params, points, mirrored):
        """The evolver stores no field: its only 2-D arrays are the Hermite
        tables on the quadrant's axes, (top + 1, axis points) each. The
        planes its runs build are the K level planes F_N of the reference
        build on the quadrant, in runs that cover the quadrant in order, and
        every product of the build and of the fused route is serial."""
        grid = make_grid(params, points=points) if mirrored else offset_grid(params, points)
        table = build_table(params)
        evolver = SpectralEvolver(table, grid)
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)
        levels, fields = principal_fields(table, grid.xi_axis[row0:], grid.eta_axis[col0:])
        assert np.array_equal(np.arange(evolver._top + 1), levels)
        planes, _ = evolver_planes(evolver)
        assert planes.tobytes() == fields.tobytes()
        stored = [v for v in vars(evolver).values() if isinstance(v, np.ndarray) and v.ndim > 1]
        top = int(levels[-1]) + 1
        assert {id(v) for v in stored} == {id(evolver._hx), id(evolver._hy)}
        assert evolver._hx.shape == (top, grid.xi_axis.size - row0)
        assert evolver._hy.shape == (top, grid.eta_axis.size - col0)
        assert_within_serial_bounds(evolver, grid, monkeypatch)

    @pytest.mark.parametrize("params", [PacketParams(1.5, 0.5), PacketParams(4.0, 4.0)])
    def test_build_holds_the_fields_once(self, params):
        """The constructor's traced peak is at most the reference field
        build's own peak plus one grid's values, and below that field
        build's fields alone: it builds no field."""
        grid = make_grid(params, points=257)
        table = build_table(params)
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)

        def traced_peak(build):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            built = build()
            return tracemalloc.get_traced_memory()[1] - before, built

        tracemalloc.start()
        try:
            fields_peak, (_, fields) = traced_peak(
                lambda: principal_fields(table, grid.xi_axis[row0:], grid.eta_axis[col0:])
            )
            evolver_peak, _ = traced_peak(lambda: SpectralEvolver(table, grid))
        finally:
            tracemalloc.stop()
        assert evolver_peak <= fields_peak + grid.values.nbytes
        assert evolver_peak < fields.nbytes

    def test_tiles_past_one_row_per_stack(self, monkeypatch):
        """With so many levels that a quadrant row of their planes holds
        more than half a grid, the levels go in chunks, and the box goes in
        chunks of its rows: each chunk's planes and each time's output stay
        within half a grid's and one grid's values and each product within
        _SERIAL_PRODUCT, each time sums its products over the chunks, and
        the sum is unchanged, by either route."""
        p = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = make_grid(p, points=65)
        table = build_table(p, n_max=130)
        evolver = SpectralEvolver(table, grid)
        cols = grid.eta_axis.size - _mirror_start(grid.eta_axis)
        runs = evolver._runs(2 * 8)
        assert len(runs) > 1
        levels = evolver._top + 1
        assert 2 * levels * cols > grid.values.size
        assert evolver._chunk(runs[0].stop, cols) < levels
        assert len(evolver._box_chunks()) > 1
        products = assert_within_serial_bounds(evolver, grid, monkeypatch)
        assert max(k for _, k, _ in products) < levels
        fields = full_grid_fields(table, grid)
        t = 0.9
        assert np.max(np.abs(evolver.at(t).values - direct_sum(fields, 1.0, t))) < 1e-13
        for times in ([0.2, t, 2.0], [2.0 * math.pi * k / 8 for k in range(8)]):
            expect = [fixed_phase_difference(p, grid, s, direct_sum(fields, 1.0, s)) for s in times]
            got = evolver.residuals(times, closed_form_factors(p, grid, times))
            assert np.max(np.abs(np.subtract(got, expect))) < 1e-12

    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])
    def test_frames_match_direct_sum(self, count):
        """Any number of times: each frame matches the direct sum, and each
        time's residual is the closed form's difference from it at the
        conventions' phase, in order."""
        p = PacketParams(3.0, 1.0, chirality=Chirality.ADVANCED)
        grid = make_grid(p, points=65)
        table = build_table(p)
        fields = full_grid_fields(table, grid)
        evolver = SpectralEvolver(table, grid)
        times = [0.37 * k - 1.1 for k in range(count)]
        frames = [grid.with_values(direct_sum(fields, 1.0, t)) for t in times]
        for t, frame in zip(times, frames):
            synthesized = evolver.at(t)
            assert synthesized.values.shape == grid.values.shape
            assert np.array_equal(synthesized.xi_axis, grid.xi_axis)
            assert np.max(np.abs(synthesized.values - frame.values)) < 1e-13
        residuals = evolver.residuals(iter(times), closed_form_factors(p, grid, times))
        assert len(residuals) == count
        for t, frame, residual in zip(times, frames, residuals):
            expect = fixed_phase_difference(p, grid, t, frame.values)
            assert abs(residual - expect) < 1e-12

    def test_empty_table_synthesizes_zero(self):
        p = PacketParams(1.0, 0.0)
        grid = make_grid(p, points=33)
        empty = CoefficientTable(p, 2, [], [], [], tail_mass=1.0)
        with pytest.warns(UserWarning, match="tail mass"):
            evolver = SpectralEvolver(empty, grid)
        assert not np.any(evolver.at(0.3).values)
        zero = np.zeros_like(grid.values)
        # arbitrary times, then a whole period in an even number of steps
        for times in ([0.0, 0.3, 1.0, 2.0, 5.0], [2.0 * math.pi * k / 6 for k in range(6)]):
            expect = [fixed_phase_difference(p, grid, t, zero) for t in times]
            got = evolver.residuals(times, closed_form_factors(p, grid, times))
            assert got == pytest.approx(expect, rel=1e-15, abs=0.0)
        assert evolver.residuals([], []) == []


# (xi0, eta0, omega, turns, steps, points): times t_k = 2 pi turns k / steps / omega
SWEEPS = [
    (1.5, 0.5, 1.0, 1, 64, 65),  # evolve's default sweep, more bins than levels
    (3.0, 1.0, 1.0, 2, 16, 65),  # 4 pi: every bin serves two times; 16 < K, so bins alias
    (2.0, 2.0, 2.0, 2, 10, 64),  # omega 2 over 4 pi on an axis with no zero
    (3.0, 1.0, 2.0, 1, 6, 65),  # omega 2, 6 < K
    (2.0, 0.7, 2.0, 1, 63, 65),  # odd T: the fused product
    (3.0, 1.0, 1.0, 2, 9, 65),  # odd T below K
]


def fft_spectra(evolver, count):
    """(run, spectrum) of the FFT transform over ``count`` bins, run by run:
    line j of a spectrum is Q at w t = 2 pi j / count on the run's points."""
    rows, cols = evolver._hx.shape[1], evolver._hy.shape[1]
    references = [(np.zeros((count, rows)), np.zeros((count, cols)))] * len(evolver._images)
    runs = evolver._runs(2 * count)
    build = evolver._builder(runs[0].stop - runs[0].start)
    _, _, transform = evolver._fft_transform(count, 1, references, runs[0])
    for run in runs:
        yield run, transform(run, build(run))


def sweep(turns, steps, omega):
    """The times ``evolve`` takes over 2 pi turns: --tmax 2 pi turns, --tsteps steps."""
    span = turns * 2.0 * math.pi
    return [span * k / steps / omega for k in range(steps)]


@pytest.mark.parametrize(
    "turns,count",
    [(3, 10), (7, 6), (10**17, 100), (10**17 + 1, 126), (2**63 + 5, 12), (10**300, 2),
     (10**300 + 3, 4)],
    ids=["3-10", "7-6", "1e17-100", "1e17+1-126", "2^63+5-12", "1e300-2", "1e300+3-4"],
)
def test_fft_bins_are_the_integer_bins(turns, count):
    """Each plan's lines are the bins s (M k + [flip xi] T/2) (mod T) of its
    times, as Python's integers give them for any M: past 2^63 M k
    overflows an int64, and below it wraps where T is no power of two."""
    p = PacketParams(1.5, 0.5)
    grid = make_grid(p, points=33)
    evolver = SpectralEvolver(build_table(p), grid)
    rows, cols = evolver._hx.shape[1], evolver._hy.shape[1]
    references = [(np.zeros((count, rows)), np.zeros((count, cols)))] * len(evolver._images)
    plans, _, _ = evolver._fft_transform(count, turns, references, evolver._runs(2 * count)[0])
    step = math.gcd(turns, count)
    assert len(plans) == step * len(evolver._images)
    for (fx, _, s, _), image_plans in zip(evolver._images, zip(*[iter(plans)] * step)):
        times = []
        for ks, at, _, _ in image_plans:
            lines = range(count)[at]
            assert len(lines) == len(ks)
            for k, line in zip(ks.tolist(), lines):
                assert line == s * (turns * k + (count // 2 if fx else 0)) % count
            times += ks.tolist()
        assert sorted(times) == list(range(count))


# The sweeps on make_grid grids, then on offset_grid grids with the (xi, eta)
# shifts given: one mirrored axis, whose image table holds two entries, and
# none, whose table holds the quadrant alone.
GRID_SWEEPS = [pytest.param(*s, None, id="-".join(map(str, s))) for s in SWEEPS] + [
    pytest.param(3.0, 1.0, 1.0, 2, 16, 65, (0.0, 0.5), id="xi-mirrored-fft"),
    pytest.param(2.0, 0.7, 2.0, 1, 9, 64, (0.5, 0.0), id="eta-mirrored-product"),
    pytest.param(1.5, 0.5, 2.0, 1, 12, 65, (0.5, 0.5), id="unmirrored-fft"),
    pytest.param(1.5, 0.5, 1.0, 1, 7, 65, (0.25, 0.5), id="unmirrored-product"),
]


class TestFusedResidual:
    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize("xi0,eta0,omega,turns,steps,points,shifts", GRID_SWEEPS)
    def test_matches_the_reference_comparison(
        self, xi0, eta0, omega, turns, steps, points, shifts, chirality
    ):
        """Each time's residual is the closed-form frame's difference from
        at(t) at the conventions' phase, whichever transform the sweep takes
        and however many axes of the grid are mirrored."""
        p = PacketParams(xi0, eta0, chirality=chirality, omega=omega)
        if shifts is None:
            grid = make_grid(p, points=points)
        else:
            grid = offset_grid(p, points, *shifts)
        evolver = SpectralEvolver(build_table(p), grid)
        mirrored = sum(_mirror_start(axis) > 0 for axis in (grid.xi_axis, grid.eta_axis))
        assert len(evolver._images) == 2**mirrored
        assert mirrored == (2 if shifts is None else shifts.count(0.0))
        times = sweep(turns, steps, omega)
        assert evolver._whole_turns(times) == (turns if steps % 2 == 0 else 0)
        if (xi0, eta0, steps) == (3.0, 1.0, 16):
            assert steps < evolver._top + 1
        residuals = evolver.residuals(times, closed_form_factors(p, grid, times))
        assert len(residuals) == steps
        for t, residual in zip(times, residuals):
            expect = fixed_phase_difference(p, grid, t, evolver.at(t).values)
            assert abs(residual - expect) < 1e-12
            assert expect < 1e-8

    @pytest.mark.parametrize(
        "times,turns", [([0.0, 0.7, math.pi, 5.1], 0), (sweep(1, 4, 1.0), 1)], ids=["fused", "fft"]
    )
    def test_a_global_phase_on_the_reference_is_not_absorbed(self, times, turns):
        """The reference times e^{i w t}, the factor by which a synthesis
        with e^{-i N w t} in place of e^{-i (N+1) w t} would differ, reads
        more than 0.1 wherever e^{i w t} is not 1, by either transform; at
        t = 0 the residual is unchanged."""
        p = PacketParams(1.5, 0.5)
        grid = make_grid(p)
        evolver = SpectralEvolver(build_table(p), grid)
        assert evolver._whole_turns(times) == turns
        x, y = closed_form_factors(p, grid, times)
        shifted = x * np.exp(1j * p.omega * np.asarray(times))[:, None]
        plain, moved = evolver.residuals(times, (x, y)), evolver.residuals(times, (shifted, y))
        assert max(plain) < 1e-8
        assert moved[0] == plain[0]
        assert min(moved[1:]) > 0.1

    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "xi0,eta0,omega,turns,steps,points", [s for s in SWEEPS if s[4] % 2 == 0]
    )
    def test_fft_bins_are_the_frames(self, xi0, eta0, omega, turns, steps, points, chirality):
        """Bin M k of each chunk's transform is the quadrant of at(t_k), and
        the bins at -t, -t - pi/w and t + pi/w give its three images."""
        p = PacketParams(xi0, eta0, chirality=chirality, omega=omega)
        grid = make_grid(p, points=points)
        evolver = SpectralEvolver(build_table(p), grid)
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)
        cols = grid.eta_axis.size - col0
        frames = [evolver.at(t).values for t in sweep(turns, steps, omega)]
        half = steps // 2
        covered = 0
        for run, spectrum in fft_spectra(evolver, steps):
            assert run.start == covered
            bins = spectrum.reshape(steps, -1, cols)
            rows = slice(row0 + run.start, row0 + run.stop)
            for k, values in enumerate(frames):
                j = turns * k % steps
                images = [
                    (values[rows, col0:], bins[j]),
                    (values[:, ::-1][rows, col0:], bins[-j % steps].conj()),
                    (values[::-1][rows, col0:], -bins[(half - j) % steps].conj()),
                    (values[::-1, ::-1][rows, col0:], -bins[(j + half) % steps]),
                ]
                for frame, spectral in images:
                    assert np.max(np.abs(frame - spectral)) < 1e-13
            covered = run.stop
        assert covered == grid.xi_axis.size - row0

    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "xi0,eta0,omega,turns,steps,points", [(1.5, 0.5, 1.0, 1, 16, 65), (3.0, 1.0, 2.0, 2, 10, 64)]
    )
    def test_image_table(self, xi0, eta0, omega, turns, steps, points, chirality):
        """Each entry (flip xi, flip eta, s, sign) of a mirrored grid's image
        table is sign Q(tau), conjugated where s = -1, at tau = s (t + [flip
        xi] pi/w): Q from the stored fields summed at tau, the FFT bin
        s (M k + [flip xi] T/2) (mod T) and the direct sum at the image's
        points agree."""
        p = PacketParams(xi0, eta0, chirality=chirality, omega=omega)
        grid = make_grid(p, points=points)
        table = build_table(p)
        evolver = SpectralEvolver(table, grid)
        reference = FieldEvolver(table, grid)
        flips = [(fx, fy) for fx, fy, _, _ in evolver._images]
        assert flips == [(False, False), (False, True), (True, False), (True, True)]
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)
        cols = grid.eta_axis.size - col0
        fields = full_grid_fields(table, grid)
        chunks = [spectrum.reshape(steps, -1, cols) for _, spectrum in fft_spectra(evolver, steps)]
        bins = np.concatenate(chunks, axis=1)
        for k, t in enumerate(sweep(turns, steps, omega)):
            direct = direct_sum(fields, omega, t)
            for fx, fy, s, sign in evolver._images:
                image = direct[:: -1 if fx else 1, :: -1 if fy else 1][row0:, col0:]
                tau = s * (t + (math.pi / omega if fx else 0.0))
                j = s * (turns * k + (steps // 2 if fx else 0)) % steps
                for q in (reference.quadrant_sum(tau), bins[j]):
                    value = sign * (q.conj() if s < 0 else q)
                    assert np.max(np.abs(value - image)) < 1e-13

    @pytest.mark.parametrize(
        "points,steps,fft",
        [(257, 64, True), (257, 9, False), (65, 64, True), (65, 66, False), (33, 32, True),
         (33, 34, False), (65, 7, False)],
    )
    def test_buffers_hold_one_grid(self, monkeypatch, points, steps, fft):
        """Each run's folded (T, points) buffer and its transform hold one
        grid's values between them, and its planes half a grid's, and every
        residual reduction allocates one grid at most, besides numpy's
        ufunc buffer of at most getbufsize() elements; past half a grid per
        quadrant row the sweep takes the fused product, whose reduction
        works in place."""
        p = PacketParams(2.0, 1.0)
        grid = make_grid(p, points=points)
        evolver = SpectralEvolver(build_table(p), grid)
        assert_within_serial_bounds(evolver, grid, monkeypatch)
        times = sweep(1, steps, 1.0)
        assert bool(evolver._whole_turns(times)) == fft
        if fft:
            chunks = list(fft_spectra(evolver, steps))
            assert chunks
            # the folded buffer has the first, largest run's shape
            folded = chunks[0][1].nbytes
            for run, spectrum in chunks:
                assert folded + spectrum.nbytes <= grid.values.nbytes
                build = evolver._builder(chunks[0][0].stop - chunks[0][0].start)
                for _, _, planes in build(run):
                    assert planes.nbytes <= grid.values.nbytes // 2
        scratch = []
        name = "_peaks" if fft else "_largest_modulus"
        reduction = getattr(dynamics, name)

        def recording(*args):
            # numpy reports its data buffers to tracemalloc
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = reduction(*args)
            scratch.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(dynamics, name, recording)
        tracemalloc.start()
        try:
            evolver.residuals(times, closed_form_factors(p, grid, times))
        finally:
            tracemalloc.stop()
        assert scratch
        assert max(scratch) <= grid.values.nbytes + np.getbufsize() * 16


# The largest differences from the stored-field reference measured on the
# pins below, in units in the last place of the reference's largest
# magnitude (for residuals, of max |X_k| max |Y_k|).
# - Planes: 4.0 where a run's levels go in chunks, at n_max = 130 on 65
#   points, per level. The reference multiplied each level alone, in bands
#   of its rows, and where one of those bands held one row, BLAS took it by
#   its matrix-vector kernel, whose sums run in another order. None at the
#   automatic cutoffs on make_grid grids, so FFT residuals, which reduce the
#   planes to maxima against the evolver's own reference factors, stay
#   bitwise.
# - The fused product sums the box's terms, not the levels' fields, and
#   takes e^{-i (N+1) w t} as e^{-i (nx+1) w t} e^{-i ny w t}, whose
#   arguments round apart. Frames: 137.5 (137.48 measured, at w t = 58.6,
#   where the arguments reach 1800 rad). Residuals: 0.072 (0.0712).
PLANE_ULPS = 4.0
FRAME_ULPS = 137.5
RESIDUAL_ULPS = 0.072


def pin_sweeps(omega):
    """verify's four times; whole-period sweeps with more bins than levels
    and with fewer, whose bins span several turns; and odd sweeps, which
    take the fused product."""
    return [
        [0.0, 0.7 / omega, math.pi / omega, 5.1 / omega],
        sweep(1, 64, omega),
        sweep(2, 16, omega),
        sweep(1, 6, omega),
        sweep(3, 10, omega),
        sweep(1, 63, omega),
        sweep(1, 9, omega),
    ]


# make_grid grids, then offset_grid grids with the (xi, eta) shifts given
PIN_GRIDS = [None, (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
PIN_PACKETS = [pytest.param(p, points, id=f"{p.xi0}-{p.eta0}-{p.omega}-{points}")
               for p, points, _ in SYNTHESIS_PACKETS]


def pin_grid(params, points, shifts):
    if shifts is None:
        return make_grid(params, points=points)
    return offset_grid(params, points, *shifts)


class TestReferencePins:
    """The synthesis against ``FieldEvolver``, the evolver as it was when it
    stored its (K, rows, cols) fields and summed them per time."""

    @pytest.mark.parametrize("shifts", PIN_GRIDS, ids=["mirrored", "xi", "eta", "none"])
    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize("params,points", PIN_PACKETS)
    def test_residuals_are_the_reference(self, params, points, chirality, shifts):
        """Bit for bit through the FFT transform; within RESIDUAL_ULPS
        through the fused product."""
        p = dataclasses.replace(params, chirality=chirality)
        grid = pin_grid(p, points, shifts)
        table = build_table(p)
        evolver, reference = SpectralEvolver(table, grid), FieldEvolver(table, grid)
        routes = set()
        for times in pin_sweeps(p.omega):
            turns = evolver._whole_turns(times)
            routes.add((bool(turns), turns > 0 and len(times) <= evolver._top + 1))
            factors = closed_form_factors(p, grid, times)
            got, expect = evolver.residuals(times, factors), reference.residuals(times, factors)
            if turns:
                assert bits(got) == bits(expect)
                continue
            scale = np.max(np.abs(factors[0]), axis=1) * np.max(np.abs(factors[1]), axis=1)
            assert np.all(np.abs(np.subtract(got, expect)) <= RESIDUAL_ULPS * np.spacing(scale))
        assert {(True, True), (False, False)} <= routes

    @pytest.mark.parametrize("shifts", PIN_GRIDS, ids=["mirrored", "xi", "eta", "none"])
    def test_gapped_table_on_both_routes(self, shifts):
        """A table whose modes sit on levels 1 and 6 alone, the levels
        between them runs of zeros in the rotated triangle. A whole-period
        sweep of 4 steps has fewer bins than levels, so the FFT fold puts
        several levels in one bin across the wrap; 3 other times take the
        fused product. Each residual is the closed-form frame's difference
        from at(t) at the conventions' phase and the reference's, to 1e-12
        of residuals near 0.5, and through the FFT transform the
        reference's bit for bit."""
        p = PacketParams(1.5, 0.5, omega=0.7)
        table = CoefficientTable(p, 6, [1, -2], [0, 2], [0.6, 0.8])
        assert table.principal.tolist() == [1, 6]
        grid = pin_grid(p, 65, shifts)
        evolver, reference = SpectralEvolver(table, grid), FieldEvolver(table, grid)
        for times, turns in ((sweep(1, 4, p.omega), 1), ([0.0, 0.7, 2.3], 0)):
            assert evolver._whole_turns(times) == turns
            factors = closed_form_factors(p, grid, times)
            got, expect = evolver.residuals(times, factors), reference.residuals(times, factors)
            if turns:
                assert bits(got) == bits(expect)
            for t, residual, pinned in zip(times, got, expect):
                frame = fixed_phase_difference(p, grid, t, evolver.at(t).values)
                assert abs(residual - frame) < 1e-12
                assert abs(residual - pinned) < 1e-12

    @pytest.mark.parametrize("shifts", PIN_GRIDS, ids=["mirrored", "xi", "eta", "none"])
    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize("params,points", PIN_PACKETS)
    def test_frames_are_the_reference(self, params, points, chirality, shifts):
        p = dataclasses.replace(params, chirality=chirality)
        grid = pin_grid(p, points, shifts)
        table = build_table(p)
        evolver, reference = SpectralEvolver(table, grid), FieldEvolver(table, grid)
        for t in (0.0, 0.7, 3.1, 29.3):
            assert scale_ulps(evolver.at(t).values, reference.at(t).values) <= FRAME_ULPS

    @pytest.mark.parametrize("shifts", PIN_GRIDS, ids=["mirrored", "xi", "eta", "none"])
    @pytest.mark.parametrize("count", [4, 9, 63])
    @pytest.mark.parametrize("params,points", PIN_PACKETS)
    def test_fused_products_are_serial(self, monkeypatch, params, points, count, shifts):
        """verify's four times, odd sweeps and a frame: every product of the
        fused route has m n k <= _SERIAL_PRODUCT and no operand of one row,
        so none goes through BLAS's matrix-vector kernel or wakes its
        threads."""
        grid = pin_grid(params, points, shifts)
        evolver = SpectralEvolver(build_table(params), grid)
        if count == 4:
            times = [0.0, 0.7 / params.omega, math.pi / params.omega, 5.1 / params.omega]
        else:
            times = sweep(1, count, params.omega)
        assert not evolver._whole_turns(times)
        factors = closed_form_factors(params, grid, times)

        def fused():
            evolver.residuals(times, factors)
            evolver.at(times[-1])

        assert_serial(recorded_products(monkeypatch, fused))

    @pytest.mark.parametrize("chirality", list(Chirality))
    @pytest.mark.parametrize(
        "params,points,n_max",
        [(PacketParams(1.5, 0.5), 65, None), (PacketParams(1.5, 0.5), 65, 130),
         (PacketParams(3.0, 1.0), 128, None), (PacketParams(2.0, 2.0, omega=2.0), 97, None)],
    )
    def test_planes_of_any_run_are_the_reference(self, params, points, n_max, chirality):
        """Runs of at most one, two, three and seven rows and of the whole
        quadrant, as the FFT transform builds them: their level chunks go
        from one level to all of them, and each level's plane is the
        reference build's, bit for bit at the automatic cutoff."""
        p = dataclasses.replace(params, chirality=chirality)
        grid = make_grid(p, points=points)
        table = build_table(p, n_max)
        evolver = SpectralEvolver(table, grid)
        row0, col0 = _mirror_start(grid.xi_axis), _mirror_start(grid.eta_axis)
        _, fields = principal_fields(table, grid.xi_axis[row0:], grid.eta_axis[col0:])
        rows, cols = fields.shape[1:]
        chunks = set()
        for height in (1, 2, 3, 7, rows):
            runs = _runs_of(rows, cols, height * cols)
            assert runs[0].stop - runs[0].start == height
            build = evolver._builder(height)
            chunks.add(evolver._chunk(height, cols))
            planes = np.empty_like(fields)
            for run in runs:
                for a, b, (re, im) in build(run):
                    planes.real[a:b, run], planes.imag[a:b, run] = re, im
            if n_max is None:
                assert planes.tobytes() == fields.tobytes()
            for plane, field in zip(planes, fields):
                assert scale_ulps(plane, field) <= PLANE_ULPS
        if n_max:
            assert min(chunks) == 1 and max(chunks) < len(fields)
        else:
            assert max(chunks) >= len(fields)


# (xi0, eta0, points, steps): a 64-step sweep or verify's four times
MEMORY_CASES = [(4.0, 4.0, 257, 64), (4.0, 4.0, 257, 4), (6.0, 3.0, 257, 64),
                (6.0, 3.0, 257, 4), (20.0, 10.0, 65, 4), (20.0, 10.0, 257, 4)]


class TestMemory:
    @pytest.mark.parametrize("xi0,eta0,points,steps", MEMORY_CASES)
    def test_synthesis_holds_three_grids(self, xi0, eta0, points, steps):
        """Construction plus residuals peak at three grids' values at most,
        plus numpy's ufunc buffer of getbufsize() elements, however many
        levels there are (58, 70 and 380 here): no array grows as K times
        the grid. At (20, 10) the fused product's box goes in chunks of its
        rows, on 65 points and on 257.

        The rotation of the table holds O(modes) arrays whatever the grid,
        and the evolver keeps the rotated table; at (20, 10) on 65 points
        those are 104 and 10 grids. At (20, 10), where the rotation's own
        peak passes the bound, the construction is bounded by that peak
        plus what the evolver keeps, and residuals alone by the three
        grids. verify's four times only: a 64-step sweep's reference
        factors are O(T P), four grids on 65 points."""
        p = PacketParams(xi0, eta0)
        grid = make_grid(p, points=points)
        table = build_table(p)
        times = [0.0, 0.7, math.pi, 5.1] if steps == 4 else sweep(1, steps, 1.0)
        factors = closed_form_factors(p, grid, times)
        SpectralEvolver(table, grid).residuals(times, factors)  # first-call imports

        def traced_peak(call):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            current, peak = tracemalloc.get_traced_memory()
            return peak - before, current - before, result

        tracemalloc.start()
        try:
            rotation, _, _ = traced_peak(lambda: _cartesian_coefficients(table))
            construction, held, evolver = traced_peak(lambda: SpectralEvolver(table, grid))
            residuals, _, _ = traced_peak(lambda: evolver.residuals(times, factors))
        finally:
            tracemalloc.stop()
        bound = 3 * grid.values.nbytes + np.getbufsize() * 16
        assert residuals <= bound
        if (xi0, eta0) == (20.0, 10.0):
            assert len(evolver._box_chunks()) > 1
            assert construction <= rotation + held
        else:
            assert max(construction, held + residuals) <= bound


def orbit(params, times, grid):
    """trace_orbit of the closed-form factors at the times."""
    times = list(times)
    return trace_orbit(params, times, grid, closed_form_factors(params, grid, times))


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
        for t, sample in zip(times, orbit(params, times, grid)):
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
        samples = orbit(elliptic_params, times, elliptic_grid)
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
            samples = orbit(p, times, make_grid(p, points=129))
            for s in samples:
                assert abs(s.var_xi - 0.5) < 1e-6
                assert abs(s.var_eta - 0.5) < 1e-6

    def test_orbit_closure(self, elliptic_params, elliptic_grid, period):
        t0 = 0.7
        first, second = orbit(elliptic_params, [t0, t0 + period], elliptic_grid)
        assert abs(first.centroid_xi - second.centroid_xi) < 1e-9
        assert abs(first.centroid_eta - second.centroid_eta) < 1e-9

    def test_quarter_period_position(self, elliptic_params, elliptic_grid):
        (sample,) = orbit(elliptic_params, [0.5 * math.pi], elliptic_grid)
        assert sample.centroid_xi == pytest.approx(0.0, abs=1e-6)
        assert sample.centroid_eta == pytest.approx(0.5, abs=1e-6)

    def test_orientation_flips_with_chirality(self, period):
        times = [period * k / 64 for k in range(64)]
        ret = PacketParams(1.5, 0.5)
        adv = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
        grid = make_grid(ret, points=129)
        area_ret = orbit_signed_area(orbit(ret, times, grid))
        area_adv = orbit_signed_area(orbit(adv, times, grid))
        assert area_ret > 0.0
        assert area_adv < 0.0
        assert abs(area_adv + area_ret) < 1e-12

    def test_rejects_under_spanned_grid(self, elliptic_params):
        small = make_grid(elliptic_params, half_width=4.0, points=65)
        with pytest.raises(ValueError, match="span"):
            orbit(elliptic_params, [0.0], small)

    def test_ellipse_residual(self, elliptic_params, elliptic_grid, period):
        times = [period * k / 32 for k in range(32)]
        for s in orbit(elliptic_params, times, elliptic_grid):
            residual = (
                (s.centroid_xi / elliptic_params.xi0) ** 2
                + (s.centroid_eta / elliptic_params.eta0) ** 2
                - 1.0
            )
            assert abs(residual) < 1e-6


# (chirality, omega) x grid points x times: none, t = 0 alone, one other
# time, and three times
BATCHES = [
    pytest.param(
        chirality,
        omega,
        points,
        times,
        id=f"{chirality.value}-{omega}-{points}-" + "_".join(f"{t:g}" for t in times),
    )
    for chirality in Chirality
    for omega in (1.0, 0.6)
    for points in (65, 64)
    for times in ([], [0.0], [3.3], [0.0, 0.7, 5.1])
]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestClosedFormBatch:
    """All times in one array pass give, bit for bit, what the same
    arithmetic gave one time at a time."""

    @pytest.mark.parametrize("chirality, omega, points, times", BATCHES)
    def test_factors_are_the_per_time_factors(self, chirality, omega, points, times):
        p = PacketParams(1.5, 0.5, chirality=chirality, omega=omega)
        grid = make_grid(p, points=points)
        x, y = closed_form_factors(p, grid, times)
        assert x.shape == (len(times), points) and y.shape == (len(times), points)
        for t, x_row, y_row in zip(times, x, y):
            x_ref, y_ref = packet_factors_at(p, grid.xi_axis, grid.eta_axis, t)
            assert x_row.tobytes() == x_ref.tobytes()
            assert y_row.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("chirality, omega, points, times", BATCHES)
    def test_samples_are_the_per_time_moments(self, chirality, omega, points, times):
        p = PacketParams(1.5, 0.5, chirality=chirality, omega=omega)
        grid = make_grid(p, points=points)
        x, y = closed_form_factors(p, grid, times)
        samples = trace_orbit(p, times, grid, (x, y))
        assert len(samples) == len(times)
        for t, x_row, y_row, sample in zip(times, x, y, samples):
            expect = orbit_moments_at(t, x_row, y_row, grid)
            assert bits(dataclasses.astuple(sample)) == bits(expect)

    def test_rows_must_be_one_per_time(self, elliptic_params, elliptic_grid):
        times = [0.0, 0.7, 5.1]
        factors = closed_form_factors(elliptic_params, elliptic_grid, times)
        evolver = SpectralEvolver(build_table(elliptic_params), elliptic_grid)
        for wrong in (times[:2], [*times, 6.0]):
            with pytest.raises(ValueError, match="per time"):
                trace_orbit(elliptic_params, wrong, elliptic_grid, factors)
            with pytest.raises(ValueError, match="per time"):
                evolver.residuals(wrong, factors)

    def test_holds_the_factors_and_one_more_array(self):
        """closed_form_factors then trace_orbit over 1024 times on 257
        points: the peak is the two (T, P) outputs and one more complex
        (T, P) array. The slack is numpy's ufunc buffers, np.getbufsize()
        elements of each of the two operands of one broadcast complex
        operation, and the (T, 1) columns of phases; one more (T, P) array
        of floats would be 2 MB past it."""
        p = PacketParams(1.5, 0.5, omega=0.6)
        grid = make_grid(p, points=257)
        times = [0.01 * k for k in range(1024)]
        one = len(times) * grid.xi_axis.size * 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            factors = closed_form_factors(p, grid, times)
            trace_orbit(p, times, grid, factors)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * one + 3 * np.getbufsize() * 16


class TestPhaseAlignment:
    def test_detects_real_difference(self, elliptic_params, elliptic_grid):
        a = evolve_closed_form(elliptic_params, elliptic_grid, 0.0)
        b = evolve_closed_form(elliptic_params, elliptic_grid, 0.3)
        assert aligned_max_difference(a, b) > 1e-3

    def test_quotients_constant_phase(self, elliptic_params, elliptic_grid):
        a = evolve_closed_form(elliptic_params, elliptic_grid, 0.6)
        b = a.with_values(a.values * np.exp(0.77j))
        assert aligned_max_difference(a, b) < 1e-13

    def test_bitwise_equal_to_the_unbuffered_form(self, elliptic_params, elliptic_grid):
        def reference(a, b):
            ref, cand = a.values, b.values
            idx = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
            if cand[idx] == 0.0:
                return float(np.max(np.abs(ref - cand)))
            factor = ref[idx] / cand[idx]
            factor /= abs(factor)
            return float(np.max(np.abs(ref - factor * cand)))

        evolver = SpectralEvolver(build_table(elliptic_params), elliptic_grid)
        zero = elliptic_grid.with_values(np.zeros_like(elliptic_grid.values))
        for t in (0.0, 0.7, math.pi, 5.1):
            closed = evolve_closed_form(elliptic_params, elliptic_grid, t)
            shifted = evolve_closed_form(elliptic_params, elliptic_grid, t + 0.3)
            for cand in (evolver.at(t), shifted, zero):
                assert aligned_max_difference(closed, cand) == reference(closed, cand)
