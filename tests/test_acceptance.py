"""End-to-end acceptance checks.

One test per criterion, each run at its pinned tolerance and printing a
PASS/FAIL line with the measured residual (visible with pytest -s).
"""

import math

from coherent2d import (
    Chirality,
    PacketParams,
    SpectralEvolver,
    aligned_max_difference,
    build_table,
    classical_center,
    closed_form_factors,
    coeff_elliptic,
    coeff_quadrature,
    evolve_closed_form,
    make_grid,
    marginals,
    modes_up_to,
    orbit_signed_area,
    partial_moment_identities,
    trace_orbit,
    verify_laguerre_integral,
)
from coherent2d.cli import EXIT_OK, main

ORACLE_PACKETS = [(1.0, 1.0), (2.0, 2.0), (1.5, 0.5), (1.0, 0.0), (0.3, 2.1)]
SWEEP = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def report(name, residual, tol, passed):
    print(f"{'PASS' if passed else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.1e})")


def poisson_pmf(n, s):
    if s == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-s + n * math.log(s) - math.lgamma(n + 1.0))


def test_criterion_1_coefficient_oracle():
    tol_abs, tol_imag = 1e-10, 1e-12
    worst = 0.0
    worst_imag = 0.0
    for xi0, eta0 in ORACLE_PACKETS:
        params = PacketParams(xi0, eta0)
        for mode in modes_up_to(16):
            quad = coeff_quadrature(
                params, mode, radial_order=96, angular_points=4 * abs(mode.m) + 64
            )
            analytic = coeff_elliptic(params, mode)
            worst = max(worst, abs(quad - analytic))
            worst_imag = max(worst_imag, abs(quad.imag))
    passed = worst <= tol_abs and worst_imag <= tol_imag
    report("criterion-1 coefficient oracle", worst, tol_abs, passed)
    report("criterion-1 oracle imaginary part", worst_imag, tol_imag, passed)
    assert worst <= tol_abs
    assert worst_imag <= tol_imag


def test_criterion_2_circular_support():
    tol = 1e-12
    worst = 0.0
    for xi0 in (1.0, 2.0):
        for chirality in Chirality:
            params = PacketParams(xi0, xi0, chirality=chirality)
            for mode in modes_up_to(10):
                wrong_branch = (
                    mode.m < 0 if chirality is Chirality.RETARDED else mode.m > 0
                )
                if mode.n_r > 0 or wrong_branch:
                    quad = coeff_quadrature(
                        params, mode, radial_order=96,
                        angular_points=4 * abs(mode.m) + 64,
                    )
                    worst = max(worst, abs(quad))
    passed = worst <= tol
    report("criterion-2 circular support", worst, tol, passed)
    assert worst <= tol


def test_criterion_3_normalization_and_poisson_marginal():
    tol_norm, tol_bin = 1e-12, 1e-10
    worst_deficit = 0.0
    worst_bin = 0.0
    for xi0 in SWEEP:
        for eta0 in SWEEP:
            params = PacketParams(xi0, eta0)
            table = build_table(params)
            total = math.fsum((table.c * table.c).tolist())
            worst_deficit = max(worst_deficit, 1.0 - total)
            _, p_n = marginals(table)
            s = params.mean_quanta
            for n in range(21):
                worst_bin = max(worst_bin, abs(p_n.get(n, 0.0) - poisson_pmf(n, s)))
    passed = worst_deficit <= tol_norm and worst_bin <= tol_bin
    report("criterion-3 normalization deficit", worst_deficit, tol_norm, passed)
    report("criterion-3 Poisson marginal", worst_bin, tol_bin, passed)
    assert worst_deficit <= tol_norm
    assert worst_bin <= tol_bin


def test_criterion_4_moment_identities():
    tol = 1e-9
    worst = 0.0
    for xi0 in SWEEP:
        for eta0 in SWEEP:
            params = PacketParams(xi0, eta0)
            moments = partial_moment_identities(build_table(params))
            a2 = params.half_diff**2
            b2 = params.half_sum**2
            worst = max(
                worst,
                abs(moments.net_m - xi0 * eta0),
                abs(moments.principal + 1.0 - (params.mean_quanta + 1.0)),
                abs(moments.cw_quanta - a2),
                abs(moments.ccw_quanta - b2),
            )
    # circular specialization: mean m = xi0^2 and mean energy = mean m + 1
    for xi0 in SWEEP:
        params = PacketParams(xi0, xi0)
        moments = partial_moment_identities(build_table(params))
        worst = max(
            worst,
            abs(moments.net_m - xi0**2),
            abs((moments.principal + 1.0) - (moments.net_m + 1.0)),
        )
    passed = worst <= tol
    report("criterion-4 moment identities", worst, tol, passed)
    assert worst <= tol


def test_criterion_5_radial_integral_identity():
    tol = 1e-10
    worst = 0.0
    for n in range(7):
        for mu in range(5):
            for lam in range(7):
                closed, quad = verify_laguerre_integral(n, mu, lam)
                worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
                if lam == mu and n >= 1:
                    assert closed == 0.0
    passed = worst <= tol
    report("criterion-5 radial integral identity", worst, tol, passed)
    assert worst <= tol


def test_criterion_6_classical_correspondence():
    tol = 1e-6
    worst = 0.0
    params = PacketParams(1.5, 0.5)
    grid = make_grid(params)
    times = [2.0 * math.pi * k / 64 for k in range(64)]
    samples = trace_orbit(params, times, grid, closed_form_factors(params, grid, times))
    for t, sample in zip(times, samples):
        cx, cy = classical_center(params, t)
        worst = max(
            worst,
            abs(sample.centroid_xi - cx),
            abs(sample.centroid_eta - cy),
            abs(sample.var_xi - 0.5),
            abs(sample.var_eta - 0.5),
            abs(
                (sample.centroid_xi / params.xi0) ** 2
                + (sample.centroid_eta / params.eta0) ** 2
                - 1.0
            ),
        )
    area = orbit_signed_area(samples)
    advanced = PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED)
    area_adv = orbit_signed_area(
        trace_orbit(advanced, times, grid, closed_form_factors(advanced, grid, times))
    )
    orientation_ok = area > 0.0 > area_adv
    passed = worst <= tol and orientation_ok
    report("criterion-6 classical correspondence", worst, tol, passed)
    assert worst <= tol
    assert orientation_ok


def test_criterion_7_spectral_completeness():
    tol = 1e-8
    params = PacketParams(1.5, 0.5)
    table = build_table(params)
    assert table.tail_mass < 1e-10
    grid = make_grid(params, points=257)
    evolver = SpectralEvolver(table, grid)
    worst = 0.0
    for t in (0.0, 0.7, math.pi, 5.1):
        closed = evolve_closed_form(params, grid, t)
        worst = max(worst, aligned_max_difference(closed, evolver.at(t)))
    passed = worst <= tol
    report("criterion-7 spectral completeness", worst, tol, passed)
    assert worst <= tol


def test_criterion_8_cli_contract(tmp_path, capsys):
    # verify exits 0 on the pristine build
    assert main(["verify", "--xi0", "0", "--eta0", "0"]) == EXIT_OK
    assert main(
        ["verify", "--xi0", "1.5", "--eta0", "0.5", "--grid-points", "65",
         "--tsteps", "16"]
    ) == EXIT_OK
    capsys.readouterr()

    # golden CSV outputs are byte-stable across repeated runs
    stable = True
    for name, args in [
        ("coeffs", ["coeffs", "--xi0", "1", "--eta0", "1"]),
        ("observables", ["observables", "--xi0", "2", "--eta0", "2"]),
    ]:
        first = tmp_path / f"{name}_first.csv"
        second = tmp_path / f"{name}_second.csv"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        stable = stable and first.read_bytes() == second.read_bytes()
    report("criterion-8 CLI contract", 0.0 if stable else 1.0, 0.0, stable)
    assert stable
