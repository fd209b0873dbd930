import math

import numpy as np
import pytest

from coherent2d import (
    Chirality,
    PacketParams,
    build_table,
    closed_form_energy,
    closed_form_lz,
    compute_report,
    marginals,
    partial_moment_identities,
)
from coherent2d.expansion import CoefficientTable
from coherent2d.observables import _ladder_moments

SWEEP = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


class TestClosedForms:
    def test_angular_momentum(self):
        assert closed_form_lz(PacketParams(1.5, 0.5)) == 0.75
        assert closed_form_lz(PacketParams(2.0, 2.0)) == 4.0
        assert closed_form_lz(PacketParams(1.0, 1.0, chirality="advanced")) == -1.0

    def test_energy(self):
        assert closed_form_energy(PacketParams(0.0, 0.0)) == 1.0
        assert closed_form_energy(PacketParams(1.5, 0.5)) == 2.25
        # circular: one unit above the mean angular momentum
        p = PacketParams(2.0, 2.0)
        assert closed_form_energy(p) == closed_form_lz(p) + 1.0

    def test_physical_circular_scaling(self):
        # a circular orbit of radius R carries M R^2 omega of angular momentum
        from coherent2d import PhysicalUnits, to_dimensionless

        units = PhysicalUnits(mass=2.0, omega=3.0, hbar=0.7, x0=1.1, y0=1.1)
        params = to_dimensionless(units)
        lz_physical = closed_form_lz(params) * units.hbar
        assert lz_physical == pytest.approx(
            units.mass * units.omega * units.x0**2, rel=1e-13
        )


class TestReport:
    def test_circular_mean_m(self):
        report = compute_report(build_table(PacketParams(2.0, 2.0)))
        assert report.mean_m == pytest.approx(4.0, abs=1e-9)
        assert report.mean_nr == 0.0
        assert report.mean_energy == pytest.approx(5.0, abs=1e-9)

    def test_elliptic_mean_m(self):
        report = compute_report(build_table(PacketParams(1.5, 0.5)))
        assert report.mean_m == pytest.approx(0.75, abs=1e-9)
        assert report.mean_lz == report.mean_m

    def test_straight_line_orbit(self):
        report = compute_report(build_table(PacketParams(1.0, 0.0)))
        assert report.mean_m == pytest.approx(0.0, abs=1e-12)
        assert report.mean_lz == pytest.approx(0.0, abs=1e-12)
        assert report.mean_abs_m > 0.0

    def test_level_identity_termwise(self):
        for xi0, eta0 in [(0.0, 0.0), (1.0, 1.0), (1.5, 0.5), (3.0, 2.0)]:
            report = compute_report(build_table(PacketParams(xi0, eta0)))
            assert 2.0 * report.mean_nr + report.mean_abs_m + 1.0 == pytest.approx(
                report.mean_energy, abs=1e-12
            )
            assert abs(report.mean_m) <= report.mean_abs_m + 1e-15
            assert report.mean_energy >= 1.0 - 1e-12

    def test_rejects_heavy_tail(self):
        table = build_table(PacketParams(2.0, 2.0), n_max=3)
        with pytest.raises(ValueError):
            compute_report(table)

    def test_closed_form_agreement_sweep(self):
        for xi0 in SWEEP:
            for eta0 in SWEEP:
                p = PacketParams(xi0, eta0)
                table = build_table(p)
                report = compute_report(table)
                tol = max(1e-9, 10.0 * table.tail_mass)
                assert abs(report.mean_lz - closed_form_lz(p)) < tol
                assert abs(report.mean_energy - closed_form_energy(p)) < tol

    def test_scaling_property(self):
        base = PacketParams(1.2, 0.8)
        scaled = PacketParams(2.4, 1.6)
        r1 = compute_report(build_table(base))
        r2 = compute_report(build_table(scaled))
        assert r2.mean_lz == pytest.approx(4.0 * r1.mean_lz, abs=1e-9)
        assert r2.mean_energy - 1.0 == pytest.approx(
            4.0 * (r1.mean_energy - 1.0), abs=1e-9
        )

    def test_chirality_swap_negates_lz_only(self):
        ret = compute_report(build_table(PacketParams(1.5, 0.5)))
        adv = compute_report(
            build_table(PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED))
        )
        assert adv.mean_m == -ret.mean_m
        assert adv.mean_lz == -ret.mean_lz
        assert adv.mean_abs_m == ret.mean_abs_m
        assert adv.mean_nr == ret.mean_nr
        assert adv.mean_energy == ret.mean_energy


def fsum_report(table):
    """The report's sums as one ``math.fsum`` of each masked product column."""
    m, n_r, w = table.m, table.n_r, table.c * table.c
    nonneg = m >= 0

    def total(values, where=slice(None)):
        return math.fsum((w * values)[where].tolist())

    return {
        "mean_m": total(m),
        "mean_abs_m": total(np.abs(m)),
        "mean_nr": total(n_r),
        "mean_lz": total(m),
        "mean_energy": total(2 * n_r + np.abs(m) + 1),
        "norm_deficit": table.tail_mass,
        "nr_m_nonneg": total(n_r, nonneg),
        "nr_m_neg": total(n_r, ~nonneg),
        "ccw_quanta_m_nonneg": total(m + n_r, nonneg),
        "cw_quanta_m_neg": total(-m + n_r, ~nonneg),
    }


def report_fields(report):
    fields = {name: getattr(report, name) for name in (
        "mean_m", "mean_abs_m", "mean_nr", "mean_lz", "mean_energy", "norm_deficit"
    )}
    fields.update(vars(report.partials))
    return fields


class TestExactReport:
    @pytest.mark.parametrize(
        "xi0,eta0,chirality",
        [
            (14.0, 9.0, "retarded"),
            (14.0, 9.0, "advanced"),
            (20.0, 19.5, "retarded"),
            (20.0, 19.5, "advanced"),
            (49.2, 0.0, "retarded"),
            (14.0, 2.0, "advanced"),  # both branches of m carry weight
            (2.0, 2.0, "retarded"),  # empty and all-zero branches
            (0.0, 0.0, "advanced"),
        ],
    )
    def test_fields_equal_fsum_of_the_products(self, xi0, eta0, chirality):
        table = build_table(PacketParams(xi0, eta0, chirality=chirality))
        want = fsum_report(table)
        got = report_fields(compute_report(table))
        assert got == want
        for name, value in got.items():
            assert math.copysign(1.0, value) == math.copysign(1.0, want[name]), name

    def test_identities_from_a_given_report(self):
        table = build_table(PacketParams(1.5, 0.5))
        assert _ladder_moments(table, compute_report(table)) == partial_moment_identities(table)
        heavy = build_table(PacketParams(2.0, 2.0), n_max=18)  # tail 5.2e-8
        report = compute_report(heavy)
        with pytest.raises(ValueError, match="identity checks"):
            _ladder_moments(heavy, report)


class TestMomentIdentities:
    def test_elliptic_values(self):
        p = PacketParams(1.5, 0.5)
        moments = partial_moment_identities(build_table(p))
        assert moments.cw_quanta == pytest.approx(0.25, abs=1e-9)
        assert moments.ccw_quanta == pytest.approx(1.0, abs=1e-9)
        assert moments.principal == pytest.approx(1.25, abs=1e-9)
        assert moments.net_m == pytest.approx(0.75, abs=1e-9)

    def test_circular_single_branch(self):
        table = build_table(PacketParams(1.0, 1.0))
        moments = partial_moment_identities(table)
        report = compute_report(table)
        assert moments.cw_quanta == pytest.approx(0.0, abs=1e-12)
        assert report.partials.nr_m_nonneg == 0.0
        assert report.partials.nr_m_neg == 0.0
        assert report.partials.cw_quanta_m_neg == 0.0

    def test_identity_sweep(self):
        for xi0 in SWEEP:
            for eta0 in SWEEP:
                p = PacketParams(xi0, eta0)
                table = build_table(p)
                moments = partial_moment_identities(table)
                report = compute_report(table)
                a2 = p.half_diff**2
                b2 = p.half_sum**2
                assert moments.cw_quanta == pytest.approx(a2, abs=1e-9)
                assert moments.ccw_quanta == pytest.approx(b2, abs=1e-9)
                assert moments.principal == pytest.approx(a2 + b2, abs=1e-9)
                assert moments.net_m == pytest.approx(b2 - a2, abs=1e-9)
                # total quanta plus the zero point reproduces the mean energy
                assert moments.principal + 1.0 == pytest.approx(
                    report.mean_energy, abs=1e-9
                )

    def test_advanced_swaps_quanta_means(self):
        ret = partial_moment_identities(build_table(PacketParams(1.5, 0.5)))
        adv = partial_moment_identities(
            build_table(PacketParams(1.5, 0.5, chirality=Chirality.ADVANCED))
        )
        assert adv.cw_quanta == pytest.approx(ret.ccw_quanta, abs=1e-12)
        assert adv.ccw_quanta == pytest.approx(ret.cw_quanta, abs=1e-12)

    def test_rejects_heavy_tail(self):
        table = build_table(PacketParams(2.0, 2.0), n_max=8)
        with pytest.raises(ValueError):
            partial_moment_identities(table)


class TestMarginals:
    def test_point_packet(self):
        p_m, p_n = marginals(build_table(PacketParams(0.0, 0.0)))
        assert p_m == {0: 1.0}
        assert p_n == {0: 1.0}

    def test_circular_m_distribution(self):
        table = build_table(PacketParams(1.0, 1.0))
        p_m, _ = marginals(table)
        for m, mass in p_m.items():
            assert m >= 0
            assert mass == pytest.approx(math.exp(-1.0) / math.factorial(m), rel=1e-12)

    def test_poisson_level_distribution(self):
        p = PacketParams(1.5, 0.5)
        _, p_n = marginals(build_table(p))
        s = p.mean_quanta
        for big_n in range(21):
            pmf = math.exp(-s + big_n * math.log(s) - math.lgamma(big_n + 1))
            assert p_n.get(big_n, 0.0) == pytest.approx(pmf, abs=1e-10)

    def test_masses_sum_to_captured(self):
        table = build_table(PacketParams(2.0, 1.0))
        p_m, p_n = marginals(table)
        assert math.fsum(p_m.values()) == pytest.approx(1.0 - table.tail_mass, abs=1e-12)
        assert math.fsum(p_n.values()) == pytest.approx(1.0 - table.tail_mass, abs=1e-12)

    @staticmethod
    def loop_marginals(table):
        """The per-row dict accumulation, kept here as the reference."""
        p_m, p_n = {}, {}
        for m, big_n, w in zip(
            table.m.tolist(), table.principal.tolist(), table.c_squared.tolist()
        ):
            p_m[m] = p_m.get(m, 0.0) + w
            p_n[big_n] = p_n.get(big_n, 0.0) + w
        return dict(sorted(p_m.items())), dict(sorted(p_n.items()))

    @pytest.mark.parametrize(
        "xi0,eta0,chirality,signs",
        [(0.0, 0.0, Chirality.RETARDED, set()), (1.0, 1.0, Chirality.RETARDED, {1}),
         (1.0, 1.0, Chirality.ADVANCED, {-1}), (2.0, 1.0, Chirality.RETARDED, {-1, 1}),
         (3.0, 0.0, Chirality.ADVANCED, {-1, 1}), (0.0, 4.0, Chirality.RETARDED, {-1, 1}),
         (8.0, 3.0, Chirality.ADVANCED, {-1, 1}), (20.0, 10.0, Chirality.RETARDED, {-1, 1})],
    )
    def test_bitwise_the_row_loop(self, xi0, eta0, chirality, signs):
        """The same keys in the same order and bitwise the same sums as the
        per-row loop, over tables with m of one sign and of both."""
        table = build_table(PacketParams(xi0, eta0, chirality=chirality))
        got, expect = marginals(table), self.loop_marginals(table)
        for marginal, reference in zip(got, expect):
            assert list(marginal) == list(reference)
            assert all(type(key) is int for key in marginal)
            assert [v.hex() for v in marginal.values()] == [v.hex() for v in reference.values()]
        assert {int(np.sign(m)) for m in got[0] if m} == signs

    def test_empty_table(self):
        empty = CoefficientTable(PacketParams(1.0, 0.0), 2, [], [], [], tail_mass=1.0)
        assert marginals(empty) == self.loop_marginals(empty) == ({}, {})

    def test_negative_m_only(self):
        """Keys below zero are offset, not dropped, and zero sums stay."""
        table = CoefficientTable(
            PacketParams(1.0, 0.0), 6, [-3, -1, -3, -5], [0, 2, 1, 0], [0.5, 0.5, 0.5, 1e-170],
            tail_mass=0.0,
        )
        got = marginals(table)
        assert got == self.loop_marginals(table)
        assert list(got[0]) == [-5, -3, -1]
        assert got[0][-5] == 0.0

