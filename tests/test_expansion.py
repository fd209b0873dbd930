import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from coherent2d import (
    Chirality,
    ModeIndex,
    PacketParams,
    auto_truncation,
    build_table,
    coeff_elliptic,
    coeff_quadrature,
    modes_up_to,
)
from coherent2d.expansion import (
    _MAX_LADDER,
    _MAX_TABLE_CUTOFF,
    CoefficientTable,
    _ladder,
    coeff_quadrature_batch,
    oracle_orders,
)
from coherent2d._exactsum import _EXACT_ROWS, _FSUM_ROWS, _SUM_CHUNK, fsum, fsum_products
from coherent2d.specialfn import log_factorial


def scalar_coeff_elliptic(params, mode):
    """The closed form evaluated one mode at a time in scalar log space.

    An independent route to the table: the same rows, and values within
    its roundoff, which grows with amplitude (~1e-12 relative at 49).
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


def capped_auto_truncation(s, cap=600):
    """The Poisson-tail cutoff loop from e^{-s}, with the former cap at 600."""
    if s == 0.0:
        return 0
    pmf = math.exp(-s)
    cdf = pmf
    n = 0
    while 1.0 - cdf >= 1e-13 and n < cap:
        n += 1
        pmf *= s / n
        cdf += pmf
    return n


def circular(xi0):
    return PacketParams(xi0, xi0)


class TestCircularCoefficients:
    def test_ground_amplitude(self):
        assert coeff_elliptic(circular(1.0), ModeIndex(0, 0)) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_negative_m_vanishes(self):
        assert coeff_elliptic(circular(1.0), ModeIndex(-2, 0)) == 0.0

    def test_nodal_modes_vanish(self):
        assert coeff_elliptic(circular(1.0), ModeIndex(3, 1)) == 0.0

    def test_log_space_value(self):
        expect = 2.0**4 * math.exp(-2.0) / math.sqrt(24.0)
        assert coeff_elliptic(circular(2.0), ModeIndex(4, 0)) == pytest.approx(
            expect, rel=1e-13
        )

    def test_large_m_does_not_overflow(self):
        c = coeff_elliptic(circular(3.0), ModeIndex(400, 0))
        assert math.isfinite(c)
        assert c >= 0.0

    def test_point_packet(self):
        assert coeff_elliptic(circular(0.0), ModeIndex(0, 0)) == 1.0
        assert coeff_elliptic(circular(0.0), ModeIndex(1, 0)) == 0.0


class TestEllipticCoefficients:
    def test_reduces_to_circular_on_equal_amplitudes(self):
        for xi0 in (0.0, 1.0, 2.5):
            p = PacketParams(xi0, xi0)
            for mode in modes_up_to(8):
                if mode.m >= 0 and mode.n_r == 0:
                    expect = (
                        xi0**mode.m
                        * math.exp(-0.5 * xi0**2)
                        / math.sqrt(math.factorial(mode.m))
                    )
                else:
                    expect = 0.0
                assert coeff_elliptic(p, mode) == pytest.approx(expect, abs=1e-15)

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


def captured(table):
    return math.fsum((table.c * table.c).tolist())


class TestCoefficientTable:
    def test_point_packet_single_entry(self):
        table = build_table(PacketParams(0.0, 0.0))
        assert table.m.tolist() == [0]
        assert table.n_r.tolist() == [0]
        assert table.c.tolist() == [1.0]
        assert table.tail_mass == 0.0

    def test_circular_support(self):
        table = build_table(PacketParams(1.0, 1.0))
        assert np.all(table.m >= 0) and np.all(table.n_r == 0)
        for m, c in zip(table.m.tolist(), table.c.tolist()):
            assert c * c == pytest.approx(math.exp(-1.0) / math.factorial(m), rel=1e-12)

    def test_advanced_circular_support(self):
        table = build_table(PacketParams(1.0, 1.0, chirality=Chirality.ADVANCED))
        assert np.all(table.m <= 0) and np.all(table.n_r == 0)

    def test_cutoff_respected(self):
        table = build_table(PacketParams(1.5, 0.5), n_max=6)
        assert np.all(table.principal <= 6)

    def test_normalization_at_auto_cutoff(self):
        for xi0 in (0.0, 1.0, 3.0):
            for eta0 in (0.0, 1.5, 3.0):
                table = build_table(PacketParams(xi0, eta0))
                total = captured(table)
                assert total >= 1.0 - 1e-12
                assert total + table.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_captured_mass_monotone_in_cutoff(self):
        p = PacketParams(1.5, 0.5)
        previous = -1.0
        for n_max in range(0, 21, 2):
            total = captured(build_table(p, n_max=n_max))
            assert total >= previous
            previous = total

    def test_rejects_oversized_cutoff(self):
        over = _MAX_TABLE_CUTOFF + 1
        with pytest.raises(ValueError, match=f"{over}.*{_MAX_TABLE_CUTOFF}"):
            build_table(PacketParams(1, 1), n_max=over)

    def test_entries_read_only(self):
        table = build_table(PacketParams(1.0, 1.0))
        for column in (table.m, table.n_r, table.c, table.c_squared):
            with pytest.raises(ValueError):
                column[0] = 2

    def test_squares_and_their_exact_sum(self):
        # 88,272 rows: the sum runs over more than one chunk
        table = build_table(PacketParams(20.0, 19.5))
        assert len(table) > _SUM_CHUNK
        np.testing.assert_array_equal(table.c_squared, table.c * table.c)
        assert table.sum_c_squared == math.fsum((table.c * table.c).tolist())
        assert table.tail_mass == max(0.0, 1.0 - table.sum_c_squared)
        given_tail = CoefficientTable(table.params, table.n_max, table.m, table.n_r, table.c, 0.5)
        assert (given_tail.tail_mass, given_tail.sum_c_squared) == (0.5, table.sum_c_squared)

    def test_constructor_keeps_its_own_copies(self):
        m, n_r, c = np.array([0, 1]), np.array([0, 0]), np.array([0.6, 0.8])
        table = CoefficientTable(PacketParams(1.0, 1.0), 1, m, n_r, c, 0.0)
        m[1], n_r[0], c[0] = 5, 3, 5.0
        assert (table.m.tolist(), table.n_r.tolist()) == ([0, 1], [0, 0])
        assert table.c.tolist() == [0.6, 0.8]
        assert len(table) == 2
        # a read-only array can still be written through its base
        c[0] = 0.6
        view = c[:]
        view.flags.writeable = False
        shared = CoefficientTable(PacketParams(1.0, 1.0), 1, [0, 1], [0, 0], view, 0.0)
        c[0] = 5.0
        assert shared.c.tolist() == [0.6, 0.8]
        with pytest.raises(ValueError, match="cutoff"):
            CoefficientTable(PacketParams(1.0, 1.0), 0, m, n_r, c, 0.0)
        with pytest.raises(ValueError, match="equal length"):
            CoefficientTable(PacketParams(1.0, 1.0), 1, m, n_r[:1], c, 0.0)

    def test_build_table_keeps_its_fresh_columns(self):
        # the owned path marks the columns read-only instead of copying them
        m, n_r, c = np.array([0, 1]), np.array([0, 0]), np.array([0.6, 0.8])
        table = CoefficientTable(PacketParams(1.0, 1.0), 1, m, n_r, c, _owned=True)
        assert table.m is m and table.n_r is n_r and table.c is c
        assert not (m.flags.writeable or n_r.flags.writeable or c.flags.writeable)
        assert table.sum_c_squared == math.fsum((c * c).tolist())

    def test_auto_truncation_grows_with_packet(self):
        assert auto_truncation(PacketParams(0, 0)) < auto_truncation(PacketParams(2, 1))
        assert auto_truncation(PacketParams(2, 1)) < auto_truncation(PacketParams(3, 3))

    @given(
        xi0=st.floats(min_value=0.0, max_value=2.5),
        eta0=st.floats(min_value=0.0, max_value=2.5),
    )
    def test_normalization_random_packets(self, xi0, eta0):
        table = build_table(PacketParams(xi0, eta0))
        assert captured(table) >= 1.0 - 1e-12

    def test_principal_marginal_is_poisson(self):
        # the two circular quanta are independent Poisson variables, so the
        # level populations follow Poisson((xi0^2 + eta0^2)/2)
        p = PacketParams(1.5, 0.5)
        table = build_table(p)
        s = p.mean_quanta
        level_mass: dict[int, float] = {}
        for big_n, c in zip(table.principal.tolist(), table.c.tolist()):
            level_mass[big_n] = level_mass.get(big_n, 0.0) + c * c
        for big_n in range(21):
            pmf = math.exp(-s + big_n * math.log(s) - math.lgamma(big_n + 1))
            assert level_mass.get(big_n, 0.0) == pytest.approx(pmf, abs=1e-10)


class TestColumnarTable:
    @pytest.mark.parametrize(
        "xi0,eta0",
        [(1.5, 0.5), (0.3, 2.1), (2.5, 2.5), (0.0, 0.0), (1.0, 0.0), (0.0, 3.0),
         (8.0, 8.0), (8.0, 3.0), (2.0, 8.0)],
    )
    @pytest.mark.parametrize("chirality", list(Chirality))
    def test_bitwise_equal_to_scalar_closed_form(self, xi0, eta0, chirality):
        params = PacketParams(xi0, eta0, chirality=chirality)
        table = build_table(params)
        expect = {}
        for mode in modes_up_to(table.n_max):
            c = scalar_coeff_elliptic(params, mode)
            if c != 0.0:
                expect[mode.m, mode.n_r] = c
        rows = list(zip(table.m.tolist(), table.n_r.tolist()))
        assert rows == list(expect)
        # the log-space reference itself carries up to ~1e-13 here
        want = np.array(list(expect.values()))
        assert np.all(np.abs(table.c - want) <= 1e-12 * np.abs(want))

    def test_one_mode_call_matches_the_table(self):
        params = PacketParams(2.1, 0.7, chirality=Chirality.ADVANCED)
        table = build_table(params)
        for m, n_r, c in zip(table.m.tolist(), table.n_r.tolist(), table.c.tolist()):
            assert coeff_elliptic(params, ModeIndex(m, n_r)) == c

    @given(
        xi0=st.floats(min_value=0.0, max_value=20.0),
        eta0=st.floats(min_value=0.0, max_value=20.0),
        chirality=st.sampled_from(list(Chirality)),
    )
    def test_sweep_invariants(self, xi0, eta0, chirality):
        table = build_table(PacketParams(xi0, eta0, chirality=chirality))
        keys = np.stack([table.principal, table.m], axis=1)
        later = keys[1:]
        earlier = keys[:-1]
        assert np.all(
            (later[:, 0] > earlier[:, 0])
            | ((later[:, 0] == earlier[:, 0]) & (later[:, 1] > earlier[:, 1]))
        )
        assert np.array_equal(table.principal, 2 * table.n_r + np.abs(table.m))
        assert captured(table) + table.tail_mass == pytest.approx(1.0, abs=1e-12)
        if xi0 == eta0:
            assert np.all(table.n_r == 0)
            assert np.all(table.m * table.params.chirality.sign >= 0)
        for column in (table.m, table.n_r, table.c):
            with pytest.raises(ValueError):
                column[:1] = 0


def mp_ladder(r, top):
    """e^{-r^2/2} r^n / sqrt(n!) for n = 0..top, in 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        terms = [mpmath.exp(-r * r / 2)]
        for n in range(1, top + 1):
            terms.append(terms[-1] * r / mpmath.sqrt(n))
        return terms


def relative_errors(got, want):
    mpmath = pytest.importorskip("mpmath")
    return [abs(float((mpmath.mpf(float(g)) - w) / w)) for g, w in zip(got, want)]


class TestLadders:
    def test_zero_radius_is_the_unit_ladder(self):
        for top in (0, 1, 7):
            ladder = _ladder(0.0, top)
            assert ladder.tolist() == [1.0] + [0.0] * top

    @pytest.mark.parametrize("r", [0.3, 0.999, 1.0, 2.5, -0.7, -7.3, 38.72, 1499.9**0.5])
    def test_matches_mpmath(self, r):
        # every term above 1e-290, tails included, the heavy ones to a few ulps
        top = math.floor(r * r) + math.ceil(40.0 * abs(r)) + 40
        ladder = _ladder(r, top)
        want = mp_ladder(r, top)
        kept = [n for n, w in enumerate(want) if abs(w) > 1e-290]
        errors = relative_errors(ladder[kept], [want[n] for n in kept])
        assert max(errors) <= 1e-14
        assert np.all(np.sign(ladder[kept]) == [np.sign(float(want[n])) for n in kept])

    def test_negative_radius_alternates(self):
        np.testing.assert_array_equal(
            _ladder(-7.3, 200), np.resize([1.0, -1.0], 201) * _ladder(7.3, 200)
        )

    @pytest.mark.parametrize("r", [0.3, 1.0, -2.5, 8.0, 1499.9**0.5])
    def test_longer_ladders_extend_shorter_ones(self, r):
        # the normalization range depends on r alone, so the top only
        # changes the length, never a bit of the common prefix
        longest = _ladder(r, 4000)
        for top in (0, 3, math.floor(r * r), math.floor(r * r) + 5, 1600):
            ladder = _ladder(r, top)
            assert ladder.shape == (top + 1,)
            assert ladder.tobytes() == longest[: top + 1].tobytes()

    def test_refuses_a_ladder_past_its_size_guard(self):
        # the work is bounded by the guard, not by the radius or the top
        _ladder(1040.0, 3)
        for r, top in ((1045.0, 3), (-5e4, 0), (1e200, 2), (1.0, _MAX_LADDER + 1)):
            with pytest.raises(ValueError, match=f"size guard of {_MAX_LADDER} terms"):
                _ladder(r, top)
        with pytest.raises(ValueError, match="size guard"):
            coeff_elliptic(PacketParams(1e5, 0.0), ModeIndex(0, 0))

    def test_unit_norm_near_the_size_guard(self):
        ladder = _ladder(1499.9**0.5, 4000)
        assert math.fsum((ladder * ladder).tolist()) == pytest.approx(1.0, abs=4e-16)
        assert np.all(np.abs(ladder) <= 1.0)


class TestClosedFormAccuracy:
    @pytest.mark.parametrize(
        "params",
        [PacketParams(49.2, 0.0), PacketParams(20.0, 10.0), PacketParams(20.0, 19.5),
         PacketParams(8.0, 3.0), PacketParams(3.0, 8.0, chirality=Chirality.ADVANCED)],
    )
    def test_heavy_modes_match_mpmath(self, params):
        table = build_table(params)
        heavy = np.argsort(-np.abs(table.c))[:400]
        mirrored = table.m[heavy] * params.chirality.sign < 0
        n_r, k_big = table.n_r[heavy], np.abs(table.m[heavy]) + table.n_r[heavy]
        top = int(k_big.max())
        a, b = mp_ladder(params.half_diff, top), mp_ladder(params.half_sum, top)
        want = [
            (-1) ** n * (b[n] * a[k] if flip else a[n] * b[k])
            for n, k, flip in zip(n_r.tolist(), k_big.tolist(), mirrored.tolist())
        ]
        assert max(relative_errors(table.c[heavy], want)) <= 1e-14


class TestAutoTruncation:
    def test_matches_the_capped_loop_wherever_it_converged(self):
        # the search used to stop at n = 600 without saying so; below
        # s ~ 470 it ended on its own, and there the cutoff must not move
        grid = np.concatenate([np.linspace(1e-6, 10.0, 401), np.linspace(10.0, 470.0, 1841)])
        for s in grid:
            params = PacketParams(math.sqrt(2.0 * s), 0.0)
            reference = capped_auto_truncation(params.mean_quanta)
            if reference < 600:
                assert auto_truncation(params) == reference + 4

    @pytest.mark.parametrize(
        "xi0,eta0", [(22.4, 22.4), (40.0, 0.0), (30.0, 30.0), (45.0, 20.0)]
    )
    def test_smallest_cutoff_past_the_old_cap(self, xi0, eta0):
        # P(N > n_max - margin) is below the bound and P(N > n_max - margin - 1)
        # is not, up to the search's summation roundoff (~5e-15 in the tail)
        params = PacketParams(xi0, eta0)
        n_max = auto_truncation(params)
        assert n_max > 604
        assert poisson.sf(n_max - 4, params.mean_quanta) < 1.1e-13
        assert poisson.sf(n_max - 5, params.mean_quanta) > 0.9e-13

    def test_refuses_packets_past_the_size_guard(self):
        with pytest.raises(ValueError, match=f"size guard {_MAX_TABLE_CUTOFF}"):
            auto_truncation(PacketParams(80.0, 80.0))


def fsum_outcome(x):
    """What ``math.fsum`` returns or raises on the list of ``x``."""
    try:
        return math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def exact_sum_outcome(x):
    try:
        return fsum(x)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def same_float(got, want) -> bool:
    """Equal as floats, NaN to NaN and each zero to its own sign."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def assert_same_sum(x):
    """``fsum`` is ``math.fsum`` on x, and on x padded with -0.0 past
    ``_FSUM_ROWS``, which takes the key sums however short x is."""
    x = np.asarray(x, dtype=float)
    for values in (x, np.concatenate([x, np.full(_FSUM_ROWS + 1, -0.0)])):
        want, got = fsum_outcome(values), exact_sum_outcome(values)
        if isinstance(want, float):
            assert isinstance(got, float) and same_float(got, want)
        else:
            assert got == want


def fsum_terms_outcome(sums, weights, terms):
    """What ``sums(weights, terms)`` returns, or the first error it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return sums(weights, terms)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def math_fsum_terms(weights, terms):
    """One ``math.fsum`` per term over its masked products, in order."""
    totals = []
    for values, where in terms:
        products = weights if values is None else weights * values
        totals.append(math.fsum((products if where is None else products[where]).tolist()))
    return totals


TINY = 5e-324
SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, TINY, -TINY, 2.0**-1060,
    2.0**960, -(2.0**960), 2.0**1000, 1.7e308, -1.7e308,
]
CHUNK_EDGE = np.zeros(2 * _SUM_CHUNK + 3)
CHUNK_EDGE[[_SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1]] = [1.0, 2.0**-53, 2.0**-105]


class TestExactSum:
    """``_exactsum.fsum`` returns what ``math.fsum`` returns, bit for bit."""

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        length=st.integers(min_value=1, max_value=2 * _SUM_CHUNK + 7),
        shift=st.integers(min_value=-1100, max_value=0),
    )
    def test_matches_fsum(self, values, length, shift):
        # the drawn values repeated past a chunk, and scaled down into the
        # subnormals, where a sum is exact only with every bit kept
        x = np.resize(np.array(values), length)
        assert_same_sum(x)
        with np.errstate(under="ignore"):
            assert_same_sum(np.ldexp(x, shift))

    @settings(max_examples=100)
    @given(
        pool=st.lists(
            st.one_of(
                st.sampled_from(SPECIAL_VALUES),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-(2.0**-1022), 2.0**-1022),
            ),
            min_size=1,
            max_size=24,
        ),
        rows=st.one_of(st.integers(1, 2 * _FSUM_ROWS + 2), st.integers(1, 20_000)),
        columns=st.lists(
            st.tuples(
                st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=1, max_size=5)),
                st.one_of(st.none(), st.integers(0, 2**32 - 1)),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(pool=[-0.0], rows=_FSUM_ROWS, columns=[(None, None), ([0], 1)], seed=0)
    @example(pool=[-0.0], rows=_FSUM_ROWS + 1, columns=[(None, None), ([0], 1)], seed=0)
    @example(pool=[math.inf, -math.inf, 1.0], rows=_FSUM_ROWS + 9, columns=[(None, 1)], seed=2)
    @example(pool=[math.inf, 2.0], rows=30, columns=[([1, 0], None), ([1], 3)], seed=4)
    @example(pool=[2.0**960, 1.0], rows=_FSUM_ROWS + 2, columns=[([1, -1, 1], None)], seed=5)
    @example(pool=[TINY, -3 * TINY, 2.0**-1060], rows=5000, columns=[(None, None)] * 8, seed=6)
    def test_products_match_fsum(self, pool, rows, columns, seed):
        """``fsum_products`` is one ``math.fsum`` per masked product column,
        bit for bit or by the same error, on either side of ``_FSUM_ROWS``:
        NaN, infinities and their sum, values of 2^960 and more, sums of
        -0.0, zero columns and subnormals included."""
        weights = np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=rows)]
        terms = [
            (
                None if values is None else np.resize(np.array(values, dtype=np.int64), rows),
                None if mask is None else np.random.default_rng(mask).random(rows) < 0.5,
            )
            for values, mask in columns
        ]
        want = fsum_terms_outcome(math_fsum_terms, weights, terms)
        got = fsum_terms_outcome(fsum_products, weights, terms)
        if isinstance(want, list):
            assert isinstance(got, list) and len(got) == len(want)
            assert all(same_float(a, b) for a, b in zip(got, want))
        else:
            assert got == want

    @pytest.mark.parametrize(
        "x",
        [
            [],
            [0.0],
            [-0.0],
            [-0.0, 0.0],
            [-0.0] * 3,
            [TINY] * 3,
            [-TINY, TINY],
            [TINY, -TINY, -0.0],
            [1.0, -1.0],
            [1e308, -1e308, 1e-300],
            [1e-300, 1e308, 1e-300, -1e308],
            [1.0, 2.0**-53],  # a tie, kept at even
            [1.0, 2.0**-53, 2.0**-105],  # just past the tie
            [-1.0, -(2.0**-53), -(2.0**-105)],
            [2.0**1023, 2.0**970],
            [1.7e308, -1.7e308, 1.7e308],
            [1e308, 1e308, -1e308],  # fsum's intermediate overflow
            [1.7e308, 1.7e308],
            [2.0**959, 2.0**959, -(2.0**959)],  # below the scaling's overflow
            [2.0**960, 2.0**960, -(2.0**960)],  # from it, left to fsum
            [math.nan],
            [1.0, math.nan, 2.0],
            [math.inf],
            [-math.inf, 1.0],
            [math.inf, -math.inf],
            [math.inf, math.inf, 1e308],
            CHUNK_EDGE,
            -CHUNK_EDGE,
        ],
    )
    def test_edge_cases(self, x):
        assert_same_sum(x)

    def test_chunk_boundary_cancellation(self):
        # +-1 on both sides of every chunk boundary, and one tiny survivor
        x = np.zeros(3 * _SUM_CHUNK)
        x[_SUM_CHUNK - 1 :: _SUM_CHUNK] = 1.0
        x[_SUM_CHUNK :: _SUM_CHUNK] = -1.0
        x[-1] = TINY
        assert fsum(x) == math.fsum(x.tolist()) == TINY

    def test_rows_past_the_float64_digit_sums(self):
        # one key whose low digit sums pass 2^53 unless they are carried
        # into int64 every _EXACT_ROWS rows
        x = np.full(_EXACT_ROWS + 5, 1.0 + (2.0**32 - 1) * 2.0**-52)
        x[-1] = 2.0**-40
        assert fsum(x) == math.fsum(x.tolist())
