import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, roots_laguerre

import coherent2d
from coherent2d import (
    QuadratureRule,
    gauss_laguerre,
    laguerre,
    log_factorial,
    verify_laguerre_integral,
)
from coherent2d import specialfn
from coherent2d.specialfn import _generalized_binomial


def reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one Gauss-Laguerre rule, built alone: Golub-Welsch
    start, Newton polish on the active nodes, reciprocal Christoffel sums,
    each node's recurrence rescaled past 1e120."""

    def ladder(x):
        p, q = np.zeros_like(x), np.ones_like(x)
        s, log_scale = np.zeros_like(x), np.zeros_like(x)
        for k in range(order):
            s += q * q
            p, q = q, ((2.0 * k + 1.0 - x) * q - k * p) / (k + 1.0)
            mag = np.abs(q)
            big = mag > 1e120
            if big.any():
                inv = np.where(big, 1.0 / np.where(big, mag, 1.0), 1.0)
                p *= inv
                q *= inv
                s *= inv * inv
                log_scale += np.log(np.where(big, mag, 1.0))
        return p, q, s, log_scale

    k = np.arange(1.0, order)
    jacobi = np.diag(2.0 * np.arange(order) + 1.0) + np.diag(k, 1) + np.diag(k, -1)
    x = np.linalg.eigvalsh(jacobi)
    prev_step = np.full_like(x, math.inf)
    active = np.arange(order)
    while active.size:
        xa = x[active]
        p, q, _, _ = ladder(xa)
        delta = q * xa / (order * (q - p))
        step = np.abs(delta)
        x_new = xa - delta
        x[active] = x_new
        eps = np.finfo(float).eps
        converged = (step <= np.maximum(1e-14, 4.0 * eps * np.abs(xa))) | (x_new == xa)
        cycling = (step >= 0.5 * prev_step[active]) & (
            step <= 1e-11 * np.maximum(1.0, np.abs(xa))
        )
        prev_step[active] = step
        active = active[~(converged | cycling)]
    _, _, s, log_scale = ladder(x)
    return x, np.exp(-(np.log(s) + 2.0 * log_scale))


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 3.5, 7.2) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 0, 1.0) == 0.0
        assert laguerre(1, 2.5, 0.5) == pytest.approx(1.0 + 2.5 - 0.5, abs=0)

    def test_hand_expanded_quadratic(self):
        # L_2^1(x) = 3 - 3x + x^2/2 from the series definition
        assert laguerre(2, 1, 2.0) == pytest.approx(-1.0, abs=1e-15)
        for x in (0.0, 0.7, 3.1):
            assert laguerre(2, 1, x) == pytest.approx(3 - 3 * x + 0.5 * x * x, rel=1e-14)

    def test_value_at_zero_is_binomial(self):
        for n in range(8):
            for mu in range(5):
                assert laguerre(n, mu, 0.0) == pytest.approx(
                    math.comb(n + mu, n), rel=1e-13
                )

    def test_matches_scipy(self):
        xs = np.linspace(0.0, 40.0, 23)
        for n in (0, 1, 3, 7, 20):
            for mu in (0, 1, 4):
                mine = laguerre(n, mu, xs)
                ref = eval_genlaguerre(n, mu, xs)
                scale = np.maximum(1.0, np.abs(ref))
                assert np.max(np.abs(mine - ref) / scale) < 1e-11

    def test_recurrence_consistency_sweep(self):
        # (n+1)L_{n+1} - (2n+mu+1-x)L_n + (n+mu)L_{n-1} = 0, relative to the
        # largest term, across the full supported sweep
        xs = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 9.7, 17.3, 25.0, 36.9, 50.0])
        for mu in range(7):
            for n in range(1, 50):
                lo = laguerre(n - 1, mu, xs)
                mid = laguerre(n, mu, xs)
                hi = laguerre(n + 1, mu, xs)
                resid = (n + 1) * hi - (2 * n + mu + 1 - xs) * mid + (n + mu) * lo
                scale = np.maximum.reduce(
                    [np.abs((n + 1) * hi), np.abs((2 * n + mu + 1 - xs) * mid),
                     np.abs((n + mu) * lo), np.ones_like(xs)]
                )
                assert np.max(np.abs(resid) / scale) < 1e-9

    @given(
        n=st.integers(min_value=1, max_value=40),
        mu=st.integers(min_value=0, max_value=6),
        x=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_recurrence_consistency_random(self, n, mu, x):
        lo = laguerre(n - 1, mu, x)
        mid = laguerre(n, mu, x)
        hi = laguerre(n + 1, mu, x)
        resid = (n + 1) * hi - (2 * n + mu + 1 - x) * mid + (n + mu) * lo
        scale = max(abs((n + 1) * hi), abs((2 * n + mu + 1 - x) * mid),
                    abs((n + mu) * lo), 1.0)
        assert abs(resid) / scale < 1e-9

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            laguerre(2, 0, math.inf)
        with pytest.raises(ValueError):
            laguerre(2, 0, math.nan)

    def test_rejects_excessive_degree(self):
        with pytest.raises(ValueError):
            laguerre(10**6 + 1, 0, 1.0)


class TestLogFactorial:
    def test_trivial_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_exact_small_product(self):
        assert log_factorial(10) == pytest.approx(math.log(3628800), abs=0)

    def test_matches_gammaln_beyond_table(self):
        for n in (21, 50, 170, 1000):
            assert log_factorial(n) == pytest.approx(float(gammaln(n + 1)), rel=1e-14)

    @given(n=st.integers(min_value=0, max_value=300))
    def test_monotone(self, n):
        assert log_factorial(n + 1) >= log_factorial(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestGeneralizedBinomial:
    def test_ordinary_values(self):
        assert _generalized_binomial(5, 2) == 10
        assert _generalized_binomial(3, 5) == 0
        assert _generalized_binomial(0, 0) == 1
        assert _generalized_binomial(0, 1) == 0

    def test_negative_top(self):
        assert _generalized_binomial(-2, 1) == -2
        assert _generalized_binomial(-1, 3) == -1
        assert _generalized_binomial(-4, 2) == 10


class TestGaussLaguerre:
    def test_order_one_exact(self):
        rule = gauss_laguerre(1)
        assert rule.nodes == pytest.approx([1.0], abs=1e-14)
        assert rule.weights == pytest.approx([1.0], abs=1e-14)

    def test_order_two_exact(self):
        rule = gauss_laguerre(2)
        s = math.sqrt(2.0)
        assert rule.nodes == pytest.approx([2 - s, 2 + s], abs=1e-14)
        assert rule.weights == pytest.approx([(2 + s) / 4, (2 - s) / 4], abs=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 8, 33])
    def test_cubed_moment(self, order):
        rule = gauss_laguerre(order)
        assert float(np.dot(rule.weights, rule.nodes**3)) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_moment_exactness(self, order):
        rule = gauss_laguerre(order)
        for p in range(2 * order):
            exact = float(math.factorial(p))
            got = float(np.dot(rule.weights, rule.nodes**p))
            assert abs(got - exact) / exact < 1e-11

    @pytest.mark.parametrize("order", [5, 20, 64, 96, 150])
    def test_matches_scipy_nodes(self, order):
        rule = gauss_laguerre(order)
        ref_nodes, ref_weights = roots_laguerre(order)
        assert np.max(np.abs(rule.nodes - ref_nodes)) < 1e-12 * max(1.0, rule.nodes[-1])
        assert np.max(np.abs(rule.weights - ref_weights)) < 1e-13

    def test_matches_scipy_where_finite_at_top_order(self):
        # scipy's recurrence overflows at order 512: compare where it is finite
        rule = gauss_laguerre(512)
        with np.errstate(all="ignore"):
            ref_nodes, ref_weights = roots_laguerre(512)
        finite = np.isfinite(ref_nodes)
        assert finite.sum() > 256
        scale = max(1.0, rule.nodes[-1])
        assert np.max(np.abs(rule.nodes[finite] - ref_nodes[finite])) < 1e-12 * scale
        finite = np.isfinite(ref_weights)
        assert np.all(np.abs(rule.weights[finite] - ref_weights[finite]) < 1e-13)

    def test_rules_are_memoized_per_order(self):
        assert gauss_laguerre(40) is gauss_laguerre(40)
        assert gauss_laguerre(np.int64(40)) is gauss_laguerre(order=40)

    def test_rules_built_together_are_the_rules_built_alone(self, monkeypatch):
        """One batch of orders 1-40, 64, 100, 200, 300 and 512, each node
        stopping at its own order, gives every rule bit for bit as it is
        built alone; so does a batch of one."""
        orders = [*range(1, 41), 64, 100, 200, 300, 512]
        monkeypatch.setattr(specialfn, "_RULES", {})
        specialfn._build_rules(orders[::-1])
        together = [specialfn._RULES[order] for order in orders]
        for order, rule in zip(orders, together):
            nodes, weights = reference_rule(order)
            assert rule.order == order
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()
        monkeypatch.setattr(specialfn, "_RULES", {})
        alone = gauss_laguerre(100)
        assert alone.nodes.tobytes() == together[orders.index(100)].nodes.tobytes()
        assert alone.weights.tobytes() == together[orders.index(100)].weights.tobytes()
        specialfn._build_rules([100, 100, 3])
        assert specialfn._RULES[100] is alone and len(specialfn._RULES) == 2

    def test_rule_arrays_are_read_only(self):
        rule = gauss_laguerre(12)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0

    def test_constructor_keeps_its_own_copies(self):
        nodes = np.array([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)])
        weights = np.array([(2 + math.sqrt(2.0)) / 4, (2 - math.sqrt(2.0)) / 4])
        rule = QuadratureRule(nodes=nodes, weights=weights, order=2)
        nodes[0] = 5.0
        assert rule.nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=0)
        assert nodes.flags.writeable

    def test_import_builds_no_rule(self):
        # rules are built on first use, so importing the CLI stays cheap
        src = str(Path(coherent2d.__file__).resolve().parents[1])
        code = (
            "import coherent2d.cli, coherent2d.specialfn as sf; "
            "print(len(sf._RULES))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert done.stdout.strip() == "0"

    def test_rule_invariants(self):
        for order in (1, 7, 64, 512):
            rule = gauss_laguerre(order)
            assert np.all(rule.nodes > 0)
            assert np.all(np.diff(rule.nodes) > 0)
            assert abs(float(np.sum(rule.weights)) - 1.0) < 1e-13
            assert abs(float(np.dot(rule.weights, rule.nodes)) - 1.0) < 1e-12
        # strict weight positivity holds wherever binary64 can represent it
        assert np.all(gauss_laguerre(150).weights > 0)

    @given(order=st.integers(min_value=1, max_value=80))
    def test_first_two_moments_random_order(self, order):
        rule = gauss_laguerre(order)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)
        assert float(np.dot(rule.weights, rule.nodes)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0)
        with pytest.raises(ValueError):
            gauss_laguerre(513)

    def test_constructor_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([2.0, 1.0]), weights=np.array([0.5, 0.5]), order=2)
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([1.0, 2.0]), weights=np.array([0.9, 0.2]), order=2)

    def test_orthogonality_under_quadrature(self):
        # int u^mu e^{-u} L_j^mu L_k^mu du = delta_jk Gamma(mu+j+1)/j!
        for mu in range(4):
            rule = gauss_laguerre(32)
            vals = np.array([laguerre(j, mu, rule.nodes) for j in range(11)])
            weighted = rule.weights * rule.nodes**mu
            gram = vals @ (weighted[:, None] * vals.T)
            for j in range(11):
                for k in range(11):
                    expect = math.exp(math.lgamma(mu + j + 1) - log_factorial(j)) if j == k else 0.0
                    assert gram[j, k] == pytest.approx(expect, abs=1e-10)


class TestLaguerreIntegralIdentity:
    def test_trivial_case(self):
        closed, quad = verify_laguerre_integral(0, 0, 2)
        assert closed == 2.0
        assert quad == pytest.approx(2.0, abs=1e-12)

    def test_vanishes_for_matching_power(self):
        # the integral survives only for the nodeless radial mode
        closed, quad = verify_laguerre_integral(1, 3, 3)
        assert closed == 0.0
        assert abs(quad) < 1e-10

    def test_derived_case(self):
        closed, quad = verify_laguerre_integral(2, 0, 2)
        assert closed == 2.0
        assert quad == pytest.approx(2.0, abs=1e-10)

    def test_desk_sweep(self):
        for n in range(7):
            for mu in range(5):
                for lam in range(7):
                    closed, quad = verify_laguerre_integral(n, mu, lam)
                    assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))

    def test_sweep_is_the_scalar_arithmetic(self):
        """Every (n, mu, lam) of verify's 7 x 5 x 7 sweep, from one call,
        equals bit for bit the integer closed form and the weights' dot
        product with u^lam L_n^mu(u) at one rule's nodes, one triple at a
        time."""
        closed, quad = verify_laguerre_integral(*np.ogrid[:7, :5, :7])
        assert closed.shape == quad.shape == (7, 5, 7)
        for n in range(7):
            for mu in range(5):
                for lam in range(7):
                    top = lam - mu
                    if top >= 0:
                        binomial = math.comb(top, n)
                    else:
                        binomial = (-1) ** n * math.comb(n - top - 1, n)
                    expect = float((-1) ** n * math.factorial(lam) * binomial)
                    rule = gauss_laguerre(lam + n + 2)
                    values = rule.nodes**lam * laguerre(n, mu, rule.nodes)
                    assert closed[n, mu, lam] == expect
                    assert quad[n, mu, lam].tobytes() == np.dot(rule.weights, values).tobytes()
                    if lam == mu and n >= 1:
                        assert closed[n, mu, lam] == 0.0

    def test_scalars_and_broadcasting(self):
        closed, quad = verify_laguerre_integral(2, 0, 2)
        assert np.ndim(closed) == np.ndim(quad) == 0
        closed_row, quad_row = verify_laguerre_integral(2, [0, 1, 3], 2)
        assert closed_row.shape == quad_row.shape == (3,)
        assert closed_row[0] == closed and quad_row[0] == quad

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            verify_laguerre_integral([0, 11], 0, 0)
        with pytest.raises(ValueError):
            verify_laguerre_integral(11, 0, 0)
        with pytest.raises(ValueError):
            verify_laguerre_integral(0, 9, 0)
        with pytest.raises(ValueError):
            verify_laguerre_integral(0, 0, 9)
