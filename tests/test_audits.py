import math

import numpy as np
import pytest

from implicitnorm import (DomainError, F_SYSTEM, FinVector, SupportGuardError,
                          Tower, audit_power, audit_product_growth_printed,
                          audit_root_power, audit_slack, audit_subadditivity,
                          audits, beta, beta_tilde, engine,
                          f_log2, find_min_constant, g_log2, gamma_factor,
                          refinement_margin, tail_layer_norm, tower_product)
from conftest import first_over_cap


class TestLogDomainWeights:
    def test_matches_direct_evaluation(self):
        for lam in (0.5, 1.0, 4.0, 20.0, 50.0):
            r = 2.0 ** lam
            assert f_log2(lam) == pytest.approx(math.log2(r + 1), rel=1e-15)
            assert g_log2(lam) == pytest.approx(math.log2(1 + r / 2), rel=1e-15)

    def test_huge_arguments_collapse(self):
        assert f_log2(8000.0) == 8000.0
        assert g_log2(8000.0) == 7999.0
        assert f_log2(math.inf) == math.inf

    def test_doubled_argument_identity_bitwise(self):
        # g(2 ell) = f(ell) exactly, including in floating point
        for ell in list(range(2, 2000)) + [10 ** 6]:
            assert math.log2(1 + (2 * ell) / 2) == math.log2(1 + ell)

    def test_scalar_weight_comparison(self):
        ell = np.arange(2, 10 ** 6 + 1, dtype=float)
        assert np.all(np.log2(ell + 1) >= np.log2((ell + 3) / 2))


class TestTower:
    def test_growth_at_least_squares(self):
        t = Tower.grow(1.5, 8)
        for a, b in zip(t.lambdas, t.lambdas[1:]):
            if math.isinf(b):
                break
            assert b >= a * a - 1e-9

    def test_g_tower(self):
        t = Tower.grow(10.0, 4, kind="g")
        assert t.lambdas[1] == pytest.approx(g_log2(10.0) * 10.0, rel=1e-15)

    def test_bad_base(self):
        with pytest.raises(DomainError):
            Tower.grow(0.0, 3)


class TestInequalityAudits:
    def test_e1_frozen(self):
        f2 = math.log2(3)
        rep = audit_slack(3.0, np.array([2.0]))
        assert rep.min_margin == pytest.approx((f2 - 1) - f2 / 3, rel=1e-12)
        assert rep.passed()
        rep = audit_slack(2.0, np.array([2.0]))
        assert rep.min_margin == pytest.approx(f2 / 2 - 1, rel=1e-12)
        assert not rep.passed()           # ~ -0.2075
        rep = audit_slack(3.0, np.array([2.0 ** 30]))
        assert rep.min_margin > 0

    def test_e2_printed_counterexample(self):
        rep = audit_product_growth_printed(4.0, np.array([4.0, 2.0 ** 40]))
        assert rep.counterexample is not None
        xi, xip, margin = rep.counterexample
        assert (xi, xip) == (4.0, 2.0 ** 40)
        expected = 4 * math.log2(5) - (math.log2(4 * 2.0 ** 40 + 1) -
                                       math.log2(5))
        assert margin == pytest.approx(expected, rel=1e-12)
        assert margin < 0

    def test_e2_printed_small_pairs_pass(self):
        rep = audit_product_growth_printed(4.0, np.array([4.0]))
        assert rep.min_margin == pytest.approx(
            4 * math.log2(5) - (math.log2(17) - math.log2(5)), rel=1e-12)
        assert rep.passed()

    def test_e2_printed_asymmetry(self):
        # margin at (2^40, 4) is positive while (4, 2^40) fails
        good = 4 * math.log2(2.0 ** 40 + 1) - (math.log2(4 * 2.0 ** 40 + 1)
                                               - math.log2(2.0 ** 40 + 1))
        assert good > 0

    def test_e2_counterexample_family_property(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = float(rng.uniform(2.5, 6.0))
            xi = float(rng.uniform(c, 2.0 ** c))
            fxi = math.log2(xi + 1)
            threshold = 2.0 ** (c * fxi + fxi + 1)
            xip = threshold * float(rng.uniform(1.0, 4.0))
            rep = audit_product_growth_printed(c, np.array([xi, xip]))
            assert rep.counterexample is not None

    def test_e2_subadditive_nonnegative(self):
        rep = audit_subadditivity()
        assert rep.min_margin >= 0.0
        assert rep.passed()
        rng = np.random.default_rng(32)
        rep = audit_subadditivity(np.exp2(rng.uniform(0, 64, 300)))
        assert rep.min_margin >= 0.0

    def test_e3_frozen(self):
        rep = audit_root_power(2.0, np.array([2.0]))
        f2 = math.log2(3)
        expected = 2 * math.sqrt(f2) - math.log2(2 ** (1 / math.sqrt(f2)) + 1)
        assert rep.min_margin == pytest.approx(expected, rel=1e-12)
        assert rep.passed()

    def test_e4_frozen(self):
        rep = audit_power(2.0, np.array([1.0]), np.array([2.0]))
        assert rep.min_margin == pytest.approx(math.log2(3), rel=1e-12)
        rep = audit_power(2.0, np.array([10.0]), np.array([4.0]))
        expected = 2 * 10 * math.log2(5) - math.log2(4.0 ** 10 + 1)
        assert rep.min_margin == pytest.approx(expected, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            audit_slack(3.0, np.array([]))


class TestFindMinConstant:
    def test_default_grids(self):
        c = find_min_constant()
        assert 2.71 <= c <= 4.0
        # E1 at xi = 2 pins the exact lattice point
        assert c == pytest.approx(2.71)

    def test_huge_xi_grid_gives_small_c(self):
        grid = np.exp2(np.arange(60, 65, dtype=float))
        c = find_min_constant(grid, np.array([1.0, 2.0, 4.0]))
        assert c < 1.2

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            find_min_constant(np.array([]), np.array([1.0]))


class TestGammaFactor:
    def test_frozen(self):
        expected = 1 / (1 - 2 / math.sqrt(math.log2(2.0 ** 20 + 1)))
        assert gamma_factor(2.0 ** 20, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            gamma_factor(15.0, 2.0)       # weight(15) = 4 = d^2 exactly

    def test_d_zero(self):
        assert gamma_factor(123.0, 0.0) == 1.0

    def test_decreases_to_one(self):
        values = [gamma_factor(2.0 ** k, 2.0) for k in (10, 20, 40, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)
        assert values[-1] == pytest.approx(1.0, abs=0.4)


class TestTowerProducts:
    def test_beta_frozen_leading_factors(self):
        res = beta(20.0, 2.0)
        assert res.leading_factors[0] == pytest.approx(2.095739215636495, rel=1e-12)
        assert res.leading_factors[1] == pytest.approx(1.1199164534514578, rel=1e-12)
        assert res.leading_factors[2] == pytest.approx(1.0050450368671688, rel=1e-12)
        assert res.value == pytest.approx(2.3589232848033506, rel=1e-11)
        assert res.tail_bound <= 1e-12

    def test_beta_d_zero_trivial(self):
        res = beta(12.0, 0.0)
        assert res.value > 1.0
        assert all(f >= 1.0 for f in res.leading_factors)
        assert res.leading_factors[0] > 1.0      # ratio term alone

    def test_beta_nonincreasing_in_base_and_at_least_one(self):
        values = [beta(lam, 2.0).value for lam in (20.0, 40.0, 80.0, 160.0)]
        assert all(v >= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_tail_bound_is_rigorous(self):
        coarse = tower_product(20.0, 2.0, tail_tol=1e-6)
        fine = tower_product(20.0, 2.0, tail_tol=1e-30)
        assert fine.factors_used >= coarse.factors_used
        drift = abs(math.log(fine.value) - math.log(coarse.value))
        assert drift <= coarse.tail_bound

    def test_base_below_square_refused(self):
        # weight at the base must exceed d^2 for the first factor to exist
        with pytest.raises(DomainError):
            beta(8000.0, 108.0)
        with pytest.raises(DomainError):
            beta_tilde(8000.0, 108.0)

    def test_valid_heavy_constant_converges_fast(self):
        d = 4 * 2.71 ** 3                 # ~79.6, the measured constant
        res = beta(8000.0, d)
        assert res.factors_used <= 10
        assert res.tail_bound <= 1e-12
        assert res.value >= 1.0
        rest = beta_tilde(8000.0, d)
        assert rest.factors_used <= 10
        assert rest.tail_bound <= 1e-12

    def test_beta_tilde_frozen(self):
        res = beta_tilde(30.0, 2.0)
        assert res.value == pytest.approx(1.771559620736657, rel=1e-11)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            tower_product(20.0, 1.0, kind="h")


class TestRefinementMargin:
    def test_flat_four_report(self):
        rep = refinement_margin(FinVector.from_dense([1.0] * 4), 2.0, 1.1)
        assert rep.lhs == pytest.approx(4 / math.log2(5), rel=1e-12)
        assert rep.r_next == pytest.approx(3.0, rel=1e-12)
        assert rep.rhs == pytest.approx(rep.gamma * rep.inner_sup, rel=1e-12)
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs, rel=1e-12)

    def test_sup_normed_vector_refused(self):
        with pytest.raises(DomainError, match="hypothesis"):
            refinement_margin(FinVector.basis(1), 2.0, 1.1)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_refused(self, r):
        with pytest.raises(DomainError, match="finite"):
            refinement_margin(FinVector.from_dense([1.0, 0.5, 0.7]), r, 0.5)

    def test_threshold_beyond_support_refused(self):
        # the layers at and beyond ceil(r) fall under the sup norm here
        with pytest.raises(DomainError, match="hypothesis"):
            refinement_margin(FinVector.from_dense([1.0, 1.0]), 3.0, 1.1)

    def test_interval_tables_built_once(self, monkeypatch):
        x = FinVector.from_dense([0.3, 1.0, -0.7, 0.9, 0.2])
        calls = []
        build_tables = engine.build_tables

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build_tables(*args, **kwargs)
        monkeypatch.setattr(engine, "build_tables", counting)
        monkeypatch.setattr(audits, "build_tables", counting)
        rep = refinement_margin(x, 2.0, 1.1)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rep.lhs == tail_layer_norm(x, 2.0)

    def test_oversized_flat_refused_before_composition_fill(self, monkeypatch):
        monkeypatch.setattr(engine, "_CONST_TABLES", {})
        L = first_over_cap()
        with pytest.raises(SupportGuardError):
            refinement_margin(FinVector.from_dense([1.0] * L), 4.0, 1.0)
        tab = engine._CONST_TABLES.get(F_SYSTEM)
        assert tab is None or tab.filled < L

    def test_gamma_domain_gate(self):
        with pytest.raises(DomainError, match="d\\^2"):
            refinement_margin(FinVector.from_dense([1.0] * 4), 2.0, 2.0)
