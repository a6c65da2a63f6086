import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implicitnorm import (BlockSequence, blocks, DomainError, F_SYSTEM, FinVector,
                          G_SYSTEM, NotEquivalentOnFamilyError, SplitProfile,
                          engine, log2_affine_system,
                          average_split_experiment, build_projection,
                          domination_margin, equivalence_constant,
                          greedy_block_select, greedy_split, l1_average_block,
                          norm_value, projection_norm_estimate,
                          split_count_bounds, stabilize_subsequence,
                          tail_constant)
from implicitnorm.blocks import growth_index_repr
from conftest import normalized, random_block_sequence, random_vector

ones = lambda n: FinVector.from_dense([1.0] * n)


def linear_split(y, eps, system):
    """greedy_split by its definition: grow each piece while the next
    right end keeps the norm within eps, every norm a fresh evaluation."""
    coords, pieces, norms, p = y.coords, [], [], 0
    while p < len(coords):
        e, nv = p, norm_value(FinVector(coords[p:p + 1]), system, memo=None)
        while e + 1 < len(coords):
            val = norm_value(FinVector(coords[p:e + 2]), system, memo=None)
            if val > eps and not engine._close(val, eps, engine.DEFAULT_TOLERANCE):
                break
            e, nv = e + 1, val
        pieces.append(FinVector(coords[p:e + 1]))
        norms.append(nv)
        p = e + 1
    return SplitProfile(tuple(pieces), tuple(norms), eps)


def assert_split_is_linear_scan(y, eps, system=F_SYSTEM):
    prof = greedy_split(y, eps, system)
    assert prof.to_jsonable() == linear_split(y, eps, system).to_jsonable()
    for piece, nv in zip(prof.pieces, prof.piece_norms):
        assert nv == norm_value(piece, system, memo=None)


AFFINE = log2_affine_system("affine", 2, 1.5, 0.75)


class TestGreedySplit:
    def test_four_ones_eps_07(self):
        y = normalized(ones(4))
        prof = greedy_split(y, 0.7)
        assert prof.count == 4
        single = 1 / (4 / math.log2(5))
        assert all(nv == pytest.approx(single, rel=1e-12)
                   for nv in prof.piece_norms)
        # a pair would exceed eps: 2a/w(2) ~ 0.7325
        assert 2 * single / math.log2(3) > 0.7

    def test_whole_vector_fits(self):
        y = normalized(FinVector.from_dense([0.2, 1.0, -0.3]))
        prof = greedy_split(y, 1.0)
        assert prof.count == 1
        assert prof.pieces[0] == y

    def test_eight_ones_boundary_pairs(self):
        y = normalized(ones(8))
        prof = greedy_split(y, 0.5)
        assert prof.count == 4
        assert all(p.support_size() == 2 for p in prof.pieces)
        # w(8) = 2 w(2) makes the pair norm exactly one half
        assert all(abs(nv - 0.5) <= 1e-12 for nv in prof.piece_norms)

    def test_reconstruction_and_determinism(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y = normalized(random_vector(rng, max_support=10))
            if y.linf() > 0.6:
                continue
            a = greedy_split(y, 0.6)
            b = greedy_split(y, 0.6)
            assert a == b
            assert a.reconstruct() == y
            assert all(nv <= 0.6 + 1e-9 for nv in a.piece_norms)

    def test_coordinate_exceeds_eps(self):
        with pytest.raises(DomainError, match="coordinate exceeds"):
            greedy_split(FinVector.from_dense([1.0, 0.1]), 0.5)

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            greedy_split(ones(2), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(system=st.sampled_from([F_SYSTEM, G_SYSTEM, AFFINE]),
           kind=st.sampled_from(["near_flat", "random", "quarter"]),
           size=st.integers(1, 80), eps=st.sampled_from([1.0, 0.5, 0.25]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_linear_scan(self, system, kind, size, eps, seed):
        rng = np.random.default_rng(seed)
        vals = {"near_flat": 1.0 + rng.uniform(-0.1, 0.1, size),
                "random": rng.uniform(-1.0, 1.0, size),
                "quarter": rng.integers(1, 5, size) * 0.25}[kind]
        x = FinVector.from_dense([float(v) for v in vals])
        y = x.scale(min(1.0 / norm_value(x, system, memo=None), eps / x.linf()))
        assert_split_is_linear_scan(y, eps, system)

    @pytest.mark.parametrize("y,eps", [
        (normalized(ones(8)), 0.5),           # criterion 09's boundary pairs
        (normalized(ones(300)), 0.25),        # one window shift per piece
        # flat-route reads up to 70 ones, then a read with the 0.5 that
        # jumps past the window's right end
        (FinVector.from_dense([1.0] * 70 + [0.5] + [1.0] * 90).scale(1 / 12), 1.0),
    ], ids=["ones8", "flat300", "flat-dip-flat"])
    def test_fixed_cases_match_linear_scan(self, y, eps):
        assert_split_is_linear_scan(y, eps)

    def test_fewer_tables_and_no_memo_writes(self, monkeypatch):
        rng = np.random.default_rng(64)
        y = normalized(FinVector.from_dense(list(1.0 + rng.uniform(-0.1, 0.1, 64))))
        engine.GLOBAL_MEMO.clear()
        calls = []
        build_tables = engine.build_tables
        monkeypatch.setattr(engine, "build_tables",
                            lambda *a, **k: calls.append(a) or build_tables(*a, **k))
        prof = greedy_split(y, 0.25)
        assert prof.count == 8
        # the prefix search this scan replaced built 60 tables here
        assert len(calls) < 60
        assert len(engine.GLOBAL_MEMO) == 0


class TestSplitCountBounds:
    def test_frozen_values(self):
        assert split_count_bounds(1.0) == (1, 7)
        assert split_count_bounds(0.5) == (2, 17)
        assert split_count_bounds(0.25) == (4, 45)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            split_count_bounds(2.0)
        with pytest.raises(DomainError):
            split_count_bounds(0.0)

    def test_counts_within_bounds(self):
        # normalized flat-ish vector with small coordinates
        rng = np.random.default_rng(22)
        for eps, length in ((1.0, 12), (0.5, 24)):
            h, H = split_count_bounds(eps)
            for _ in range(5):
                vals = 1.0 + rng.uniform(-0.1, 0.1, length)
                y = normalized(FinVector.from_dense(list(vals)))
                if y.linf() > eps / 2:
                    continue
                prof = greedy_split(y, eps)
                assert h <= prof.count <= H
                for nv in prof.piece_norms[:-1]:
                    assert nv >= eps / 2 - 1e-9


class TestL1AverageBlocks:
    def test_certificates(self):
        _, c1 = l1_average_block(1, 9)
        assert c1 == pytest.approx(1.0, rel=1e-15)
        _, c2 = l1_average_block(4, 15)
        assert c2 == pytest.approx(math.log2(61) / math.log2(16), rel=1e-15)
        _, c3 = l1_average_block(8, 31)
        assert c3 == pytest.approx(math.log2(249) / math.log2(32), rel=1e-15)

    def test_blocks_are_normalized_and_successive(self):
        seq, _ = l1_average_block(3, 7, start=5)
        assert len(seq) == 3
        assert seq[0].min_support() == 5
        for b in seq:
            assert norm_value(b) == pytest.approx(1.0, rel=1e-12)

    def test_l1_sandwich_on_simplex_grid(self):
        m, n_len = 3, 7
        seq, cert = l1_average_block(m, n_len)
        grid = [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0),
                (0.5, 1.0, 0.25), (0.2, 0.3, 0.5), (2.0, 0.0, 1.0)]
        for tup in grid:
            total = sum(tup)
            v = norm_value(seq.combine(tup))
            assert total / cert - 1e-9 <= v <= total + 1e-9

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            l1_average_block(0, 5)


class TestAverageSplitExperiment:
    def test_canonical_case_passes(self):
        rep = average_split_experiment(1.0, 2, 8, 127)
        assert rep.passed
        assert rep.lhs <= rep.norm_y + 1.0 + 1e-9
        assert rep.norm_y == pytest.approx(7 / math.log2(1017), rel=1e-12)

    def test_m_precondition_gate(self):
        with pytest.raises(DomainError, match=r"m = 4 < ceil"):
            average_split_experiment(1.0, 2, 4, 127)

    def test_certificate_precondition_gate(self):
        with pytest.raises(DomainError, match="1 \\+ eps/2"):
            average_split_experiment(1.0, 2, 8, 31)

    def test_size_guard(self):
        from implicitnorm import SupportGuardError
        with pytest.raises(SupportGuardError):
            average_split_experiment(1.0, 2, 8, 127, guard=512)


class TestEquivalence:
    def test_identical_sequences(self):
        seq = random_block_sequence(np.random.default_rng(23), count=3)
        assert equivalence_constant(seq, seq, [(1, 0, 0), (1, 1, 1)]) == 1.0

    def test_spread_basis_subsymmetry(self):
        xs = BlockSequence([FinVector.basis(i + 1) for i in range(4)])
        ys = BlockSequence([FinVector.basis(2 * i + 2) for i in range(4)])
        tuples = [(1, 0, 0, 0), (1, 1, 0, 0), (0.5, 0.25, 1, 0), (1, 1, 1, 1)]
        assert equivalence_constant(xs, ys, tuples) == 1.0

    def test_pair_blocks_vs_basis(self):
        pair = normalized(ones(2))
        ys = BlockSequence([pair.spread(lambda i: i + 2 * k) for k in range(3)])
        xs = BlockSequence([FinVector.basis(i + 1) for i in range(3)])
        tuples = [t for t in
                  [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                  if any(t)]
        value = equivalence_constant(xs, ys, tuples)
        expected = max(
            max(norm_value(xs.combine(t)) / norm_value(ys.combine(t)),
                norm_value(ys.combine(t)) / norm_value(xs.combine(t)))
            for t in tuples)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value >= 1.0

    def test_all_zero_family_rejected(self):
        xs = BlockSequence([FinVector.basis(1)])
        ys = BlockSequence([FinVector.basis(2)])
        with pytest.raises(DomainError):
            equivalence_constant(xs, ys, [(0.0,)])

    def test_zero_mismatch_reported(self):
        # one side underflows to zero under a tiny coefficient
        xs = BlockSequence([FinVector.basis(1, 1e-200)])
        ys = BlockSequence([FinVector.basis(2, 1.0)])
        with pytest.raises(NotEquivalentOnFamilyError):
            equivalence_constant(xs, ys, [(1e-200,)])


class TestDomination:
    def test_basis_margin_zero(self):
        xs = BlockSequence([FinVector.basis(i + 1) for i in range(4)])
        assert domination_margin(xs, [(1, 1, 1, 1), (0, 1, 0, 1)]) == 0.0

    def test_pair_blocks_nonnegative(self):
        pair = normalized(ones(2))
        ys = BlockSequence([pair.spread(lambda i: i + 2 * k) for k in range(3)])
        assert domination_margin(ys, [(1.0, 1.0, 1.0)]) >= -1e-9

    def test_random_blocks(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            ys = random_block_sequence(rng, count=3)
            tuples = [tuple(rng.uniform(-1, 1, 3)) for _ in range(5)]
            assert domination_margin(ys, tuples) >= -1e-9

    def test_requires_normalized(self):
        ys = BlockSequence([ones(2)])
        with pytest.raises(DomainError):
            domination_margin(ys, [(1.0,)])


class TestProjection:
    def _blocks(self):
        rng = np.random.default_rng(25)
        return random_block_sequence(rng, count=4, max_block=3)

    def test_reproduces_blocks(self):
        ys = self._blocks()
        op = build_projection(ys)
        for y in ys:
            assert (op.apply(y) - y).linf() <= 1e-9

    def test_idempotent(self):
        ys = self._blocks()
        op = build_projection(ys)
        rng = np.random.default_rng(26)
        for _ in range(15):
            x = random_vector(rng, max_support=6, span=ys[-1].max_support() + 3)
            once = op.apply(x)
            twice = op.apply(once)
            assert (twice - once).linf() <= 1e-9 * max(1.0, once.linf())

    def test_kills_offframe_coordinates(self):
        ys = self._blocks()
        op = build_projection(ys)
        far = FinVector.basis(ys[-1].max_support() + 5)
        assert op.apply(far).is_zero()

    def test_estimate_on_basis_prefix(self):
        xs = BlockSequence([FinVector.basis(i + 1) for i in range(5)])
        op = build_projection(xs)
        rng = np.random.default_rng(27)
        samples = [random_vector(rng, max_support=5, span=8) for _ in range(20)]
        rep = projection_norm_estimate(op, samples)
        assert rep.estimate <= 1.0 + 1e-12
        assert rep.passed

    def test_estimate_bounded_by_equivalence(self):
        ys = self._blocks()
        op = build_projection(ys)
        rng = np.random.default_rng(28)
        samples = [random_vector(rng, max_support=8,
                                 span=ys[-1].max_support() + 2)
                   for _ in range(30)]
        rep = projection_norm_estimate(op, samples)
        assert rep.estimate <= rep.bound + 1e-6
        assert rep.sample_count == 30

    def test_offframe_sample_ratio_zero(self):
        ys = self._blocks()
        op = build_projection(ys)
        far = FinVector.basis(ys[-1].max_support() + 7)
        assert op.apply(far).is_zero()
        rep = projection_norm_estimate(op, [far])
        assert rep.estimate == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            build_projection(BlockSequence([ones(3)]))


class TestGreedySelect:
    def test_budget_two(self):
        ys, ks, report = greedy_block_select([0.5, 0.25], 2,
                                             support_budget=256)
        assert len(ys) == 2 and len(ks) == 3
        assert ks[0] == 1
        lvl1 = report["levels"][0]
        assert lvl1["partition_bound_required"] == "1"
        assert lvl1["partition_condition_met"]        # vacuous at k = 1
        # growth index is astronomical and exactly 3*(2^t - 1)
        assert ks[1] == 3 * (2 ** 512 - 1)
        lvl2 = report["levels"][1]
        assert lvl2["partition_bound_verified"] >= 1
        assert not lvl2["partition_condition_met"]    # desk scale cannot reach
        assert not report["all_conditions_met"]

    def test_non_summable_schedule_flagged(self):
        _, _, rep_bad = greedy_block_select([1 / i for i in range(1, 5)], 2,
                                            support_budget=128)
        assert rep_bad["schedule_flagged_not_summable"]
        _, _, rep_good = greedy_block_select([2.0 ** -i for i in range(1, 5)], 2,
                                             support_budget=128)
        assert not rep_good["schedule_flagged_not_summable"]

    def test_growth_repr(self):
        assert growth_index_repr(7) == "7"
        assert growth_index_repr(3 * (2 ** 400 - 1)) == "3*(2^400-1)"


def _near_flat(rng, L, start):
    row = list(1.0 + rng.uniform(-0.1, 0.1, L))
    return normalized(FinVector.from_dense(row, start=start))


def _translates(row, count):
    return BlockSequence(FinVector.from_dense(row, start=1 + len(row) * k)
                         for k in range(count))


def _near_flat_family(seed, count, L):
    rng = np.random.default_rng(seed)
    return BlockSequence(_near_flat(rng, L, 1 + L * k) for k in range(count))


def _above_guard():
    """Four translates of one normalized near-flat block of support 16,
    which the guard of 20 admits, and two blocks of support 24 with norm
    1.5, which it refuses and whose piece count sets them apart."""
    rng = np.random.default_rng(0)
    short = list(_near_flat(rng, 16, 1).values)
    out, start = [], 1
    for L in (16, 24, 16, 24, 16, 16):
        out.append(FinVector.from_dense(short, start=start) if L == 16
                   else _near_flat(rng, 24, start).scale(1.5))
        start += L
    return BlockSequence(out)


# name -> (family, schedule, guard, levels reached, support sizes whose
# splits read the member's whole N table)
STABILIZE_FAMILIES = {
    # the benchmark's stabilize make-up: six near-flat blocks of support 24
    "block-pipeline": lambda: (
        _near_flat_family(24, 6, 24), [1.0, 0.5], engine.DEFAULT_SUPPORT_GUARD, 2, {24}),
    "flat-dip-flat-161": lambda: (
        BlockSequence(normalized(y)
                      for y in _translates([1.0] * 70 + [0.5] + [1.0] * 90, 3)),
        [1.0, 0.5, 0.25], engine.DEFAULT_SUPPORT_GUARD, 3, {161}),
    # routes flat as a whole, and the interval route refuses 800
    "flat-800": lambda: (
        BlockSequence(normalized(y) for y in _translates([1.0] * 800, 2)),
        [1.0, 0.5], engine.DEFAULT_SUPPORT_GUARD, 2, set()),
    "above-guard": lambda: (_above_guard(), [0.6, 0.6, 0.58], 20, 3, {16}),
}


class TestStabilize:
    def _flat_family(self, count=6, length=32):
        a = math.log2(length + 1) / length
        blocks = []
        pos = 1
        for _ in range(count):
            blocks.append(FinVector((pos + i, a) for i in range(length)))
            pos += length
        return BlockSequence(blocks)

    def test_identical_translates_keep_everyone(self):
        fam = self._flat_family()
        chosen, states = stabilize_subsequence(fam, [1.0, 0.5, 0.4])
        assert [s.level for s in states] == [1, 2, 3]
        assert states[0].members == (0, 1, 2, 3, 4, 5)
        assert states[1].members == (1, 2, 3, 4, 5)
        for s in states:
            # all surviving members share the level's piece count
            assert all(p.count == s.piece_count for p in s.profiles.values())
        assert all(s.agreement_ratio == 1.0 for s in states if s.agreement_ratio)

    def test_two_shape_family_clusters(self):
        a16 = math.log2(17) / 16
        a32 = math.log2(33) / 32
        blocks = []
        pos = 1
        for k in range(8):
            length = 16 if k % 2 == 0 else 32
            coeff = a16 if k % 2 == 0 else a32
            blocks.append(FinVector((pos + i, coeff) for i in range(length)))
            pos += length
        chosen, states = stabilize_subsequence(BlockSequence(blocks),
                                               [1.0, 0.5])
        level2 = states[1]
        kinds = {i % 2 for i in level2.members}
        assert len(kinds) == 1             # one shape class survives

    @pytest.mark.parametrize("name", sorted(STABILIZE_FAMILIES))
    def test_splits_equal_a_fresh_split(self, monkeypatch, name):
        fam, schedule, guard, levels, tabled = STABILIZE_FAMILIES[name]()
        split, splits = blocks._greedy_split, []
        monkeypatch.setattr(blocks, "_greedy_split",
                            lambda *a: splits.append((a, split(*a))) or splits[-1][1])
        build_tables, builds = engine.build_tables, []
        monkeypatch.setattr(engine, "build_tables",
                            lambda *a, **k: builds.append(a) or build_tables(*a, **k))
        _, states = stabilize_subsequence(fam, schedule, guard=guard)
        monkeypatch.undo()
        assert len(states) == levels
        fresh = {}
        for (y, eps, system, tol, guard_, table), prof in splits:
            # a member reads its whole table exactly when the interval
            # route admits it and it does not route flat as a whole
            assert (table is not None) == (y.support_size() in tabled)
            assert (system, tol, guard_) == (F_SYSTEM, engine.DEFAULT_TOLERANCE, guard)
            fresh[y, eps] = greedy_split(y, eps, guard=guard)
            assert prof == fresh[y, eps]
        for st in states:
            for i, prof in st.profiles.items():
                assert prof == fresh[fam[i], st.eps]
        if all(y.support_size() in tabled for y in fam):
            assert builds == []         # no split builds a window of its own

    def test_member_batch_split_keeps_outputs(self, monkeypatch):
        fam, schedule, guard, _, _ = STABILIZE_FAMILIES["block-pipeline"]()

        def outputs():
            chosen, states = stabilize_subsequence(fam, schedule, guard=guard)
            return chosen, [(st, st.profiles) for st in states]
        want = outputs()
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", 4 * engine.dp_table_bytes(24))
        fill, shapes = engine._fill, []
        monkeypatch.setattr(engine, "_fill",
                            lambda pad, system:
                            shapes.append(pad.shape) or fill(pad, system))
        assert outputs() == want
        # the six members' tables come first, in parts of four and two
        assert shapes[:2] == [(4, 48), (2, 48)]

    def test_depth_exceeding_family(self):
        fam = self._flat_family(count=3)
        chosen, states = stabilize_subsequence(fam, [1.0, 0.5, 0.4, 0.35, 0.3])
        assert len(states) < 5             # partial output, no crash


class TestTailConstant:
    def test_interpretations(self):
        sched = [0.5, 0.25, 0.125]
        assert tail_constant(1, sched) == pytest.approx(1.0 + 0.875)
        assert tail_constant(2, sched) == pytest.approx(0.5 + 0.375)
        assert tail_constant(2, sched, "capped") == \
            pytest.approx((0.25 + 0.125) + 0.375)
        with pytest.raises(DomainError):
            tail_constant(4, sched)
        with pytest.raises(DomainError):
            tail_constant(1, sched, "nope")
