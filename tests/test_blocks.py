import functools
import math
import tracemalloc

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


def split_case(kind, L, system, eps):
    """A seeded vector of one kind and support L, scaled to norm one or
    to sup norm eps, whichever is smaller."""
    rng = np.random.default_rng(L)
    vals = {"random": rng.uniform(-1.0, 1.0, L),
            "sparse": np.where(rng.random(L) < 0.1, rng.uniform(0.5, 1.0, L),
                               rng.uniform(1e-4, 1e-2, L)),
            "near_flat": 1.0 + rng.uniform(-0.1, 0.1, L)}[kind]
    x = FinVector.from_dense([float(v) for v in vals])
    return x.scale(min(1.0 / norm_value(x, system, memo=None), eps / x.linf()))


# name: (the vector, built when read; eps; system)
FIXED_SPLITS = {
    "ones8": (lambda: normalized(ones(8)), 0.5, F_SYSTEM),    # criterion 09's pairs
    "flat300": (lambda: normalized(ones(300)), 0.25, F_SYSTEM),  # one refill per piece
    # flat-route reads up to 70 ones, then a read with the 0.5 that
    # jumps past the window's right end
    "flat-dip-flat": (lambda: FinVector.from_dense([1.0] * 70 + [0.5] + [1.0] * 90)
                      .scale(1 / 12), 1.0, F_SYSTEM),
}
# at support 120, eps = 1/8 gives the near-flat and random F splits tiles
# (the random one outgrows its tiles of 6 and goes on with single
# windows), every other case a ramp of windows from width 1
FIXED_SPLITS.update({f"{kind}120-{system.name}-{eps}":
                     (functools.partial(split_case, kind, 120, system, eps), eps, system)
                     for kind in ("random", "sparse", "near_flat")
                     for system in (F_SYSTEM, G_SYSTEM) for eps in (0.125, 0.25)})


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

    def test_zero_vector_has_no_pieces(self):
        assert greedy_split(FinVector.zero(), 0.5) == SplitProfile((), (), 0.5)

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

    @pytest.mark.parametrize("name", sorted(FIXED_SPLITS))
    def test_fixed_cases_match_linear_scan(self, name):
        make, eps, system = FIXED_SPLITS[name]
        assert_split_is_linear_scan(make(), eps, system)

    def test_fewer_tables_and_no_memo_writes(self, monkeypatch):
        rng = np.random.default_rng(64)
        y = normalized(FinVector.from_dense(list(1.0 + rng.uniform(-0.1, 0.1, 64))))
        engine.GLOBAL_MEMO.clear()
        calls = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *a: calls.append(a) or fill(*a))
        prof = greedy_split(y, 0.25)
        assert prof.count == 8
        # the prefix search this scan replaced filled 60 tables here
        assert len(calls) < 60
        assert len(engine.GLOBAL_MEMO) == 0

    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM], ids=lambda s: s.name)
    @pytest.mark.parametrize("L", [1, 2, 17, 49, 50, 51])
    def test_whole_table_up_to_support_50(self, monkeypatch, L, system):
        # one fill of y's whole N table up to support 50, windows past
        # it; either way the window path's split,
        # and never a table with S planes
        rng = np.random.default_rng(L)
        for x in (FinVector.from_dense(list(rng.uniform(0.05, 1.0, L))),
                  FinVector.from_dense(list(1.0 + rng.uniform(-0.1, 0.1, L)))):
            for eps in (1.0, 0.5, 0.25):
                y = x.scale(min(1.0 / norm_value(x, system, memo=None), eps / x.linf()))
                fills, builds = [], []
                fill, build_tables = engine._fill, engine.build_tables
                monkeypatch.setattr(engine, "_fill",
                                    lambda *a: fills.append(a) or fill(*a))
                monkeypatch.setattr(engine, "build_tables",
                                    lambda *a, **k: builds.append(a) or build_tables(*a, **k))
                prof = greedy_split(y, eps, system)
                monkeypatch.undo()
                assert builds == []
                if L <= 50:
                    assert len(fills) == 1
                else:   # tiles as wide as the singleton bound says, or a ramp from 1
                    assert fills[0][0].shape[1] == 2 * (blocks._tile_width(
                        tuple(map(abs, y.values)), eps, system, engine.DEFAULT_TOLERANCE) or 1)
                # no support takes a whole table now, so every split windows
                monkeypatch.setattr(blocks, "_WHOLE_TABLE_MAX", 0)
                window = blocks._greedy_split(y, eps, system, engine.DEFAULT_TOLERANCE,
                                              engine.DEFAULT_SUPPORT_GUARD, None)
                monkeypatch.undo()
                assert prof == window
                assert np.array(prof.piece_norms).tobytes() == \
                    np.array(window.piece_norms).tobytes()

    @pytest.mark.parametrize("L", range(52, 65))
    def test_near_flat_long_split_is_one_tile_fill(self, monkeypatch, L):
        # block_pipeline's splits past support 50: the singleton bound
        # sizes tiles that serve every read, so one batch fills them all
        rng = np.random.default_rng(L)
        y = normalized(FinVector.from_dense(list(1.0 + rng.uniform(-0.1, 0.1, L))))
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *a: fills.append(a) or fill(*a))
        prof = greedy_split(y, 0.25)
        monkeypatch.undo()
        assert len(fills) == 1
        pad = fills[0][0]
        assert pad.shape[0] > 1 and pad.shape[1] <= 2 * blocks._TILE_MAX
        monkeypatch.setattr(blocks, "_WHOLE_TABLE_MAX", L)
        whole = greedy_split(y, 0.25)
        assert prof == whole
        assert np.array(prof.piece_norms).tobytes() == np.array(whole.piece_norms).tobytes()

    def test_flat_run_reuses_equal_windows(self, monkeypatch):
        # every piece of the flat300 case refills a window of 64 equal
        # coefficients, which reuses the one filled first: the ramp
        # 1..64 and the last piece's shorter window, 8 fills, where one
        # fill per refill took 12
        make, eps, system = FIXED_SPLITS["flat300"]
        y = make()
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *a: fills.append(a) or fill(*a))
        prof = greedy_split(y, eps, system)
        assert [pad.shape for pad, *_ in fills] == \
            [(1, 2 * w) for w in (1, 2, 4, 8, 16, 32, 64, 40)]
        assert prof.count == 6
        # the seven tiles of 16 over 60 equal coefficients (too few to
        # route flat) are one tuple, so their batch fills one row
        fills.clear()
        assert greedy_split(FinVector.from_dense([0.1] * 60), 0.25).count == 9
        assert [pad.shape for pad, *_ in fills] == [(1, 32)]

    def test_tile_batch_holds_at_most_a_cube_of_tables(self, monkeypatch):
        # 1000 near-flat coordinates of about 0.1 split at eps = 1/4 into
        # pieces of up to 8, so tiles of 16 serve the whole split: one
        # batch of all 124 would hold 4.4 MB of tables, the cap admits 29
        rng = np.random.default_rng(1)
        y = FinVector.from_dense(list(0.1 * (1.0 + rng.uniform(-0.1, 0.1, 1000))))
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *a: fills.append(a) or fill(*a))
        tracemalloc.start()
        try:
            prof = greedy_split(y, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert peak < 2 * engine._CUBE_BYTES       # 5.2 MB without the cap
        assert {pad.shape[1] for pad, *_ in fills} == {32}
        assert max(pad.shape[0] for pad, *_ in fills) == \
            engine._CUBE_BYTES // engine.dp_table_bytes(16)
        assert prof.reconstruct() == y

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, 0.05])
    def test_refused_split_fills_nothing(self, monkeypatch, eps):
        # eps = 0.05 lies below the sup norm of this unit vector
        rng = np.random.default_rng(17)
        y = normalized(FinVector.from_dense(list(rng.uniform(0.05, 1.0, 17))))
        assert y.linf() > 0.05
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *a: fills.append(a) or fill(*a))
        with pytest.raises(DomainError):
            greedy_split(y, eps)
        assert fills == []


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

    @pytest.mark.parametrize("schedule,budget,match", [
        ([0.5], 0, "budget"), ([0.5], 2, "shorter than budget")],
        ids=["budget-0", "schedule-short"])
    def test_refused(self, schedule, budget, match):
        with pytest.raises(DomainError, match=match):
            greedy_block_select(schedule, budget)

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


def _near_flat_g_family(seed, count, L):
    """Near-flat members normalised under G: past the first part-count
    cap, so their member tables come from the capped fill."""
    rng = np.random.default_rng(seed)
    return BlockSequence(
        normalized(FinVector.from_dense(list(1.0 + rng.uniform(-0.3, 0.3, L)),
                                        start=1 + L * k), G_SYSTEM)
        for k in range(count))


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
    "near-flat-g-40": lambda: (
        _near_flat_g_family(7, 6, 40), [1.0, 0.5, 0.25], engine.DEFAULT_SUPPORT_GUARD, 3, {40}),
}
# the families stabilized under a system other than F
STABILIZE_SYSTEMS = {"near-flat-g-40": G_SYSTEM}


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
        system = STABILIZE_SYSTEMS.get(name, F_SYSTEM)
        split, splits = blocks._greedy_split, []
        monkeypatch.setattr(blocks, "_greedy_split",
                            lambda *a: splits.append((a, split(*a))) or splits[-1][1])
        build_tables, builds = engine.build_tables, []
        monkeypatch.setattr(engine, "build_tables",
                            lambda *a, **k: builds.append(a) or build_tables(*a, **k))
        _, states = stabilize_subsequence(fam, schedule, system=system, guard=guard)
        monkeypatch.undo()
        assert len(states) == levels
        fresh = {}
        for (y, eps, system_, tol, guard_, table), prof in splits:
            # a member reads its whole table exactly when the interval
            # route admits it and it does not route flat as a whole
            assert (table is not None) == (y.support_size() in tabled)
            assert (system_, tol, guard_) == (system, engine.DEFAULT_TOLERANCE, guard)
            fresh[y, eps] = greedy_split(y, eps, system, guard=guard)
            assert prof == fresh[y, eps]
        for st in states:
            for i, prof in st.profiles.items():
                assert prof == fresh[fam[i], st.eps]
        assert builds == []         # every split table is an N-only fill

    def test_member_batch_split_keeps_outputs(self, monkeypatch):
        fam, schedule, guard, _, _ = STABILIZE_FAMILIES["block-pipeline"]()

        def outputs():
            chosen, states = stabilize_subsequence(fam, schedule, guard=guard)
            return chosen, [(st, st.profiles) for st in states]
        want = outputs()
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", 4 * engine.dp_table_bytes(24))
        fill, shapes = engine._fill, []
        monkeypatch.setattr(engine, "_fill",
                            lambda pad, system, K:
                            shapes.append(pad.shape) or fill(pad, system, K))
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

    def test_overflowing_tail_reads_inf(self):
        assert tail_constant(1, [1e308] * 3) == math.inf
        assert tail_constant(1, [1e308] * 3, "capped") == math.inf

    @pytest.mark.parametrize("sched", [[-1.0, 0.5], [0.0, 0.5], [0.5, math.inf],
                                       [0.5, math.nan]], ids=["negative", "zero", "inf", "nan"])
    def test_entries_must_be_positive_and_finite(self, sched):
        with pytest.raises(DomainError, match="eps schedule"):
            tail_constant(1, sched)
