import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from implicitnorm import (DomainError, EngineCheckError, F_SYSTEM, G_SYSTEM,
                          FinVector, MemoTable, SupportGuardError, WitnessTree,
                          best_sum, brute_norm, build_tables, character,
                          constant_best_sum, constant_vector_norm, engine,
                          layer_norm, log2_affine_system, norm, norm_value,
                          norm_values, norming_functional, refinement_margin,
                          tail_layer_norm)
from implicitnorm.engine import dp_table_bytes
from conftest import first_over_cap, random_vector

F2 = math.log2(3.0)     # weight of a 2-part split
ones = lambda n: FinVector.from_dense([1.0] * n)


small_vectors = st.lists(
    st.floats(-2, 2, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
    min_size=1, max_size=5,
).map(FinVector.from_dense)


class TestNormExamples:
    def test_singleton_forces_sup_branch(self):
        r = norm(FinVector.basis(7))
        assert r.value == 1.0
        assert r.character == math.inf
        assert r.witness.to_jsonable() == {"leaf": 7}

    def test_two_ones(self):
        r = norm(ones(2))
        assert r.value == pytest.approx(2 / F2, rel=1e-15)
        assert r.character == 2

    def test_four_ones(self):
        assert norm_value(ones(4)) == pytest.approx(4 / math.log2(5), rel=1e-15)

    def test_sign_flip_exact(self):
        assert norm_value(FinVector.from_dense([1.0, -1.0])) == norm_value(ones(2))

    def test_zero_vector(self):
        r = norm(FinVector.zero())
        assert r.value == 0.0 and r.witness is None and r.character is None

    # every reader on x at guard g; the constant_* readers take the flat
    # x's length and coefficient
    READERS = {
        "norm": lambda x, g: norm(x, guard=g),
        "norm_value": lambda x, g: norm_value(x, guard=g),
        "best_sum": lambda x, g: best_sum(x, 2, guard=g),
        "layer_norm": lambda x, g: layer_norm(x, 2, guard=g),
        "tail_layer_norm": lambda x, g: tail_layer_norm(x, 2, guard=g),
        "character": lambda x, g: character(x, guard=g),
        "norming_functional": lambda x, g: norming_functional(x, guard=g),
        "constant_vector_norm": lambda x, g: constant_vector_norm(
            F_SYSTEM, x.support_size(), x.values[0], guard=g),
        "constant_best_sum": lambda x, g: constant_best_sum(
            F_SYSTEM, x.support_size(), x.values[0], 2, guard=g),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    def test_guard(self, reader):
        # one refusal text whichever reader asks and whichever route the
        # vector takes: interval (5), flat (70) or flat past the memory cap
        call = self.READERS[reader]
        for L in (5, 70):
            with pytest.raises(SupportGuardError,
                               match=rf"^support size {L} exceeds guard {L - 1}$"):
                call(ones(L), L - 1)
        with pytest.raises(SupportGuardError, match=r"^support size 12000 needs "
                           r"~\d+ MiB of composition tables \(limit 1024 MiB\)$"):
            call(ones(12000), 20000)
        if not reader.startswith("constant"):
            L = first_over_cap()
            x = FinVector.from_dense(np.linspace(0.5, 1.0, L))
            with pytest.raises(SupportGuardError, match=rf"^support size {L} needs "
                               r"~\d+ MiB of DP tables \(limit 1024 MiB\)$"):
                call(x, engine.DEFAULT_SUPPORT_GUARD)

    def test_guard_applies_whatever_the_memo_holds(self):
        x = FinVector.from_dense([1, .5, .25, .3, .2])
        norm_value(x)
        with pytest.raises(SupportGuardError):
            norm_value(x, guard=4)


class TestBestSumAndLayers:
    def test_best_sum_examples(self):
        assert best_sum(ones(2), 2) == pytest.approx(2.0, rel=1e-15)
        assert best_sum(ones(4), 2) == pytest.approx(2 * (2 / F2), rel=1e-15)
        assert best_sum(FinVector.basis(1), 5) == 1.0

    def test_zero_has_no_tables(self):
        with pytest.raises(DomainError, match="zero vector"):
            build_tables(FinVector.zero())

    def test_best_sum_at_one_is_norm(self):
        x = FinVector.from_dense([1.0, -0.5, 2.0])
        assert best_sum(x, 1) == norm_value(x)

    def test_best_sum_monotone_in_k(self):
        x = FinVector.from_dense([0.3, 1.0, -0.7, 0.2, 1.1])
        vals = [best_sum(x, k) for k in range(1, 7)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_best_sum_saturates_at_l1(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            x = random_vector(rng, max_support=8)
            sat = best_sum(x, x.support_size())
            assert sat == pytest.approx(x.l1(), rel=1e-12)
            assert best_sum(x, x.support_size() + 5) == sat

    def test_layer_norm_examples(self):
        assert layer_norm(FinVector.basis(1), 2) == pytest.approx(1 / F2, rel=1e-15)
        assert layer_norm(ones(4), 2) == pytest.approx(2 * (2 / F2) / F2, rel=1e-15)
        assert layer_norm(ones(2), 3) == pytest.approx(1.0, rel=1e-15)

    def test_layer_norm_domain(self):
        with pytest.raises(DomainError):
            layer_norm(ones(2), 1)

    def test_tail_layer_examples(self):
        assert tail_layer_norm(ones(2), 2) == pytest.approx(2 / F2, rel=1e-15)
        assert tail_layer_norm(ones(2), 3) == pytest.approx(1.0, rel=1e-15)
        for r in (2, 3.5, 7):
            assert tail_layer_norm(FinVector.basis(5), r) == 1.0
        with pytest.raises(DomainError):
            tail_layer_norm(ones(2), 1.5)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_tail_layer_non_finite_threshold(self, r):
        with pytest.raises(DomainError, match="finite"):
            tail_layer_norm(ones(3), r)

    def test_norm_is_sup_of_layers(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = random_vector(rng, max_support=7)
            v = norm_value(x)
            layers = [x.linf()] + [layer_norm(x, ell)
                                   for ell in range(2, x.support_size() + 2)]
            assert max(layers) == pytest.approx(v, rel=1e-12)


class TestCharacter:
    def test_examples(self):
        assert character(FinVector.basis(3)).value == math.inf
        assert character(ones(2)).value == 2
        assert character(ones(3)).value == 3

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            character(FinVector.zero())

    def test_no_tie_on_clear_cases(self):
        assert character(ones(2)).tie is False
        r = norm(ones(2))
        assert r.character == 2 and not r.character_tie

    def test_tie_flagged_and_finite_preferred(self):
        # second coordinate w(2) - 1 makes the 2-part layer hit the sup
        # norm exactly: (1 + (w(2)-1)) / w(2) = 1
        x = FinVector.from_dense([1.0, math.log2(3.0) - 1.0])
        res = character(x)
        assert res.value == 2
        assert res.tie is True


class TestOracle:
    def test_brute_matches_engine_examples(self):
        assert brute_norm(ones(2)) == pytest.approx(2 / F2, rel=1e-15)
        assert brute_norm(FinVector.basis(5)) == 1.0
        assert brute_norm(ones(2), G_SYSTEM) == \
            pytest.approx(2 / math.log2(2.5), rel=1e-15)
        assert norm_value(ones(2), G_SYSTEM) == \
            pytest.approx(2 / math.log2(2.5), rel=1e-15)

    def test_brute_cap(self):
        with pytest.raises(SupportGuardError):
            brute_norm(ones(9))

    @given(small_vectors)
    @settings(max_examples=60, deadline=None)
    def test_interval_reduction_f(self, x):
        b = brute_norm(x)
        assert norm_value(x, memo=None) == pytest.approx(b, rel=1e-12)

    @given(small_vectors)
    @settings(max_examples=60, deadline=None)
    def test_interval_reduction_g(self, x):
        b = brute_norm(x, G_SYSTEM)
        assert norm_value(x, G_SYSTEM, memo=None) == pytest.approx(b, rel=1e-12)


def oracle_set_partition_sum(x, k, system=F_SYSTEM):
    """Independent layer oracle: max over families of at most k successive
    SETS (a support subset plus a chunking into consecutive runs) of the
    sum of brute-oracle part norms."""
    coords = x.coords
    t = len(coords)
    best = 0.0
    for mask in range(1, 1 << t):
        ps = [i for i in range(t) if mask >> i & 1]
        m = len(ps)
        for cutmask in range(1 << (m - 1)):
            parts = []
            cur = [ps[0]]
            for b in range(m - 1):
                if cutmask >> b & 1:
                    parts.append(cur)
                    cur = []
                cur.append(ps[b + 1])
            parts.append(cur)
            if len(parts) > k:
                continue
            total = sum(brute_norm(FinVector(coords[i] for i in part), system)
                        for part in parts)
            best = max(best, total)
    return best


class TestLayerOracle:
    """The layer norms run over arbitrary successive sets in their
    definition; the engine computes them over interval partitions.  An
    exhaustive set-level oracle certifies the reduction for the layers,
    not just for the norm itself."""

    @given(st.lists(st.floats(-2, 2, allow_nan=False)
                    .filter(lambda v: abs(v) > 1e-3),
                    min_size=1, max_size=4).map(FinVector.from_dense),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_best_sum_matches_set_oracle(self, x, k):
        want = oracle_set_partition_sum(x, k)
        assert best_sum(x, k) == pytest.approx(want, rel=1e-12)

    @given(st.lists(st.floats(-2, 2, allow_nan=False)
                    .filter(lambda v: abs(v) > 1e-3),
                    min_size=1, max_size=4).map(FinVector.from_dense),
           st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_layer_matches_set_oracle(self, x, ell):
        want = oracle_set_partition_sum(x, min(ell, x.support_size())) \
            / math.log2(ell + 1)
        assert layer_norm(x, ell) == pytest.approx(want, rel=1e-12)


class TestConstantFastPath:
    def test_examples(self):
        assert constant_vector_norm(F_SYSTEM, 4, 1.0) == \
            pytest.approx(4 / math.log2(5), rel=1e-15)
        assert constant_vector_norm(F_SYSTEM, 1, -2.0) == 2.0
        assert constant_vector_norm(F_SYSTEM, 48, 1.0) == \
            pytest.approx(48 / math.log2(49), rel=1e-12)

    def test_agrees_with_full_dp(self):
        for L in range(1, 21):
            assert constant_vector_norm(F_SYSTEM, L, 1.0) == \
                norm_value(ones(L), memo=None)
            assert constant_vector_norm(G_SYSTEM, L, 0.5) == \
                norm_value(ones(L).scale(0.5), G_SYSTEM, memo=None)

    def test_best_sum_agrees(self):
        for L in (3, 7, 12):
            for k in (1, 2, 5):
                assert constant_best_sum(F_SYSTEM, L, 1.0, k) == \
                    best_sum(ones(L), k)

    def test_routing_large_constant(self):
        x = ones(80).scale(0.25)
        r = norm(x)
        assert r.value == pytest.approx(0.25 * 80 / math.log2(81), rel=1e-12)
        assert r.witness.evaluate(x) == pytest.approx(r.value, rel=1e-9)
        assert sorted(r.witness.leaves()) == list(range(1, 81))

    def test_sup_norm_leaf_of_a_flat_witness(self):
        # weights near 70 cap every split below the sup norm, so the flat
        # route's witness is a leaf at the first largest entry
        wide = log2_affine_system("wide", 2, 2.0 ** 70, 2.0 ** 60)
        r = norm(ones(70).scale(0.5), wide)
        assert r.value == 0.5 and r.character == math.inf
        assert r.witness == WitnessTree.leaf(1)

    def test_domain(self):
        with pytest.raises(DomainError):
            constant_vector_norm(F_SYSTEM, 0, 1.0)

    def test_flat_law_bitwise_to_600(self):
        # Schlumprecht's identity ||e_1 + ... + e_n|| = n / log2(n + 1)
        for n in range(1, 601):
            assert constant_vector_norm(F_SYSTEM, n, 1.0) == n / math.log2(n + 1), n

    def test_tail_layers_on_constant_route(self):
        L = 70
        x = ones(L).scale(0.1)
        got = tail_layer_norm(x, 3)
        # independent arithmetic through the composition tables
        want = max([x.linf()] +
                   [constant_best_sum(F_SYSTEM, L, 0.1, min(ell, L))
                    / math.log2(ell + 1) for ell in range(3, L + 1)])
        assert got == pytest.approx(want, rel=1e-15)

    def test_g_constant_witness(self):
        x = ones(70).scale(0.2)
        r = norm(x, G_SYSTEM)
        assert r.witness.evaluate(x) == pytest.approx(r.value, rel=1e-9)
        assert r.value >= norm_value(x) - 1e-9


H_SYSTEM = log2_affine_system("h", 2, 1.5, 0.75)
# a weight below 1 at n = 4, and so not increasing
ODD_SYSTEM = engine.NormSystem("odd", 2, lambda n: {2: 1.5, 3: 1.6, 4: 0.95}.get(n, 2.0 + n))
_CONST_REFERENCE: dict = {}


def _const_reference(system, L):
    """The per-length loop that the band kernel replaced, kept as a
    reference and run once per system: every part count of every length
    up to L, from fresh tables.  Returns nu, kind and T stored [len, n]."""
    key = (system, L)
    if key not in _CONST_REFERENCE:
        nu, kind = np.zeros(L + 1), np.zeros(L + 1, dtype=np.int64)
        Tl = np.full((L + 1, L + 1), -np.inf)
        nu[1] = Tl[1, 1] = 1.0
        wv = system.weight_table(L)
        for ln in range(2, L + 1):
            sums = Tl[ln, 2:ln + 1]
            for p0 in range(1, ln, 32):
                p1 = min(p0 + 32, ln)
                np.maximum(sums, np.max(nu[p0:p1, None] + Tl[ln - p0:ln - p1:-1, 1:ln],
                                        axis=0), out=sums)
            q = sums / wv[2:ln + 1]
            a = int(np.argmax(q))
            kind[ln] = a + 2 if q[a] > 1.0 else 0
            nu[ln] = Tl[ln, 1] = max(1.0, float(q[a]))
        _CONST_REFERENCE[key] = nu, kind, Tl
    return _CONST_REFERENCE[key]


def _assert_const_matches_reference(system, L=1016):
    """nu and kind of every filled length, every part count the
    per-length row count says is filled and the singleton row n = len,
    bitwise the reference's; the other rows past that count hold -inf."""
    tab = engine._CONST_TABLES[system]
    nu, kind, Tl = _const_reference(system, L)
    top = tab.filled + 1
    assert tab.nu[:top].tobytes() == nu[:top].tobytes()
    assert tab.kind[:top].tobytes() == kind[:top].tobytes()
    for ln in range(1, top):
        r = tab.rows[ln]
        assert tab.T[1:r + 1, ln].tobytes() == Tl[ln, 1:r + 1].tobytes(), ln
        assert tab.T[ln, ln].tobytes() == Tl[ln, ln].tobytes(), ln
        col = tab.T[r + 1:, ln]
        assert np.all((col == -np.inf) | (np.arange(r + 1, len(col) + r + 1) == ln)), ln


def _reference_layer_sums(system, L, top=1016):
    return np.maximum.accumulate(_const_reference(system, top)[2][L, 1:L + 1])


@pytest.fixture
def fresh_const_tables(monkeypatch):
    monkeypatch.setattr(engine, "_CONST_TABLES", {})


@pytest.mark.usefixtures("fresh_const_tables")
class TestCompositionBand:
    """The band kernel against the per-length loop it replaced, from
    fresh tables, for each order in which readers raise rows: nu, kind
    and every layer sum a reader reaches must be the loop's, bit for bit."""

    SYSTEMS = [F_SYSTEM, G_SYSTEM, H_SYSTEM]

    def _assert_norm(self, L, system):
        x = ones(L).scale(0.3)
        r = norm(x, system)
        nu = _const_reference(system, 1016)[0]
        assert r.value == 0.3 * nu[L]
        lo = max(2, system.min_parts)
        assert (r.character, r.character_tie) == engine._character_scan(
            r.value, 0.3, 0.3, _reference_layer_sums(system, L), system, lo,
            engine.DEFAULT_TOLERANCE)

    def _assert_best_sums(self, L, system):
        want = _reference_layer_sums(system, L)
        for k in range(1, L + 1):
            assert constant_best_sum(system, L, 1.0, k) == want[k - 1], k

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_norm_then_best_sums(self, system):
        self._assert_norm(1016, system)
        self._assert_best_sums(300, system)
        _assert_const_matches_reference(system)

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_best_sums_then_norm(self, system):
        self._assert_best_sums(300, system)
        self._assert_norm(1016, system)
        _assert_const_matches_reference(system)

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_full_readers_after_capped_fill(self, system):
        constant_vector_norm(system, 1016, 1.0)
        for L in (70, 300):
            want = _reference_layer_sums(system, L)
            for k in (1, 2, 3, 7, 64, 129, L, L + 5):
                assert best_sum(ones(L), k, system) == want[min(k, L) - 1], (L, k)
            for r in (3, 4.5, 40, L, 2 * L):
                assert tail_layer_norm(ones(L), r, system) == \
                    engine._tail_layer(1.0, 1.0, want, r, system), (L, r)
        _assert_const_matches_reference(system)

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_growth_across_grow_boundaries(self, system):
        constant_vector_norm(system, 70, 1.0)
        assert constant_best_sum(system, 70, 1.0, 40) == \
            _reference_layer_sums(system, 70)[39]
        tab = engine._CONST_TABLES[system]
        for L in (100, 141, 283):       # capacity 70, then 140, 280, 560
            self._assert_norm(L, system)
            assert tab.T.shape[0] - 1 >= L
        _assert_const_matches_reference(system)

    def test_row_raises_amortized(self, monkeypatch):
        calls = []
        band = engine._ConstTables._band
        monkeypatch.setattr(engine._ConstTables, "_band",
                            lambda self, L, cap: calls.append(cap) or band(self, L, cap))
        want = _reference_layer_sums(G_SYSTEM, 1016)
        got = [constant_best_sum(G_SYSTEM, 1016, 1.0, k) for k in range(1, 1017)]
        assert np.array(got).tobytes() == want.tobytes()
        # the cap doubles from 2 while extending, then the rows at 1016 at
        # least double per raise: O(log L) calls, not one per k
        assert len(calls) <= 2 * math.ceil(math.log2(1016)), calls
        _assert_const_matches_reference(G_SYSTEM)

    def test_g_fill_stops_short_of_full_rows(self):
        constant_vector_norm(G_SYSTEM, 1016, 1.0)
        assert engine._CONST_TABLES[G_SYSTEM].rows[1016] < 1016
        _assert_const_matches_reference(G_SYSTEM)

    @pytest.mark.parametrize("system", [F_SYSTEM, H_SYSTEM], ids=lambda s: s.name)
    def test_f_fill_stops_short_of_full_rows(self, system):
        # the singleton row is stored and the hull bound rules out every
        # other missing count, so two part counts decide each length
        r = norm(ones(1016), system)
        tab = engine._CONST_TABLES[system]
        assert tab.kind[1016] == 1016 and r.character == 1016
        assert max(tab.rows[2:1017]) == 2
        _assert_const_matches_reference(system)

    @pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-9])
    def test_bounded_character_scan_raises_no_rows(self, tol):
        # every layer below 1016 misses by its bound and layer 1016 reads
        # the stored singleton row, so the scan fills nothing
        r = norm(ones(1016).scale(0.3), F_SYSTEM, tol=tol)
        assert engine._CONST_TABLES[F_SYSTEM].rows[1016] == 2
        assert (r.character, r.character_tie) == engine._character_scan(
            r.value, 0.3, 0.3, _reference_layer_sums(F_SYSTEM, 1016), F_SYSTEM, 2, tol)

    def test_affine_systems_match_reference(self):
        # seeded log2(add + scale n) systems at L = 400, fresh tables for
        # each: what the capped fill and the bounded scan read, then the
        # raised rows, bitwise the full fill's
        rng, L, seen = np.random.default_rng(28), 400, 0
        while seen < 24:
            m0, add, scale = int(rng.integers(2, 6)), rng.uniform(1, 4), rng.uniform(0.05, 3)
            try:
                system = log2_affine_system("affine", m0, add, scale)
            except DomainError:         # weight(m0) not above 1
                continue
            seen += 1
            engine._CONST_TABLES.clear()
            want = _reference_layer_sums(system, L, L)
            r = norm(ones(L), system)
            assert (r.character, r.character_tie) == engine._character_scan(
                r.value, 1.0, 1.0, want, system, max(2, m0), engine.DEFAULT_TOLERANCE)
            _assert_const_matches_reference(system, L)
            flat = engine._FlatTables(system, range(L))
            assert flat.layer_sums(5).tobytes() == want[:5].tobytes(), (m0, add, scale)
            assert flat.layer_sums().tobytes() == want.tobytes(), (m0, add, scale)
            _assert_const_matches_reference(system, L)
            del _CONST_REFERENCE[system, L]

    def test_weights_at_most_one_fill_every_part_count(self):
        # a weight below 1 puts the system outside the stop test's gate
        # (every weight read above 1), so every part count must be filled
        # even where the later weights alone would let the test stop the fill
        odd = ODD_SYSTEM
        L = 120
        constant_vector_norm(odd, L, 1.0)
        tab = engine._CONST_TABLES[odd]
        nu, kind, Tl = _const_reference(odd, L)
        assert tab.nu[:L + 1].tobytes() == nu.tobytes()
        assert tab.kind[:L + 1].tobytes() == kind.tobytes()
        assert tab.rows[L] == L


class TestCharacterPrefixScan:
    """``norm`` passes over the layers whose bound misses the value and
    reads the others exact; its character and tie flag must be those of a
    scan over every layer."""

    CASES = {
        "flat-f": (ones(70).scale(0.3), F_SYSTEM),
        "flat-g": (ones(300).scale(0.7), G_SYSTEM),
        # at tol = 0 rounding makes the layer at the winning count miss
        "flat-g-miss": (ones(72).scale(0.3), G_SYSTEM),
        "flat-h": (ones(90), H_SYSTEM),
        "flat-f-1016": (ones(1016).scale(0.3), F_SYSTEM),
        "random-f": (random_vector(np.random.default_rng(5), 12), F_SYSTEM),
        "random-g": (random_vector(np.random.default_rng(6), 12), G_SYSTEM),
        "sup-win": (FinVector.from_dense([3.0, 0.2, 0.2, 0.1]), F_SYSTEM),
        "tie": (FinVector.from_dense([1.0, math.log2(3.0) - 1.0]), F_SYSTEM),
        "near-tie": (FinVector.from_dense([1.0, math.log2(3.0) - 1.0 + 1e-12]), F_SYSTEM),
    }

    @pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-9, 1e-3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_layer_scan(self, case, tol):
        x, system = self.CASES[case]
        r = norm(x, system, tol=tol)
        vabs, c, build = engine._plan(x, system, engine.DEFAULT_SUPPORT_GUARD)
        want = engine._character_scan(r.value, max(vabs), c, build().layer_sums(), system,
                                      max(2, system.min_parts), tol)
        assert (r.character, r.character_tie) == want


class TestWitnessAndFunctional:
    def test_pair_functional_structure(self):
        phi = norming_functional(ones(2))
        data = phi.to_jsonable()
        assert data["split"]["factor"] == pytest.approx(1 / F2, rel=1e-15)
        signs = [c["sign"] for c in data["split"]["children"]]
        assert signs == [1, 1]
        assert phi.apply(ones(2)) == pytest.approx(2 / F2, rel=1e-15)

    def test_basis_functional(self):
        phi = norming_functional(FinVector.basis(4))
        assert phi.to_jsonable() == {"leaf": 4, "sign": 1}

    def test_signs_follow_coordinates(self):
        x = FinVector.from_dense([1.0, -1.0])
        phi = norming_functional(x)
        signs = [c["sign"] for c in phi.to_jsonable()["split"]["children"]]
        assert signs == [1, -1]
        assert phi.apply(x) == pytest.approx(norm_value(x), rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            norming_functional(FinVector.zero())

    def test_witness_value_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = random_vector(rng, max_support=9)
            r = norm(x)
            assert r.witness.evaluate(x) == pytest.approx(r.value, rel=1e-12)
            assert set(r.witness.leaves()) <= x.support()

    def test_dual_ball_membership(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = random_vector(rng, max_support=7)
            phi = norming_functional(x)
            for _ in range(10):
                y = random_vector(rng, max_support=7)
                assert phi.apply(y) <= norm_value(y) + 1e-9

    def test_dual_ball_membership_g_system(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = random_vector(rng, max_support=7)
            phi = norming_functional(x, G_SYSTEM)
            assert phi.apply(x) == pytest.approx(norm_value(x, G_SYSTEM),
                                                 rel=1e-12)
            for _ in range(8):
                y = random_vector(rng, max_support=7)
                assert phi.apply(y) <= norm_value(y, G_SYSTEM) + 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([F_SYSTEM, G_SYSTEM]))
    @settings(max_examples=25, deadline=None)
    def test_dual_ball_membership_at_real_sizes(self, seed, system):
        # supports of 1 to 64 drawn uniformly, overlapping in part
        rng = np.random.default_rng(seed)
        x, y = random_vector(rng, max_support=64), random_vector(rng, max_support=64)
        phi = norming_functional(x, system)
        assert phi.apply(x) == pytest.approx(norm(x, system).value, rel=1e-12)
        assert phi.apply(y) <= norm_value(y, system) * (1 + 1e-12)

    def _validate_tree(self, tree, system, lo=0):
        """Structural invariants: split weights come from the system at a
        part count at least the minimum, children sit on successive
        support ranges, leaves name real coordinates."""
        if tree.is_leaf():
            assert tree.index > lo
            return tree.index, tree.index
        assert tree.n >= system.min_parts
        assert len(tree.children) <= tree.n
        assert tree.weight == system.weight(tree.n)
        first = last = None
        for child in tree.children:
            clo, chi = self._validate_tree(child, system, lo)
            assert first is None or clo > last
            first = clo if first is None else first
            last = chi
            lo = chi
        return first, last

    def test_witness_structure(self):
        rng = np.random.default_rng(17)
        for system in (F_SYSTEM, G_SYSTEM):
            for _ in range(25):
                x = random_vector(rng, max_support=8)
                r = norm(x, system)
                self._validate_tree(r.witness, system)

    def test_tree_json_roundtrip(self):
        # the first vector's witness is a leaf, ones(4)'s a split
        from implicitnorm import Functional, WitnessTree
        for x in (FinVector.from_dense([1.0, -0.5, 2.0, 0.25]), ones(4)):
            r = norm(x)
            again = WitnessTree.from_jsonable(r.witness.to_jsonable())
            assert again == r.witness
            assert again.evaluate(x) == r.witness.evaluate(x)
            phi = norming_functional(x)
            phi2 = Functional.from_jsonable(phi.to_jsonable())
            assert phi2 == phi and phi2.apply(x) == phi.apply(x)
        assert not norm(ones(4)).witness.is_leaf()


class TestSelfCheck:
    """``norm`` evaluates its witness on x, so a kernel whose witness does
    not attain its value fails in the call itself."""

    def test_wrong_interval_witness_raises(self, monkeypatch):
        x = FinVector.from_dense([1.0, 0.5, 0.75])
        monkeypatch.setattr(engine, "_witness",
                            lambda t, i, j: WitnessTree.leaf(t.indices[1]))
        with pytest.raises(EngineCheckError):
            norm(x)

    def test_wrong_flat_witness_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_witness",
                            lambda t, i, j: WitnessTree.leaf(t.indices[0]))
        with pytest.raises(EngineCheckError):
            norm(ones(70))

    def test_flat_witnesses_pass_to_1016(self):
        for system in (F_SYSTEM, G_SYSTEM):
            for L in (65, 300, 1016):
                norm(ones(L).scale(0.3), system)


class TestNormAxioms:
    @given(small_vectors)
    @settings(max_examples=50, deadline=None)
    def test_sandwich(self, x):
        v = norm_value(x, memo=None)
        assert x.linf() <= v + 1e-15
        assert v <= x.l1() + 1e-12

    @given(small_vectors, st.integers(0, 2 ** 5 - 1))
    @settings(max_examples=50, deadline=None)
    def test_unconditionality_exact(self, x, mask):
        flipped = FinVector((i, -v if (mask >> k) & 1 else v)
                            for k, (i, v) in enumerate(x.coords))
        assert norm_value(flipped, memo=None) == norm_value(x, memo=None)

    @given(small_vectors, st.integers(2, 5), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_subsymmetry_exact(self, x, stretch, shift):
        y = x.spread(lambda i: stretch * i + shift)
        assert norm_value(y, memo=None) == norm_value(x, memo=None)

    @given(small_vectors, small_vectors)
    @settings(max_examples=50, deadline=None)
    def test_triangle(self, x, y):
        y = y.spread(lambda i: i + 2)  # overlap partially with x
        lhs = norm_value(x + y, memo=None)
        assert lhs <= norm_value(x, memo=None) + norm_value(y, memo=None) + 1e-9

    @given(small_vectors,
           st.floats(-4, 4, allow_nan=False).filter(
               lambda a: a == 0.0 or abs(a) > 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, x, a):
        assert norm_value(x.scale(a), memo=None) == \
            pytest.approx(abs(a) * norm_value(x, memo=None), rel=1e-9, abs=1e-12)

    def test_bimonotone(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            x = random_vector(rng, max_support=8)
            lo = int(rng.integers(1, 30))
            hi = lo + int(rng.integers(0, 30))
            piece = x.restrict(range(lo, hi + 1))
            assert norm_value(piece) <= norm_value(x) + 1e-12

    def test_g_dominates_f(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            x = random_vector(rng, max_support=8)
            assert norm_value(x, G_SYSTEM) >= norm_value(x) - 1e-9


def _golden_vector(L, seed, rounded):
    """Seeded non-flat vector with gaps; rounding to one decimal plants
    exact ties between candidate splits."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2.0, 2.0, L)
    if rounded:
        vals = np.round(vals, 1)
    vals[vals == 0.0] = 0.5
    vals[0] = 2.5  # never bitwise flat
    idxs = np.cumsum(rng.integers(1, 4, L))
    return FinVector((int(i), float(v)) for i, v in zip(idxs, vals))


def _golden_digest(x, system):
    """Digest of layout-independent DP output: the N and kind tables,
    every best_sum and the full norm result with its witness."""
    t = build_tables(x, system)
    L = t.size
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(t.N, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(t.kind, dtype="<i8").tobytes())
    sums = t.layer_sums()
    h.update(np.array([float(sums[min(k, L) - 1]) for k in range(1, L + 2)],
                      dtype="<f8").tobytes())
    h.update(json.dumps(norm(x, system).to_jsonable(),
                        sort_keys=True).encode())
    return h.hexdigest()


def _golden_const_digest(system):
    sums = [constant_best_sum(system, 300, 1.0, k) for k in range(1, 301)]
    return hashlib.blake2b(np.array(sums, dtype="<f8").tobytes(),
                           digest_size=16).hexdigest()


def _golden_flat_witness_digest(system):
    """Digest of flat-route norm results, witnesses included."""
    h = hashlib.blake2b(digest_size=16)
    for L in (65, 300, 1016):
        h.update(json.dumps(norm(ones(L).scale(0.3), system).to_jsonable(),
                            sort_keys=True).encode())
    return h.hexdigest()


def _golden_refinement_digest(system, xs):
    """Digest of refinement_margin reports, refusal texts included."""
    h = hashlib.blake2b(digest_size=16)
    for x in xs:
        for r, d in ((2, 1.1), (3, 0.5), (8, 1.5)):
            try:
                out = json.dumps(refinement_margin(x, r, d, system=system)
                                 .to_jsonable(), sort_keys=True)
            except DomainError as exc:
                out = f"DomainError: {exc}"
            h.update(out.encode())
    return h.hexdigest()


def _golden_n_only_digest(system, xs):
    """Digest of the N tables the N-only route (``_n_tables``) fills for
    xs, one batch per support size."""
    Ns = dict(engine._n_tables([x.values for x in xs], system, engine.DEFAULT_SUPPORT_GUARD))
    h = hashlib.blake2b(digest_size=16)
    for k in range(len(xs)):
        h.update(np.ascontiguousarray(Ns[k], dtype="<f8").tobytes())
    return h.hexdigest()


# scans of the spiked row run far past every part count the other rows need
SPIKE_SYSTEM = log2_affine_system("h", 2, 1.5, 0.7)


def _spiked_batch(L=128):
    """A sparse two-level row, a row with a spike every 8 positions and a
    geometric row, the batch the part-count cap once had to refill."""
    rng = np.random.default_rng(L)
    spiked = rng.uniform(0.3, 1.0, L)
    spiked[::8] = 8.0
    return [FinVector.from_dense(np.where(rng.random(L) < 0.2, 2.0, 0.01)),
            FinVector.from_dense(spiked), FinVector.from_dense(0.9 ** np.arange(L))]


def _golden_tail_layer_digest(system):
    """Digest of tail_layer_norm on both routes, at thresholds below,
    inside and far beyond the supports, refusal texts included."""
    xs = [_golden_vector(L, 3000 + L, rounded)
          for L in (1, 5, 16, 64) for rounded in (False, True)]
    out = []
    for x in xs + [ones(70).scale(0.3)]:
        for r in (2, 2.5, 3, 7.2, 40, 1e6, 2 ** 300):
            try:
                out.append(tail_layer_norm(x, r, system))
            except DomainError as exc:
                out.append(f"DomainError: {exc}")
    return hashlib.blake2b(json.dumps(out).encode(), digest_size=16).hexdigest()


def _loop_reference(x, system):
    """The per-part-count loop that the vectorized kernel replaced, kept
    as a reference: N, kind and S in its cube layout S[i, n, j]."""
    v = np.abs(np.array(x.values, dtype=float))
    L = len(v)
    N = np.full((L, L), -np.inf)
    S = np.full((L, L + 1, L), -np.inf)
    kind = np.zeros((L, L), dtype=np.int64)
    for j in range(L):
        for i in range(j, -1, -1):
            ln = j - i + 1
            if ln == 1:
                N[i, j] = S[i, 1, j] = v[i]
                continue
            for n in range(2, ln + 1):
                hi = j - n + 1
                S[i, n, j] = np.max(N[i, i:hi + 1] + S[i + 1:hi + 2, n - 1, j])
            best, l1v, chosen = float(np.max(v[i:j + 1])), float(np.sum(v[i:j + 1])), 0
            for n in range(2, ln + 1):
                w = system.weight(max(n, system.min_parts))
                if l1v / w < best:
                    break
                if S[i, n, j] / w > best:
                    best, chosen = S[i, n, j] / w, n
            N[i, j] = S[i, 1, j] = best
            kind[i, j] = chosen
    return N, S, kind


def _assert_matches_loop_reference(x, system):
    N, S, kind = _loop_reference(x, system)
    t = build_tables(x, system)
    assert np.array_equal(t.N, N) and np.array_equal(t.kind, kind)
    for j in range(t.size):
        for i in range(j + 1):
            assert np.array_equal(t.sums(i, j), S[i, 1:j - i + 2, j])
    return t


@functools.lru_cache(maxsize=None)
def _edge_vectors(L):
    """Three supports of size L: rounded (ties planted between splits),
    unrounded and near-flat."""
    return (_golden_vector(L, 700 + L, True), _golden_vector(L, 700 + L, False),
            _batch_vector(np.random.default_rng(L), L, "near_flat"))


@functools.lru_cache(maxsize=None)
def _edge_reference(L, system, k):
    return _loop_reference(_edge_vectors(L)[k], system)


def _close_reference(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _layer_reference(c, sums, ell, system):
    return c * float(sums[min(ell, len(sums)) - 1]) / system.weight(ell)


def _tail_layer_reference(linf, c, sums, r, system):
    """The scalar per-layer loop that the row-wise ``_tail_layer``
    replaced, kept as a reference for one 1-D ``sums``."""
    first = math.ceil(r)
    best = linf
    for ell in range(first, max(first, len(sums)) + 1):
        best = max(best, _layer_reference(c, sums, ell, system))
    return best


def _character_scan_reference(value, linf, c, sums, system, lo, hi, tol):
    """The scalar per-layer loop that the vectorized ``_character_scan``
    replaced, kept as a reference."""
    attained = None
    for ell in range(lo, hi + 1):
        if _close_reference(value, _layer_reference(c, sums, ell, system), tol):
            attained = ell
            break
    linf_hit = _close_reference(value, linf, tol)
    if attained is not None:
        return float(attained), linf_hit
    return math.inf, False


class TestLayerScans:
    """The row-wise tail-layer scan and the vectorized character scan
    against the scalar loops they replaced, bit for bit, with thresholds
    below, inside and beyond the support."""

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                  elements=st.floats(0.05, 4.0)),
           st.sampled_from([2, 2.5, 3, 7.2, 12, 12.5, 40, 2.0 ** 300]),
           st.floats(0.1, 3.0), st.sampled_from([F_SYSTEM, G_SYSTEM]))
    @settings(max_examples=80, deadline=None)
    def test_tail_layer_matches_loop(self, raw, r, c, system):
        sums = np.maximum.accumulate(raw, axis=1)
        linf = raw[:, 0]
        want = np.array([_tail_layer_reference(float(m), c, row, r, system)
                         for m, row in zip(linf, sums)])
        assert engine._tail_layer(linf, c, sums, r, system).tobytes() == want.tobytes()
        for m, row, w in zip(linf, sums, want):
            assert np.float64(engine._tail_layer(float(m), c, row, r, system)) \
                .tobytes() == w.tobytes()

    @given(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=12),
           st.floats(0.1, 3.0), st.integers(0, 11), st.sampled_from([0.0, 1e-10, 1e-6]),
           st.booleans(), st.sampled_from([engine.DEFAULT_TOLERANCE, 0.05, 0.5]),
           st.sampled_from([F_SYSTEM, G_SYSTEM]))
    @settings(max_examples=80, deadline=None)
    def test_character_scan_matches_loop(self, raw, c, pick, nudge, tie, tol, system):
        # a loose tol lets several layers hit, so the first one must win
        sums = np.maximum.accumulate(np.array(raw))
        lo, L = max(2, system.min_parts), len(raw)
        layers = [_layer_reference(c, sums, ell, system) for ell in range(lo, L + 1)]
        value = (layers or [c])[pick % max(1, len(layers))] * (1.0 + nudge)
        linf = value if tie else c * raw[0]
        got = engine._character_scan(value, linf, c, sums, system, lo, tol)
        want = _character_scan_reference(value, linf, c, sums, system, lo, L, tol)
        assert got == want and type(got[0]) is float and type(got[1]) is bool


class TestVectorizedKernel:
    @given(st.lists(st.floats(-2, 2, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
                    min_size=1, max_size=14),
           st.booleans(), st.sampled_from([F_SYSTEM, G_SYSTEM]))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference_bitwise(self, vals, rounded, system):
        if rounded:  # plant exact ties between candidate splits
            vals = [round(v, 1) or 0.5 for v in vals]
        _assert_matches_loop_reference(FinVector.from_dense(vals), system)

    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM], ids=["f", "g"])
    @pytest.mark.parametrize("L,cube", [pytest.param(L, None, id=str(L))
                                        for L in (9, 15, 16, 17, 31, 32, 33, 50, 51, 64, 65, 70)]
                             + [pytest.param(L, 0, id=f"{L}-groups")
                                for L in (9, 15, 16, 17, 31, 32, 33)])
    def test_matches_loop_reference_across_groups(self, L, cube, system, monkeypatch):
        # supports past several S groups and past the batch size, with
        # rounded coefficients planting exact ties between splits; up to
        # L = 50 the default keeps every length in one S array, and
        # "groups" keeps groups of S_GROUP lengths there too, so lengths
        # 16, 32 and 64 end a group.  An N-only G fill past support 8 keeps
        # 8 part counts (the grouping bound), so one array up to L = 128.
        # build_tables, and fills of one row and of three at width L and at
        # the system's width: N and kind bitwise the loop's, and every sum a
        # fill keeps bitwise its sum
        if cube is not None:
            monkeypatch.setattr(engine, "_CUBE_BYTES", cube)
        xs = _edge_vectors(L)
        refs = [_edge_reference(L, system, k) for k in range(len(xs))]
        fills = [(L, [build_tables(xs[0], system)])]
        for rows in (xs[:1], xs):
            for K in (L, system._fill_width(L)):
                N, kind, S = engine._fill(engine._padded([x.values for x in rows], L), system, K)
                fills.append((K, [engine.IntervalTables(system, x.indices, None, N[b],
                                                        [A[b] for A in S], kind[b])
                                  for b, x in enumerate(rows)]))
        for K, tables in fills:
            for t, (rN, rS, rkind) in zip(tables, refs):
                assert len(t.S) == (1 if cube is None and (L <= 50 or K < L)
                                    else -(-L // engine.S_GROUP))
                assert t.N.tobytes() == rN.tobytes() and np.array_equal(t.kind, rkind)
                assert int(np.isfinite(t.sums(0, L - 1)).sum()) == K
                for j in range(L):
                    for i in range(j + 1):
                        m, got = min(j - i + 1, K), t.sums(i, j)
                        assert got[:m].tobytes() == rS[i, 1:m + 1, j].tobytes(), (i, j)
                        assert (got[m:] == -np.inf).all(), (i, j)

    @pytest.mark.parametrize("L", [12, 70])
    def test_readers_are_slices_of_the_sums(self, L):
        t = build_tables(_golden_vector(L, 40 + L, True), G_SYSTEM)
        G = len(t.S[0])
        for ell in range(1, L + 1):
            got = t.length_sums(ell)
            assert got.shape == (L - ell + 1, ell)
            assert np.shares_memory(got, t.S[(ell - 1) // G])
        rng = np.random.default_rng(L)
        pairs = [(0, L - 1)] + [tuple(sorted(rng.integers(0, L, 2))) for _ in range(30)]
        for i, j in pairs:
            for n in range(2, j - i + 2):
                want = [t.N[i, m] + t.sums(m + 1, j)[n - 2] for m in range(i, j - n + 2)]
                assert t._splits(i, j, n).tobytes() == np.array(want).tobytes(), (i, j, n)

    @pytest.mark.parametrize("L", [12, 70])
    def test_right_end_views_built_when_the_witness_reads(self, L, monkeypatch):
        # the readers of S by length build no view by right end; the first
        # witness builds one per S group, and a second one builds none
        built, views = [], []
        build, by_right_end = engine.build_tables, engine._by_right_end

        def recording(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(engine, "build_tables", recording)
        monkeypatch.setattr("implicitnorm.audits.build_tables", recording)
        x = FinVector.from_dense(np.linspace(0.5, 1.0, L))
        best_sum(x, 3)
        layer_norm(x, 4)
        tail_layer_norm(x, 2.5)
        refinement_margin(x, 2.0, 1.1)
        t = build_tables(x)
        t.sums(0, L - 1)
        for ell in range(1, L + 1):
            t.length_sums(ell)
        assert len(built) == 4 and all("_ends" not in vars(b) for b in built + [t])
        assert t.kind[0, L - 1] > 0             # the witness reads splits
        monkeypatch.setattr(engine, "_by_right_end", lambda A: views.append(A) or by_right_end(A))
        first = t.witness()
        assert len(views) == len(vars(t)["_ends"]) == len(t.S)
        assert t.witness() == first and len(views) == len(t.S)

    def test_early_exit_is_reproduced(self):
        # Found by search: the right-nested all-singleton sum of this
        # support exceeds np.sum by two ulps, so the 10-part candidate
        # beats the 9-part one although its bound l1 / w(10) is below it.
        # The reference scan stops at n = 10 and keeps 9 parts; a kernel
        # without the early exit would pick 10.
        vals = [1.1731580318739827, 0.4379172840559376, 1.1766845590239043,
                1.1766845590239043, 1.1743335409239566, 1.1766845590239043,
                1.1731580318739827, 1.1755090499739305, 1.1755090499739305,
                1.1778600680738782]
        t = _assert_matches_loop_reference(FinVector.from_dense(vals), F_SYSTEM)
        singletons, nine = t.sums(0, 9)[9], t.sums(0, 9)[8]
        assert singletons > np.sum(vals)
        assert singletons / F_SYSTEM.weight(10) > nine / F_SYSTEM.weight(9) \
            > np.sum(vals) / F_SYSTEM.weight(10)
        assert t.kind[0, 9] == 9 and t.N[0, 9] == nine / F_SYSTEM.weight(9)


class TestGoldenDigests:
    """Digests recorded from the per-part-count loop kernels; any change
    to the DP kernels must reproduce their output bit for bit."""

    DP = {
        ("f", 16, False): "ca0c340224016eebc78153ba4f757f36",
        ("f", 16, True): "3974f947caa2366e1007577ff805cac6",
        ("f", 64, False): "1fbc16626d2c3f16e61a1d76dfb2b126",
        ("f", 64, True): "b405253d81d8aa75fefca1fd54d76663",
        ("f", 128, False): "fe0bd46e0ad2539cd39655bc9da8438c",
        ("f", 128, True): "50289164008927ea98cfc64875c1f76a",
        ("g", 16, False): "5368913ebf3bfffb20f6de9b81264554",
        ("g", 16, True): "5bde038878f3dd21d881bfa8b7431737",
        ("g", 64, False): "71cc2cb618a6c78c89c33e8973609646",
        ("g", 64, True): "437f3514f6b7a827ceeb78d95ebfaae7",
        ("g", 128, False): "c14b74de45d7174a3e2ceba845dc2bda",
        ("g", 128, True): "5afbc38c732f32c17cba225359af262a",
    }
    CONST = {"f": "a0b29bb58c613d02c09ec530d9e9cfb0",
             "g": "659cf97eb9053a85c0e0cf85e9f579af"}

    @pytest.mark.parametrize("name,L,rounded", sorted(DP))
    def test_interval_dp(self, name, L, rounded):
        system = F_SYSTEM if name == "f" else G_SYSTEM
        x = _golden_vector(L, 1000 + L, rounded)
        assert _golden_digest(x, system) == self.DP[(name, L, rounded)]

    @pytest.mark.parametrize("name", sorted(CONST))
    def test_composition_dp(self, name):
        system = F_SYSTEM if name == "f" else G_SYSTEM
        assert _golden_const_digest(system) == self.CONST[name]

    # recorded from the per-route witness extractors and the loop-filled
    # refinement_margin that the one witness walk and the batched
    # partition DP replaced
    FLAT_WITNESS = {"f": "056ebf2c70e9fa71499fc3265abb16a3",
                    "g": "1b9f0a40c8e0aabb43aee46092db048d"}
    REFINEMENT = {"f": "db6c342c5fef2fdd5b8bf7ec10c20d77",
                  "g": "1619089a156506b86b8a7298d7fd0cab"}

    @pytest.mark.parametrize("name", sorted(FLAT_WITNESS))
    def test_flat_witnesses(self, name):
        system = F_SYSTEM if name == "f" else G_SYSTEM
        assert _golden_flat_witness_digest(system) == self.FLAT_WITNESS[name]

    @pytest.mark.parametrize("name", sorted(REFINEMENT))
    def test_refinement_margin(self, name):
        system = F_SYSTEM if name == "f" else G_SYSTEM
        xs = [_golden_vector(L, 2000 + L, rounded)
              for L in (4, 16, 40) for rounded in (False, True)]
        assert _golden_refinement_digest(system, xs) == self.REFINEMENT[name]

    # recorded from the per-layer scalar tail-layer scan and the per-run
    # refinement_margin fill that the row-wise scan replaced
    TAIL_LAYER = {"f": "b21ba09af3426d4501acbd1767330b62",
                  "g": "cb62046fa06bedb5247a330358249ab1"}
    REFINEMENT_LARGE = {"f": "726c29f904098ee54c82eb2fef40cbc8",
                        "g": "1848d846a273bef3ef0455df273a7677"}

    # recorded from the N-only fills of the part-count cap that doubled on
    # demand, which the grouping bound's width alone replaced: G past
    # support 153, where the bound rules nothing out and the cap alone
    # stopped the fills short, and the spiked batch under h, which the cap
    # refilled
    N_ONLY = {
        ("f", 16): "df262ec61afad3e0fe0e23697aac219f",
        ("f", 64): "dc9b9afc18d5051ee4853a18951328a9",
        ("f", 128): "6848a168959b45bc264f8933f079c727",
        ("g", 16): "e961c03f313682f98479223bfc780589",
        ("g", 64): "a73dd28383a21a6f3670d99fe8d55bef",
        ("g", 128): "3a3d65e5f617473b691c7c9869af4b8c",
        ("g", 154): "5cef7417bf724c5c4f3caf0c4ac12867",
        ("g", 200): "50994fc24cf0fa248ef40a7618b63408",
        ("h", 128): "1af9ebb6806996193b923078745feea4",
    }

    @pytest.mark.parametrize("name,L", sorted(N_ONLY))
    def test_n_only_route(self, name, L):
        if name == "h":
            system, xs = SPIKE_SYSTEM, _spiked_batch(L)
        else:
            system = engine.get_system(name)
            xs = [_golden_vector(L, 1000 + L, rounded) for rounded in (False, True)]
        assert _golden_n_only_digest(system, xs) == self.N_ONLY[(name, L)]

    @pytest.mark.parametrize("name", sorted(TAIL_LAYER))
    def test_tail_layer_norm(self, name):
        system = F_SYSTEM if name == "f" else G_SYSTEM
        assert _golden_tail_layer_digest(system) == self.TAIL_LAYER[name]

    @pytest.mark.parametrize("name", sorted(REFINEMENT_LARGE))
    def test_refinement_margin_large(self, name):
        # past several S groups, with a flat input on the interval tables
        system = F_SYSTEM if name == "f" else G_SYSTEM
        xs = [_golden_vector(L, 4000 + L, rounded)
              for L in (64, 70) for rounded in (False, True)] + [ones(70)]
        assert _golden_refinement_digest(system, xs) == self.REFINEMENT_LARGE[name]


class TestMemoryGuard:
    # tracemalloc peak of build_tables on _golden_vector(128, 5) under F
    # with the per-right-end S tables the grouped layout replaced
    PER_RIGHT_END_PEAK = 6266968

    def test_default_cap_admits_912(self):
        assert dp_table_bytes(912) <= engine.DP_MEMORY_LIMIT_BYTES < dp_table_bytes(913)

    def test_estimate_is_exact_and_refusal_allocates_nothing(self, monkeypatch):
        L = 120
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", dp_table_bytes(L))
        t = build_tables(_golden_vector(L, 5, False))
        assert dp_table_bytes(L) == \
            t.N.nbytes + t.kind.nbytes + sum(c.nbytes for c in t.S)

        over = _golden_vector(L + 1, 5, False)
        tracemalloc.start()
        try:
            with pytest.raises(SupportGuardError):
                build_tables(over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the N table alone would be 8 * 121^2 bytes, about 117 KB
        assert peak < 64 * 1024

    @pytest.mark.parametrize("L,arrays", [(50, 1), (51, 4)], ids=["cube", "groups"])
    def test_estimate_is_exact_at_the_cube_edge(self, monkeypatch, L, arrays):
        # one S array of every length up to L = 50, groups of 16 lengths
        # past it, so the estimate falls from 50 to 51
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", dp_table_bytes(L))
        t = build_tables(_golden_vector(L, 5, False))
        assert len(t.S) == arrays
        assert dp_table_bytes(L) == \
            t.N.nbytes + t.kind.nbytes + sum(c.nbytes for c in t.S)

    @pytest.mark.parametrize("L", [50, 51], ids=["cube", "groups"])
    def test_peak_within_tables_and_one_step(self, L):
        # the tables, plus one add-max step's temporary and the iterator
        # buffers of its strided operands (DP_BATCH elements each)
        x = _golden_vector(L, 5, False)
        build_tables(x)         # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            build_tables(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dp_table_bytes(L) + 4 * 8 * engine.DP_BATCH

    def test_composition_growth_stays_under_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", 8 * 401 ** 2)
        with pytest.raises(SupportGuardError):
            engine._check_resources(401, 4096, flat=True)
        tab = engine._ConstTables(F_SYSTEM)
        for L in (300, 301, 400):
            engine._check_resources(L, 4096, flat=True)
            tab.ensure(L)
            assert tab.T.nbytes <= engine.DP_MEMORY_LIMIT_BYTES

    @pytest.mark.parametrize("grown_from,L", [(None, 300), (None, 1016), (None, 2000),
                                              (300, 1016)])
    def test_flat_route_peak_within_guard_table(self, grown_from, L):
        # the guard counts 8 (L + 1)^2 bytes for the composition table;
        # the fill adds a few length-L vectors (nu, kind, the hull, one
        # length's ratios and bounds), not a step temporary of 256 KB
        F_SYSTEM.weight_table(L)
        tab = engine._ConstTables(F_SYSTEM)
        if grown_from:
            tab.ensure(grown_from)
        tracemalloc.start()
        try:
            tab.ensure(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (L + 1) ** 2 + 16 * 8 * (L + 1)

    def test_peak_of_length_groups(self):
        # tables by length, S_GROUP = 16: about 4.1 MB of tables at L = 128
        x = _golden_vector(128, 5, False)
        build_tables(x)
        tracemalloc.start()
        try:
            build_tables(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_500_000

    def test_peak_no_higher_than_per_right_end_tables(self):
        x = _golden_vector(128, 5, False)
        build_tables(x)         # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            build_tables(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PER_RIGHT_END_PEAK


def _batch_vector(rng, L, kind):
    """Support L with gaps of 1..3: random, quarter-rounded (exact ties
    between splits) or near-flat (a few ulps off one value) coefficients."""
    idx = 1 + np.cumsum(rng.integers(1, 4, L))
    vals = {"random": rng.uniform(0.05, 2.0, L) * rng.choice((-1.0, 1.0), L),
            "rounded": rng.integers(1, 9, L) * 0.25,
            "near_flat": 1.0 + rng.integers(0, 3, L) * 2.0 ** -50}[kind]
    return FinVector(zip(map(int, idx), map(float, vals)))


class TestBatchedFill:
    """One fill over a stack of vectors gives every row the tables of a
    fill of that vector alone, bit for bit."""

    @given(st.integers(1, 8), st.integers(1, 40),
           st.sampled_from(["random", "rounded", "near_flat"]),
           st.sampled_from([F_SYSTEM, G_SYSTEM]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rows_match_single_fills(self, B, L, kind, system, seed):
        rng = np.random.default_rng(seed)
        xs = [_batch_vector(rng, L, kind) for _ in range(B)]
        N, kinds, S = engine._fill(engine._padded([x.values for x in xs], L), system, L)
        for b, x in enumerate(xs):
            one = build_tables(x, system)
            row = engine.IntervalTables(system, x.indices, one.vabs, N[b],
                                        [plane[b] for plane in S], kinds[b])
            assert N[b].tobytes() == one.N.tobytes()
            assert kinds[b].tobytes() == one.kind.tobytes()
            assert all(row.sums(i, j).tobytes() == one.sums(i, j).tobytes()
                       for i in range(L) for j in range(i, L))


def _width_fill(pad, system):
    """``_fill`` at the width the N-only readers pass."""
    return engine._fill(pad, system, system._fill_width(pad.shape[1] // 2))


def _n_only_fill(xs, system):
    """The tables of each of xs, same support size, from one N-only fill:
    N through ``_n_tables``, kind and S from the ``_fill`` it runs."""
    rows = [x.values for x in xs]
    Ns = dict(engine._n_tables(rows, system, engine.DEFAULT_SUPPORT_GUARD))
    _, kinds, S = _width_fill(engine._padded(rows, len(rows[0])), system)
    return [engine.IntervalTables(system, x.indices, None, Ns[b],
                                  [plane[b] for plane in S], kinds[b])
            for b, x in enumerate(xs)]


def _assert_n_only_exact(xs, system):
    """N and kind are build_tables', and every length ell holds the first
    min(ell, K) part counts of its sums, K the system's width."""
    for x, narrow in zip(xs, _n_only_fill(xs, system)):
        t = build_tables(x, system)
        assert narrow.N.tobytes() == t.N.tobytes()
        assert narrow.kind.tobytes() == t.kind.tobytes()
        L = t.size
        K = system._fill_width(L)
        for ell in range(1, L + 1):
            m, got = min(ell, K), narrow.length_sums(ell)
            assert got[:, :m].tobytes() == t.length_sums(ell)[:, :m].tobytes(), ell
            assert (got[:, m:] == -np.inf).all(), ell


class _BandLog:
    """The (ell, n1) of every ``_fill_band`` call: the part counts 2..n1
    of one length."""

    def __init__(self, monkeypatch):
        self.calls = []
        band = engine._fill_band
        monkeypatch.setattr(engine, "_fill_band", lambda N_band, S, ends, ell, n1:
                            self.calls.append((ell, n1)) or band(N_band, S, ends, ell, n1))


class TestPartCountCap:
    """The N-only fill caps each length's part counts at the system's
    width (``NormSystem._fill_width``); its N and kind must be
    ``build_tables``' (every part count) bit for bit.  Every test runs
    with the systems' weight and width arrays as they stand and grown
    from the smallest start, two entries, where every doubling runs."""

    SYSTEMS = [F_SYSTEM, G_SYSTEM, SPIKE_SYSTEM, ODD_SYSTEM]
    KINDS = ["random", "rounded", "near_flat"]

    @pytest.fixture(autouse=True, params=[None, 2], ids=["start-default", "start-2"])
    def start(self, request):
        if request.param is None:
            yield
            return
        saved = [(s, s._table, s._widths) for s in self.SYSTEMS]
        for s in self.SYSTEMS:
            object.__setattr__(s, "_table", s.weight_table(1)[:request.param].copy())
            object.__setattr__(s, "_widths", np.arange(request.param))
        try:
            yield
        finally:
            for s, table, widths in saved:
                object.__setattr__(s, "_table", table)
                object.__setattr__(s, "_widths", widths)

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_matches_full_fill(self, system):
        rng = np.random.default_rng(17)
        for k, L in enumerate([1, 2, 3, 5, 8, 15, 16, 17, 18, 24, 31, 32, 33, 47, 64, 65, 100]):
            B = 1 + k % 6 if L <= 65 else 2
            _assert_n_only_exact([_batch_vector(rng, L, self.KINDS[(k + j) % 3])
                                  for j in range(B)], system)

    def test_one_row_raises_for_the_batch(self):
        self._one_row_raises()

    def test_one_row_raises_in_one_cube(self, monkeypatch):
        # the same batch with every length's S sums in one array
        monkeypatch.setattr(engine, "_CUBE_BYTES", 8 * 128 ** 3)
        assert engine._group(128, 128) == 128
        self._one_row_raises()

    @staticmethod
    def _one_row_raises():
        # under h, which the grouping bound leaves at every part count, the
        # scans of the spiked row run far past those of the other two, so
        # that row alone raises the part counts the batch's scans read
        assert SPIKE_SYSTEM._fill_width(128) == 128
        _assert_n_only_exact(_spiked_batch(), SPIKE_SYSTEM)

    @pytest.mark.parametrize("name,L,rounded", sorted(TestGoldenDigests.DP))
    def test_golden_vectors(self, name, L, rounded):
        _assert_n_only_exact([_golden_vector(L, 1000 + L, rounded)], engine.get_system(name))

    def test_norm_values_read_the_capped_fill(self):
        rng = np.random.default_rng(23)
        xs = [_batch_vector(rng, 40, kind) for kind in self.KINDS]
        got = norm_values(xs, G_SYSTEM, memo=None)
        assert got == [build_tables(x, G_SYSTEM).value() for x in xs]


# weights above 1 that are not monotone: w(4) < w(3), so the grouping
# bound takes the largest weight of the run sizes, not the last one
ODD_ABOVE_1 = engine.NormSystem("odd-above-1", 2,
                                lambda n: {2: 1.5, 3: 1.6, 4: 1.05}.get(n, 2.0 + n))


class TestGroupingBound:
    """N-only fills keep the part counts the grouping bound leaves
    (``NormSystem._fill_width``); N and kind stay ``build_tables``' bit
    for bit."""

    def test_widths(self):
        # a fresh G grows its widths from support n0^2 = 9 up, one doubling
        # at a time; below it every support keeps L
        fresh = engine.NormSystem("g", 3, G_SYSTEM.weight_fn)
        assert [fresh._fill_width(L) for L in range(1, 200)] == \
            list(range(1, 9)) + [8] * 145 + list(range(154, 200))
        assert [G_SYSTEM._fill_width(L) for L in (12, 64, 96, 128, 153, 154, 155)] == \
            [8] * 5 + [154, 155]
        # under F and h the bound never fires; ODD_SYSTEM's w(4) = 0.95
        # leaves the l1 stop unsound there, so it keeps every part count
        for system in (F_SYSTEM, H_SYSTEM, ODD_SYSTEM):
            assert [system._fill_width(L) for L in range(1, 400)] == list(range(1, 400))
        assert [ODD_ABOVE_1._fill_width(L) for L in range(1, 200)] == [1, 2, 3] + [4] * 196

    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM, H_SYSTEM, ODD_SYSTEM, ODD_ABOVE_1],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("L", [8, 9, 50, 51, 128, 153, 154])
    def test_narrow_fill_matches_build_tables(self, system, L):
        rng = np.random.default_rng(L)
        xs = [_batch_vector(rng, L, kind) for kind in ("random", "rounded", "near_flat")]
        want = [build_tables(x, system) for x in xs]
        K = system._fill_width(L)
        for rows in (xs[:1], xs):
            N, kind, S = _width_fill(engine._padded([x.values for x in rows], L), system)
            assert max(A.shape[-1] for A in S) == K
            for b, t in enumerate(want[:len(rows)]):
                assert N[b].tobytes() == t.N.tobytes()
                assert kind[b].tobytes() == t.kind.tobytes()

    def test_g_fill_at_96_keeps_8_part_counts(self):
        row = engine._padded([np.random.default_rng(96).uniform(0.05, 2.0, 96)], 96)
        _, _, S = _width_fill(row, G_SYSTEM)
        assert [A.shape for A in S] == [(1, 96, 96, 8)]

    def test_huge_min_parts_grows_nothing(self):
        # below n0^2 nothing is ruled out, so a short vector under a system
        # with a huge minimum part count grows only the weights its fill reads
        huge = log2_affine_system("huge", 10 ** 6, 1.0, 1.0)
        x = FinVector.from_dense([1.0, 2.0, 0.5])
        assert norm_value(x, huge, memo=None) == 2.0
        assert huge._fill_width(3) == 3
        assert len(huge._table) < 16 and len(huge._widths) == 0


class TestPartCountCapWork:
    """The width saves the part counts that cannot win, and where the
    grouping bound rules nothing out (F) each length is filled once, over
    every part count."""

    @staticmethod
    def _row(L):
        return engine._padded([np.random.default_rng(L).uniform(0.05, 2.0, L)], L)

    def test_g_fill_stops_short_of_full_rows(self, monkeypatch):
        log = _BandLog(monkeypatch)
        _width_fill(self._row(96), G_SYSTEM)
        assert max(n1 for _, n1 in log.calls) < 96

    @pytest.mark.parametrize("L", [24, 64, 96])
    def test_f_fills_each_length_in_one_pass(self, monkeypatch, L):
        log = _BandLog(monkeypatch)
        _width_fill(self._row(L), F_SYSTEM)
        assert log.calls == [(ell, ell) for ell in range(2, L + 1)]

    def test_peak_no_higher_than_build_tables(self):
        x = _golden_vector(128, 5, False)
        rows = [x.values]

        def peak(f):
            f()             # first-call allocations are not the kernel's
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for system in (F_SYSTEM, G_SYSTEM):
            full = peak(lambda: build_tables(x, system))
            assert peak(lambda: _width_fill(engine._padded(rows, 128), system)) <= full


class TestStepBudget:
    """``DP_BATCH`` only groups the terms of an exact max into steps, so a
    budget small enough that ``_fill_band`` splits the starts of nearly
    every length into many chunks gives N, kind and every S array of a
    fill at the default budget, bit for bit."""

    def test_one_step_takes_every_first_part(self):
        # a step takes every first part of one group of rests: their count
        # times the columns they fill stays within DP_BATCH for every
        # layout the memory cap admits
        L_max = max(L for L in range(1, 2000)
                    if dp_table_bytes(L) <= engine.DP_MEMORY_LIMIT_BYTES)
        assert L_max == 912
        assert engine.S_GROUP * (L_max - 1) <= engine.DP_BATCH
        for L in range(1, L_max + 1):
            for K in range(1, L + 1):
                if engine._group(L, K) == L:
                    assert (L - 1) * (K - 1) <= engine.DP_BATCH, (L, K)

    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM, SPIKE_SYSTEM],
                             ids=lambda s: s.name)
    def test_tiny_budget_keeps_bits(self, monkeypatch, system):
        # batches of 1 and 3 rows take turns; a step's chunks do not
        # depend on the batch size, which only leads every array
        rng = np.random.default_rng(40)
        kinds = TestPartCountCap.KINDS
        for k, L in enumerate([1, 2, 3, 49, 50, 51, 52, *range(64, 71), 128]):
            B = 3 if k % 2 else 1
            pad = engine._padded([_batch_vector(rng, L, kinds[b]).values
                                  for b in range(B)], L)
            for K in sorted({L, system._fill_width(L)}):
                want = engine._fill(pad, system, K)
                with monkeypatch.context() as m:
                    m.setattr(engine, "DP_BATCH", 40)
                    got = engine._fill(pad, system, K)
                assert got[0].tobytes() == want[0].tobytes(), (L, B, K)
                assert got[1].tobytes() == want[1].tobytes(), (L, B, K)
                assert [A.tobytes() for A in got[2]] == [A.tobytes() for A in want[2]]


class TestNormValues:
    """``norm_values`` against the ``norm_value`` loop it replaces."""

    @staticmethod
    def _vectors():
        rng = np.random.default_rng(11)
        xs = [random_vector(rng, max_support=12) for _ in range(40)]
        xs += [_batch_vector(rng, 9, kind) for kind in ("random", "rounded", "near_flat")]
        return xs + [FinVector([]), xs[3], xs[3].scale(-1.0),
                     xs[7].spread(lambda i: 2 * i + 1), FinVector([]),
                     ones(65), ones(70).scale(-0.5), ones(70), ones(64),
                     FinVector.from_dense([1.0] * 69 + [0.5])]

    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM], ids=["f", "g"])
    def test_matches_norm_value_loop(self, system):
        xs = self._vectors()
        loop_memo, batch_memo = MemoTable(), MemoTable()
        want = np.array([norm_value(x, system, memo=loop_memo) for x in xs])
        got = norm_values(xs, system, memo=batch_memo)
        assert np.array(got).tobytes() == want.tobytes()
        assert list(batch_memo._data.items()) == list(loop_memo._data.items())
        assert np.array(norm_values(xs, system, memo=None)).tobytes() == want.tobytes()
        # a second call reads every value from the memo
        assert np.array(norm_values(xs, system, memo=batch_memo)).tobytes() == want.tobytes()
        assert norm_values([], system) == []

    @pytest.mark.parametrize("limit", [None, dp_table_bytes(8)], ids=["guard", "memory"])
    def test_refusal_matches_norm_value(self, monkeypatch, limit):
        xs = self._vectors()
        if limit is not None:
            monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", limit)
        guard = 4096 if limit else 8
        with pytest.raises(SupportGuardError) as want:
            for x in xs:
                norm_value(x, guard=guard, memo=None)
        memo = MemoTable()
        for x in xs:        # the refusal comes before any memo read
            if x.support_size():
                memo.put(F_SYSTEM, tuple(abs(v) for v in x.values), 1.0)
        entries = len(memo)
        with pytest.raises(SupportGuardError) as got:
            norm_values(xs, guard=guard, memo=memo)
        assert str(got.value) == str(want.value)
        assert len(memo) == entries

    def test_batch_split_keeps_values(self, monkeypatch):
        rng = np.random.default_rng(5)
        xs = [_batch_vector(rng, 12, "random") for _ in range(10)]
        want = np.array([norm_value(x, memo=None) for x in xs])
        monkeypatch.setattr(engine, "DP_MEMORY_LIMIT_BYTES", 3 * dp_table_bytes(12))
        fill, parts = engine._fill, []
        monkeypatch.setattr(engine, "_fill",
                            lambda pad, system, K: parts.append(len(pad)) or fill(pad, system, K))
        assert np.array(norm_values(xs, memo=None)).tobytes() == want.tobytes()
        assert parts == [3, 3, 3, 1]


class TestWeightTable:
    @pytest.mark.parametrize("system", [F_SYSTEM, G_SYSTEM,
                                        log2_affine_system("a", 4, 1.5, 0.75)],
                             ids=["f", "g", "affine"])
    def test_entries_are_the_scalar_weights(self, system):
        w = system.weight_table(5)
        assert len(w) >= 6
        w = system.weight_table(300)
        assert [float(v) for v in w[:301]] == \
            [system.weight(max(n, system.min_parts)) for n in range(301)]


class TestMemoAndDeterminism:
    def test_memo_transparent(self):
        x = FinVector.from_dense([0.3, -1.2, 0.8, 0.8])
        fresh = MemoTable()
        v1 = norm_value(x, memo=fresh)
        v2 = norm_value(x, memo=fresh)   # cache hit
        v3 = norm_value(x, memo=None)
        assert v1 == v2 == v3

    def test_bitwise_reproducibility(self):
        rng = np.random.default_rng(15)
        xs = [random_vector(rng, max_support=9) for _ in range(20)]
        first = [(norm(x).value, norm(x).witness.to_jsonable()) for x in xs]
        second = [(norm(x).value, norm(x).witness.to_jsonable()) for x in xs]
        assert first == second


class TestL1Overflow:
    """A vector whose l1 norm overflows float64 is refused on both routes
    by every reader, before the memo is read; one just below is normed."""

    READERS = [norm, norm_value, build_tables, character, norming_functional,
               lambda x: best_sum(x, 2), lambda x: layer_norm(x, 3),
               lambda x: tail_layer_norm(x, 3), lambda x: norm_values([ones(3), x])]

    @pytest.mark.parametrize("x", [FinVector.from_dense([1e308, 1e308]),
                                   FinVector.from_dense([1e308, -1e308, 1e308]),
                                   ones(70).scale(1e307),
                                   # a float sum of these stays finite
                                   FinVector.from_dense([5.992310449541049e+307,
                                                         5.992310449541056e+307,
                                                         5.992310449541054e+307])],
                             ids=["two", "three", "flat", "rounding"])
    def test_refused(self, x):
        memo = MemoTable()
        memo.put(F_SYSTEM, tuple(map(abs, x.values)), 1.0)
        with pytest.raises(DomainError, match="l1 norm"):
            norm_value(x, memo=memo)
        for read in self.READERS:
            with pytest.raises(DomainError, match="l1 norm"):
                read(x)

    def test_finite_l1_is_normed(self):
        assert norm_value(FinVector.from_dense([5e307, 5e307]), memo=None) == 1e308 / F2


class TestCustomSystem:
    def test_log2_affine_matches_builtins(self):
        f_like = log2_affine_system("f-like", 2, 1.0, 1.0)
        g_like = log2_affine_system("g-like", 3, 1.0, 0.5)
        x = FinVector.from_dense([1.0, -0.4, 0.9])
        assert norm_value(x, f_like, memo=None) == norm_value(x, memo=None)
        assert norm_value(x, g_like, memo=None) == norm_value(x, G_SYSTEM, memo=None)

    def test_same_name_as_builtin_does_not_share_caches(self):
        # w(n) = log2(3 + n) under the name "f": the memo and the flat-path
        # composition tables must not hand back F's values
        flat = ones(100)
        small = ones(4)
        norm_value(flat)
        norm_value(small)
        impostor = log2_affine_system("f", 2, 3.0, 1.0)
        assert norm_value(flat, impostor, memo=None) == 14.955506186451524
        assert norm_value(small, impostor) == 1.4248287484320887

    def test_invalid_system(self):
        with pytest.raises(DomainError):
            log2_affine_system("bad", 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            log2_affine_system("flat", 2, 2.0, 0.0)
