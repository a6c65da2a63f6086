import math

import pytest
from hypothesis import given, settings, strategies as st

from implicitnorm import (FinVector, Functional, Interval, OrderedPartition,
                          VectorError, WitnessTree, elementary_norms, restrict,
                          spread)


def e(*pairs):
    return FinVector(pairs)


coords_strategy = st.lists(
    st.tuples(st.integers(1, 60),
              st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) > 1e-6)),
    max_size=8, unique_by=lambda p: p[0],
).map(lambda ps: FinVector(sorted(ps)))


class TestFinVector:
    def test_construction_sorts_and_drops_zeros(self):
        x = FinVector([(1, 2.0), (4, 0.0), (9, -1.0)])
        assert x.coords == ((1, 2.0), (9, -1.0))

    def test_rejects_bad_indices(self):
        with pytest.raises(VectorError):
            FinVector([(0, 1.0)])
        with pytest.raises(VectorError):
            FinVector([(2, 1.0), (2, 1.0)])
        with pytest.raises(VectorError):
            FinVector([(3, 1.0), (2, 1.0)])
        with pytest.raises(VectorError):
            FinVector([(1, float("nan"))])

    def test_dense_and_getitem(self):
        x = FinVector.from_dense([1.0, 0.0, 3.0])
        assert x.coords == ((1, 1.0), (3, 3.0))
        assert x[1] == 1.0 and x[2] == 0.0 and x[3] == 3.0

    def test_arithmetic(self):
        x = e((1, 1.0), (3, 2.0))
        y = e((1, -1.0), (2, 5.0))
        assert (x + y).coords == ((2, 5.0), (3, 2.0))
        assert (x - x).is_zero()
        assert x.scale(2.0).coords == ((1, 2.0), (3, 4.0))

    def test_truth_is_nonzero(self):
        assert not FinVector.zero() and not (e((1, 1.0)) - e((1, 1.0)))
        assert e((4, -0.5))

    def test_json_roundtrip_forms(self):
        x = e((2, 1.5), (7, -0.25))
        assert FinVector.from_json(x.to_jsonable()) == x
        assert FinVector.from_json('{"dense": [1, 0, -2]}') == e((1, 1.0), (3, -2.0))
        with pytest.raises(VectorError):
            FinVector.from_json('{"nope": 1}')
        with pytest.raises(VectorError):
            FinVector.from_json("[1,2]")

    @given(coords_strategy)
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, x):
        assert FinVector.from_json(x.to_jsonable()) == x

    def test_l1_overflow_is_inf(self):
        # math.fsum raises on finite terms whose sum overflows float64
        assert FinVector.from_dense([1e308, 1e308]).l1() == math.inf
        assert FinVector.from_dense([1e308, -1e308]).l1() == math.inf
        assert FinVector.from_dense([0.1] * 10).l1() == 1.0    # fsum, not sum


class TestRestrict:
    def test_interval_selection(self):
        assert restrict(e((1, 1.0), (2, 1.0)), Interval(2, 5)) == e((2, 1.0))
        assert restrict(e((1, 3.0), (4, -2.0)), Interval(1, 3)) == e((1, 3.0))

    def test_empty_set(self):
        assert restrict(e((1, 1.0), (2, 1.0)), ()).is_zero()

    def test_index_set(self):
        assert restrict(e((1, 1.0), (2, 2.0), (8, 3.0)), {2, 8}) == \
            e((2, 2.0), (8, 3.0))

    @given(coords_strategy, st.integers(1, 40), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_monotone(self, x, lo, width):
        E = Interval(lo, lo + width)
        once = restrict(x, E)
        assert restrict(once, E) == once
        assert once.support() <= (x.support() & frozenset(range(E.lo, E.hi + 1)))


class TestSpread:
    def test_examples(self):
        assert spread(e((1, 1.0), (2, 1.0)), lambda i: 2 * i) == \
            e((2, 1.0), (4, 1.0))
        x = e((3, -2.0), (9, 1.0))
        assert spread(x, lambda i: i) == x
        assert spread(e((1, 3.0)), lambda i: i + 7) == e((8, 3.0))

    def test_mapping_form(self):
        assert spread(e((1, 1.0), (5, 2.0)), {1: 10, 5: 20}) == \
            e((10, 1.0), (20, 2.0))

    def test_rejects_non_increasing(self):
        with pytest.raises(VectorError):
            spread(e((1, 1.0), (2, 1.0)), lambda i: 3 - i)
        with pytest.raises(VectorError):
            spread(e((1, 1.0), (2, 1.0)), lambda i: 1)

    @given(coords_strategy, st.integers(0, 9), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_preserves_elementary_norms(self, x, shift, stretch):
        y = spread(x, lambda i: stretch * i + shift)
        assert elementary_norms(y) == elementary_norms(x)


def test_elementary_norms_values():
    assert elementary_norms(e((1, 1.0), (2, 1.0))) == (1.0, 2.0)
    assert elementary_norms(FinVector.zero()) == (0.0, 0.0)
    assert elementary_norms(e((1, 3.0), (2, -4.0))) == (4.0, 7.0)


class TestIntervalPartition:
    def test_interval_validation(self):
        with pytest.raises(VectorError):
            Interval(3, 2)
        with pytest.raises(VectorError):
            Interval(0, 2)
        assert 2 in Interval(1, 3)

    def test_partition_successive(self):
        p = OrderedPartition([Interval(1, 2), Interval(4, 9)])
        assert len(p) == 2
        with pytest.raises(VectorError):
            OrderedPartition([Interval(1, 4), Interval(3, 9)])

    def test_restrictions(self):
        x = e((1, 1.0), (3, 2.0), (5, 3.0))
        parts = OrderedPartition([Interval(1, 3), Interval(4, 6)]).restrictions(x)
        assert parts[0] == e((1, 1.0), (3, 2.0))
        assert parts[1] == e((5, 3.0))


class TestTrees:
    def test_witness_evaluate(self):
        w = WitnessTree.split(2, math.log2(3),
                              [WitnessTree.leaf(1), WitnessTree.leaf(2)])
        x = e((1, 1.0), (2, -1.0))
        assert w.evaluate(x) == pytest.approx(2 / math.log2(3))
        assert w.leaves() == [1, 2]

    def test_functional_apply_and_support(self):
        phi = Functional.split(1 / math.log2(3),
                               [Functional.leaf(1, 1), Functional.leaf(2, -1)])
        x = e((1, 1.0), (2, -1.0))
        assert phi.apply(x) == pytest.approx(2 / math.log2(3))
        assert phi.support() == frozenset({1, 2})

    def test_from_witness_copies_signs(self):
        w = WitnessTree.split(2, math.log2(3),
                              [WitnessTree.leaf(1), WitnessTree.leaf(4)])
        x = e((1, -2.0), (4, 3.0))
        phi = Functional.from_witness(w, x)
        assert phi.apply(x) == pytest.approx(w.evaluate(x))

    def test_bad_sign_rejected(self):
        with pytest.raises(VectorError):
            Functional.leaf(1, 0)
