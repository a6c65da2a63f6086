import itertools

import numpy as np
import pytest

from implicitnorm import BlockSequence, FinVector, G_SYSTEM, engine, norm_value


def random_vector(rng, max_support=8, span=None, scale=2.0, positive=False):
    """Random finitely supported vector with gaps in the index positions."""
    size = int(rng.integers(1, max_support + 1))
    span = span or 4 * max_support
    idxs = np.sort(rng.choice(np.arange(1, span + 1), size=size, replace=False))
    vals = rng.uniform(0.05 if positive else -scale, scale, size)
    vals[vals == 0.0] = 0.5
    if positive:
        vals = np.abs(vals)
    return FinVector((int(i), float(v)) for i, v in zip(idxs, vals))


def first_over_cap():
    """The smallest support whose interval DP tables (``dp_table_bytes``)
    the memory cap refuses."""
    return next(L for L in itertools.count(1)
                if engine.dp_table_bytes(L) > engine.DP_MEMORY_LIMIT_BYTES)


def normalized(x, system=None):
    kwargs = {} if system is None else {"system": system}
    return x.scale(1.0 / norm_value(x, **kwargs))


def random_block_sequence(rng, count=4, max_block=3, normalize=True):
    blocks = []
    pos = int(rng.integers(1, 5))
    for _ in range(count):
        size = int(rng.integers(1, max_block + 1))
        gaps = rng.integers(1, 3, size)
        idxs = pos + np.cumsum(gaps) - 1
        vals = rng.uniform(-2.0, 2.0, size)
        vals[vals == 0.0] = 1.0
        b = FinVector((int(i), float(v)) for i, v in zip(idxs, vals))
        if normalize:
            b = b.scale(1.0 / norm_value(b))
        blocks.append(b)
        pos = int(idxs[-1]) + int(rng.integers(1, 3))
    return BlockSequence(blocks)


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


@pytest.fixture(scope="session")
def oracle_corpus():
    """Shared corpus of small random vectors (coefficients in [-2, 2],
    support size at most 7) used by the oracle-agreement and norm
    comparison criteria."""
    rng = np.random.default_rng(20240801)
    return [random_vector(rng, max_support=7) for _ in range(500)]
