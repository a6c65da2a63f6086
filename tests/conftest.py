import itertools

import numpy as np
import pytest

from implicitnorm import BlockSequence, FinVector, engine, norm_value


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


@pytest.fixture(scope="session")
def oracle_corpus():
    """Shared corpus of small random vectors (coefficients in [-2, 2],
    support size at most 7) used by the oracle-agreement and norm
    comparison criteria."""
    rng = np.random.default_rng(20240801)
    return [random_vector(rng, max_support=7) for _ in range(500)]
