"""Keyed streams: bulk key derivation is bit-identical to numpy's own
``Philox(SeedSequence(key))``, block by block and key by key."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evclt.rng import uniforms

_MASK_64 = (1 << 64) - 1


def _numpy_uniforms(key, n):
    seed_seq = np.random.SeedSequence([k & _MASK_64 for k in key])
    raw = np.random.Philox(seed_seq).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


# Components that take one or two SeedSequence words once reduced mod 2^64:
# zero, negatives, small values, and values past 2^32 and 2^64.
_component = st.one_of(
    st.just(0),
    st.integers(-(2**70), -1),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**80),
)
_key = st.lists(_component, min_size=1, max_size=7).map(tuple)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(_key, min_size=1, max_size=12), n=st.integers(1, 70))
def test_block_rows_equal_numpy_streams(keys, n):
    block = uniforms(keys, n)
    assert block.shape == (len(keys), n)
    # A reused block holding stale values, as the harness workspaces do.
    buf = np.full((len(keys) + 3, n), np.nan)[: len(keys)]
    assert uniforms(keys, n, out=buf) is buf
    row_buf = np.full(n, -1.0)
    for row, filled, key in zip(block, buf, keys):
        expected = _numpy_uniforms(key, n)
        assert np.array_equal(row, expected)
        assert np.array_equal(filled, expected)
        assert np.array_equal(uniforms(key, n), expected)
        assert uniforms(key, n, out=row_buf) is row_buf
        assert np.array_equal(row_buf, expected)


def test_out_block_must_match_the_stream_block():
    keys = [(1, 2), (3, 4)]
    for bad in (np.empty((2, 9)), np.empty((3, 10)), np.empty((2, 10), dtype=np.float32),
                np.empty((10, 2)).T):
        with pytest.raises(ValueError):
            uniforms(keys, 10, out=bad)


def test_harness_keys_and_word_lengths_mixed_in_one_block():
    keys = [(42, 500, rep, 1) for rep in range(300)]
    keys += [(0,), (-1, 5), (2**32, 7, 2**64 + 3), (1, 2, 3, 4, 5, 6), (2**63, 0, 0, 0)]
    block = uniforms(keys, 33)
    for row, key in zip(block, keys):
        assert np.array_equal(row, _numpy_uniforms(key, 33))


def test_single_key_output_is_a_stream_prefix_in_the_open_interval():
    u = uniforms((7, 2, 3), 1000)
    assert u.shape == (1000,)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u[:10], uniforms((7, 2, 3), 10))
    assert np.array_equal(u, uniforms([(7, 2, 3)], 1000)[0])
