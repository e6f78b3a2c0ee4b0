"""Keyed streams: bulk key derivation is bit-identical to numpy's own
``Philox(SeedSequence(key))``, block by block and key by key."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evclt.rng import (
    MAX_REPLICATES,
    STREAM_DELTA,
    STREAM_DESIGN,
    STREAM_EPS,
    STREAM_MC_DELTA,
    STREAM_MC_EPS,
    _block_keys,
    replicate_keys,
    uniforms,
)

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


@pytest.mark.parametrize("seed", [0, 42, -1, 2**32, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("n", [2, 2**31])
@pytest.mark.parametrize("stream", [STREAM_EPS, STREAM_DELTA])
def test_replicate_keys_are_the_seed_sequence_keys(seed, n, stream):
    keys = replicate_keys(seed, n, 40, stream)
    assert keys.shape == (40, 2) and keys.dtype == np.uint64
    for rep, row in enumerate(keys.tolist()):
        seed_seq = np.random.SeedSequence((seed & _MASK_64, n, rep, stream))
        assert row == seed_seq.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("seed", [42, -1, 2**64 + 5])
def test_a_key_array_draws_the_streams_of_its_key_tuples(seed):
    # A chunk of replicates that does not start at 0, sliced as the harness
    # slices the keys of a grid point.
    n, lo, hi = 33, 17, 29
    keys = replicate_keys(seed, n, hi, STREAM_DELTA)[lo:hi]
    expected = uniforms([(seed, n, rep, STREAM_DELTA) for rep in range(lo, hi)], n)
    assert uniforms(keys, n).tobytes() == expected.tobytes()
    buf = np.full((hi - lo + 3, n), np.nan)[: hi - lo]
    assert uniforms(keys, n, out=buf) is buf
    assert buf.tobytes() == expected.tobytes()
    for bad in (keys.astype(np.int64), np.zeros((2, 3), dtype=np.uint64)):
        with pytest.raises(ValueError):
            uniforms(bad, n)


def test_replicate_indices_past_one_key_word_are_refused():
    # From 2^32 a replicate index takes two SeedSequence words, which the
    # column layout of replicate_keys does not have.
    assert MAX_REPLICATES == 2**32
    for bad in (-1, MAX_REPLICATES + 1):
        with pytest.raises(ValueError):
            replicate_keys(0, 2, bad, STREAM_EPS)
    assert replicate_keys(0, 2, 0, STREAM_EPS).shape == (0, 2)


def test_keys_shorter_than_four_words_are_padded_with_zeros():
    # SeedSequence pads a key of fewer than 4 words with zero words, so for a
    # one-word seed s the keys (s, 4), (s, 4, 0) and (s, 4, 0, 0) name one
    # stream; a two-word s makes (s, 4, 0, 0) five words, which are not
    # padded. Every package key ends in a non-zero stream id to stay clear.
    def state(key):
        return tuple(np.random.SeedSequence(key).generate_state(2, np.uint64).tolist())

    for seed in (0, 42, 2**40):
        keys = [(seed, 4), (seed, 4, 0), (seed, 4, 0, 0)]
        one_word = seed < 2**32
        assert state(keys[0]) == state(keys[1])
        assert (state(keys[0]) == state(keys[2])) == one_word
        assert [tuple(row) for row in _block_keys(keys).tolist()] == [state(k) for k in keys]
        block = uniforms(keys, 50)
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2]) == one_word


@pytest.mark.parametrize("seed", [0, 42, 2**40])
def test_design_monte_carlo_and_replicate_keys_are_pairwise_distinct(seed):
    keys = [(seed, STREAM_DESIGN), (seed, STREAM_MC_EPS), (seed, STREAM_MC_DELTA)]
    keys += [
        (seed, n, rep, stream)
        for n in (2, 4, 5, 100)
        for rep in (0, 1, 3, 4, 5)
        for stream in (STREAM_EPS, STREAM_DELTA)
    ]
    philox_keys = {tuple(row) for row in _block_keys(keys).tolist()}
    assert len(philox_keys) == len(keys)


def test_the_largest_raw_value_is_clipped_below_one(monkeypatch):
    # Generator.random gives (raw >> 11) * 2^-53. Feed it both ends of that
    # range and the neighbours of its top: adding half an ulp to the largest
    # value, 2^53 - 1, ties between 1 - 2^-53 and 1 and rounds to 1.0.
    top = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.float64)

    class TopRawGenerator:
        def __init__(self, bit_generator):
            pass

        def random(self, out):
            out[...] = top * 2.0**-53

    monkeypatch.setattr(np.random, "Generator", TopRawGenerator)
    unclipped = top * 2.0**-53 + 2.0**-54
    assert unclipped[-1] == 1.0
    for u in (uniforms((1, 2), top.size), *uniforms([(1, 2), (3, 4)], top.size)):
        assert u[-1] == np.nextafter(1.0, 0.0)
        assert np.array_equal(u[:-1], unclipped[:-1])
        assert np.all((u > 0.0) & (u < 1.0))
