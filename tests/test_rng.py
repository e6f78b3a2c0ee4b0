"""Keyed streams: bulk key derivation is bit-identical to numpy's own
``Philox(SeedSequence(key))``, key by key and row by row of a key array."""

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
    _philox_keys,
    _words,
    replicate_keys,
    uniforms,
)

_MASK_64 = (1 << 64) - 1


def _numpy_uniforms(key, n):
    seed_seq = np.random.SeedSequence([k & _MASK_64 for k in key])
    raw = np.random.Philox(seed_seq).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _numpy_key_array(keys):
    """numpy's Philox keys of the tuples, shape (len(keys), 2) uint64."""
    return np.array(
        [np.random.SeedSequence([k & _MASK_64 for k in key]).generate_state(2, np.uint64)
         for key in keys]
    )


def _philox_key(key):
    """The Philox key that ``uniforms(key, n)`` hashes one tuple to."""
    return tuple(_philox_keys(np.array([_words(key)], dtype=np.uint32))[0].tolist())


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
    key_array = _numpy_key_array(keys)
    block = uniforms(key_array, n)
    assert block.shape == (len(keys), n)
    # A reused block holding stale values, as the harness workspaces do.
    buf = np.full((len(keys) + 3, n), np.nan)[: len(keys)]
    assert uniforms(key_array, n, out=buf) is buf
    row_buf = np.full(n, -1.0)
    for row, filled, key in zip(block, buf, keys):
        expected = _numpy_uniforms(key, n)
        assert np.array_equal(row, expected)
        assert np.array_equal(filled, expected)
        assert np.array_equal(uniforms(key, n), expected)
        assert _philox_key(key) == tuple(_numpy_key_array([key])[0].tolist())
        assert uniforms(key, n, out=row_buf) is row_buf
        assert np.array_equal(row_buf, expected)


def test_out_block_must_match_the_stream_block():
    keys = replicate_keys(1, 2, 2, STREAM_EPS)
    for bad in (np.empty((2, 9)), np.empty((3, 10)), np.empty((2, 10), dtype=np.float32),
                np.empty((10, 2)).T):
        with pytest.raises(ValueError):
            uniforms(keys, 10, out=bad)
    for bad in (np.empty(9), np.empty((1, 10)), np.empty(10, dtype=np.float32),
                np.empty(20)[::2]):
        with pytest.raises(ValueError):
            uniforms((1, 2), 10, out=bad)


def test_harness_keys_and_word_lengths_mixed_in_one_block():
    # One key array: the replicate keys of a grid point, then the package
    # hashes of single tuples of one to seven words.
    keys = [(42, 500, rep, 1) for rep in range(300)]
    odd = [(0,), (-1, 5), (2**32, 7, 2**64 + 3), (1, 2, 3, 4, 5, 6), (2**63, 0, 0, 0)]
    key_array = np.concatenate(
        [replicate_keys(42, 500, 300, 1), np.array([_philox_key(k) for k in odd], np.uint64)]
    )
    block = uniforms(key_array, 33)
    for row, key in zip(block, keys + odd):
        assert np.array_equal(row, _numpy_uniforms(key, 33))
    for row, key in zip(block[len(keys):], odd):
        assert np.array_equal(uniforms(key, 33), row)


def test_single_key_output_is_a_stream_prefix_in_the_open_interval():
    u = uniforms((7, 2, 3), 1000)
    assert u.shape == (1000,)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u[:10], uniforms((7, 2, 3), 10))
    assert np.array_equal(u, _numpy_uniforms((7, 2, 3), 1000))


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
    expected = np.array(
        [_numpy_uniforms((seed, n, rep, STREAM_DELTA), n) for rep in range(lo, hi)]
    )
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
        assert [_philox_key(k) for k in keys] == [state(k) for k in keys]
        streams = [uniforms(k, 50) for k in keys]
        assert np.array_equal(streams[0], streams[1])
        assert np.array_equal(streams[0], streams[2]) == one_word


@pytest.mark.parametrize("seed", [0, 42, 2**40])
def test_design_monte_carlo_and_replicate_keys_are_pairwise_distinct(seed):
    keys = [(seed, STREAM_DESIGN), (seed, STREAM_MC_EPS), (seed, STREAM_MC_DELTA)]
    keys += [
        (seed, n, rep, stream)
        for n in (2, 4, 5, 100)
        for rep in (0, 1, 3, 4, 5)
        for stream in (STREAM_EPS, STREAM_DELTA)
    ]
    philox_keys = {_philox_key(key) for key in keys}
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
    block = uniforms(replicate_keys(1, 2, 2, STREAM_EPS), top.size)
    for u in (uniforms((1, 2), top.size), *block):
        assert u[-1] == np.nextafter(1.0, 0.0)
        assert np.array_equal(u[:-1], unclipped[:-1])
        assert np.all((u > 0.0) & (u < 1.0))
