"""Counter-based keyed random streams.

Every random quantity in the package is drawn from a Philox stream whose key
is derived from an integer tuple such as (seed, n, replicate, stream id).
The i-th raw output of a keyed stream is a pure function of (key, i), so
results do not depend on execution order or worker count, and prefixes are
stable: the first n draws of a stream never change when more are requested.

A tuple keys the stream ``Philox(SeedSequence(tuple))``. Building one
``SeedSequence`` per stream costs more than drawing a few thousand values
from it, so the SeedSequence entropy hash (pool size 4, as in numpy's
``bit_generator.pyx``) is written below as uint32 array arithmetic over
rows of entropy words, and one Philox generator is re-keyed for each
stream, writing straight into the caller's array. The streams are
bit-identical to numpy's. A single tuple is hashed as a block of one row.
The replicate streams of a grid point differ only in the replicate word, so
``replicate_keys`` hashes all of them at once from entropy columns, and the
harness hands slices of its result to ``uniforms`` chunk by chunk.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Stream identifiers. Fixed constants are part of the reproducibility
# contract; changing them changes every sampled value. Keys come in three
# shapes: (seed, n, replicate, STREAM_EPS | STREAM_DELTA) for a replicate,
# (design seed, STREAM_DESIGN) for a gaussian-iid design and
# (seed, STREAM_MC_EPS | STREAM_MC_DELTA) for a Lindeberg Monte Carlo draw.
# SeedSequence pads a key of fewer than 4 words with zeros, so (s, 4) and
# (s, 4, 0) name one stream; every key ends in a non-zero stream id, which
# keeps the shapes apart.
STREAM_EPS = 1
STREAM_DELTA = 2
STREAM_DESIGN = 3
STREAM_MC_EPS = 4
STREAM_MC_DELTA = 5

_HALF_ULP = 2.0 ** -54  # half the 2^-53 spacing of the uniforms
_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # 1 - 2^-53, the largest uniform

_MASK_32 = (1 << 32) - 1
_MASK_64 = (1 << 64) - 1

# numpy SeedSequence hash constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _words(key: Sequence[int]) -> tuple[int, ...]:
    """SeedSequence entropy words of a key: each component reduced modulo
    2^64 (SeedSequence rejects negatives, and config seeds may be any
    integer), then split into little-endian uint32 words, 0 giving one."""
    out: list[int] = []
    for k in key:
        k = int(k) & _MASK_64
        out.append(k & _MASK_32)
        if k >> 32:
            out.append(k >> 32)
    return tuple(out)


class _HashMix:
    """``hashmix`` with its running hash constant, over uint32 columns."""

    def __init__(self) -> None:
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * _MULT_A) & _MASK_32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """Philox keys, shape (m, 2) uint64, of m entropy rows of equal word
    length: ``SeedSequence(row).generate_state(2, np.uint64)`` for each."""
    m, length = entropy.shape
    hashmix = _HashMix()
    zeros = np.zeros(m, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    state = np.empty((m, _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(_POOL_SIZE):
        word = pool[i] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK_32
        word = word * np.uint32(const)
        state[:, i] = word ^ (word >> _XSHIFT)
    # Pairs of words, low word first, as generate_state's little-endian view.
    state = state.astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


# Replicate indices take one SeedSequence word, which bounds the replicate
# count of one grid point.
MAX_REPLICATES = 1 << 32


def replicate_keys(seed: int, n: int, replicates: int, stream: int) -> np.ndarray:
    """Philox keys, shape (replicates, 2) uint64: row rep is the key of
    ``Philox(SeedSequence((seed, n, rep, stream)))``, hashed from entropy
    columns (the seed and n words repeated, the replicate index, the stream
    word) without a Python tuple per replicate."""
    if not 0 <= replicates <= MAX_REPLICATES:
        raise ValueError(f"replicates must lie in [0, 2^32], got {replicates}")
    head, tail = _words((seed, n)), _words((stream,))
    entropy = np.empty((replicates, len(head) + 1 + len(tail)), dtype=np.uint32)
    entropy[:, : len(head)] = head
    entropy[:, len(head)] = np.arange(replicates, dtype=np.uint32)
    entropy[:, len(head) + 1 :] = tail
    return _philox_keys(entropy)


def uniforms(
    key: Sequence[int] | np.ndarray,
    n: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """n uniforms on the open interval (0, 1) from the keyed stream.

    Uses the top 53 bits of each raw Philox output, offset by half an ulp so
    that 0 is never produced; the one top value that rounds up to 1 is
    clipped to 1 - 2^-53, so inverse-CDF transforms stay finite.

    Given a 2-D array of Philox keys instead of a tuple, shape (m, 2) uint64
    as ``replicate_keys`` returns them, returns an (m, n) block whose row i
    is the stream of key row i. The values are written into ``out`` (a
    C-contiguous float64 array of the result's shape) when it is given, and
    ``out`` is returned.
    """
    if isinstance(key, np.ndarray) and key.ndim == 2:
        if key.dtype != np.uint64 or key.shape[1] != 2:
            raise ValueError(
                f"a key array must hold (m, 2) uint64 Philox keys, got {key.dtype} {key.shape}"
            )
        philox_keys, shape = key, (len(key), n)
    else:
        philox_keys, shape = _philox_keys(np.array([_words(key)], dtype=np.uint32)), (n,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    # Generator.random gives (raw >> 11) * 2^-53, one raw output per value;
    # adding 2^-54 then rounds exactly as ((raw >> 11) + 0.5) * 2^-53 does,
    # since scaling by a power of two is exact. For raw >> 11 = 2^53 - 1 that
    # is a tie between 1 - 2^-53 and 1, which rounds to even, i.e. to 1; the
    # clip below moves that value alone.
    bit_gen = np.random.Philox(key=0)
    generator = np.random.Generator(bit_gen)
    # Zero counter and empty buffer, as Python ints and lists: the state
    # setter reads these about three times faster than numpy arrays.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, philox_key in zip(out.reshape(len(philox_keys), n), philox_keys.tolist()):
        state["state"]["key"] = philox_key
        bit_gen.state = state
        generator.random(out=row)
    out += _HALF_ULP
    np.minimum(out, _BELOW_ONE, out=out)
    return out
