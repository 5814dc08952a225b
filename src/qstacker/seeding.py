"""Deterministic seed derivation for parallel sampling jobs.

Seeds for independent jobs are derived from a master seed plus integer
coordinates (e.g. matrix element indices) through a splitmix64 mixing chain.
Each job then owns a counter-based Philox stream, so results never depend on
execution order or on how jobs are grouped into cycles.

A Philox stream is fully set by its key and counter (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), so a generator reset
to key (seed, 0), counter zero and an empty buffer draws exactly what
job_rng(seed) draws. rekeyed_rng resets the calling thread's one generator
that way instead of building a new one, whose constructor gathers OS entropy
for a SeedSequence it then discards; hadamard.sample_hadamard draws each
sampled element's count from it. A re-keyed stream lasts until the thread's
next rekeyed_rng call, so each caller finishes its draws before it re-keys.
The reset state it keeps is a fresh Philox(key=0).state, field names and all,
with its uint64 arrays as lists of Python ints: the state setter reads each
counter, key and buffer entry one by one, and from a list of Python ints that
takes about half the time it takes from uint64 arrays. It runs once per
sampled element.

random_signs reads +/-1 signs straight from Philox's raw 64-bit words: the
same values that integers(0, 2) gives, one word per two signs, written into
a buffer the caller may reuse.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import InvalidArgument, as_int

_MASK = 0xFFFFFFFFFFFFFFFF
_INIT = 0x243F6A8885A308D3  # pi fractional bits, arbitrary nonzero start
MAX_SHOTS = (1 << 63) - 1  # NumPy's binomial takes its trial count as a C long


# splitmix64's constants as uint64 scalars, for the array form
_GAMMA, _MIX1, _MIX2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64(x: int) -> int:
    """One splitmix64 step: well-mixed 64-bit output for a 64-bit Python int.
    _splitmix64_into is the same step for a uint64 array."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _splitmix64_into(z: np.ndarray) -> np.ndarray:
    """splitmix64 of a uint64 array the caller owns, computed in place with
    uint64 constants: array arithmetic wraps mod 2^64, so no step needs a mask."""
    z += _GAMMA
    z ^= z >> _SHIFT30
    z *= _MIX1
    z ^= z >> _SHIFT27
    z *= _MIX2
    z ^= z >> _SHIFT31
    return z


def _key(seed) -> int:
    """seed mod 2^64: the one rule that makes a seed or scalar coordinate key
    material. A plain int skips as_int (one call per sampled element); a NumPy
    integer gives the Python int's key, and a float or string raises."""
    if type(seed) is not int:
        seed = as_int(seed, "seed")
    return seed & _MASK


def derive_seed(master: int, *coords: int | np.ndarray) -> int | np.ndarray:
    """Fold a master seed and integer coordinates into one 64-bit seed.

    Deterministic, order-sensitive, and well-separated: (m, i, j) and
    (m, j, i) yield unrelated streams. The master and each scalar coordinate
    go through _key. A coordinate may also be an array of any integer dtype,
    0-d included, cast once to uint64 (mod 2^64, as _key reduces an int);
    arrays broadcast against each other and give, element by element, the
    seed of the scalar chain, so matmul derives every element seed in one
    call. A non-integer array raises InvalidArgument.
    """
    state = splitmix64(_INIT ^ _key(master))
    for c in coords:
        if isinstance(c, np.ndarray):
            if c.dtype.kind not in "iu":
                raise InvalidArgument(f"seed must be an integer, got dtype {c.dtype}")
            c = c.astype(np.uint64, copy=False)
        else:
            c = _key(c)
        if isinstance(state, np.ndarray) or isinstance(c, np.ndarray):
            # xor's new array, not c; asarray keeps a 0-d result an array, since
            # scalar arithmetic warns where array arithmetic wraps silently
            state = _splitmix64_into(np.asarray(np.bitwise_xor(state, c)))
        else:
            state = splitmix64(state ^ c)
    return state


def job_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one sampling job, keyed by _key(seed)."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


_slot = threading.local()  # per thread, the one re-keyed generator


def _plain(state):
    """A bit generator's state dict with its arrays as lists of Python ints."""
    if isinstance(state, dict):
        return {name: _plain(value) for name, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def rekeyed_rng(seed: int) -> np.random.Generator:
    """The calling thread's generator, reset to job_rng(seed)'s start state:
    key (seed, 0), counter zero and an empty buffer.

    It draws exactly what job_rng(seed) draws, until the thread's next call
    resets the same object.
    """
    try:
        bitgen, gen, state = _slot.rng
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        state = _plain(bitgen.state)
        _slot.rng = (bitgen, gen, state)
    state["state"]["key"][0] = _key(seed)
    bitgen.state = state
    return gen


def random_signs(rng: np.random.Generator, shape: tuple[int, ...],
                 out: np.ndarray | None = None) -> np.ndarray:
    """+/-1.0 signs equal to rng.integers(0, 2, size=shape) * 2 - 1, for a
    Philox generator at a 64-bit word boundary (fresh from job_rng or
    rekeyed_rng), written into `out` (a C-contiguous float64 array of that
    shape) when given, else into a new array.

    NumPy draws integers(0, 2) as bit 31 of one 32-bit half per value
    (Lemire's method with range 2 never rejects), and Philox hands out the
    low half of each 64-bit word first; so ceil(n/2) raw words give the n
    signs in order. Read as int32, each half shifted right by 31 is -1 where
    that bit is set and 0 where it is not, and -2x - 1 maps those to +1 and
    -1 in place. For odd n, integers keeps the last high half buffered for a
    later 32-bit draw; draws of whole words that follow (binomial, normal,
    uniform) are the same either way.
    """
    n = math.prod(shape)
    if out is None:
        out = np.empty(shape)
    words = np.asarray(rng.bit_generator.random_raw((n + 1) // 2), dtype="<u8")
    np.right_shift(words.view("<i4")[:n], 31, out=out.reshape(n), casting="unsafe")
    out *= -2.0
    out -= 1.0
    return out
