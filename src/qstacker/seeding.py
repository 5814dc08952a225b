"""Deterministic seed derivation for parallel sampling jobs.

Seeds for independent jobs are derived from a master seed plus integer
coordinates (e.g. matrix element indices) through a splitmix64 mixing chain.
Each job then owns a counter-based Philox stream, so results never depend on
execution order or on how jobs are grouped into cycles.

A Philox stream is fully set by its key and counter, so a single-draw job
(job_binomial) re-keys one per-thread generator instead of building a new
one: the stream is exactly that of job_rng(seed), without the cost of
constructing a bit generator for every job.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_INIT = 0x243F6A8885A308D3  # pi fractional bits, arbitrary nonzero start


def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 step: well-mixed 64-bit output for a 64-bit input.

    Accepts a Python int or a uint64 array (elementwise, wrapping mod 2^64).
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *coords: int | np.ndarray) -> int | np.ndarray:
    """Fold a master seed and integer coordinates into one 64-bit seed.

    Deterministic, order-sensitive, and well-separated: (m, i, j) and
    (m, j, i) yield unrelated streams. Coordinates may also be uint64 arrays,
    which broadcast against each other and give, element by element, the seed
    of the scalar chain; matmul derives every element seed in one such call.
    Any integer master (NumPy scalars and negatives included) is reduced mod
    2^64 as a Python int.
    """
    state = splitmix64((_INIT ^ (operator.index(master) & _MASK)) & _MASK)
    for c in coords:
        state = splitmix64((state ^ (c & _MASK)) & _MASK)
    return state


def job_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one sampling job."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK))


_thread = threading.local()  # one re-keyed Philox generator per thread


def job_binomial(seed: int, shots: int, p0: float) -> int:
    """One Binomial(shots, p0) draw, equal to job_rng(seed).binomial(shots, p0).

    The calling thread's generator is reset to key (seed, 0), counter zero and
    an empty buffer, which is the state job_rng(seed) starts from.
    """
    try:
        bitgen, gen, state = _thread.philox
    except AttributeError:
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        _thread.philox = bitgen, gen, state
    state["state"]["key"][0] = seed & _MASK
    bitgen.state = state
    return int(gen.binomial(shots, p0))
