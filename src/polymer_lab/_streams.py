"""Per-path random streams, and the memory check made before drawing them.

Both path samplers (:mod:`.zerorange` and :mod:`.montecarlo`) give path i
its own PCG64 stream, the i-th child of ``SeedSequence(seed)``.  The
children's seed words come from one vectorized pass over all paths
(:func:`spawn_words`), and one generator is re-seeded per path
(:func:`seed_pcg64`); the draws are those of ``SeedSequence(seed).spawn(n)``.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["refuse_oversized", "seed_pcg64", "spawn_words"]

# SeedSequence's pool size and hash constants (numpy.random.bit_generator),
# and PCG64's 128-bit LCG multiplier
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    # SeedSequence's hashmix on uint32 words; also returns the next constant
    nxt = (hash_const * mult) & 0xFFFFFFFF
    value = (value ^ hash_const) * nxt
    return value ^ (value >> 16), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def spawn_words(seed: int, n: int) -> np.ndarray:
    """Row i is SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64).

    SeedSequence's mixing runs on every child's uint32 words in one numpy
    pass: a child's entropy is the seed's 32-bit words, zero-padded to the
    pool size, followed by its spawn key i.  Shape (n, 4), dtype uint64.
    """
    # SeedSequence itself validates the seed (a negative one raises ValueError)
    entropy = int(np.random.SeedSequence(seed).entropy)
    if n > 1 << 32:
        raise ValueError(f"n = {n} needs spawn keys wider than one 32-bit word")
    words = []
    while True:
        words.append(np.full(n, entropy & 0xFFFFFFFF, dtype=np.uint32))
        entropy >>= 32
        if not entropy:
            break
    words += [np.zeros(n, dtype=np.uint32)] * (_POOL_WORDS - len(words))
    words.append(np.arange(n, dtype=np.uint32))
    # mix_entropy: hash the first pool-size words in, cross-mix the pool,
    # then mix each remaining word into every pool word
    hc = _INIT_A
    pool = []
    for w in words[:_POOL_WORDS]:
        h, hc = _hashmix(w, hc, _MULT_A)
        pool.append(h)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                h, hc = _hashmix(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            h, hc = _hashmix(w, hc, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state: eight uint32 words cycled off the pool, paired
    # little-endian into four uint64 words
    hc = _INIT_B
    out = []
    for i in range(2 * _POOL_WORDS):
        h, hc = _hashmix(pool[i % _POOL_WORDS], hc, _MULT_B)
        out.append(h.astype(np.uint64))
    return np.stack([out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)], axis=1)


def seed_pcg64(bitgen: np.random.PCG64, words) -> None:
    """Put bitgen in the state PCG64 starts in when seeded with these words.

    words are a child's generate_state(4, np.uint64) as Python ints; PCG64
    reads them as the 128-bit (initstate, initseq) and steps its LCG twice.
    """
    initstate = (words[0] << 64) | words[1]
    inc = ((((words[2] << 64) | words[3]) << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def refuse_oversized(n: int, nbytes: int) -> None:
    """ValueError when a sample's estimated arrays exceed physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf here: skip
        return
    if nbytes > physical:
        raise ValueError(
            f"n = {n} paths need about {nbytes / 2**30:.3g} GiB, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory"
        )
