"""Uniform doubles from the Philox4x64-10 counter-based generator.

:func:`uniform` returns, bit for bit, numpy's
``Generator(Philox(seed)).uniform(low, high, count)``.  numpy keeps its bit
generators' streams stable but lets ``Generator`` methods change between
releases (NEP 19), so owning the few lines that turn a seed into doubles
pins the bytes a run promises to reproduce, and spares every process the
import of ``numpy.random`` (nine extension modules plus OpenSSL).

The key is numpy's ``SeedSequence(seed).generate_state(4, uint32)`` read as
two little-endian 64-bit words; block j encrypts the counter
(j + 1, 0, 0, 0) with ten Philox rounds (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) and yields its four words in order.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence's hash constants (numpy.random.bit_generator), pool of 4.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Philox4x64: the round multipliers and the Weyl increments of the key.
_ROUNDS = 10
_MULT_0 = 0xD2E7470EE14C6C93
_MULT_1 = 0xCA5A826395121157
_BUMP_0 = 0x9E3779B97F4A7C15
_BUMP_1 = 0xBB67AE8584CAA73B


def _key(seed: int) -> tuple[int, int]:
    """The two key words numpy's ``Philox(seed)`` takes from its
    SeedSequence: the seed's 32-bit words, low word first, hashed into a
    pool of 4 and drawn out as 4 words."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for value in pool:
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(mult: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of each 128-bit product mult * x,
    formed from 32-bit limbs."""
    m_lo, m_hi = np.uint64(mult & _MASK32), np.uint64(mult >> 32)
    x_lo, x_hi = x & np.uint64(_MASK32), x >> np.uint64(32)
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = ((lo_lo >> np.uint64(32)) + (lo_hi & np.uint64(_MASK32))
           + (hi_lo & np.uint64(_MASK32)))
    hi = (x_hi * m_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32))
          + (mid >> np.uint64(32)))
    return hi, x * np.uint64(mult)


def uniform(seed: int, count: int, low: float, high: float) -> np.ndarray:
    """``count`` doubles uniform on [low, high), bit for bit numpy's
    ``Generator(Philox(seed)).uniform(low, high, count)``; a negative
    seed is a ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    k0, k1 = _key(seed)
    blocks = -(-count // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(blocks, dtype=np.uint64)
    for _ in range(_ROUNDS):
        hi0, lo0 = _mulhilo(_MULT_0, c0)
        hi1, lo1 = _mulhilo(_MULT_1, c2)
        c0, c1, c2, c3 = (hi1 ^ c1 ^ np.uint64(k0), lo1,
                          hi0 ^ c3 ^ np.uint64(k1), lo0)
        k0 = (k0 + _BUMP_0) & _MASK64
        k1 = (k1 + _BUMP_1) & _MASK64
    words = np.stack((c0, c1, c2, c3), axis=1).ravel()[:count]
    unit = (words >> np.uint64(11)) * 2.0 ** -53
    return low + (high - low) * unit
