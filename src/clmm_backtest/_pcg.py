"""``np.random.default_rng([seed, e]).random(k)`` for many epochs e at once.

numpy seeds a PCG64 generator from a ``SeedSequence``: the entropy words
(the seed's 32-bit words, least significant first, then e's) are hashed
into a 4-word pool, the pool is expanded into four 64-bit words, and those
give PCG64's initial state and increment (O'Neill, "PCG: A family of simple
fast space-efficient statistically good algorithms for random number
generation", 2014).  Each draw advances the 128-bit LCG one step, takes
the XSL-RR output, and keeps its top 53 bits as ``(x >> 11) * 2**-53``.

Here the hashing runs on ``uint32`` arrays with one element per epoch, and
the LCG jumps to every draw at once: after j steps the state is
``M**j s + (M**(j-1) + ... + 1) inc``, with those two factors per j taken
from Python ints.  128-bit words are (high, low) ``uint64`` pairs; their
products are built from ``_wide.mul64``, the full 64 x 64-bit product
in 32-bit limbs.  ``uint32`` and ``uint64`` words only ever meet scalars of
their own type, so the arithmetic is the same on numpy 1.24 and 2.x.
"""

from __future__ import annotations

import numpy as np

from ._wide import mul64

_U32, _U64 = np.uint32, np.uint64
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_POOL = 4
# SeedSequence's hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_16 = _U32(16)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(init: int, mult: int, count: int):
    """SeedSequence's hashmix for a run of ``count`` calls: each call xors
    the value with the hash constant, multiplies the constant by ``mult``
    and the value by the new constant, then folds the high half down.  The
    constants are Python ints, computed up front."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    calls = iter(zip(consts, consts[1:]))

    def hashmix(value):
        xor, times = next(calls)
        value = (value ^ _U32(xor)) * _U32(times)
        return value ^ (value >> _16)
    return hashmix


def _words(n: int) -> list:
    """SeedSequence's entropy words of a non-negative int: 0 is ``[0]``."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _jumps(k: int) -> np.ndarray:
    """(M**(j+2), S(j+2)) for draws j < k as high and low ``uint64`` words,
    shape (4, k), where S(i) = M**(i-1) + ... + M + 1."""
    power, total, rows = _PCG_MULT, 1, []
    for _ in range(k):
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        rows.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
    return np.array(rows, dtype=_U64).reshape(k, 4).T


def _mul128(a, b):
    """Low 128 bits of (high, low) products."""
    hi, lo = mul64(a[1], b[1])
    return hi + a[1] * b[0] + a[0] * b[1], lo


def _add128(a, b):
    """(high, low) sums modulo 2**128."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(_U64), lo


def epoch_draws(seed: int, epochs: np.ndarray, k: int) -> np.ndarray:
    """``default_rng([seed, e]).random(k)`` for every e in ``epochs``, shape
    (len(epochs), k), bit for bit; ``epochs`` must lie in [0, 2**32)."""
    epochs = np.asarray(epochs)
    if epochs.size and not (0 <= epochs.min() and epochs.max() <= _MASK32):
        raise ValueError("epoch numbers must lie in [0, 2**32)")
    entropy = [np.full(len(epochs), w, dtype=_U32) for w in _words(int(seed))]
    entropy.append(epochs.astype(_U32))
    extra = max(0, len(entropy) - _POOL)
    hashmix = _hasher(_INIT_A, _MULT_A, _POOL * (_POOL + extra))

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> _16)

    zero = np.zeros(len(epochs), dtype=_U32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight hashed words, paired little-endian
    hashmix = _hasher(_INIT_B, _MULT_B, 2 * _POOL)
    state = [hashmix(pool[i % _POOL]).astype(_U64) for i in range(2 * _POOL)]
    v = [state[2 * i] | (state[2 * i + 1] << _U64(32)) for i in range(_POOL)]

    # seeding: state 0, inc = 2 initseq + 1, step, add initstate, step;
    # draw j then reads the state j + 1 steps on, M**(j+2) t + S(j+2) inc
    # with t = initstate + inc
    inc = ((v[2] << _U64(1)) | (v[3] >> _U64(63)), (v[3] << _U64(1)) | _U64(1))
    t = _add128((v[0], v[1]), inc)
    mh, ml, sh, sl = _jumps(k)
    hi, lo = _add128(_mul128([x[:, None] for x in t], (mh, ml)),
                     _mul128([x[:, None] for x in inc], (sh, sl)))

    # XSL-RR: the xor of the halves rotated right by the top six bits
    x, rot = hi ^ lo, hi >> _U64(58)
    x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (x >> _U64(11)).astype(np.float64) * 2.0 ** -53
