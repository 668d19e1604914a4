"""Full 64 x 64-bit products of numpy ``uint64`` arrays, and the ``uint64``
powers of ten.

The float writer (``_floattext``), the float reader (``_floatread``) and the
random stream (``_pcg``) need the 128-bit product of two 64-bit words, which
numpy has no dtype for; both text modules need the powers of ten.  They live
here so that each command loads only the text code its data needs, and a
run which draws random weights but reads and writes no CSV loads none of it.
``uint64`` words only ever meet ``uint64`` scalars and arrays, so the
arithmetic is the same whether numpy promotes Python scalars by value (1.24)
or by NEP 50 (2.x).
"""

from __future__ import annotations

import numpy as np

_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)

# 10**0 .. 10**19, every power of ten a uint64 holds
POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)


def mul64(a, b):
    """Full 128-bit products of two ``uint64`` arrays as (high, low) words.

    The high word is summed from 32-bit limbs, so no partial product
    overflows; the low word is the wrapped product.
    """
    a0, a1 = a & _LOW32, a >> _32
    b0, b1 = b & _LOW32, b >> _32
    lo_lo, hi_lo, lo_hi = a0 * b0, a1 * b0, a0 * b1
    mid = (lo_lo >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return a1 * b1 + (hi_lo >> _32) + (lo_hi >> _32) + (mid >> _32), a * b
