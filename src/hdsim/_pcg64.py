"""numpy's ``default_rng(seed).random`` doubles, bit for bit, in pure Python.

The seed goes through numpy's ``SeedSequence`` hash (a pool of four 32-bit
words) into a PCG64 generator (O'Neill's XSL-RR 128/64), and each double
is the top 53 bits of one 64-bit output.  Pure Python keeps the stream
independent of the numpy build and spares a run the ``numpy.random``
import.
"""

import operator

from .systems import require_args

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ULP = 2.0**-53


def _hasher(key: int, mult: int):
    """``SeedSequence``'s word hash; its key advances with every word."""

    def hashed(value: int) -> int:
        nonlocal key
        key, value = key * mult & _M32, value ^ key
        value = value * key & _M32
        return value ^ value >> 16

    return hashed


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)``, as numpy computes it."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a, hash_b = _hasher(0x43B0D7E5, 0x931E8875), _hasher(0x8B51F9DD, 0x58F38DED)
    pool = [hash_a(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_a(word))
    words = [hash_b(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """Uniform doubles in ``[0, 1)`` from a non-negative integer seed."""

    def __init__(self, seed: int):
        require_args(seed=seed)
        w0, w1, w2, w3 = _seed_words(operator.index(seed))
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = ((self._inc + (w0 << 64 | w1)) * _MULT + self._inc) & _M128

    def random(self, n: int) -> list:
        """The next ``n`` doubles, as ``numpy.random.Generator.random`` gives them."""
        s, inc, out = self._state, self._inc, []
        mult, m64, m128, ulp = _MULT, _M64, _M128, _ULP
        for _ in range(n):
            s = (s * mult + inc) & m128
            x, r = ((s >> 64) ^ s) & m64, s >> 122
            out.append((((x >> r | x << (64 - r)) & m64) >> 11) * ulp)
        self._state = s
        return out
