"""Deterministic random streams for reproducible ensembles.

Every run owns an independent Philox4x64 counter stream keyed by
(seed, 0); shuffles use Generators over the same family keyed by
(seed, stream id).  Raw 64-bit outputs are mapped to uniforms by the
fixed rule u = (raw >> 11) * 2**-53 and to standard normals by the
cosine branch of the Box-Muller transform, consuming exactly two raws
per normal.  Draw i is therefore a pure function of (key, position):
results do not depend on chunk size, batching, or worker count.

The cosine factor cos(2 pi u2) is table-driven (Tang, ACM TOMS 15:144,
1989): u2 = (j + x) / 4096 with j its top 12 bits, and cos(2 pi u2) =
C[j] + (C[j] c(x) - S[j] s(x)), where C[j] and S[j] are the cosine and
sine of 2 pi j / 4096, tabulated once at import with math.cos and
math.sin, and c(x) = cos(h x) - 1 and s(x) = sin(h x), h = 2 pi / 4096,
are fixed polynomials of degree 4 and 3.  Everything after the tables is
exact scaling, floor, a gather and IEEE + and *, so the factor has the
same bits whatever SIMD code numpy dispatches to; np.log, in the radius
sqrt(-2 log(1 - u1)), is the one call whose last bits may depend on it.
"""

from __future__ import annotations

import hashlib
import math
import threading

import numpy as np

from .base import require

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
_INV_2_41 = 1.0 / 2199023255552.0  # 2**-41: a 53-bit word times it is 4096 u, exactly
_SHIFT_11 = np.uint64(11)
_MASK_64 = (1 << 64) - 1

_TABLE_SIZE = 4096
_COS_BLOCK = 8192  # words per pass of mul_cos_2pi: one chunk of a batch of two or more runs


def _turn_tables(size: int):
    """cos and sin of 2 pi k / size for k < size, from the first octant by symmetry.

    math.cos and math.sin only see angles in [0, pi/4], so quarter turns
    are exact: the table holds exact zeros and ones at multiples of pi/2.
    """
    quarter = size // 4
    octant = quarter // 2
    angles = [(math.pi / 2.0) * (r / quarter) for r in range(octant + 1)]
    cos_oct = [math.cos(a) for a in angles]
    sin_oct = [math.sin(a) for a in angles]
    # r = octant + 1 .. quarter - 1 takes the angle of quarter - r, cos and sin swapped
    c = np.array(cos_oct + sin_oct[octant - 1:0:-1])
    s = np.array(sin_oct + cos_oct[octant - 1:0:-1])
    cos_table = np.concatenate([c, -s, -c, s]) + 0.0  # + 0.0 turns -0.0 into 0.0
    sin_table = np.concatenate([s, c, -s, -c]) + 0.0
    return cos_table, sin_table


_COS_TABLE, _SIN_TABLE = _turn_tables(_TABLE_SIZE)
_H = 2.0 * math.pi / _TABLE_SIZE  # 2 pi / 4096 = pi / 2048, exact scaling of pi
# cos(h x) - 1 = x^2 (C2 + C4 x^2), truncation below 2e-20 for x in [0, 1)
_C2, _C4 = -_H * _H / 2.0, _H ** 4 / 24.0
# sin(h x) = x (S1 + S3 x^2), truncation below 7.1e-17 for x in [0, 1)
_S1, _S3 = _H, -_H ** 3 / 6.0


class _CosScratch(threading.local):
    """One thread's work arrays for mul_cos_2pi, so that a call allocates nothing."""

    def __init__(self):
        self.x, self.x2, self.terms = (np.empty(_COS_BLOCK) for _ in range(3))
        self.index = np.empty(_COS_BLOCK, dtype=np.intp)


_cos_scratch = _CosScratch()


def mul_cos_2pi(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Multiply out in place by cos(2 pi u), u = words * 2**-53, and return it.

    words holds integers below 2**53 (raw >> 11) as uint64, one per
    element of out; it is only read, and may be strided.  Per element:
    4096 u = j + x exactly (j = floor(4096 u) < 4096, x in [0, 1)), then
    C[j] + (C[j] c(x) - S[j] s(x)) from the module's tables and
    polynomials.  Only exact operations and IEEE + and * follow the
    tables, so the bits do not depend on numpy's SIMD dispatch.  The work
    goes through per-thread scratch arrays, _COS_BLOCK words at a time.
    """
    sc = _cos_scratch
    for lo in range(0, len(out), _COS_BLOCK):
        w, o = words[lo:lo + _COS_BLOCK], out[lo:lo + _COS_BLOCK]
        n = len(o)
        x, x2, terms, j = sc.x[:n], sc.x2[:n], sc.terms[:n], sc.index[:n]
        np.multiply(w, _INV_2_41, x)  # 4096 u
        np.floor(x, terms)
        np.subtract(x, terms, x)  # x = 4096 u - j
        np.copyto(j, terms, casting="unsafe")
        np.multiply(x, x, x2)
        np.multiply(x2, _C4, terms)
        np.add(terms, _C2, terms)
        np.multiply(terms, x2, terms)  # c(x)
        np.multiply(x2, _S3, x2)
        np.add(x2, _S1, x2)
        np.multiply(x2, x, x2)  # s(x)
        np.take(_SIN_TABLE, j, out=x, mode="clip")  # j < 4096: clip never clips
        np.multiply(x2, x, x2)  # S[j] s(x)
        np.take(_COS_TABLE, j, out=x, mode="clip")
        np.multiply(terms, x, terms)  # C[j] c(x)
        np.subtract(terms, x2, terms)
        np.add(terms, x, terms)  # cos(2 pi u)
        np.multiply(o, terms, o)
    return out


def derive_seed(master_seed: int, *labels) -> int:
    """Derive a labeled 64-bit sub-seed from a master seed.

    Uses keyed BLAKE2b over the label sequence, so independent pipeline
    components (runs, fold splits, permutations, ...) get unrelated
    streams that can be re-created in isolation.
    """
    key = (int(master_seed) & _MASK_64).to_bytes(8, "little")
    h = hashlib.blake2b(digest_size=8, key=key)
    for label in labels:
        if isinstance(label, str):
            h.update(label.encode("utf-8"))
        else:
            h.update((int(label) & _MASK_64).to_bytes(8, "little"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


class RunStream:
    """Sequential draw stream for one run.

    The first two raws of every run stream are an auxiliary block
    (used by ensembles to sample per-run parameters); callers that do
    not need them simply discard the block so that all consumers of a
    seed see the same noise sequence.
    """

    def __init__(self, seed: int):
        key = np.array([int(seed) & _MASK_64, 0], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)

    def raws(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        return (self.raws(n) >> _SHIFT_11) * _INV_2_53

    def normals(self, n: int, out=None) -> np.ndarray:
        """Draw n standard normals, consuming 2n raws (Box-Muller, cosine branch).

        Normal i is sqrt(-2 log(1 - u1)) cos(2 pi u2) from the uniforms of
        raws 2i and 2i + 1; the cosine factor comes from mul_cos_2pi's
        tables, not np.cos.  They are computed in place in out when it is
        given: a contiguous float64 array of length n, such as a row of a
        2-D block.  np.log only ever sees a contiguous array, since numpy
        may round strided inputs through another loop; apart from the raws
        array, no temporary is allocated.
        """
        if out is None:
            out = np.empty(n)
        require(out.shape == (n,) and out.dtype == np.float64 and out.flags.c_contiguous,
                "out must be a contiguous float64 array of length n")
        if n == 0:
            return out
        raw = self.raws(2 * n)
        raw >>= _SHIFT_11
        np.multiply(raw[0::2], _INV_2_53, out)
        np.subtract(1.0, out, out)  # u1 in (0, 1]: log is finite
        np.log(out, out)
        np.multiply(out, -2.0, out)
        np.sqrt(out, out)
        return mul_cos_2pi(raw[1::2], out)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy Generator over the same keyed Philox family (for shuffles)."""
    key = np.array([int(seed) & _MASK_64, int(stream) & _MASK_64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
