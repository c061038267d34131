"""Deterministic random streams for reproducible ensembles.

Every run owns an independent Philox4x64 counter stream keyed by
(seed, 0); shuffles use Generators over the same family keyed by
(seed, stream id).  Raw 64-bit outputs are mapped to uniforms by the
fixed rule u = (raw >> 11) * 2**-53 and to standard normals by the
cosine branch of the Box-Muller transform, consuming exactly two raws
per normal.  Draw i is therefore a pure function of (key, position):
results do not depend on chunk size, batching, or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .base import require

TWO_PI = 2.0 * np.pi
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
_SHIFT_11 = np.uint64(11)
_MASK_64 = (1 << 64) - 1


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


def raw_to_uniform(raw: np.ndarray) -> np.ndarray:
    """Map raw uint64 words to float64 uniforms in [0, 1)."""
    return (raw >> _SHIFT_11) * _INV_2_53


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
        return raw_to_uniform(self.raws(n))

    def normals(self, n: int, out=None) -> np.ndarray:
        """Draw n standard normals, consuming 2n raws (Box-Muller, cosine branch).

        They are computed in place in out when it is given: a contiguous
        float64 array of length n, such as a row of a 2-D block.  np.log
        and np.cos only ever see contiguous arrays, since numpy may round
        strided inputs through another loop.
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
        angle = np.multiply(raw[1::2], _INV_2_53)
        np.multiply(angle, TWO_PI, angle)
        np.cos(angle, angle)
        np.multiply(out, angle, out)
        return out


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy Generator over the same keyed Philox family (for shuffles)."""
    key = np.array([int(seed) & _MASK_64, int(stream) & _MASK_64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
