"""RunStream's normals against the textbook Box-Muller transform.

RunStream.normals takes its cosine factor from tables and polynomials
(rng.cos_2pi) instead of np.cos.  The oracle below is the textbook
form, sqrt(-2 log(1 - u1)) * np.cos(2 pi u2) on the same raws; the two
agree to rounding.  The cosine factor is also checked on its own, on the
table's nodes and their neighbours, against a quadrant-reduced math.cos
and math.sin.  Keys outside [0, 2**64) are rejected at every entry
point, and separate streams drawn from at once in several threads give
the bits they give one after another.
"""

import math
import threading

import numpy as np
import pytest

from cycleews.rng import RunStream, cos_2pi, derive_seed, generator
from cycleews.sim import UniformSampler, draw_d_min

_INV_2_53 = 2.0 ** -53


def _textbook_box_muller(seed: int, n: int):
    """(radius, cosine factor) of RunStream(seed).normals(n), textbook style."""
    words = RunStream(seed).raws(2 * n) >> np.uint64(11)
    u1, u2 = words[0::2] * _INV_2_53, words[1::2] * _INV_2_53
    return np.sqrt(-2.0 * np.log(1.0 - u1)), np.cos(2.0 * np.pi * u2)


def _quadrant_cos(word: int) -> float:
    """cos(2 pi word 2**-53) by quadrant reduction: math.cos/sin see [0, pi/4] only."""
    quadrant, rest = divmod(word, 2 ** 51)  # u = (quadrant + r) / 4, r = rest 2**-51
    r = rest * 2.0 ** -51
    if r <= 0.5:
        c, s = math.cos((math.pi / 2.0) * r), math.sin((math.pi / 2.0) * r)
    else:
        c, s = math.sin((math.pi / 2.0) * (1.0 - r)), math.cos((math.pi / 2.0) * (1.0 - r))
    return (c, -s, -c, s)[quadrant]


def _cos_factor(words) -> np.ndarray:
    return cos_2pi(np.asarray(words, dtype=np.uint64))


def test_normals_match_textbook_box_muller():
    # np.cos(2 pi u2) rounds its argument, which costs up to about
    # 2 pi 2**-52 in the cosine; the tables are within 4e-16
    seed, n = derive_seed(7, "box-muller-oracle"), 200_000
    radius, cos = _textbook_box_muller(seed, n)
    assert np.all(np.abs(RunStream(seed).normals(n) - radius * cos) <= 2.0e-15 * radius)


def test_cos_factor_matches_quadrant_reference():
    nodes = np.arange(4096, dtype=np.uint64) << np.uint64(41)  # u2 = k / 4096
    below = nodes[1:] - np.uint64(1)  # the sample just below each node
    quarters = [0, 2 ** 51, 2 ** 52, 3 * 2 ** 51, 2 ** 53 - 1]  # 0, 1/4, 1/2, 3/4, 1 - 2**-53
    drawn = RunStream(derive_seed(7, "cos-words")).raws(20_000) >> np.uint64(11)
    words = np.concatenate([nodes, below, np.array(quarters, dtype=np.uint64), drawn])
    reference = np.array([_quadrant_cos(int(w)) for w in words])
    assert np.abs(_cos_factor(words) - reference).max() <= 4.0e-16
    assert _cos_factor(quarters[:4]).tolist() == [1.0, 0.0, -1.0, 0.0]


def test_normals_do_not_depend_on_draw_sizes():
    seed = derive_seed(7, "draw-sizes")
    whole = RunStream(seed).normals(20_000)
    stream = RunStream(seed)
    parts = [stream.normals(k) for k in (7, 8192, 8193, 3608)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("draw", [
    RunStream, generator, lambda key: generator(0, key), derive_seed,
    lambda key: derive_seed(0, "run", key), lambda key: draw_d_min(key, UniformSampler(0.25, 0.9)),
], ids=["run_stream", "generator_seed", "generator_stream", "derive_seed_master",
        "derive_seed_label", "draw_d_min"])
def test_keys_outside_64_bits_are_rejected(draw):
    # a key masked to its low 64 bits would run another key's stream:
    # 2**64 seed 0's and -1 seed 2**64 - 1's
    for key in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
            draw(key)
    draw(2 ** 64 - 1)


def test_normals_drawn_in_threads_match_serial_draws():
    # four threads, each with its own stream, draw at once (numpy drops the
    # GIL inside the ufuncs); every thread's normals equal a serial draw
    seeds = [derive_seed(7, "threads", k) for k in range(4)]
    sizes = [1, 8192, 3000, 8193, 20_000] * 4

    def draws(seed):
        stream = RunStream(seed)
        return np.concatenate([stream.normals(n) for n in sizes])

    serial = [draws(seed).tobytes() for seed in seeds]
    concurrent = [None] * len(seeds)
    start = threading.Barrier(len(seeds))

    def work(k):
        start.wait()
        concurrent[k] = draws(seeds[k]).tobytes()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(seeds))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert concurrent == serial
