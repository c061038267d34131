"""Golden fingerprints: SHA-256 of the RNG stream and of an ensemble's outputs.

The digests were recorded before the integrator streamed its runs chunk by
chunk, so they pin that refactors of the simulation and feature layers
leave every output byte unchanged.  Bit-determinism holds for one numpy
build on one CPU feature set; another build may change the last bits of
cos or log and with them these digests.
"""

import hashlib

import pytest

from cycleews.experiment import ExperimentConfig, run_features_command
from cycleews.rng import RunStream

NORMALS_SHA256 = "28e1cf0522f2f34bd4563e747a120c19a1ea80f9f71fbaed805a12958b837df7"

# 8 protocol runs (t_total 2500) in batches of 3, master seed 11
FEATURE_OUTPUTS_SHA256 = {
    "features.csv": "a0f2d74a62667ca94154171774b4d2f8b1fd55ea539ce92d869457c83e1398b2",
    "cycles.csv": "dca7e4dd961b8cb3b83d73ce156c83d3ef4baa5f22a0244e829f47a20a824642",
    "phases.csv": "707591c250b7178cdeb71565610ac20df7efec3efbb93c80d58ae5b4714fa09a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_run_stream_normals_fingerprint():
    assert _sha256(RunStream(2025).normals(10 ** 5).tobytes()) == NORMALS_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_feature_outputs_fingerprint(tmp_path, threads):
    config = ExperimentConfig(n_runs=8, master_seed=11, batch_size=3, threads=threads,
                              out_dir=str(tmp_path))
    run_features_command(config)
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in FEATURE_OUTPUTS_SHA256}
    assert digests == FEATURE_OUTPUTS_SHA256
