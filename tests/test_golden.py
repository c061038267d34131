"""Golden fingerprints: SHA-256 of the RNG stream and of an ensemble's outputs.

The RNG digest and the phases.csv digest date from before the integrator
streamed its runs chunk by chunk.  The features.csv and cycles.csv digests
were re-recorded when segments came to be detrended by projection onto
discrete orthogonal polynomials instead of lstsq, which moved the last bits
of each residual and nothing else.  The figure digests pin the level
protocol and the deep-ramp breakdown run of the figures command, recorded
while the level protocol still detected jumps on whole paths.  Together they
pin that refactors of the simulation, feature and figure layers leave every
output byte unchanged.
Bit-determinism holds for one numpy build on one CPU feature set; another
build may change the last bits of cos or log and with them these digests.
"""

import hashlib

import pytest

from cycleews.experiment import ExperimentConfig, run_features_command, run_figures
from cycleews.rng import RunStream

NORMALS_SHA256 = "28e1cf0522f2f34bd4563e747a120c19a1ea80f9f71fbaed805a12958b837df7"

# 8 protocol runs (t_total 2500) in batches of 3, master seed 11
FEATURE_OUTPUTS_SHA256 = {
    "features.csv": "c527db3af49c4a27d76d12143929f40c9f1ee8d8b9268dbfce3f1c0804b4000b",
    "cycles.csv": "d9f7d5f6fb327c06dc4c0dae8e3499dbbe9af1111af32970b81c7de71db97343",
    "phases.csv": "707591c250b7178cdeb71565610ac20df7efec3efbb93c80d58ae5b4714fa09a",
}

# figure protocols of master seed 11: 8 level runs of 2 periods a level, batches of 3
FIGURE_OUTPUTS_SHA256 = {
    "fig_level_cycle_stats.csv":
        "cb9ce78539bee659a59bb2d181b413d3a08c423a4f4e32bc72259a699fc3e33c",
    "fig_level_jump_phases.csv":
        "8fac2412c49423d60244965cc846955fd9618002abf55f7d43e2f25f538efd34",
    "fig_level_cycle_means.csv":
        "3b8c4dae95ca73aa25bb1793860a7b80a3ef9f3948450064047f0b619e941d3b",
    "fig_level_phase_stats.csv":
        "572793301ad6e566fec850dd4a36525a8bf7be14389a2addfd0f93fb119e87c1",
    "fig_breakdown_events.csv":
        "980b837ab399fc534dbd125c01a022485dd29bfe0b4068532e98ab69b35356a2",
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


@pytest.mark.parametrize("threads", [1, 2])
def test_figure_outputs_fingerprint(tmp_path, threads):
    config = ExperimentConfig(figure_runs=8, figure_level_periods=2, batch_size=3,
                              master_seed=11, threads=threads, out_dir=str(tmp_path))
    run_figures(config)
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in FIGURE_OUTPUTS_SHA256}
    assert digests == FIGURE_OUTPUTS_SHA256
