"""Golden fingerprints: SHA-256 of the RNG stream and of an ensemble's outputs.

The phases.csv digest dates from before the integrator streamed its runs
chunk by chunk.  The features.csv and cycles.csv digests were re-recorded
when segments came to be detrended by projection onto discrete orthogonal
polynomials instead of lstsq, which moved the last bits of each residual
and nothing else.  The figure digests pin the level protocol and the
deep-ramp breakdown run of the figures command, recorded while the level
protocol still detected jumps on whole paths.  The digests of
features.csv, cycles.csv, fig_level_cycle_stats.csv and
fig_level_cycle_means.csv were re-recorded when the Euler-Maruyama step
was regrouped as g + ((x x) c2 + c1) x, and again, with the RNG digest,
when the Box-Muller cosine factor came to be computed from tables and
polynomials (rng.cos_2pi) instead of np.cos; each change moved the
last bits of every path and so of every sample statistic.  phases.csv,
fig_level_jump_phases.csv, fig_level_phase_stats.csv and
fig_breakdown_events.csv kept theirs both times: they depend on paths
only through the jump indices, and no jump moved.  The diagnostics.json
digest pins the diagnose command on a 3 x 3 grid: fold info, sweep
rate, the log Floquet multiplier of the noise-free periodic orbit and
the delay phase measured on that orbit, with the row of d_a = 0.5,
below the fold, null.  A second diagnostics.json digest pins a grid
that reaches the Floquet search's harder cases: d_a = 0.9 at period 25,
whose search integrates 3 periods; period 400, whose one-period path
spans 5 integration chunks; and d_a = 0.5, below the fold.  It was
recorded while the search still integrated every period it did not
reuse to its end.  The whole-path digests pin what is written from
one run's whole path: fig_breakdown_timeseries.csv and
fig_breakdown_meta.json of the figures command's deep-ramp run, and
trajectory.csv and events.csv of the simulate command on a short ramp,
their t and d_a columns included; they were recorded while a Trajectory
still carried its time grid and amplitude.  The experiment digests pin
the experiment command on a small ensemble with both classes present:
features.csv, report.json (cross-validation, both importances and the
PCA block with its decision line), pca_coords.csv and
fig_class_distributions.csv; they were recorded while every CSV writer
still formatted its rows one f-string at a time.  Together they pin
that refactors of the simulation, feature, classification, figure and
geometry layers leave every output byte unchanged.

Bit-determinism of the streams and outputs holds for one numpy build on
one CPU feature set: np.log, in the Box-Muller radius, remains the only
call whose bits depend on the SIMD code numpy dispatches to on the host
(numpy's AVX-512 float64 log rounds differently from its other loops).
The cosine factor does not depend on it: after its tables, cos_2pi
uses exact operations and IEEE + and * only, and its digest is checked
again in a process whose numpy dispatch leaves out AVX-512.  Neither do
the noise-free diagnostics.json digests, which draw no normal; they are
checked again in such a process too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycleews
from cycleews.experiment import (ExperimentConfig, run_diagnose, run_experiment,
                                 run_features_command, run_figures, simulate_one)
from cycleews.rng import RunStream, cos_2pi

NORMALS_SHA256 = "eb0e7517b14556b8f56e8fb4d5395a1b5eb39d67d334550d001d4b0c8cdbe263"

# cos(2 pi u2) of the first 10**5 normals of RunStream(2025)
COS_FACTOR_SHA256 = "aae7096df73f8fc1134b0a6928643150cc2638e214cc289266e24b005da73020"

# numpy's dispatch as on a host without AVX-512
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# 8 protocol runs (t_total 2500) in batches of 3, master seed 11
FEATURE_OUTPUTS_SHA256 = {
    "features.csv": "4b62edcb051e057eb5a327c28937e9b1492ac35ee2049a10f66e737237a89903",
    "cycles.csv": "2ed955aca31e7d5fe82ec928ef3b3e5da6b8bc8aa7452225d08b0afb3936e448",
    "phases.csv": "707591c250b7178cdeb71565610ac20df7efec3efbb93c80d58ae5b4714fa09a",
}

# figure protocols of master seed 11: 8 level runs of 2 periods a level, batches of 3
FIGURE_OUTPUTS_SHA256 = {
    "fig_level_cycle_stats.csv":
        "77bd2b4d33d227751ecdfd8e12f9a225c7c82c43e9117b0e41477dd69b2adfc4",
    "fig_level_jump_phases.csv":
        "8fac2412c49423d60244965cc846955fd9618002abf55f7d43e2f25f538efd34",
    "fig_level_cycle_means.csv":
        "b29706f890b3278d81aa490c77c3b0e78688588f9475cf8588bcdcdfd95313ea",
    "fig_level_phase_stats.csv":
        "572793301ad6e566fec850dd4a36525a8bf7be14389a2addfd0f93fb119e87c1",
    "fig_breakdown_events.csv":
        "980b837ab399fc534dbd125c01a022485dd29bfe0b4068532e98ab69b35356a2",
    "fig_breakdown_timeseries.csv":
        "144c7dbaa604c19eabc8cfc35c4ae813ef2ed41d776e218cb65561045c4d3f18",
    "fig_breakdown_meta.json":
        "feb00699bd45123e7eac91c752f878d9dfb094eebeffde75e914c6da86d7e6ad",
}

# experiment on 12 protocol runs (4 of each class valid) in batches of 3, master seed 11,
# 2 folds and 2 permutation repeats
EXPERIMENT_OUTPUTS_SHA256 = {
    "features.csv": "ead574620deb39a48f3f01b6bddfa79187c2dcb8f20fc019ddc40ccbe1ed2e74",
    "report.json": "fc23edda80990bcd70e41ed7af4677b5d1108a4011f21edc203d719742756fe6",
    "pca_coords.csv": "dbc9d0aa7eb20dc24214b40026d4329b0b17b669f4f12585f052629ca02e1da9",
    "fig_class_distributions.csv":
        "719ef8082347a4b6df144d2f19b60dac650e1b4f2fc40b53a97cdb7b26eef136",
}

# simulate_one of run index 3, master seed 11, on a 900-unit ramp (90,001 samples)
SIMULATE_OUTPUTS_SHA256 = {
    "trajectory.csv": "4a5bce4c256e17c48b8df4dd96ba15bb62e5208ea5315a6af6fe2cba0a4c218f",
    "events.csv": "7484afdfd844eba5364d7c59446aedc2105cb8c6f496faef25a25205c36145f5",
}

# diagnose on d_a in (0.5, 0.75, 1.3) x periods (50, 100, 225) at the default dt and x0
DIAGNOSTICS_GRID = ([0.5, 0.75, 1.3], [50.0, 100.0, 225.0])
DIAGNOSTICS_SHA256 = "0849c2fb1c9948f3caebee69f06f424584556a05abd0a57a20cb482ca4d5707b"

# diagnose on d_a in (0.5, 0.75, 0.9, 1.5) x periods (25, 100, 400)
SEARCH_DIAGNOSTICS_GRID = ([0.5, 0.75, 0.9, 1.5], [25.0, 100.0, 400.0])
SEARCH_DIAGNOSTICS_SHA256 = "f845b054124b75dfe89c615aee0c121eaa98fa00c5682db23835e2df3e0f2553"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cos_factor_digest() -> str:
    words = RunStream(2025).raws(2 * 10 ** 5)[1::2] >> np.uint64(11)
    return _sha256(cos_2pi(words).tobytes())


def diagnostics_digest(out_dir, grid) -> str:
    run_diagnose(ExperimentConfig(out_dir=str(out_dir)), *grid)
    return _sha256((Path(out_dir) / "diagnostics.json").read_bytes())


def run_without_avx512(script: str, *args: str) -> str:
    """stdout of python -c script in a fresh process, since numpy reads
    NPY_DISABLE_CPU_FEATURES at import."""
    paths = [str(Path(cycleews.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_run_stream_normals_fingerprint():
    assert _sha256(RunStream(2025).normals(10 ** 5).tobytes()) == NORMALS_SHA256


def test_cos_factor_fingerprint():
    assert cos_factor_digest() == COS_FACTOR_SHA256


def test_cos_factor_fingerprint_without_avx512():
    script = "from test_golden import cos_factor_digest; print(cos_factor_digest())"
    assert run_without_avx512(script) == COS_FACTOR_SHA256


def test_diagnostics_fingerprints_without_avx512(tmp_path):
    # sigma = 0 draws no normal, so no np.log enters the noise-free paths
    script = ("import sys\n"
              "from test_golden import DIAGNOSTICS_GRID, SEARCH_DIAGNOSTICS_GRID, "
              "diagnostics_digest\n"
              "print(diagnostics_digest(sys.argv[1] + '/grid', DIAGNOSTICS_GRID),\n"
              "      diagnostics_digest(sys.argv[1] + '/search', SEARCH_DIAGNOSTICS_GRID))")
    digests = run_without_avx512(script, str(tmp_path)).split()
    assert digests == [DIAGNOSTICS_SHA256, SEARCH_DIAGNOSTICS_SHA256]


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


@pytest.mark.parametrize("threads", [1, 2])
def test_experiment_outputs_fingerprint(tmp_path, threads):
    config = ExperimentConfig(n_runs=12, master_seed=11, batch_size=3, k_folds=2,
                              permutation_repeats=2, threads=threads, out_dir=str(tmp_path))
    run_experiment(config)
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in EXPERIMENT_OUTPUTS_SHA256}
    assert digests == EXPERIMENT_OUTPUTS_SHA256


def test_diagnostics_fingerprint(tmp_path):
    assert diagnostics_digest(tmp_path, DIAGNOSTICS_GRID) == DIAGNOSTICS_SHA256


def test_search_diagnostics_fingerprint(tmp_path):
    assert diagnostics_digest(tmp_path, SEARCH_DIAGNOSTICS_GRID) == SEARCH_DIAGNOSTICS_SHA256


def test_simulate_outputs_fingerprint(tmp_path):
    simulate_one(ExperimentConfig(t_total=900.0, master_seed=11, out_dir=str(tmp_path)),
                 run_index=3)
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in SIMULATE_OUTPUTS_SHA256}
    assert digests == SIMULATE_OUTPUTS_SHA256
