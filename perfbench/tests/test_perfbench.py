"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that BENCHMARK.json names every workload and metric, that a
traced invocation's counts repeat exactly, and that a perturbed output is
counted as a failure.  Each runs a few real CLI invocations (about 15 s in
all).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s", "wall_s_tail", "setup_s", "step_ms", "peak_rss_mb"}
PER_LAYER = {
    "kernels.calls_per_step", "kernels.self_s",
    "spectral.self_s", "spectral.fft_calls_per_step",
    "spectral.fft_points_per_step", "spectral.fields_per_step",
    "dynamics.self_s", "dynamics.rhs_calls_per_step", "dynamics.step_p50_ms",
    "dynamics.step_p99_ms", "dynamics.diagnostics_s",
    "lattice.self_s", "lattice.step_p50_ms",
    "convergence.self_s", "convergence.norm_s", "convergence.snapshots",
    "cli.setup_s", "cli.output_s", "cli.output_bytes",
    "trace.overhead", "trace.coverage",
}
COUNTS = {
    "kernels.calls_per_step", "spectral.fft_calls_per_step",
    "spectral.fft_points_per_step", "spectral.fields_per_step",
    "dynamics.rhs_calls_per_step", "convergence.snapshots", "cli.output_bytes",
}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload_and_metric(spec):
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runner = run.Runner(ROOT, name, seed=0, work=tmp_path)
    steps = workloads.model_steps(name, runner.cfg)
    plain = [runner.invoke(trace=False)]
    traced = [runner.invoke(trace=True), runner.invoke(trace=True)]
    assert all(r.ok for r in plain + traced), [r.problem for r in plain + traced]
    first, second = (run.per_layer(plain, [r], steps)[0] for r in traced)
    assert set(first) == PER_LAYER
    for metric in COUNTS:
        assert first[metric] == second[metric], metric
    assert first["spectral.fft_calls_per_step"][0] > 0
    assert all(math.isfinite(value) for value, _ in first.values())


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    runner = run.Runner(ROOT, "simulate-n256", seed=0, work=tmp_path_factory.mktemp("sim"))
    assert runner.reference is not None
    inv = runner.invoke(trace=False)
    assert inv.ok, inv.problem
    return runner


def _perturbed_copy(runner, tmp_path, filename, edit):
    out = tmp_path / "out"
    shutil.copytree(runner.work / "out", out)
    path = out / filename
    path.write_text(edit(path.read_text()))
    return out


def _bump_last_value(text):
    lines = text.splitlines()
    x, value = lines[-1].split(",")
    lines[-1] = f"{x},{float(value) + 1e-9:.17g}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "filename, edit",
    [
        ("final_u.csv", _bump_last_value),
        ("summary.json", lambda t: t.replace('"energy": ', '"energy": NaN, "was": ', 1)),
        ("timeseries.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    ],
)
def test_perturbed_output_is_a_failure(simulate_out, tmp_path, filename, edit):
    runner = simulate_out
    check.verify(runner.name, runner.cfg, runner.work / "out", runner.reference)
    out = _perturbed_copy(runner, tmp_path, filename, edit)
    with pytest.raises(check.CheckError):
        check.verify(runner.name, runner.cfg, out, runner.reference)


def test_reference_mismatch_counts_as_failed_invocation(tmp_path):
    runner = run.Runner(ROOT, "simulate-n256", seed=0, work=tmp_path)
    runner.reference = dict(runner.reference, energy=runner.reference["energy"] * (1 + 1e-6))
    inv = runner.invoke(trace=False)
    assert not inv.ok
    assert "energy" in inv.problem


def test_sweep_slope_outside_band_is_a_failure(tmp_path):
    runner = run.Runner(ROOT, "sweep-lattice-n2048", seed=0, work=tmp_path / "w")
    assert runner.invoke(trace=False).ok
    out = _perturbed_copy(runner, tmp_path, "summary.json", lambda t: t.replace('"slope": ', '"slope": 1.5, "was": ', 1))
    with pytest.raises(check.CheckError):
        check.verify(runner.name, runner.cfg, out, None)


def test_tail_keeps_ten_samples_above_it():
    samples = list(range(40))
    value, percentile = run.tail_value(samples)
    assert value == 29 and sum(s > value for s in samples) == 10
    assert percentile == 75.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-n256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
