"""nlwaves benchmark: CLI workloads timed end to end, or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each invocation of the CLI is a fresh single-threaded process, and one runs
at a time (a closed loop with one client) for S seconds after one untimed
warm-up invocation.  Every invocation's outputs are checked (check.py).

--trace 0 prints the end-to-end metrics: median and tail wall time, set-up
time, stepping time per model-step and peak RSS.  --trace 1 alternates
untraced and traced invocations and prints the per-layer metrics of the
traced ones (tracer.py).  The last line of standard output is the result
object; the line before it is a record of the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: samples required beyond the reported tail percentile
TAIL_SAMPLES = 10

LAYER_TIMES = ("kernels", "spectral", "dynamics", "lattice", "convergence")


@dataclass
class Invocation:
    """One CLI process: its clocks, rusage, record and check outcome."""

    spawn_ns: int
    wall_ns: int
    maxrss_kb: int
    output_bytes: int
    record: dict | None
    problem: str | None

    @property
    def ok(self) -> bool:
        return self.problem is None


class Runner:
    def __init__(self, root: Path, name: str, seed: int, work: Path | None = None):
        self.root = root
        self.name = name
        self.cfg = workloads.make_config(name, seed)
        self.reference = check.load_reference(name, seed)
        self.work = work or root / ".perfbench_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.started = {False: 0, True: 0}  # invocations so far, untraced and traced

    def invoke(self, trace: bool) -> Invocation:
        out = self.work / "out"
        record_path = self.work / "record.json"
        shutil.rmtree(out, ignore_errors=True)
        record_path.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-s", str(HERE / "launch.py"),
            str(self.root / "src"), str(record_path), "1" if trace else "0", "--",
            *workloads.argv(self.name, str(self.config_path), str(out)),
        ]
        # Invocations of each kind take the CPUs in turn: each CPU's speed varies
        # on its own over seconds, and pinning spreads a run's samples over all.
        # The child inherits the CPU from this process, which keeps spawning
        # free of a pre-exec hook.
        cpu = self.cpus[self.started[trace] % len(self.cpus)]
        self.started[trace] += 1
        with open(self.work / "stderr.txt", "wb") as err:
            os.sched_setaffinity(0, {cpu})
            try:
                spawn_ns = time.monotonic_ns()
                proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            finally:
                os.sched_setaffinity(0, self.cpus)
            _, status, usage = os.wait4(proc.pid, 0)
            exit_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record, problem = None, None
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"exit code {proc.returncode}: {' '.join(tail)}"
        else:
            try:
                record = json.loads(record_path.read_text())
            except (OSError, ValueError) as exc:
                problem = f"no clock record: {exc}"
            else:
                if record.get("first_step_ns") is None:
                    problem = "no time step was taken"
                else:
                    try:
                        check.verify(self.name, self.cfg, out, self.reference)
                    except check.CheckError as exc:
                        problem = f"output check: {exc}"
        output_bytes = sum(p.stat().st_size for p in out.glob("*")) if out.is_dir() else 0
        return Invocation(spawn_ns, exit_ns - spawn_ns, usage.ru_maxrss, output_bytes, record, problem)


def tail_value(samples):
    """Highest sample with TAIL_SAMPLES samples above it (the maximum if too few)."""
    ordered = sorted(samples)
    index = len(ordered) - 1 - (TAIL_SAMPLES if len(ordered) > TAIL_SAMPLES else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(runs, model_steps):
    good = [r for r in runs if r.ok] or runs
    walls = [r.wall_ns / 1e9 for r in good]
    tail, percentile = tail_value(walls)
    setups = [(r.record["first_step_ns"] - r.spawn_ns) / 1e9 for r in good if r.record]
    steps = [r.record["step_ns"] / 1e6 / model_steps for r in good if r.record]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "step_ms": (statistics.median(steps) if steps else 0.0, "ms"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb / 1024 for r in good), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setups, "step_ms": steps}
    detail = {
        "wall_tail_percentile": percentile,
        "timed_samples": len(walls),
        "samples": {k: [round(x, 6) for x in v] for k, v in samples.items()},
    }
    return metrics, detail


def per_layer(plain, traced, model_steps):
    plain = [r for r in plain if r.ok] or plain
    traced = [r for r in traced if r.ok and r.record]
    if not traced:
        return {}, {}
    recs = [r.record for r in traced]

    def med(values):
        return statistics.median(values)

    def self_s(rec, layer, phase=None):
        phases = rec["self_ns"].get(layer, {})
        ns = phases.get(phase, 0) if phase else sum(phases.values())
        return ns / 1e9

    def step_ms(rec, layer, key):
        return rec["steps"].get(layer, {}).get(key, 0.0) / 1e6

    first = recs[0]
    calls = first["calls"]
    metrics = {
        "kernels.calls_per_step": (first["entries"].get("kernels", 0) / model_steps, "1/step"),
        "spectral.fft_calls_per_step": (first["fft_calls"] / model_steps, "1/step"),
        "spectral.fft_points_per_step": (first["fft_points"] / model_steps, "1/step"),
        "spectral.fields_per_step": (calls.get("spectral.Field.__init__", 0) / model_steps, "1/step"),
        "dynamics.rhs_calls_per_step": (
            sum(calls.get(f, 0) for f in ("dynamics.nonlocal_rhs", "dynamics.classical_rhs")) / model_steps,
            "1/step",
        ),
        "dynamics.step_p50_ms": (med(step_ms(r, "dynamics", "p50_ns") for r in recs), "ms"),
        "dynamics.step_p99_ms": (med(step_ms(r, "dynamics", "p99_ns") for r in recs), "ms"),
        "dynamics.diagnostics_s": (med(r["diagnostics_ns"] / 1e9 for r in recs), "s"),
        "lattice.step_p50_ms": (med(step_ms(r, "lattice", "p50_ns") for r in recs), "ms"),
        "convergence.norm_s": (med(r["norm_ns"] / 1e9 for r in recs), "s"),
        "convergence.snapshots": (first["snapshots"], "count"),
        "cli.setup_s": (med(self_s(r, "cli", "setup") for r in recs), "s"),
        "cli.output_s": (med(self_s(r, "cli", "output") for r in recs), "s"),
        "cli.output_bytes": (traced[0].output_bytes, "B"),
        "trace.overhead": (
            med(r.wall_ns for r in traced) / med(r.wall_ns for r in plain), "ratio"
        ),
        "trace.coverage": (
            med(sum(self_s(r.record, layer) for layer in r.record["self_ns"]) / (r.wall_ns / 1e9) for r in traced),
            "ratio",
        ),
    }
    for layer in LAYER_TIMES:
        metrics[f"{layer}.self_s"] = (med(self_s(r, layer) for r in recs), "s")
    counts = ("entries", "calls", "fft_calls", "fft_points", "snapshots")
    repeat = all(all(r[k] == first[k] for k in counts) for r in recs)
    return metrics, {"traced_samples": len(recs), "counts_repeat": repeat}


def environment(runner: Runner, numpy_version) -> dict:
    cfg = runner.cfg
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": runner.cpus,
        "caches": _caches(),
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "grid_n": cfg["grid_n"],
        "steps_per_run": workloads.steps_per_run(cfg),
        "model_steps": workloads.model_steps(runner.name, cfg),
        "note": "every working set fits in the last-level cache; no bandwidth figure is reported",
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nlwaves" / "cli.py").is_file():
        sys.stderr.write(f"no nlwaves sources under {root / 'src'}; run from the repository root\n")
        return 2
    runner = Runner(root, args.workload, args.seed)
    model_steps = workloads.model_steps(args.workload, runner.cfg)

    runs = [runner.invoke(trace=False)]  # warm-up: checked, not timed
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or not plain or (args.trace and not traced):
        plain.append(runner.invoke(trace=False))
        if args.trace:
            traced.append(runner.invoke(trace=True))
    runs += plain + traced
    failed = [r for r in runs if not r.ok]

    if args.trace:
        metrics, detail = per_layer(plain, traced, model_steps)
    else:
        metrics, detail = end_to_end(plain, model_steps)
    numpy_version = next((r.record["numpy"] for r in runs if r.record), None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "config": runner.cfg,
        "fail_rate": len(failed) / len(runs),
        "failures": sorted({r.problem for r in failed})[:5],
        **detail,
        "environment": environment(runner, numpy_version),
    }
    (runner.work / "result.json").write_text(json.dumps(info, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failed and detail.get("counts_repeat", True),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
