"""Benchmark for qamg: time whole seeded rounds of one workload and check every answer.

    python3 bench/run.py --workload coin-games --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; qamg is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Results and
traces are written under `bench/out/`.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported (here or in a child).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # rounds that must lie beyond the tail percentile
TRACE_BLOCK = 8  # rounds per traced block

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = (
    "circuits.apply_float.calls", "circuits.apply_float.gates", "circuits.apply_float.s",
    "circuits.measure.calls", "circuits.measure.s",
    "circuits.apply_exact.calls", "circuits.apply_exact.gates", "circuits.apply_exact.s",
    "spectra.gram_exact.calls", "spectra.gram_exact.columns", "spectra.gram_exact.self_s",
    "amplification.certificate.calls", "amplification.certificate.self_s",
    "spectra.gram_float.calls", "spectra.gram_float.columns", "spectra.gram_float.repeats",
    "spectra.gram_float.self_s",
    "qam.repetition.calls", "qam.repetition.self_s",
    "qam.markov.calls", "qam.markov.self_s",
    "spectra.eig.calls", "spectra.eig.dim3", "spectra.eig.s",
    "lapack.eigh.calls", "lapack.eigh.s",
    "lapack.svd.calls", "lapack.svd.s",
    "qmam.optimize.calls", "qmam.optimize.restarts", "qmam.optimize.self_s",
    "qmam.honest.calls", "qmam.honest.self_s",
    "circuits.to_unitary.calls", "circuits.to_unitary.repeats", "circuits.to_unitary.s",
    "amplification.trajectories.calls", "amplification.trajectories.events",
    "amplification.trajectories.self_s",
    "amplification.binomial_tail.calls", "amplification.binomial_tail.failed",
    "amplification.binomial_tail.s",
    "cli.main.calls", "cli.main.self_s",
    "harness.run_experiment.calls", "harness.run_experiment.self_s",
    "harness.load_instance.calls", "harness.load_instance.s",
    "trace.overhead_pct",
)


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith((".s", "_s")) else "count"


def import_qamg() -> None:
    """Import qamg from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "qamg" / "__init__.py").is_file():
        raise SystemExit(f"qamg sources not found under {src}")
    sys.path.insert(0, str(src))
    import qamg

    if Path(qamg.__file__).resolve().parent != src / "qamg":
        raise SystemExit(f"imported qamg from {qamg.__file__}, not from {src}")


class Runner:
    """Plays rounds of one workload; times the questions, checks the answers after."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.problems: list = []

    def play(self, j: int, check: bool = True) -> float:
        """One round on pool entry j; returns its timed seconds."""
        from workloads import QuestionFailed

        answers = {}
        timed = 0.0
        for question in self.workload.round(j):
            start = time.perf_counter()
            try:
                raw = question.call()
            except Exception as exc:  # a failed operation is counted, never fatal
                raw, error = None, exc
            else:
                error = None
            timed += time.perf_counter() - start
            if not check:
                continue
            self.attempted += 1
            if error is None:
                try:
                    answers[question.label] = question.finish(raw)
                except QuestionFailed as exc:
                    error = exc
            if error is not None:
                self.failed += 1
                kind = f"{question.label.split('-r')[0]}: {type(error).__name__}: {error}"
                self.failures[kind] = self.failures.get(kind, 0) + 1
        if check:
            for problem in self.workload.check(j, answers):
                self.problems.append(f"round {j}: {problem}")
        return timed


def setup(workload_name: str, seed: int, out_dir: Path):
    """Everything before the first timed round: import, instances, one warm-up round."""
    import_qamg()
    import workloads

    workload = workloads.make(workload_name, seed, out_dir)
    if workload is None:
        raise SystemExit(f"unknown workload {workload_name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload.prepare()
    Runner(workload).play(0, check=False)
    return workload


def probe_setup_seconds(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter to the end of its set-up."""
    probe_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--probe", str(probe_dir)]
    try:
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        return elapsed
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def tail(times: list) -> float:
    """Highest order statistic with TAIL_BEYOND rounds above it (the maximum if fewer)."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def measure(seconds: float, runner: Runner) -> list:
    """Timed seconds of each whole round played until `seconds` of timed calls."""
    from workloads import POOL

    times = []
    while not times or sum(times) < seconds:
        times.append(runner.play(len(times) % POOL))
    return times


def run_untraced(args, workload) -> tuple[Runner, dict]:
    runner = Runner(workload)
    times = measure(args.seconds, runner)
    probes = [probe_setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    print(f"{len(times)} rounds; tail is the {100 * (len(times) - TAIL_BEYOND) / len(times):.0f}th "
          f"percentile; set-up probes {['%.3f' % p for p in probes]}", file=sys.stderr)
    metrics = {
        "instances_per_s": len(times) / sum(times),
        "instance_s_p50": statistics.median(times),
        "instance_s_tail": tail(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(probes),
    }
    return runner, metrics


def run_traced(args, workload) -> tuple[Runner, dict, list]:
    """Alternate untraced and traced blocks of the same rounds until time is up."""
    from tracer import Tracer

    runner = Runner(workload)
    tracer = Tracer()
    plain_s, traced_s, blocks, spans = [], [], [], []
    while not blocks or sum(plain_s) + sum(traced_s) < args.seconds:
        plain_s.append(sum(runner.play(j) for j in range(TRACE_BLOCK)))
        tracer.reset()
        tracer.install()
        try:
            block_s = 0.0
            for j in range(TRACE_BLOCK):
                tracer.new_round()
                block_s += runner.play(j)
        finally:
            tracer.uninstall()
        traced_s.append(block_s)
        blocks.append(dict(tracer.totals))
        if not spans:
            spans = list(tracer.spans)
    counts = {name: value for name, value in blocks[0].items() if _unit(name) == "count"}
    for block in blocks[1:]:
        moved = sorted(name for name in counts if block.get(name) != counts[name])
        if moved:
            runner.problems.append(f"traced counts differ between blocks: {moved}")
    metrics = {}
    for name in PER_LAYER:
        if _unit(name) == "s":
            metrics[name] = statistics.median(block.get(name, 0.0) for block in blocks)
        elif _unit(name) == "count":
            metrics[name] = int(counts.get(name, 0))
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)
    return runner, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # set-up only, in the given directory
    args = parser.parse_args(argv)

    if args.probe:
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            setup(args.workload, args.seed, Path(args.probe))
        print("ready", flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    try:
        # qamg run prints "wrote <path>"; only this script's result goes to stdout.
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            workload = setup(args.workload, args.seed, work_dir)
            if args.trace:
                runner, values, spans = run_traced(args, workload)
            else:
                (runner, values), spans = run_untraced(args, workload), None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for kind, count in sorted(runner.failures.items()):
        print(f"failed x{count}: {kind}", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {name: _unit(name) for name in PER_LAYER} if args.trace else END_TO_END
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"spans-{tag}.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
