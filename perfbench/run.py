"""Benchmark of the cadrepair CLI, run from the repository root:

    python3 perfbench/run.py --workload gen --seed 1 --seconds 20 --trace 0

Each run builds its inputs from ``--seed`` (the run config's master seed), runs
the workload's set-up stages and then its measured stage as separate CLI
processes, checks the artifacts they write, and prints every metric by name
with its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the set-up stages run at least
SETUP_REPEATS times (median wall time is ``setup_s``) and the measured stage
is repeated for ``--seconds`` (medians of its repetitions). ``--trace 1``
reports the per-layer metrics: one untraced pass, then one in-process pass
(perfbench/tracing.py) that traces every stage and also times the measured
stage untraced; its artifacts must equal those of the untraced pass.

Metric names and units come from BENCHMARK.json. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the checkout has no
cadrepair sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import VARIANTS, WORKLOADS, Workload

# Set-up repeats at least SETUP_REPEATS times and for at least SETUP_SECONDS,
# so that a short set-up is still a median of enough wall time to be steady.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
MAX_SETUP_REPEATS = 9
MIN_MEASURED_REPEATS = 2
MAX_MEASURED_REPEATS = 100
# Self-repair only rewrites invalid samples of the same chain, so with paired
# seeds each of these variants is feasible at least as often as its partner.
REPAIR_DOMINATES = (("var1", "baseline"), ("var2", "baseline"), ("full", "var5"))
# Variants run without guidance, whose mean MMD a guidance fix leaves as it is.
MMD_GUARDED = ("baseline", "var1", "var2")
_LATENT_HEADER = struct.Struct("<4sIII")

HERE = Path(__file__).resolve().parent


@dataclass
class Command:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float  # user + system, including reaped workers
    max_rss_mb: float  # largest resident set of the process or any reaped worker


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    repeats: dict[str, list[float]] = field(default_factory=dict)


class StageFailed(Exception):
    def __init__(self, command: Command, log: Path):
        super().__init__(f"`{' '.join(command.argv)}` exited {command.code}; see {log}")


class Runner:
    """Runs CLI stages of one workload and seed inside a work directory."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int):
        self.work = work
        self.workload = workload
        self.config = work / "config.json"
        self.config.write_text(workload.config_json(seed))
        self.log = work / "stages.log"
        self.env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def run(self, argv: list[str]) -> Command:
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(
            argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
        )

    def stage(self, argv: tuple[str, ...], out: Path) -> Command:
        command = self.run(
            [sys.executable, "-m", "cadrepair.cli", *argv, "--config", str(self.config),
             "--out", str(out)]
        )
        if command.code != 0:
            raise StageFailed(command, self.log)
        return command

    def setup(self, out: Path) -> float:
        return sum(self.stage(argv, out).wall_s for argv in self.workload.setup)


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every artifact in a run directory; config.json names the directory."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def read_latent_rows(path: Path) -> int:
    """Row count of a latent matrix file, after checking its header against its size."""
    data = path.read_bytes()
    magic, rows, width, _ = _LATENT_HEADER.unpack_from(data)
    if magic != b"LAT1" or len(data) != _LATENT_HEADER.size + rows * width * 4:
        raise ValueError(f"{path.name}: malformed latent matrix")
    return rows


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Artifacts:
    """The measured stage's artifacts as the output checks read them."""

    problems: list[str]
    samples: int  # samples delivered
    report: dict[str, dict]  # report.csv rows by variant; empty for gen-dataset


def check_outputs(workload: Workload, out: Path) -> Artifacts:
    try:
        return _check_outputs(workload, out)
    except (OSError, ValueError, KeyError, struct.error) as exc:
        return Artifacts([f"unreadable artifact in {out.name}: {exc!r}"], 0, {})


def _check_outputs(workload: Workload, out: Path) -> Artifacts:
    cfg = workload.config
    problems: list[str] = []
    expect = lambda ok, msg: ok or problems.append(msg)  # noqa: E731
    if not workload.variants:
        n_gen = cfg["n_conditions"] * cfg["generations_per_condition"]
        rows = read_latent_rows(out / "latents.bin")
        expect(rows == n_gen + cfg["n_conditions"], f"latents.bin has {rows} rows")
        labels = read_csv(out / "labels.csv")
        expect(len(labels) == n_gen, f"labels.csv has {len(labels)} rows, expected {n_gen}")
        summary = json.loads((out / "dataset_summary.json").read_text())
        expect(summary["generated_latents"] == n_gen, "dataset_summary generated_latents")
        return Artifacts(problems, len(labels), {})

    n_eval = cfg["n_eval_conditions"]
    report = {row["variant"]: row for row in read_csv(out / "report.csv")}
    expect(tuple(report) == workload.variants, f"report.csv variants {tuple(report)}")
    scores = read_csv(out / "mmd_scores.csv")
    for variant, row in report.items():
        n, n_valid = int(row["n"]), int(row["n_valid"])
        expect(n == n_eval, f"report.csv {variant}: n={n}, expected {n_eval}")
        expect(0 <= n_valid <= n, f"report.csv {variant}: n_valid={n_valid}")
        scored = sum(1 for s in scores if s["variant"] == variant)
        expect(scored == n_valid, f"mmd_scores.csv {variant}: {scored} scores, {n_valid} valid")
    for better, worse in REPAIR_DOMINATES:
        if better in report and worse in report:
            expect(
                int(report[better]["n_valid"]) >= int(report[worse]["n_valid"]),
                f"{better} has fewer feasible samples than {worse}",
            )
    for name in ("gt", "baseline", "full"):
        if name == "gt" or name in report:
            rows = read_latent_rows(out / f"eval_latents_{name}.bin")
            expect(rows == n_eval, f"eval_latents_{name}.bin has {rows} rows, expected {n_eval}")
    return Artifacts(problems, sum(int(row["n"]) for row in report.values()), report)


def run_untraced(runner: Runner, seconds: float) -> Outcome:
    workload = runner.workload
    result = Outcome()
    setup_times, setup_digest = [], None
    while len(setup_times) < MAX_SETUP_REPEATS and (
        len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
    ):
        k = len(setup_times)
        out = runner.work / f"setup{k}"
        setup_times.append(runner.setup(out))
        digest = tree_digest(out)
        if setup_digest is None:
            setup_digest = digest
        elif diff := differing(setup_digest, digest):
            result.problems.append(f"set-up repetition {k} differs in {diff}")
    out = runner.work / "setup0"

    rates, rss, first = [], [], None
    started = time.perf_counter()
    while len(rates) < MAX_MEASURED_REPEATS and (
        len(rates) < MIN_MEASURED_REPEATS or time.perf_counter() - started < seconds
    ):
        result.attempted += workload.samples
        command = runner.stage(workload.measured, out)
        found = check_outputs(workload, out)
        digest = tree_digest(out)
        if first is None:
            first = digest
        elif diff := differing(first, digest):
            found.problems.append(f"measured repetition {len(rates) + 1} differs in {diff}")
        if found.problems:
            result.problems += found.problems
            return result
        rates.append(found.samples / command.wall_s)
        rss.append(command.max_rss_mb)
    result.repeats = {"setup_s": setup_times, "samples_per_s": rates}
    result.metrics = {
        "samples_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss),
    }
    return result


def run_traced(runner: Runner) -> Outcome:
    workload = runner.workload
    result = Outcome()
    plain = runner.work / "untraced"
    runner.setup(plain)
    result.attempted += workload.samples
    command = runner.stage(workload.measured, plain)
    result.problems += check_outputs(workload, plain).problems

    traced = runner.work / "traced"
    layers_path = runner.work / "layers.json"
    result.attempted += workload.samples
    tracer = runner.run(
        [sys.executable, str(HERE / "tracing.py"), "--workload", workload.name,
         "--config", str(runner.config), "--out", str(traced),
         "--result", str(layers_path), "--spans", str(runner.work / "spans.tsv")]
    )
    if tracer.code != 0:
        raise StageFailed(tracer, runner.log)
    found = check_outputs(workload, traced)
    result.problems += found.problems
    report = found.report
    # Tracing must not change results; for eval-mmd this is also --threads 2 vs 1.
    if diff := differing(tree_digest(plain), tree_digest(traced)):
        result.problems.append(f"traced run (--threads 1) differs from untraced in {diff}")

    layers = json.loads(layers_path.read_text())
    if layers["missing"]:
        print(f"note: not found, so not traced: {', '.join(layers['missing'])}", file=sys.stderr)
    metrics = layers["metrics"]
    for variant in VARIANTS:
        metrics[f"pipeline.feasible.{variant}"] = int(report.get(variant, {}).get("n_valid", 0))
    for variant in MMD_GUARDED:
        mean_mmd = float(report.get(variant, {}).get("mean_mmd", "nan"))
        metrics[f"pipeline.mean_mmd.{variant}"] = mean_mmd if math.isfinite(mean_mmd) else 0.0
    n_total = sum(int(row["n"]) for row in report.values())
    metrics["pipeline.scored_share"] = (
        sum(int(row["n_valid"]) for row in report.values()) / n_total if n_total else 0.0
    )
    metrics["pipeline.pool_utilization"] = command.cpu_s / (workload.threads * command.wall_s)
    metrics["trace.untraced_s"] = command.wall_s
    result.metrics = metrics
    return result


def machine_info(runner: Runner) -> dict:
    probe = (
        "import json, numpy as np\n"
        "try:\n"
        "    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception as exc:\n"
        "    blas = f'unknown ({exc})'\n"
        "print(json.dumps({'numpy': np.__version__, 'blas': blas}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=runner.env, capture_output=True, text=True, check=True
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(proc.stdout),
        "machine": platform.machine(),
    }


def run_workload(
    root: Path, workload: Workload, seed: int, seconds: float, trace: bool
) -> tuple[Outcome, dict]:
    """One benchmark run; returns its outcome and the information recorded with it.

    A traced run keeps its work directory, which holds spans.tsv and layers.json.
    """
    work = root / ".bench_work" / f"{workload.name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, workload, seed)
        info = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "threads": workload.threads,
            "config_sha256": hashlib.sha256(runner.config.read_bytes()).hexdigest(),
            **machine_info(runner),
        }
        try:
            result = run_traced(runner) if trace else run_untraced(runner, seconds)
        except StageFailed as exc:
            result = Outcome(problems=[str(exc)])
            result.attempted = result.failed = max(workload.samples, 1)
        effective = runner.work / ("untraced" if trace else "setup0") / "config.json"
        if effective.exists():
            unpinned = sorted(set(json.loads(effective.read_text())) - set(workload.run_config(seed)))
            if unpinned:
                info["unpinned_config_fields"] = unpinned
        return result, info
    finally:
        if not trace:
            shutil.rmtree(work, ignore_errors=True)
            if not any(work.parent.iterdir()):
                work.parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the cadrepair CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cadrepair" / "cli.py").is_file():
        print(f"error: {root} holds no src/cadrepair; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    result, info = run_workload(
        root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print("info " + json.dumps(info, sort_keys=True))
    for name, values in result.repeats.items():
        print(f"repeats {name} n={len(values)}: " + " ".join(f"{v:.4g}" for v in values))
    for problem in result.problems:
        print(f"check failed: {problem}")
    metrics = {}
    if not result.problems:
        for metric in wanted:
            value = result.metrics[metric["name"]]
            print(f"{metric['name']:<40} {value:>16.6f} {metric['unit']}")
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not result.problems
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
