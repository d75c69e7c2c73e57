"""Traced in-process run of one workload, for the benchmark's per-layer metrics.

    PYTHONPATH=src python3 perfbench/tracing.py --workload gen --config cfg.json \
        --out DIR --result layers.json --spans spans.tsv

Runs the workload's set-up stages and its measured stage through
``cadrepair.cli.main`` in this process, with ``--threads 1``. The measured
stage runs twice: untraced, as the baseline of the tracing overhead, then
traced. While it runs,
the layer functions named in ``WRAPPED`` are replaced, in every cadrepair
module that holds a reference to them, by wrappers that record one span per
call (name, parent span, start, end) and a few counters. Spans stay in memory
until the run ends; then they are written to ``--spans`` and summarised into
per-layer metrics in ``--result``. The original functions are put back
afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
from cadrepair import cli

from workloads import VARIANTS, WORKLOADS, stage_name

WRAPPED = (
    "cli.main",
    "pipeline.gen_ground_truth",
    "pipeline.gen_dataset",
    "pipeline.run_variants",
    "pipeline.ground_truth_cloud",
    "pipeline.evaluate_condition",
    "pipeline.self_repair",
    "diffusion.sample",
    "diffusion.sample_step",
    "nets.mlp_forward",
    "nets.mlp_grad_input",
    "nets.regressor_loss_grad",
    "nets.regressor_predict",
    "nets.train_denoiser",
    "nets.train_classifier",
    "nets.train_regressor",
    "geometry.kernel_check",
    "geometry.self_intersects",
    "geometry.sample_point_cloud",
    "codec.decode",
    "codec.encode",
    "codec.write_latents",
    "codec.read_latents",
    "metrics.mmd",
    "metrics.median_heuristic_sigma",
)

# Layer metrics read from the measured stage; (function, stats) pairs.
MEASURED_STATS = (
    ("metrics.mmd", ("calls", "s", "p50_ms")),
    ("metrics.median_heuristic_sigma", ("s",)),
    ("diffusion.sample", ("calls", "s", "self_s", "p50_ms", "p90_ms")),
    ("diffusion.sample_step", ("calls", "s", "self_s")),
    ("nets.mlp_forward", ("calls", "s")),
    ("nets.mlp_grad_input", ("calls", "s")),
    ("nets.regressor_loss_grad", ("calls", "s")),
    ("pipeline.evaluate_condition", ("calls", "s", "self_s", "p50_ms", "p90_ms")),
    ("pipeline.self_repair", ("calls",)),
    ("geometry.kernel_check", ("calls", "s")),
    ("geometry.self_intersects", ("s",)),
    ("geometry.sample_point_cloud", ("calls", "s")),
    ("codec.decode", ("calls", "s")),
    ("codec.write_latents", ("s",)),
    ("codec.read_latents", ("s",)),
)

# Layer metrics read from the set-up stages.
SETUP_STATS = (
    ("nets.train_denoiser", ("s",)),
    ("nets.train_classifier", ("s",)),
    ("nets.train_regressor", ("s",)),
    ("pipeline.gen_ground_truth", ("s",)),
)


class Tracer:
    """Span and counter recorder for wrapped cadrepair functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._variant: str | None = None
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.span_name)

    def wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each WRAPPED function wherever a cadrepair module refers to it.

        The wrappers are made on the first call and reused after ``uninstall``.
        """
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "cadrepair" or key.startswith("cadrepair."))
        ]
        if not self._wrappers:
            hooks = self._hooks()
            for target in WRAPPED:
                module_name, func_name = target.split(".")
                original = getattr(sys.modules.get(f"cadrepair.{module_name}"), func_name, None)
                if not callable(original):
                    self.missing.append(target)
                    continue
                wrapper = self.wrap(target, original, *hooks.get(target, (None, None)))
                self._wrappers.append((original, wrapper))
        for original, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _hooks(self) -> dict:
        counters = lambda: self.counters  # noqa: E731 - counters are swapped per stage

        def rows(args, kwargs, result):
            x = args[1] if len(args) > 1 else kwargs.get("x")
            shape = np.shape(x)
            counters()["nets.mlp_forward.rows"] += shape[0] if len(shape) > 1 else 1

        def kernel_valid(args, kwargs, result):
            counters()["geometry.kernel_check.valid"] += bool(result.valid)

        def repair_stage(args, kwargs, result):
            stage = result.stage.value
            counters()["pipeline.self_repair.attempted"] += stage != "ValidDirect"
            counters()["pipeline.self_repair.repaired"] += stage == "RepairedValid"

        def latent_bytes(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            counters()["codec.write_latents.bytes"] += os.path.getsize(path)

        def enter_condition(args, kwargs):
            values = [getattr(a, "value", None) for a in (*args, *kwargs.values())]
            self._variant = next((v for v in values if v in VARIANTS), None)

        def leave_condition(args, kwargs, result):
            self._variant = None

        def nonfinite(args, kwargs, result):
            if self._variant is None:
                return
            z = np.asarray(result, dtype=float)
            bad = ~np.isfinite(z.reshape(-1, z.shape[-1]) if z.ndim else z.reshape(1, 1))
            counters()[f"diffusion.nonfinite.{self._variant}"] += int(bad.any(axis=1).sum())

        return {
            "nets.mlp_forward": (None, rows),
            "geometry.kernel_check": (None, kernel_valid),
            "pipeline.self_repair": (None, repair_stage),
            "codec.write_latents": (None, latent_bytes),
            "pipeline.evaluate_condition": (enter_condition, leave_condition),
            "diffusion.sample": (None, nonfinite),
        }


@dataclass
class Stage:
    name: str
    wall_s: float
    cpu_s: float
    first_span: int
    last_span: int  # exclusive
    counters: Counter


def _cli_stage(argv: list[str], config_path: str, out_dir: str, log) -> tuple[float, float]:
    """Run one CLI stage in this process; returns its wall and CPU seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(log):
        code = cli.main([*argv, "--config", config_path, "--out", out_dir])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return time.perf_counter() - wall0, time.process_time() - cpu0


def traced_run(
    workload, config_path: str, out_dir: str, tracer: Tracer, log
) -> tuple[list[Stage], float]:
    """Run every stage of ``workload`` through cli.main under ``tracer``; serial eval.

    Before its traced run, the measured stage runs once more with the wrappers
    uninstalled. Returns the traced stages and that untraced run's wall time,
    the like-for-like baseline of the tracing overhead.
    """
    stages = []
    argvs = [list(argv) for argv in (*workload.setup, workload.measured)]
    for argv in argvs:
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
    tracer.install()
    try:
        for k, argv in enumerate(argvs):
            if k == len(argvs) - 1:
                tracer.uninstall()
                baseline_s, _ = _cli_stage(argv, config_path, out_dir, log)
                tracer.install()
            tracer.counters = Counter()
            first = len(tracer)
            wall, cpu = _cli_stage(argv, config_path, out_dir, log)
            stages.append(
                Stage(stage_name(tuple(argv)), wall, cpu, first, len(tracer), tracer.counters)
            )
    finally:
        tracer.uninstall()
    return stages, baseline_s


def _span_stats(tracer: Tracer, first: int, last: int) -> dict[str, tuple[list[int], int]]:
    """Per function: inclusive durations (ns) of its spans in [first, last) and its self time."""
    count = last - first
    durations = [tracer.span_end[i] - tracer.span_start[i] for i in range(first, last)]
    child = [0] * count
    for k in range(count):
        parent = tracer.span_parent[first + k]
        if parent >= first:
            child[parent - first] += durations[k]
    out: dict[str, tuple[list[int], int]] = defaultdict(lambda: ([], 0))
    for k in range(count):
        name = tracer.names[tracer.span_name[first + k]]
        spans, self_ns = out[name]
        spans.append(durations[k])
        out[name] = (spans, self_ns + durations[k] - child[k])
    return out


def _stat(stat: str, spans: list[int], self_ns: int) -> float:
    if stat == "calls":
        return len(spans)
    if not spans:
        return 0.0
    if stat == "s":
        return sum(spans) / 1e9
    if stat == "self_s":
        return self_ns / 1e9
    if stat == "p50_ms":
        return statistics.median(spans) / 1e6
    if stat == "p90_ms":
        return (statistics.quantiles(spans, n=10)[8] if len(spans) > 1 else spans[0]) / 1e6
    raise ValueError(stat)


def layer_metrics(tracer: Tracer, stages: list[Stage], baseline_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; the last stage is the measured one.

    ``baseline_s`` is the measured stage's untraced wall time in this process.
    """
    measured = stages[-1]
    in_measured = _span_stats(tracer, measured.first_span, measured.last_span)
    in_setup = _span_stats(tracer, 0, measured.first_span)
    out: dict[str, float] = {}
    for source, table in ((in_measured, MEASURED_STATS), (in_setup, SETUP_STATS)):
        for func, stats in table:
            spans, self_ns = source.get(func, ([], 0))
            for stat in stats:
                out[f"{func}.{stat}"] = _stat(stat, spans, self_ns)

    c = measured.counters
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    out["nets.mlp_forward.rows_per_call"] = ratio(
        c["nets.mlp_forward.rows"], out["nets.mlp_forward.calls"]
    )
    out["geometry.kernel_check.valid_ratio"] = ratio(
        c["geometry.kernel_check.valid"], out["geometry.kernel_check.calls"]
    )
    out["pipeline.self_repair.repaired_ratio"] = ratio(
        c["pipeline.self_repair.repaired"], c["pipeline.self_repair.attempted"]
    )
    out["codec.write_latents.bytes"] = c["codec.write_latents.bytes"]
    for variant in VARIANTS:
        out[f"diffusion.nonfinite.{variant}"] = c[f"diffusion.nonfinite.{variant}"]
    out["pipeline.scoring_time_share"] = ratio(
        out["geometry.sample_point_cloud.s"] + out["metrics.mmd.s"], measured.wall_s
    )

    out["cli.self_s"] = in_measured.get("cli.main", ([], 0))[1] / 1e9
    out["cli.cpu_s"] = measured.cpu_s
    for argv in {argv for w in WORKLOADS.values() for argv in (*w.setup, w.measured)}:
        out[f"cli.stage_s.{stage_name(argv)}"] = 0.0
    for stage in stages:
        out[f"cli.stage_s.{stage.name}"] = stage.wall_s
    out["trace.traced_s"] = measured.wall_s
    out["trace.baseline_s"] = baseline_s
    out["trace.overhead_s"] = measured.wall_s - baseline_s
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
        for i in range(len(tracer)):
            fh.write(
                f"{i}\t{tracer.names[tracer.span_name[i]]}\t{tracer.span_parent[i]}\t"
                f"{tracer.span_start[i]}\t{tracer.span_end[i]}\n"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    tracer = Tracer()
    with open(args.out + ".log", "w") as log:
        stages, baseline_s = traced_run(
            WORKLOADS[args.workload], args.config, args.out, tracer, log
        )
    metrics = layer_metrics(tracer, stages, baseline_s)
    write_spans(tracer, args.spans)
    with open(args.result, "w") as fh:
        json.dump({"metrics": metrics, "missing": tracer.missing, "spans": len(tracer)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
