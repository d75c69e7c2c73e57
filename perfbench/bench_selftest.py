"""Self-tests of the benchmark, kept out of the repository's test run:

    PYTHONPATH=src python3 -m pytest -q perfbench/bench_selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Small enough for seconds, large enough that every stage has data to work on.
TINY = {
    "n_conditions": 80,
    "generations_per_condition": 5,
    "n_eval_conditions": 2,
    "timesteps": 20,
    "cloud_size": 16,
    "denoiser": {"epochs": 150, "batch_size": 32, "learning_rate": 3e-3},
    "classifier": {"epochs": 5, "batch_size": 64, "learning_rate": 3e-2},
}


def tiny(workload):
    return replace(workload, config={**workload.config, **TINY})


def test_metric_and_workload_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_names_the_defined_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_every_workload_pins_every_run_config_field():
    from cadrepair.config import RunConfig

    for workload in WORKLOADS.values():
        assert set(workload.run_config(1)) == set(RunConfig.__dataclass_fields__)
        assert "--threads" in workload.measured or workload.variants == ()


def _callables(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_traced_run_wraps_every_reference_and_restores_them(tmp_path):
    import cadrepair
    from cadrepair import cli, codec, diffusion, geometry, metrics, nets, pipeline

    modules = (cadrepair, cli, codec, diffusion, geometry, metrics, nets, pipeline)
    before = _callables(modules)
    workload = tiny(WORKLOADS["gen"])
    config = tmp_path / "config.json"
    config.write_text(workload.config_json(3))
    seen = {}
    tracer = tracing.Tracer()
    original_install = tracer.install

    def install():
        original_install()
        seen["pipeline.kernel_check"] = pipeline.kernel_check
        seen["diffusion.mlp_forward"] = diffusion.mlp_forward

    tracer.install = install
    with open(tmp_path / "log", "w") as log:
        stages, baseline_s = tracing.traced_run(
            workload, str(config), str(tmp_path / "out"), tracer, log
        )
    assert not tracer.missing
    assert seen["pipeline.kernel_check"] is not before[("cadrepair.pipeline", "kernel_check")]
    assert seen["diffusion.mlp_forward"] is not before[("cadrepair.diffusion", "mlp_forward")]
    assert [s.name for s in stages] == ["train_denoiser", "gen_dataset"]
    # The untraced baseline of the measured stage leaves no span.
    cli_spans = [i for i in range(len(tracer)) if tracer.names[tracer.span_name[i]] == "cli.main"]
    assert len(cli_spans) == len(stages)
    layers = tracing.layer_metrics(tracer, stages, baseline_s)
    assert baseline_s > 0
    assert layers["trace.overhead_s"] == layers["trace.traced_s"] - baseline_s
    assert layers["diffusion.sample.calls"] == workload.samples
    assert layers["nets.mlp_forward.rows_per_call"] == 1.0
    assert _callables(modules) == before


def test_spans_nest_and_give_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    stats = tracing._span_stats(tracer, 0, len(tracer))
    (outer_spans, outer_self), (inner_spans, inner_self) = stats["outer"], stats["inner"]
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert outer_self == outer_spans[0] - sum(inner_spans)
    assert inner_self == sum(inner_spans)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_checks(name, trace):
    workload = tiny(WORKLOADS[name])
    result, info = run.run_workload(ROOT, workload, seed=3, seconds=0, trace=trace)
    for kept in (ROOT / ".bench_work").glob(f"{name}-s3-t1-p{os.getpid()}"):
        shutil.rmtree(kept)
    assert result.problems == []
    assert result.failed == 0 and result.attempted >= workload.samples
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert wanted <= set(result.metrics)
    assert info["config_sha256"] and info["nproc"] >= 1
    if not trace:
        assert all(result.metrics[m] > 0 for m in wanted)
