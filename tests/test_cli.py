"""End-to-end tests of the command line, run in process through ``cli.main``.

One tiny configuration drives every stage (all four ``train`` targets,
``gen-dataset``, ``eval``, ``pca`` and ``repair``) in about a second. The
tests check every exit code and byte-identical reruns. The stalls behind exit
code 3 only trigger after 10**6 draws or 10**7 proposals, so those tests lower
the module's stall thresholds instead.
"""

from __future__ import annotations

import csv
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cadrepair
from cadrepair import cli, geometry, pipeline
from cadrepair.codec import CONDITION_DIM, LATENT_DIM, read_latents, write_latents
from cadrepair.config import ConfigError, RunConfig
from cadrepair.geometry import InvalidReason, check_latents, record_from_row
from cadrepair.nets import TIMESTEP_EMBED_DIM, LinearRegressor, save_model
from cadrepair.pipeline import gen_ground_truth

from conftest import one_draw_at_a_time_ground_truth, record_from_sequence
from test_pipeline import loop_ssl_pairs

TINY = {
    "master_seed": 3,
    "n_conditions": 40,
    "generations_per_condition": 3,
    "n_eval_conditions": 4,
    "timesteps": 50,
    "cloud_size": 16,
    "regressor_scale": 0.02,
    "denoiser": {"epochs": 300, "batch_size": 16, "learning_rate": 3e-3},
    "classifier": {"epochs": 5, "batch_size": 16, "learning_rate": 3e-2},
}

EVAL_FILES = (
    "report.csv",
    "mmd_scores.csv",
    "mmd_hist.csv",
    "eval_latents_gt.bin",
    "eval_latents_baseline.bin",
    "eval_latents_full.bin",
)

GEN_FILES = ("latents.bin", "labels.csv", "dataset_summary.json")


def write_config(path, out_dir, /, **overrides) -> str:
    path.write_text(json.dumps({**TINY, "out_dir": str(out_dir), **overrides}))
    return str(path)


def run_stage(config: str, *argv: str) -> int:
    return cli.main([*argv, "--config", config])


def run_pipeline(tmp_path, name: str) -> dict[str, int]:
    out = tmp_path / name
    config = write_config(tmp_path / f"{name}.json", out)
    stages = [
        ("train", "--which", "denoiser"),
        ("gen-dataset",),
        ("train", "--which", "classifier"),
        ("train", "--which", "ssl_regressor"),
        ("train", "--which", "gt_regressor"),
        ("eval", "--variants", "all", "--threads", "2"),
        ("pca",),
    ]
    codes = {" ".join(argv): run_stage(config, *argv) for argv in stages}
    codes["repair"] = cli.main(
        ["repair", "--latents", str(out / "eval_latents_full.bin"),
         "--regressor", str(out / "ssl_regressor.json")]
    )
    return codes


def artifact_bytes(out_dir) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "config.json"  # config.json names the run directory
    }


def snapshot(out_dir) -> dict[str, bytes | None] | None:
    """Every file of a run directory by name, config.json too, and None for each
    directory in it; None when it does not exist."""
    if not out_dir.exists():
        return None
    return {p.name: p.read_bytes() if p.is_file() else None for p in sorted(out_dir.iterdir())}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    return root, run_pipeline(root, "a"), run_pipeline(root, "b")


def test_every_stage_exits_zero(runs):
    _, codes_a, codes_b = runs
    assert set(codes_a.values()) == {cli.EXIT_OK}, codes_a
    assert codes_b == codes_a


def test_rerun_is_byte_identical(runs):
    root, _, _ = runs
    first, second = artifact_bytes(root / "a"), artifact_bytes(root / "b")
    assert {"denoiser.json", "latents.bin", "pca.csv", "repaired.bin", *EVAL_FILES} <= set(first)
    assert first == second


def test_eval_thread_count_does_not_change_bytes(runs, tmp_path):
    root, _, _ = runs
    out = tmp_path / "serial"
    shutil.copytree(root / "a", out)
    for name in EVAL_FILES:
        (out / name).unlink()
    config = write_config(tmp_path / "serial.json", out)
    assert run_stage(config, "eval", "--variants", "all", "--threads", "1") == cli.EXIT_OK
    for name in EVAL_FILES:
        assert (out / name).read_bytes() == (root / "a" / name).read_bytes(), name


def test_eval_spanning_chain_blocks_does_not_depend_on_thread_count(
    runs, tmp_path, monkeypatch
):
    # TINY evaluates fewer conditions than one block; with blocks of 3, every
    # guidance plan has two full blocks and a tail block, and gen-dataset's
    # 40 x 3 rows make 40 blocks
    root, _, _ = runs
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 3)
    n_eval = 2 * pipeline.CHAIN_BLOCK + 3
    files = (*GEN_FILES, *EVAL_FILES)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        shutil.copytree(root / "a", out)
        for name in files:
            (out / name).unlink()
        config = write_config(tmp_path / f"{threads}.json", out, n_eval_conditions=n_eval)
        assert run_stage(config, "gen-dataset", "--threads", threads) == cli.EXIT_OK
        assert run_stage(config, "eval", "--variants", "all", "--threads", threads) == cli.EXIT_OK
        outputs.append({name: (out / name).read_bytes() for name in files})
    assert outputs[0] == outputs[1]
    with open(tmp_path / "threads1" / "report.csv") as fh:
        assert {int(row["n"]) for row in csv.DictReader(fh)} == {n_eval}


@pytest.mark.parametrize("cloud_size", [1, 2])
def test_eval_scores_clouds_of_one_and_two_points(runs, tmp_path, monkeypatch, cloud_size):
    # a one-point ground-truth cloud has no pairwise distance, so its kernel
    # takes the fallback bandwidth 1.0; two points give the one distance
    root, _, _ = runs
    out = tmp_path / "small"
    shutil.copytree(root / "a", out)
    calls, pipeline_mmd = [], pipeline.mmd

    def spy(reference, clouds, sigma=None):
        scores = pipeline_mmd(reference, clouds, sigma)
        calls.append((reference, clouds, sigma, scores))
        return scores

    monkeypatch.setattr(pipeline, "mmd", spy)
    config = write_config(tmp_path / "small.json", out, cloud_size=cloud_size)
    argv = ("eval", "--variants", "baseline,var1,var2", "--threads", "1")
    assert run_stage(config, *argv) == cli.EXIT_OK
    assert calls
    for reference, clouds, sigma, scores in calls:
        assert sigma is None and len(reference) == cloud_size
        if cloud_size == 1:
            assert scores == pipeline_mmd(reference, clouds, 1.0)
        else:
            distance = float(np.linalg.norm(reference[0] - reference[1]))
            expected = pipeline_mmd(reference, clouds, distance)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(scores, expected))
    written = {float(row["mmd"]) for row in read_rows(out / "mmd_scores.csv")}
    assert written == {score for *_, scores in calls for score in scores}


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    # a container pinned to 2 of the host's 64 CPUs
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5, 9}, raising=False)
    for command in ("gen-dataset", "eval"):
        assert cli.build_parser().parse_args([command]).threads == 2, command
    # where the platform has no affinity mask, the host's count
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli.build_parser().parse_args(["gen-dataset"]).threads == 64


def read_rows(path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_report_agrees_with_scores_and_histogram(runs):
    root, _, _ = runs
    out = root / "a"
    report = read_rows(out / "report.csv")
    scores, hist = read_rows(out / "mmd_scores.csv"), read_rows(out / "mmd_hist.csv")
    assert [row["variant"] for row in report] == [v.value for v in pipeline.VariantId]
    for row in report:
        variant = row["variant"]
        mine = [float(r["mmd"]) for r in scores if r["variant"] == variant]
        counts = [int(r["count"]) for r in hist if r["variant"] == variant]
        assert int(row["n"]) == TINY["n_eval_conditions"]
        assert len(counts) == 16
        assert int(row["n_valid"]) == len(mine) == sum(counts)
        assert row["feasibility"] == repr(float(len(mine) / TINY["n_eval_conditions"]))
        assert row["mean_mmd"] == (repr(float(np.mean(mine))) if mine else "nan")
        assert row["median_mmd"] == (repr(float(np.median(mine))) if mine else "nan")
        if variant in ("baseline", "var3", "var4", "var5"):
            assert row["repaired_count"] == row["repair_failed_count"] == "0"


def test_classifier_and_regressor_guidance_are_at_least_as_feasible_as_none(runs, tmp_path):
    # var5 at the default scales, on 20 conditions of TINY's trained models:
    # with each guide's step at scale x beta_t, the regressor's at most
    # 1 / lambda_max, guidance adds feasible rows rather than diverging
    root, _, _ = runs
    out = tmp_path / "guided"
    shutil.copytree(root / "a", out)
    defaults = RunConfig()
    config = write_config(
        tmp_path / "guided.json",
        out,
        n_eval_conditions=20,
        classifier_scale=defaults.classifier_scale,
        regressor_scale=defaults.regressor_scale,
    )
    assert run_stage(config, "eval", "--variants", "baseline,var5") == cli.EXIT_OK
    feasible = {row["variant"]: float(row["feasibility"]) for row in read_rows(out / "report.csv")}
    assert feasible["var5"] >= feasible["baseline"] > 0.0


@pytest.mark.parametrize(
    "values",
    [[0.4], [0.3, 0.1, 0.7], [0.1, 0.2], [0.25, 0.5, 0.125, 1.0], [0.2, 0.2, 0.7, 0.2]],
    ids=["one", "odd", "two", "even", "ties"],
)
def test_median_equals_numpy_median_bitwise(values):
    rng = np.random.default_rng(len(values))
    for scores in (np.array(values), rng.uniform(0.0, 1.5, len(values) * 7)):
        assert cli._median(scores) == float(np.median(scores))
        assert cli._median(scores[::-1].copy()) == float(np.median(scores))


_EVAL_IMPORTS = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from cadrepair import cli
code = cli.main(["eval", "--variants", "all", "--threads", "1", "--config", sys.argv[1]])
print(code, before, "numpy.ma" in sys.modules)
"""


def test_eval_does_not_import_numpy_ma(runs, tmp_path):
    # numpy.ma costs an eval process about 17 ms and 0.75 MB to import; numpy
    # before 2.0 imports it with numpy itself, so then there is nothing to save
    root, _, _ = runs
    out = tmp_path / "run"
    shutil.copytree(root / "a", out)
    config = write_config(tmp_path / "c.json", out)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _EVAL_IMPORTS, config],
        env=env, check=True, capture_output=True, text=True,
    )
    code, before, after = run.stdout.split()[-3:]
    assert code == "0"
    assert after == before
    assert (out / "report.csv").read_bytes() == (root / "a" / "report.csv").read_bytes()


@pytest.mark.parametrize("n_conditions", [TINY["n_conditions"] - 10, TINY["n_conditions"] + 10])
def test_training_reads_row_counts_from_the_dataset(runs, tmp_path, n_conditions):
    # the dataset was generated under TINY; retraining under another
    # n_conditions must index the same rows and give the same models
    root, _, _ = runs
    out = tmp_path / "retrain"
    out.mkdir()
    for name in ("latents.bin", "labels.csv"):
        shutil.copy(root / "a" / name, out / name)
    config = write_config(tmp_path / "retrain.json", out, n_conditions=n_conditions)
    for which in ("classifier", "ssl_regressor", "gt_regressor"):
        assert run_stage(config, "train", "--which", which) == cli.EXIT_OK
        model = f"{which}.json"
        assert (out / model).read_bytes() == (root / "a" / model).read_bytes(), model


# the rows each model sets in metrics.csv, as cmd_train's docstring lists them
METRIC_KEYS = {
    "denoiser": {"first_epoch_loss", "final_loss", "n_conditions"},
    "classifier": {
        "accuracy", "balanced_accuracy", "precision_valid", "recall_valid", "f1_valid",
        "precision_invalid", "recall_invalid", "f1_invalid", "confusion_tn", "confusion_fp",
        "confusion_fn", "confusion_tp", "n_train", "n_test",
    },
    "ssl_regressor": {"train_r2", "train_mse", "test_r2", "test_mse", "n_pairs"},
    "gt_regressor": {"train_r2", "train_mse", "test_r2", "test_mse", "n_pairs"},
}


def test_metrics_csv_holds_the_documented_keys(runs, tmp_path, capsys):
    root, _, _ = runs
    rows = read_rows(root / "a" / "metrics.csv")
    keys = {}
    for row in rows:
        keys.setdefault(row["model"], []).append(row["metric"])
        assert row["value"] == repr(float(row["value"])), row
    assert {model: sorted(names) for model, names in keys.items()} == {
        model: sorted(names) for model, names in METRIC_KEYS.items()
    }
    assert [len(METRIC_KEYS[m]) for m in METRIC_KEYS] == [3, 14, 5, 5]
    value = {(row["model"], row["metric"]): float(row["value"]) for row in rows}
    cells = [value["classifier", f"confusion_{k}"] for k in ("tn", "fp", "fn", "tp")]
    assert sum(cells) == value["classifier", "n_test"]
    assert value["gt_regressor", "n_pairs"] == TINY["n_conditions"] * 3
    # the classifier's summary prints the same counts, as plain ints
    out = tmp_path / "out"
    shutil.copytree(root / "a", out)
    capsys.readouterr()
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", "classifier") == cli.EXIT_OK
    tn, fp, fn, tp = map(int, cells)
    assert f"  confusion [[{tn}, {fp}], [{fn}, {tp}]]\n" in capsys.readouterr().out
    assert (out / "metrics.csv").read_bytes() == (root / "a" / "metrics.csv").read_bytes()


def test_console_script_entry_prints_help(monkeypatch, capsys):
    # pyproject.toml's `cadrepair` script calls cli.entry
    monkeypatch.setattr("sys.argv", ["cadrepair", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == 0
    assert "eval" in capsys.readouterr().out


def test_unknown_variant_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    assert run_stage(config, "eval", "--variants", "baseline,var9") == cli.EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", tmp_path / "out", bogus=1)
    assert run_stage(config, "train", "--which", "denoiser") == cli.EXIT_CONFIG
    assert not (tmp_path / "out" / "config.json").exists()


TRAIN_DENOISER = ("train", "--which", "denoiser")
EVAL_BASELINE = ("eval", "--variants", "baseline")


@pytest.mark.parametrize(
    "overrides, argv",
    [
        ({"timesteps": 1}, TRAIN_DENOISER),
        ({"beta_start": 0.05}, TRAIN_DENOISER),
        ({"beta_start": 0.0}, TRAIN_DENOISER),
        ({"beta_start": 0.02, "beta_end": 0.02}, TRAIN_DENOISER),
        ({"beta_end": 1.0}, TRAIN_DENOISER),
        ({"denoiser": {**TINY["denoiser"], "epochs": 0}}, TRAIN_DENOISER),
        ({"denoiser": {**TINY["denoiser"], "batch_size": 0}}, TRAIN_DENOISER),
        ({"classifier": {**TINY["classifier"], "learning_rate": 0.0}}, TRAIN_DENOISER),
        ({"cloud_size": 0}, EVAL_BASELINE),
        ({"ridge": -1.0}, ("train", "--which", "gt_regressor")),
        ({"classifier_scale": float("nan")}, EVAL_BASELINE),
        ({"regressor_scale": float("inf")}, EVAL_BASELINE),
        ({"classifier_scale": -1.0}, EVAL_BASELINE),
        ({"classifier_scale": float("inf")}, EVAL_BASELINE),
        ({"regressor_scale": float("nan")}, EVAL_BASELINE),
        ({"master_seed": -1}, TRAIN_DENOISER),
        ({"timesteps": 2.5}, TRAIN_DENOISER),
        ({"cloud_size": 3.5}, EVAL_BASELINE),
        ({"n_conditions": True}, TRAIN_DENOISER),
        ({"denoiser": {**TINY["denoiser"], "epochs": 2.5}}, TRAIN_DENOISER),
        ({"classifier": {**TINY["classifier"], "batch_size": True}}, TRAIN_DENOISER),
        ({"sigma_mode": float("inf")}, EVAL_BASELINE),
        ({"sigma_mode": float("nan")}, EVAL_BASELINE),
        ({"sigma_mode": True}, EVAL_BASELINE),
        ({"sigma_mode": 0}, EVAL_BASELINE),
        ({"sigma_mode": -1}, EVAL_BASELINE),
        ({"sigma_mode": float("-inf")}, EVAL_BASELINE),
        # 0.5 / sigma² divides by zero, is inf and is 0 in metrics' RBF kernel
        ({"sigma_mode": 1e-200}, EVAL_BASELINE),
        ({"sigma_mode": 1e-160}, EVAL_BASELINE),
        ({"sigma_mode": 1e300}, EVAL_BASELINE),
        ({"use_classifier_guidance": False}, EVAL_BASELINE),
        ({"use_regressor_guidance": False}, EVAL_BASELINE),
        ({"stop_gradient_y": "false"}, TRAIN_DENOISER),
        ({"stop_gradient_y": 1}, TRAIN_DENOISER),
        ({"ridge": True}, TRAIN_DENOISER),
        ({"classifier_scale": True}, TRAIN_DENOISER),
        ({"regressor_scale": True}, TRAIN_DENOISER),
        ({"classifier": {**TINY["classifier"], "learning_rate": True}}, TRAIN_DENOISER),
        ({"out_dir": 5}, TRAIN_DENOISER),
        ({"ridge": float("inf")}, ("train", "--which", "gt_regressor")),
        ({"classifier": {**TINY["classifier"], "learning_rate": float("inf")}}, TRAIN_DENOISER),
    ],
    ids=[
        "timesteps-1",
        "beta_start-above-beta_end",
        "beta_start-0",
        "beta_start-equals-beta_end",
        "beta_end-1",
        "epochs-0",
        "batch_size-0",
        "learning_rate-0",
        "cloud_size-0",
        "ridge-negative",
        "scale-nan",
        "scale-inf",
        "classifier_scale-negative",
        "classifier_scale-inf",
        "regressor_scale-nan",
        "master_seed-negative",
        "timesteps-float",
        "cloud_size-float",
        "n_conditions-bool",
        "epochs-float",
        "batch_size-bool",
        "sigma_mode-inf",
        "sigma_mode-nan",
        "sigma_mode-bool",
        "sigma_mode-0",
        "sigma_mode-negative",
        "sigma_mode-minus-inf",
        "sigma_mode-square-underflows",
        "sigma_mode-scale-overflows",
        "sigma_mode-square-overflows",
        "use_classifier_guidance-false",
        "use_regressor_guidance-false",
        "stop_gradient_y-string",
        "stop_gradient_y-int",
        "ridge-bool",
        "classifier_scale-bool",
        "regressor_scale-bool",
        "learning_rate-bool",
        "out_dir-int",
        "ridge-inf",
        "classifier-learning_rate-inf",
    ],
)
def test_out_of_range_config_exits_2(tmp_path, overrides, argv):
    # json writes NaN and Infinity, and Python's json reads them back
    config = write_config(tmp_path / "c.json", tmp_path / "out", **overrides)
    assert run_stage(config, *argv) == cli.EXIT_CONFIG
    assert not (tmp_path / "out" / "config.json").exists()


# a config file's JSON, and what its ConfigError must name
MISSHAPEN_CONFIGS = {
    "unknown-section-key": (
        {**TINY, "denoiser": {**TINY["denoiser"], "ema": 0.99}}, ("denoiser: ", "'ema'")
    ),
    "missing-section-key": (
        {**TINY, "classifier": {"epochs": 5, "batch_size": 16}}, ("classifier: ", "'learning_rate'")
    ),
    "section-a-list": ({**TINY, "denoiser": [300, 16, 3e-3]}, ("denoiser: ", "not list")),
    "config-a-list": ([TINY], ("c.json: config must be a JSON object",)),
}


@pytest.mark.parametrize("case", list(MISSHAPEN_CONFIGS))
def test_misshapen_config_exits_2_naming_the_key(tmp_path, caplog, case):
    raw, named = MISSHAPEN_CONFIGS[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    assert cli.main([*TRAIN_DENOISER, "--config", str(config)]) == cli.EXIT_CONFIG
    for text in named:
        assert text in caplog.text


@pytest.mark.parametrize(
    "name",
    [
        "ridge",
        "classifier_scale",
        "regressor_scale",
        "sigma_mode",
        "denoiser.learning_rate",
        "classifier.learning_rate",
    ],
)
def test_integer_beyond_float_range_exits_2(tmp_path, caplog, name):
    # json reads 1 followed by 400 zeros as an exact int, which no float holds
    section, _, key = name.rpartition(".")
    huge = 10**400
    overrides = {section: {**TINY[section], key: huge}} if section else {key: huge}
    config = write_config(tmp_path / "c.json", tmp_path / "out", **overrides)
    assert run_stage(config, *TRAIN_DENOISER) == cli.EXIT_CONFIG
    expected = name.replace(".", ": ")
    assert f"{expected} must be finite, got an integer beyond float range" in caplog.text
    assert not (tmp_path / "out").exists()


COUNTS = (
    "n_conditions",
    "generations_per_condition",
    "n_eval_conditions",
    "timesteps",
    "cloud_size",
    "denoiser.epochs",
    "classifier.batch_size",
)


@pytest.mark.parametrize("name", COUNTS)
def test_count_beyond_numpy_index_range_is_a_config_error(name):
    # numpy sizes arrays and ranges in intp, so the largest intp is the largest count
    largest = int(np.iinfo(np.intp).max)
    section, _, key = name.rpartition(".")

    def config(count):
        if section:
            return RunConfig(**{section: {**TINY[section], key: count}})
        return RunConfig(**{key: count})

    config(largest)
    for count in (largest + 1, 10**30):
        with pytest.raises(ConfigError) as info:
            config(count)
        prefix = f"{section}: " if section else ""
        assert str(info.value) == f"{prefix}{key} must be at most {largest}, numpy's largest index"


def test_huge_timesteps_exits_2_and_creates_no_run_directory(tmp_path, caplog):
    config = write_config(tmp_path / "c.json", tmp_path / "out", timesteps=10**30)
    assert run_stage(config, *TRAIN_DENOISER) == cli.EXIT_CONFIG
    assert "timesteps must be at most" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python reads integers of any length",
)
def test_integer_of_too_many_digits_exits_2(tmp_path, caplog):
    # Python's json refuses an integer longer than the interpreter's digit limit
    config = tmp_path / "c.json"
    config.write_text('{"master_seed": 1' + "0" * sys.get_int_max_str_digits() + "}")
    assert cli.main([*TRAIN_DENOISER, "--config", str(config)]) == cli.EXIT_CONFIG
    assert f"{config}: invalid JSON: " in caplog.text


def test_every_benchmark_config_loads_field_for_field(tmp_path, monkeypatch):
    # perfbench/workloads.py, imported by path; its dataclass needs the module
    # registered in sys.modules while it runs
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert module.WORKLOADS
    for name, workload in module.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(workload.config_json(11))
        assert asdict(RunConfig.load(path)) == workload.run_config(11), name


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import cadrepair
for info in pkgutil.iter_modules(cadrepair.__path__):
    importlib.import_module(f"cadrepair.{info.name}")
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE],
        env=env, check=True, capture_output=True, text=True,
    )
    loaded = set(run.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"cadrepair", "numpy"}


REPAIR_ARGV = (
    "repair", "--latents", "{out}/latents.bin", "--regressor", "{out}/ssl_regressor.json"
)


@pytest.mark.parametrize(
    "argv, present, missing",
    [
        (("eval", "--variants", "baseline"), (), "denoiser.json"),
        (("gen-dataset",), (), "denoiser.json"),
        (("train", "--which", "classifier"), (), "latents.bin"),
        (("train", "--which", "classifier"), ("latents.bin",), "labels.csv"),
        (("train", "--which", "ssl_regressor"), ("latents.bin",), "labels.csv"),
        (("pca",), ("eval_latents_baseline.bin", "eval_latents_gt.bin"), "eval_latents_full.bin"),
        (REPAIR_ARGV, ("ssl_regressor.json",), "latents.bin"),
        (REPAIR_ARGV, ("latents.bin",), "ssl_regressor.json"),
    ],
    ids=[
        "eval",
        "gen-dataset",
        "classifier-latents",
        "classifier-labels",
        "ssl_regressor-labels",
        "pca",
        "repair-latents",
        "repair-regressor",
    ],
)
def test_missing_model_exits_4(tmp_path, caplog, argv, present, missing):
    # every input but ``missing`` is present and well-formed; the stage writes nothing
    out = tmp_path / "out"
    out.mkdir()
    for name in present:
        if name.endswith(".bin"):
            write_latents(out / name, np.random.default_rng(0).normal(size=(6, LATENT_DIM)))
        else:
            save_model(out / name, LinearRegressor(np.eye(LATENT_DIM), np.zeros(LATENT_DIM)))
    argv = [arg.format(out=out) for arg in argv]
    if argv[0] == "repair":
        code = cli.main(argv)
    else:
        code = run_stage(write_config(tmp_path / "c.json", out), *argv)
    assert code == cli.EXIT_MISSING
    assert f"{out / missing} is missing" in caplog.text
    assert {p.name for p in out.iterdir()} == set(present)


def corrupt_denoiser(out) -> None:
    (out / "denoiser.json").write_text('{"kind":"mlp"}')


def malformed_labels(out) -> None:
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(6, LATENT_DIM)))
    (out / "labels.csv").write_text("condition_id,seed,valid,reasons\n0,0,yes,\n")


def non_finite_pca_rows(out) -> None:
    for name in ("eval_latents_baseline.bin", "eval_latents_full.bin", "eval_latents_gt.bin"):
        write_latents(out / name, np.full((2, LATENT_DIM), np.inf if "full" in name else 0.0))


# argv, config overrides, the inputs the stage finds, and its exit code
FAILING_STAGES = {
    "gen-dataset-no-denoiser": (("gen-dataset",), {}, None, cli.EXIT_MISSING),
    "gen-dataset-corrupt-denoiser": (("gen-dataset",), {}, corrupt_denoiser, cli.EXIT_CONFIG),
    "classifier-malformed-labels": (
        ("train", "--which", "classifier"), {}, malformed_labels, cli.EXIT_CONFIG
    ),
    "eval-unknown-variant": (("eval", "--variants", "var9"), {}, None, cli.EXIT_CONFIG),
    "eval-no-conditions": (EVAL_BASELINE, {"n_eval_conditions": 0}, None, cli.EXIT_EMPTY),
    "pca-non-finite": (("pca",), {}, non_finite_pca_rows, cli.EXIT_CONFIG),
}


@pytest.mark.parametrize("stale_config", [False, True], ids=["fresh", "stale-config"])
@pytest.mark.parametrize("case", list(FAILING_STAGES))
def test_failing_stage_leaves_the_run_directory_as_it_was(tmp_path, case, stale_config):
    # a stage reads all of its inputs before it writes any file, config.json
    # included: the config.json of an earlier run keeps its bytes, and a stage
    # that finds no directory and fails creates none
    argv, overrides, make_inputs, code = FAILING_STAGES[case]
    out = tmp_path / "out"
    if make_inputs or stale_config:
        out.mkdir()
    if stale_config:
        (out / "config.json").write_text(json.dumps({**TINY, "master_seed": 9}))
    if make_inputs:
        make_inputs(out)
    before = snapshot(out)
    assert run_stage(write_config(tmp_path / "c.json", out, **overrides), *argv) == code
    assert snapshot(out) == before


def as_directory(path) -> None:
    path.unlink(missing_ok=True)
    path.mkdir()


def not_utf8(path) -> None:
    path.write_bytes("condition_id,café\n".encode("latin-1"))


CLASSIFIER = ("train", "--which", "classifier")

# the input that cannot be read, under the test's directory, what makes it so, and
# the stage that reads it
UNREADABLE_INPUTS = {
    "config-directory": ("c.json", as_directory, TRAIN_DENOISER),
    "config-not-utf8": ("c.json", not_utf8, TRAIN_DENOISER),
    "conditions-directory": ("out/conditions.jsonl", as_directory, TRAIN_DENOISER),
    "conditions-not-utf8": ("out/conditions.jsonl", not_utf8, TRAIN_DENOISER),
    "labels-directory": ("out/labels.csv", as_directory, CLASSIFIER),
    "labels-not-utf8": ("out/labels.csv", not_utf8, CLASSIFIER),
    "latents-directory": ("out/latents.bin", as_directory, CLASSIFIER),
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_unreadable_input_exits_2(tmp_path, caplog, case):
    name, make_unreadable, argv = UNREADABLE_INPUTS[case]
    out = tmp_path / "out"
    out.mkdir()
    (out / "config.json").write_text(json.dumps({**TINY, "master_seed": 9}))
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(6, LATENT_DIM)))
    config = write_config(tmp_path / "c.json", out)
    make_unreadable(tmp_path / name)
    before = snapshot(out)
    assert cli.main([*argv, "--config", config, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"{tmp_path / name}: cannot read: " in caplog.text
    assert snapshot(out) == before


def test_seed_flag_is_gone(tmp_path):
    # master_seed in the config is the one way to set the seed
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    with pytest.raises(SystemExit) as exit_info:
        run_stage(config, *TRAIN_DENOISER, "--seed", "1")
    assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["gen-dataset", "eval"])
def test_threads_below_one_exit_2(tmp_path, caplog, command, threads):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, command, "--threads", threads) == cli.EXIT_CONFIG
    assert f"--threads must be >= 1, got {threads}" in caplog.text
    assert not out.exists()


def test_empty_evaluation_exits_5(tmp_path):
    config = write_config(tmp_path / "c.json", tmp_path / "out", n_eval_conditions=0)
    assert run_stage(config, "eval", "--variants", "baseline") == cli.EXIT_EMPTY


def test_ssl_regressor_with_too_few_train_pairs_exits_4(tmp_path, caplog):
    # 22 conditions of an invalid and a valid generation give 22 pairs, which pass
    # a plain ">= 22" check, but the 0.8 split fits on 18 rows
    out = tmp_path / "out"
    out.mkdir()
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(66, LATENT_DIM)))
    with open(out / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition_id", "seed", "valid", "reasons"])
        reasons = ["OUT_OF_BOUNDS", ""]
        writer.writerows([i // 2, i % 2, i % 2, reasons[i % 2]] for i in range(44))
    before = snapshot(out)
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", "ssl_regressor") == cli.EXIT_MISSING
    assert "labels.csv gives 22 pairs; split 0.8 gives 18 train and 4 held-out pairs" in (
        caplog.text
    )
    assert snapshot(out) == before


def test_regressor_with_no_held_out_pair_exits_4(runs, tmp_path, caplog):
    # split 0.999 of TINY's 120 gt pairs rounds to 120 train pairs and none held
    # out, whose test R2 and MSE would be those of an empty set
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    for name in ("latents.bin", "labels.csv"):
        shutil.copy(root / "a" / name, out / name)
    before = snapshot(out)
    config = write_config(tmp_path / "c.json", out, split=0.999)
    assert run_stage(config, "train", "--which", "gt_regressor") == cli.EXIT_MISSING
    assert "labels.csv gives 120 pairs; split 0.999 gives 120 train and 0 held-out" in (
        caplog.text
    )
    assert snapshot(out) == before


@pytest.mark.parametrize("which", [(), ("--which", "all")], ids=["no-which", "which-all"])
def test_train_needs_one_model_name(tmp_path, which):
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", out)
    with pytest.raises(SystemExit) as exit_info:
        run_stage(config, "train", *which)
    assert exit_info.value.code == 2
    assert not out.exists()


# with one valid row of ten the balanced split is 2 rows, both of them train
@pytest.mark.parametrize("n_valid", [10, 1], ids=["all-valid", "one-valid"])
def test_single_class_labels_exit_4(tmp_path, caplog, n_valid):
    out = tmp_path / "out"
    out.mkdir()
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(10, LATENT_DIM)))
    with open(out / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition_id", "seed", "valid", "reasons"])
        writer.writerows([i, 0, int(i < n_valid), ""] for i in range(10))
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", "classifier") == cli.EXIT_MISSING
    assert f"labels.csv holds {n_valid} valid and {10 - n_valid} invalid rows" in caplog.text
    assert not (out / "classifier.json").exists()


@pytest.mark.parametrize("which", ["classifier", "gt_regressor"])
def test_malformed_training_csv_exits_2(tmp_path, caplog, which):
    # 30 generated rows and 10 ground-truth rows; classifier: a non-integer
    # `valid` cell on line 6 of labels.csv; gt_regressor: a negative
    # condition_id on line 9
    out = tmp_path / "out"
    out.mkdir()
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(40, LATENT_DIM)))
    rows = [[i // 3, 0, i % 2, ""] for i in range(30)]
    if which == "classifier":
        rows[4][2] = "yes"
        expected = "labels.csv:6: invalid literal for int()"
    else:
        rows[7][0] = -1
        expected = "labels.csv:9: condition_id must be >= 0"
    with open(out / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition_id", "seed", "valid", "reasons"])
        writer.writerows(rows)
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", which) == cli.EXIT_CONFIG
    assert expected in caplog.text
    assert not (out / f"{which}.json").exists()


@pytest.mark.parametrize(
    "which, name, edit",
    [
        ("classifier", "labels.csv", lambda rows: rows + rows),
        ("classifier", "labels.csv", lambda rows: rows[:100]),
        ("gt_regressor", "labels.csv", lambda rows: rows[:100]),
    ],
    ids=["labels-doubled", "labels-cut", "gt-regressor-labels-cut"],
)
def test_training_csv_must_match_the_latents_layout(runs, tmp_path, caplog, which, name, edit):
    # latents.bin holds 120 generated rows, then 40 ground-truth rows; a file
    # with another row count or other condition ids describes another dataset
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(root / "a" / "latents.bin", out / "latents.bin")
    header, *rows = (root / "a" / name).read_text().splitlines(keepends=True)
    (out / name).write_text(header + "".join(edit(rows)))
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", which) == cli.EXIT_CONFIG
    assert f"{out / name}: its rows and condition ids need" in caplog.text
    assert not (out / f"{which}.json").exists()


@pytest.mark.parametrize("which", ["classifier", "ssl_regressor", "gt_regressor"])
def test_training_rejects_condition_ids_out_of_place(runs, tmp_path, caplog, which):
    # generations 0 and 3 swap condition ids: the row count and the largest id
    # still fit latents.bin, but row 0 now names condition 1's ground truth
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(root / "a" / "latents.bin", out / "latents.bin")
    header, *rows = (root / "a" / "labels.csv").read_text().splitlines(keepends=True)
    ids = [row.split(",", 1) for row in rows]
    assert (ids[0][0], ids[3][0]) == ("0", "1")
    ids[0][0], ids[3][0] = ids[3][0], ids[0][0]
    (out / "labels.csv").write_text(header + "".join(",".join(row) for row in ids))
    before = snapshot(out)
    assert run_stage(write_config(tmp_path / "c.json", out), "train", "--which", which) == (
        cli.EXIT_CONFIG
    )
    assert f"{out / 'labels.csv'}:2: condition_id is not row // 3" in caplog.text
    assert snapshot(out) == before


@pytest.mark.parametrize("draws", [False, True], ids=["reads-conditions", "draws-conditions"])
def test_gen_dataset_writes_exactly_its_artifacts(runs, tmp_path, monkeypatch, draws):
    # equal sets, so that a deleted artifact cannot come back unnoticed
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    inputs = {"denoiser.json"} | (set() if draws else {"conditions.jsonl"})
    for name in inputs:
        shutil.copy(root / "a" / name, out / name)
    written = []
    write_outputs = cli._write_outputs

    def record(path, files):
        written.append(files)
        write_outputs(path, files)

    monkeypatch.setattr(cli, "_write_outputs", record)
    assert run_stage(write_config(tmp_path / "c.json", out), "gen-dataset") == cli.EXIT_OK
    expected = {"config.json", *GEN_FILES} | ({"conditions.jsonl"} if draws else set())
    assert [set(files) for files in written] == [expected]
    assert {p.name for p in out.iterdir()} == expected | inputs


def test_regressor_pairs_from_the_float32_dataset_equal_the_float64_oracle(runs):
    # train pairs the float32 rows of latents.bin; the loop oracle pairs the
    # float64 rows that gen-dataset sampled, before they were written
    root, _, _ = runs
    out = root / "a"
    cfg = RunConfig.load(str(root / "a.json"))
    (conditions, _), _ = cli._train_conditions(cfg)
    denoiser = cli._load_model(out / "denoiser.json", "denoiser")
    generated, masks = pipeline.gen_dataset(conditions, denoiser, cfg)
    per, n_gen = TINY["generations_per_condition"], len(generated)
    latents = read_latents(out / "latents.bin")
    valid = np.array([row["valid"] == "1" for row in read_rows(out / "labels.csv")])
    np.testing.assert_array_equal(valid, masks == 0)
    np.testing.assert_array_equal(latents[:n_gen], generated.astype(np.float32))
    pairs = pipeline.build_ssl_pairs(latents[:n_gen], valid, per)
    np.testing.assert_array_equal(pairs, loop_ssl_pairs(generated, valid, per))
    assert 0 < len(pairs) <= (~valid).sum()
    # gen-dataset's summary counts the pairs each regressor was fit on
    summary = json.loads((out / "dataset_summary.json").read_text())
    n_pairs = {
        row["model"]: float(row["value"])
        for row in read_rows(out / "metrics.csv") if row["metric"] == "n_pairs"
    }
    assert n_pairs == {"ssl_regressor": len(pairs), "gt_regressor": n_gen}
    assert (summary["ssl_pairs"], summary["gt_pairs"]) == (len(pairs), n_gen)


@pytest.mark.parametrize("which", ["classifier", "ssl_regressor", "gt_regressor"])
def test_training_rejects_non_finite_latents(runs, tmp_path, caplog, which):
    root, _, _ = runs
    out = tmp_path / "out"
    shutil.copytree(root / "a", out)
    (out / f"{which}.json").unlink()
    latents = read_latents(out / "latents.bin")
    latents[5, 3] = np.inf
    write_latents(out / "latents.bin", latents)
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", which) == cli.EXIT_CONFIG
    assert f"latents.bin: 1 of {len(latents)} rows are not finite" in caplog.text
    assert not (out / f"{which}.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging steps overflow
@pytest.mark.parametrize("which, learning_rate", [("denoiser", 1e3), ("classifier", 1e20)])
def test_diverged_training_exits_2_and_writes_nothing(
    runs, tmp_path, caplog, which, learning_rate
):
    root, _, _ = runs
    out = tmp_path / "out"
    shutil.copytree(root / "a", out)
    (out / f"{which}.json").unlink()
    metrics = (out / "metrics.csv").read_bytes()
    config = write_config(
        tmp_path / "c.json", out, **{which: {**TINY[which], "learning_rate": learning_rate}}
    )
    assert run_stage(config, "train", "--which", which) == cli.EXIT_CONFIG
    assert f"lower {which}.learning_rate ({learning_rate})" in caplog.text
    assert not (out / f"{which}.json").exists()
    assert (out / "metrics.csv").read_bytes() == metrics


def test_ground_truth_rejection_stall_exits_3(tmp_path, monkeypatch, caplog):
    # every rejected draw now counts as a stall
    monkeypatch.setattr(pipeline, "_REJECTION_MIN_DRAWS", 1)
    monkeypatch.setattr(pipeline, "_REJECTION_MIN_RATE", 1.1)
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    assert run_stage(config, "train", "--which", "denoiser") == cli.EXIT_STALL
    assert not (tmp_path / "out" / "denoiser.json").exists()
    # the chunked sampler stalls at the draw the one-draw-at-a-time one does,
    # also when the stall rule starts to apply well into the first chunk
    stream = pipeline.seed_stream(TINY["master_seed"], pipeline.STREAM_TRAIN_GT)
    for min_draws in (1, 50):
        monkeypatch.setattr(pipeline, "_REJECTION_MIN_DRAWS", min_draws)
        caplog.clear()
        assert run_stage(config, "train", "--which", "denoiser") == cli.EXIT_STALL
        with pytest.raises(geometry.SamplingStall) as stall:
            one_draw_at_a_time_ground_truth(TINY["n_conditions"], stream)
        assert str(stall.value) in caplog.text
        assert int(str(stall.value).split()[-2]) >= min_draws


def test_point_cloud_sampling_stall_exits_3(runs, tmp_path, monkeypatch):
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(root / "a" / "denoiser.json", out / "denoiser.json")
    # the first chunk of proposals already counts as a stall
    monkeypatch.setattr(geometry, "_STALL_PROPOSALS", 1)
    monkeypatch.setattr(geometry, "_STALL_RATE", 1.1)
    config = write_config(tmp_path / "c.json", out)
    before = snapshot(out)
    assert run_stage(config, "eval", "--variants", "baseline", "--threads", "1") == cli.EXIT_STALL
    assert snapshot(out) == before


SIX_EDGES = {
    "edges": [{"kind": "line", "x": 0.1 * i, "y": 0.0, "bulge": 0.0} for i in range(6)],
    "depth": 0.5,
}


@pytest.mark.parametrize(
    "defect",
    [
        "truncated-json",
        "six-edges",
        "condition-width",
        "nan-condition",
        "infinite-condition",
        "bool-id",
        "float-id",
        "empty-file",
        "kernel-invalid",
    ],
)
def test_malformed_conditions_exit_2(runs, tmp_path, caplog, defect):
    # the config's own conditions.jsonl, with line 2 broken
    root, _, _ = runs
    lines = conditions_lines(TINY["master_seed"], TINY["n_conditions"])
    good = json.loads(lines[1])
    nan_condition = [float("nan"), *good["condition"][1:]]
    inf_condition = [*good["condition"][:-1], float("inf")]
    # two edges and a negative depth: a well-formed record, but no solid
    flat = {
        "edges": [{"kind": "line", "x": x, "y": 0.0, "bulge": 0.0} for x in (0.0, 0.5)],
        "depth": -1.0,
    }
    bad_line, expected = {
        "truncated-json": (json.dumps(good)[:-7], ":2:"),
        "six-edges": (json.dumps({**good, "sequence": SIX_EDGES}), ":2:"),
        "condition-width": (json.dumps({**good, "condition": [0.1, 0.2, 0.3]}), ":2:"),
        # json writes NaN and Infinity, and Python's json reads them back
        "nan-condition": (json.dumps({**good, "condition": nan_condition}), ":2:"),
        "infinite-condition": (json.dumps({**good, "condition": inf_condition}), ":2:"),
        # true and 1.0 both equal the expected id 1
        "bool-id": (json.dumps({**good, "condition_id": True}), ":2:"),
        "float-id": (json.dumps({**good, "condition_id": 1.0}), ":2:"),
        "empty-file": (None, ": holds no condition"),
        "kernel-invalid": (
            json.dumps({**good, "sequence": flat}),
            ":2: sequence fails kernel checks: TOO_FEW_VERTICES|DEPTH_NON_POSITIVE",
        ),
    }[defect]
    out = tmp_path / "out"
    out.mkdir()
    text = "" if bad_line is None else "\n".join([lines[0], bad_line, *lines[2:]]) + "\n"
    (out / "conditions.jsonl").write_text(text)
    shutil.copy(root / "a" / "denoiser.json", out / "denoiser.json")
    before = snapshot(out)
    config = write_config(tmp_path / "c.json", out)
    for stage in (TRAIN_DENOISER, ("gen-dataset",)):
        caplog.clear()
        assert run_stage(config, *stage) == cli.EXIT_CONFIG
        assert f"conditions.jsonl{expected}" in caplog.text
        assert snapshot(out) == before


def conditions_lines(master_seed: int, n: int) -> list[str]:
    """The records of conditions.jsonl for ``n`` training conditions of a master seed."""
    stream = pipeline.seed_stream(master_seed, pipeline.STREAM_TRAIN_GT)
    conditions, latents = gen_ground_truth(n, stream)
    return [
        json.dumps({
            "condition_id": cid,
            "condition": condition.tolist(),
            "sequence": record_from_row(latent),
        })
        for cid, (condition, latent) in enumerate(zip(conditions, latents))
    ]


def former_conditions_jsonl(master_seed: int, n: int) -> str:
    """conditions.jsonl as the former writer wrote it: the records of the
    canonical sequences of the former sampler, one a line."""
    stream = pipeline.seed_stream(master_seed, pipeline.STREAM_TRAIN_GT)
    sequences, conditions, _, _ = one_draw_at_a_time_ground_truth(n, stream)
    return "".join(
        json.dumps(
            {
                "condition_id": cid,
                "condition": [float(v) for v in condition],
                "sequence": record_from_sequence(seq),
            },
            allow_nan=False,
            separators=(",", ":"),
        )
        + "\n"
        for cid, (seq, condition) in enumerate(zip(sequences, conditions))
    )


def test_conditions_jsonl_is_the_former_writers_bytes(runs, tmp_path):
    root, _, _ = runs
    expected = former_conditions_jsonl(TINY["master_seed"], TINY["n_conditions"])
    assert (root / "a" / "conditions.jsonl").read_text() == expected
    # many more shapes: arcs, clockwise draws that were reversed, 3 to 5 edges
    stream = pipeline.seed_stream(11, pipeline.STREAM_TRAIN_GT)
    cli._write_outputs(tmp_path, {"conditions.jsonl": gen_ground_truth(500, stream)})
    assert (tmp_path / "conditions.jsonl").read_text() == former_conditions_jsonl(11, 500)


@pytest.mark.parametrize("stage", [TRAIN_DENOISER, ("gen-dataset",)], ids=["train", "gen"])
@pytest.mark.parametrize("defect", ["count", "order", "master-seed"])
def test_stale_conditions_exit_2(runs, tmp_path, caplog, stage, defect):
    # a conditions.jsonl that another config left in the run directory
    root, _, _ = runs
    n = TINY["n_conditions"]
    good = conditions_lines(TINY["master_seed"], n)
    lines, expected = {
        "count": (
            good[:-1],
            f"conditions.jsonl: holds {n - 1} conditions, need {n}",
        ),
        "order": (
            [good[k] for k in (0, 2, 1, *range(3, n))],
            "conditions.jsonl:2: condition_id is 2, expected 1",
        ),
        "master-seed": (
            conditions_lines(TINY["master_seed"] + 1, n),
            f"conditions.jsonl: row 0 is not the ground truth of master_seed {TINY['master_seed']}",
        ),
    }[defect]
    out = tmp_path / "out"
    out.mkdir()
    (out / "conditions.jsonl").write_text("\n".join(lines) + "\n")
    if stage != TRAIN_DENOISER:
        shutil.copy(root / "a" / "denoiser.json", out / "denoiser.json")
    before = artifact_bytes(out)
    assert run_stage(write_config(tmp_path / "c.json", out), *stage) == cli.EXIT_CONFIG
    assert expected in caplog.text
    assert artifact_bytes(out) == before


def test_gen_dataset_reads_the_conditions_train_wrote(tmp_path, monkeypatch):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    config = write_config(tmp_path / "out.json", out)
    assert run_stage(config, *TRAIN_DENOISER) == cli.EXIT_OK
    assert len((out / "conditions.jsonl").read_text().splitlines()) == TINY["n_conditions"]
    shutil.copytree(out, fresh)
    (fresh / "conditions.jsonl").unlink()
    assert run_stage(write_config(tmp_path / "fresh.json", fresh), "gen-dataset") == cli.EXIT_OK
    # reading the file draws only row 0 again, to check it
    draw = pipeline.gen_ground_truth

    def first_row_only(n_conditions, seed):
        if n_conditions != 1:
            raise AssertionError(f"gen-dataset drew {n_conditions} conditions again")
        return draw(n_conditions, seed)

    monkeypatch.setattr(pipeline, "gen_ground_truth", first_row_only)
    assert run_stage(config, "gen-dataset") == cli.EXIT_OK
    assert artifact_bytes(out) == artifact_bytes(fresh)
    assert set(artifact_bytes(out)) == {
        "conditions.jsonl", "denoiser.json", "metrics.csv", *GEN_FILES
    }


@pytest.mark.parametrize(
    "which, name, header",
    [
        ("ssl_regressor", "labels.csv", "condition_id,seed,valid"),
        ("gt_regressor", "labels.csv", "condition_id,seed,valid"),
        ("classifier", "labels.csv", "condition_id,seed,valid"),
        ("denoiser", "metrics.csv", "model,value,metric"),
    ],
)
def test_csv_with_another_header_exits_2(runs, tmp_path, caplog, which, name, header):
    # each CSV file is read against the header its writer wrote, so rows whose
    # columns mean something else are not read as this file's rows
    root, _, _ = runs
    out = tmp_path / "out"
    shutil.copytree(root / "a", out)
    (out / f"{which}.json").unlink()
    _, *rows = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text(header + "\n" + "".join(rows))
    before = snapshot(out)
    assert run_stage(write_config(tmp_path / "c.json", out), "train", "--which", which) == (
        cli.EXIT_CONFIG
    )
    assert f"{out / name}:1: expected the header {','.join(cli.CSV_HEADERS[name])}" in caplog.text
    assert snapshot(out) == before


def test_malformed_metrics_row_exits_2(tmp_path, caplog):
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.csv").write_text("model,metric,value\ndenoiser,final_loss\n")
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, *TRAIN_DENOISER) == cli.EXIT_CONFIG
    assert "metrics.csv:2: expected model,metric,value" in caplog.text
    # the file is read before anything is written
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


def test_pca_rejects_non_finite_rows(tmp_path, caplog):
    out = tmp_path / "out"
    out.mkdir()
    rng = np.random.default_rng(1)
    for name in ("eval_latents_baseline.bin", "eval_latents_gt.bin"):
        write_latents(out / name, rng.normal(size=(3, LATENT_DIM)))
    full = rng.normal(size=(3, LATENT_DIM))
    full[1, 4] = np.inf
    write_latents(out / "eval_latents_full.bin", full)
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "pca") == cli.EXIT_CONFIG
    assert "eval_latents_full.bin: 1 of 3 rows are not finite" in caplog.text
    assert not (out / "pca.csv").exists()
    # a file of the wrong width is rejected the same way
    write_latents(out / "eval_latents_full.bin", rng.normal(size=(3, 5)))
    assert run_stage(config, "pca") == cli.EXIT_CONFIG
    assert f"eval_latents_full.bin: rows are 5 wide, expected {LATENT_DIM}" in caplog.text
    assert not (out / "pca.csv").exists()


def test_pca_with_fewer_than_3_rows_exits_2(tmp_path, caplog):
    out = tmp_path / "out"
    out.mkdir()
    names = ("eval_latents_baseline.bin", "eval_latents_full.bin", "eval_latents_gt.bin")
    for name in names:
        write_latents(out / name, np.zeros((0, LATENT_DIM)))
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "pca") == cli.EXIT_CONFIG
    assert f"{', '.join(names)} hold [0, 0, 0] rows" in caplog.text
    assert not (out / "pca.csv").exists()


def test_repair_rejects_non_finite_rows(tmp_path, caplog):
    latents = np.random.default_rng(2).normal(size=(3, LATENT_DIM))
    latents[2, 0] = np.inf
    write_latents(tmp_path / "latents.bin", latents)
    save_model(tmp_path / "reg.json", LinearRegressor(np.eye(LATENT_DIM), np.zeros(LATENT_DIM)))
    code = cli.main(
        ["repair", "--latents", str(tmp_path / "latents.bin"),
         "--regressor", str(tmp_path / "reg.json")]
    )
    assert code == cli.EXIT_CONFIG
    assert "latents.bin: 1 of 3 rows are not finite" in caplog.text
    assert not (tmp_path / "repaired.bin").exists()
    assert not (tmp_path / "repair_outcomes.csv").exists()
    # a file of the wrong width is rejected the same way
    write_latents(tmp_path / "narrow.bin", np.zeros((3, 5)))
    code = cli.main(
        ["repair", "--latents", str(tmp_path / "narrow.bin"),
         "--regressor", str(tmp_path / "reg.json")]
    )
    assert code == cli.EXIT_CONFIG
    assert f"narrow.bin: rows are 5 wide, expected {LATENT_DIM}" in caplog.text
    assert not (tmp_path / "repaired.bin").exists()
    assert not (tmp_path / "repair_outcomes.csv").exists()


def test_repair_of_an_empty_file_writes_empty_outputs(tmp_path):
    write_latents(tmp_path / "latents.bin", np.zeros((0, LATENT_DIM)))
    save_model(tmp_path / "reg.json", LinearRegressor(np.eye(LATENT_DIM), np.zeros(LATENT_DIM)))
    code = cli.main(
        ["repair", "--latents", str(tmp_path / "latents.bin"),
         "--regressor", str(tmp_path / "reg.json")]
    )
    assert code == cli.EXIT_OK
    assert read_latents(tmp_path / "repaired.bin").shape == (0, LATENT_DIM)
    assert (tmp_path / "repair_outcomes.csv").read_text().splitlines() == ["row,stage,valid"]


def test_repair_valid_direct_never_calls_regressor(tmp_path, monkeypatch):
    write_latents(tmp_path / "latents.bin", gen_ground_truth(1, seed=8)[1])
    # the all-zero regressor maps every latent to an invalid one
    zero = LinearRegressor(np.zeros((LATENT_DIM, LATENT_DIM)), np.zeros(LATENT_DIM))
    save_model(tmp_path / "reg.json", zero)
    remapped = []  # the rows of each regressor_predict call
    predict = pipeline.regressor_predict
    monkeypatch.setattr(
        pipeline, "regressor_predict", lambda reg, z: remapped.append(len(z)) or predict(reg, z)
    )
    code = cli.main(
        ["repair", "--latents", str(tmp_path / "latents.bin"),
         "--regressor", str(tmp_path / "reg.json")]
    )
    assert code == cli.EXIT_OK
    assert sum(remapped) == 0
    assert read_rows(tmp_path / "repair_outcomes.csv") == [
        {"row": "0", "stage": "ValidDirect", "valid": "1"}
    ]
    assert (tmp_path / "repaired.bin").read_bytes() == (tmp_path / "latents.bin").read_bytes()


def test_repair_outcomes_are_each_rows_own_repair(runs, tmp_path, capsys):
    # the training latents hold valid and invalid rows, and the ssl regressor
    # makes some of the invalid ones valid: each row's stage, validity and
    # repaired latent is that of checking, re-mapping and checking it alone
    root, _, _ = runs
    latents = read_latents(root / "a" / "latents.bin")
    regressor = cli._load_model(root / "a" / "ssl_regressor.json", "ssl_regressor")
    capsys.readouterr()
    code = cli.main(
        ["repair", "--latents", str(root / "a" / "latents.bin"),
         "--regressor", str(root / "a" / "ssl_regressor.json"), "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    rows, finals = [], []
    for i, row in enumerate(latents):
        if not check_latents(row[None])[0]:
            rows.append({"row": str(i), "stage": "ValidDirect", "valid": "1"})
            finals.append(row)
            continue
        final = pipeline.regressor_predict(regressor, row)
        valid = not check_latents(final[None])[0]
        rows.append({"row": str(i), "stage": "RepairedValid" if valid else "RepairedInvalid",
                     "valid": str(int(valid))})
        finals.append(final)
    assert read_rows(tmp_path / "repair_outcomes.csv") == rows
    stages = [row["stage"] for row in rows]
    assert all(stages.count(s) for s in ("ValidDirect", "RepairedValid", "RepairedInvalid"))
    write_latents(tmp_path / "oracle.bin", np.array(finals))
    assert (tmp_path / "repaired.bin").read_bytes() == (tmp_path / "oracle.bin").read_bytes()
    assert capsys.readouterr().out == (
        f"rows                {len(rows)}\n"
        f"valid direct        {stages.count('ValidDirect')}\n"
        f"repaired valid      {stages.count('RepairedValid')}\n"
        f"repaired invalid    {stages.count('RepairedInvalid')}\n"
    )


@pytest.mark.parametrize(
    "stage, under",
    [
        pytest.param(stage, under, id=stage + "-under-file" * under)
        for under in (False, True)
        for stage in ("train-denoiser", "eval", "repair")
    ],
)
def test_out_naming_a_file_exits_2(tmp_path, caplog, monkeypatch, stage, under):
    # the run directory cannot be created over a file or under one: a config
    # error that names the path, raised before any model trains or chain runs,
    # with the file left as it was and no directory made
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    out = taken / "x" if under else taken
    ran = []
    for module, name in ((cli, "train_denoiser"), (pipeline, "run_variants")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name, **k: ran.append(name) or real(*a, **k)
        )
    if stage == "repair":
        write_latents(tmp_path / "latents.bin", np.zeros((2, LATENT_DIM)))
        save_model(tmp_path / "reg.json", LinearRegressor(np.eye(LATENT_DIM), np.zeros(LATENT_DIM)))
        argv = ["repair", "--latents", str(tmp_path / "latents.bin"),
                "--regressor", str(tmp_path / "reg.json"), "--out", str(out)]
    else:
        command = TRAIN_DENOISER if stage == "train-denoiser" else ("eval", "--variants", "all")
        argv = [*command, "--config", write_config(tmp_path / "c.json", tmp_path / "out"),
                "--out", str(out)]
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"{out}: cannot create the output directory" in caplog.text
    assert ran == []
    assert taken.read_bytes() == b"not a directory\n"
    assert sorted(tmp_path.iterdir()) == before


def zero_mlp_file(dims, head: str) -> str:
    """The model file of an all-zero Mlp with layer widths ``dims``."""
    return json.dumps({
        "kind": "mlp",
        "weights": [[[0.0] * n_in] * n_out for n_in, n_out in zip(dims, dims[1:])],
        "biases": [[0.0] * n_out for n_out in dims[1:]],
        "activations": {"output": head},
    })


DENOISER_INPUTS = LATENT_DIM + TIMESTEP_EMBED_DIM + CONDITION_DIM


@pytest.mark.parametrize(
    "stage, text",
    [
        ("gen-dataset", '{"format_version":1,"kind":"mlp","weights":[[[0.5,'),
        ("gen-dataset", '{"kind":"mlp"}'),
        ("repair", '{"kind":"tree"}'),
        ("repair", "[1,2]"),
        ("repair", json.dumps(
            {"kind": "linear_regressor", "weights": [[0.0] * 5] * 5, "bias": [0.0] * 5}
        )),
        ("repair", '{"kind":"linear_regressor","weights":null,"bias":null}'),
        ("eval", zero_mlp_file([LATENT_DIM, 2], "sigmoid")),
        ("gen-dataset", zero_mlp_file([DENOISER_INPUTS - 1, LATENT_DIM], "identity")),
    ],
    ids=[
        "truncated-json",
        "missing-field",
        "unknown-kind",
        "not-an-object",
        "regressor-5x5",
        "null-weights",
        "classifier-2-outputs",
        "denoiser-input-width",
    ],
)
def test_corrupt_model_file_exits_2(tmp_path, caplog, stage, text):
    out = tmp_path / "out"
    out.mkdir()
    if stage == "repair":
        model = out / "ssl_regressor.json"
        write_latents(out / "input.bin", np.zeros((1, LATENT_DIM)))
        argv = ["repair", "--latents", str(out / "input.bin"), "--regressor", str(model)]
    elif stage == "eval":
        model = out / "classifier.json"
        (out / "denoiser.json").write_text(
            zero_mlp_file([DENOISER_INPUTS, LATENT_DIM], "identity")
        )
        config = write_config(tmp_path / "c.json", out)
        argv = ["eval", "--variants", "var3", "--threads", "1", "--config", config]
    else:
        model = out / "denoiser.json"
        argv = ["gen-dataset", "--config", write_config(tmp_path / "c.json", out)]
    model.write_text(text)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"{model}: not a model file" in caplog.text
    assert not (out / "latents.bin").exists()
    assert not (out / "repaired.bin").exists()
    assert not (out / "report.csv").exists()


# the one exception type behind each failure exit code, as cli's docstring names them
EXIT_CODES = {
    "ConfigError": cli.EXIT_CONFIG,
    "SamplingStall": cli.EXIT_STALL,
    "MissingArtifact": cli.EXIT_MISSING,
    "EmptyEvaluation": cli.EXIT_EMPTY,
}


def test_every_exception_type_exits_with_its_code(tmp_path, monkeypatch, caplog):
    modules = [
        importlib.import_module(f"cadrepair.{info.name}")
        for info in pkgutil.iter_modules(cadrepair.__path__)
    ]
    defined = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]
    assert sorted(cls.__name__ for cls in defined) == sorted(EXIT_CODES)
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    for cls in defined:

        def fail(cfg, cls=cls):
            raise cls(f"injected {cls.__name__}")

        monkeypatch.setattr(cli, "cmd_pca", fail)
        assert run_stage(config, "pca") == EXIT_CODES[cls.__name__], cls
        assert f"injected {cls.__name__}" in caplog.text


def test_labels_name_the_reasons_of_every_mask(tmp_path, monkeypatch):
    # one generated row for each of the 512 masks the kernel can give: its
    # reasons are the names of its set bits in enum order, joined by |
    masks = np.arange(1 << len(InvalidReason), dtype=np.uint16)
    monkeypatch.setattr(
        pipeline, "gen_dataset", lambda *args: (np.zeros((len(masks), LATENT_DIM)), masks)
    )
    out = tmp_path / "out"
    config = write_config(tmp_path / "c.json", out, n_conditions=128, generations_per_condition=4)
    out.mkdir()
    (out / "denoiser.json").write_text(zero_mlp_file([DENOISER_INPUTS, LATENT_DIM], "identity"))
    assert run_stage(config, "gen-dataset", "--threads", "1") == cli.EXIT_OK
    rows = read_rows(out / "labels.csv")
    assert len(rows) == len(masks)
    for mask, row in zip(masks.tolist(), rows):
        names = [InvalidReason(bit).name for bit in range(len(InvalidReason)) if mask >> bit & 1]
        assert row["reasons"] == "|".join(names)
        assert row["valid"] == str(int(mask == 0))
