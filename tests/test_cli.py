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
import inspect
import json
import pkgutil
import shutil

import numpy as np
import pytest

import cadrepair
from cadrepair import cli, geometry, pipeline
from cadrepair.codec import CONDITION_DIM, LATENT_DIM, read_latents, write_latents
from cadrepair.geometry import record_from_sequence
from cadrepair.nets import TIMESTEP_EMBED_DIM, LinearRegressor, save_model
from cadrepair.pipeline import gen_ground_truth

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

GEN_FILES = ("latents.bin", "labels.csv", "pairs_ssl.csv", "pairs_gt.csv", "dataset_summary.json")


def write_config(path, out_dir, **overrides) -> str:
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


@pytest.mark.parametrize("n_conditions", [TINY["n_conditions"] - 10, TINY["n_conditions"] + 10])
def test_training_reads_row_counts_from_the_dataset(runs, tmp_path, n_conditions):
    # the dataset was generated under TINY; retraining under another
    # n_conditions must index the same rows and give the same models
    root, _, _ = runs
    out = tmp_path / "retrain"
    out.mkdir()
    for name in ("latents.bin", "labels.csv", "pairs_gt.csv"):
        shutil.copy(root / "a" / name, out / name)
    config = write_config(tmp_path / "retrain.json", out, n_conditions=n_conditions)
    for which in ("classifier", "gt_regressor"):
        assert run_stage(config, "train", "--which", which) == cli.EXIT_OK
        model = f"{which}.json"
        assert (out / model).read_bytes() == (root / "a" / model).read_bytes(), model


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
        ({"denoiser": {**TINY["denoiser"], "epochs": 0}}, TRAIN_DENOISER),
        ({"denoiser": {**TINY["denoiser"], "batch_size": 0}}, TRAIN_DENOISER),
        ({"classifier": {**TINY["classifier"], "learning_rate": 0.0}}, TRAIN_DENOISER),
        ({"cloud_size": 0}, EVAL_BASELINE),
        ({"ridge": -1.0}, ("train", "--which", "gt_regressor")),
        ({"classifier_scale": float("nan")}, EVAL_BASELINE),
        ({"regressor_scale": float("inf")}, EVAL_BASELINE),
        ({}, (*TRAIN_DENOISER, "--seed", "-1")),
        ({"timesteps": 2.5}, TRAIN_DENOISER),
        ({"cloud_size": 3.5}, EVAL_BASELINE),
        ({"n_conditions": True}, TRAIN_DENOISER),
        ({"denoiser": {**TINY["denoiser"], "epochs": 2.5}}, TRAIN_DENOISER),
        ({"classifier": {**TINY["classifier"], "batch_size": True}}, TRAIN_DENOISER),
        ({"sigma_mode": float("inf")}, EVAL_BASELINE),
        ({"sigma_mode": float("nan")}, EVAL_BASELINE),
        ({"sigma_mode": True}, EVAL_BASELINE),
        ({"use_classifier_guidance": False}, EVAL_BASELINE),
        ({"use_regressor_guidance": False}, EVAL_BASELINE),
    ],
    ids=[
        "timesteps-1",
        "beta_start-above-beta_end",
        "epochs-0",
        "batch_size-0",
        "learning_rate-0",
        "cloud_size-0",
        "ridge-negative",
        "scale-nan",
        "scale-inf",
        "seed-override-negative",
        "timesteps-float",
        "cloud_size-float",
        "n_conditions-bool",
        "epochs-float",
        "batch_size-bool",
        "sigma_mode-inf",
        "sigma_mode-nan",
        "sigma_mode-bool",
        "use_classifier_guidance-false",
        "use_regressor_guidance-false",
    ],
)
def test_out_of_range_config_exits_2(tmp_path, overrides, argv):
    # json writes NaN and Infinity, and Python's json reads them back
    config = write_config(tmp_path / "c.json", tmp_path / "out", **overrides)
    assert run_stage(config, *argv) == cli.EXIT_CONFIG
    assert not (tmp_path / "out" / "config.json").exists()


def test_missing_model_exits_4(tmp_path):
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    assert run_stage(config, "eval", "--variants", "baseline") == cli.EXIT_MISSING


def test_empty_evaluation_exits_5(tmp_path):
    config = write_config(tmp_path / "c.json", tmp_path / "out", n_eval_conditions=0)
    assert run_stage(config, "eval", "--variants", "baseline") == cli.EXIT_EMPTY


def test_ssl_regressor_with_too_few_train_pairs_exits_4(tmp_path):
    # 22 pairs pass a plain ">= 22" check, but the 0.8 split fits on 18 rows
    out = tmp_path / "out"
    out.mkdir()
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(44, LATENT_DIM)))
    with open(out / "pairs_ssl.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["invalid_row", "valid_row"])
        writer.writerows([i, 22 + i] for i in range(22))
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", "ssl_regressor") == cli.EXIT_MISSING


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
    # classifier: a non-integer `valid` cell on line 6 of labels.csv;
    # gt_regressor: 30 generated rows and 10 ground-truth rows, and line 9 of
    # pairs_gt.csv names ground-truth row 10, row 40 of latents.bin
    out = tmp_path / "out"
    out.mkdir()
    write_latents(out / "latents.bin", np.random.default_rng(0).normal(size=(40, LATENT_DIM)))
    if which == "classifier":
        name, header = "labels.csv", ["condition_id", "seed", "valid", "reasons"]
        rows = [[i, 0, "yes" if i == 4 else i % 2, ""] for i in range(10)]
        expected = "labels.csv:6: invalid literal for int()"
    else:
        name, header = "pairs_gt.csv", ["gen_row", "gt_row"]
        rows = [[i, 10 if i == 7 else i // 3] for i in range(30)]
        expected = "pairs_gt.csv:9: names a row outside"
    with open(out / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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
        ("gt_regressor", "pairs_gt.csv", lambda rows: rows[:100]),
    ],
    ids=["labels-doubled", "labels-cut", "pairs-gt-cut"],
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


def test_ground_truth_rejection_stall_exits_3(tmp_path, monkeypatch):
    # every rejected draw now counts as a stall
    monkeypatch.setattr(pipeline, "_REJECTION_MIN_DRAWS", 1)
    monkeypatch.setattr(pipeline, "_REJECTION_MIN_RATE", 1.1)
    config = write_config(tmp_path / "c.json", tmp_path / "out")
    assert run_stage(config, "train", "--which", "denoiser") == cli.EXIT_STALL
    assert not (tmp_path / "out" / "denoiser.json").exists()


def test_point_cloud_sampling_stall_exits_3(runs, tmp_path, monkeypatch):
    root, _, _ = runs
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(root / "a" / "denoiser.json", out / "denoiser.json")
    # the first chunk of proposals already counts as a stall
    monkeypatch.setattr(geometry, "_STALL_PROPOSALS", 1)
    monkeypatch.setattr(geometry, "_STALL_RATE", 1.1)
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "eval", "--variants", "baseline", "--threads", "1") == cli.EXIT_STALL
    assert not (out / "report.csv").exists()


SIX_EDGES = {
    "edges": [{"kind": "line", "x": 0.1 * i, "y": 0.0, "bulge": 0.0} for i in range(6)],
    "depth": 0.5,
}


@pytest.mark.parametrize(
    "defect", ["truncated-json", "six-edges", "condition-width", "empty-file"]
)
def test_malformed_conditions_exit_2(tmp_path, caplog, defect):
    gt = gen_ground_truth(1, seed=0)[0]
    good = {
        "condition_id": 0,
        "condition": [float(v) for v in gt.condition],
        "sequence": record_from_sequence(gt.sequence),
    }
    bad_line = {
        "truncated-json": json.dumps(good)[:-7],
        "six-edges": json.dumps({**good, "sequence": SIX_EDGES}),
        "condition-width": json.dumps({**good, "condition": [0.1, 0.2, 0.3]}),
        "empty-file": None,
    }[defect]
    out = tmp_path / "out"
    out.mkdir()
    if bad_line is None:
        (out / "conditions.jsonl").write_text("")
        expected = "conditions.jsonl: holds no condition"
    else:
        (out / "conditions.jsonl").write_text(json.dumps(good) + "\n" + bad_line + "\n")
        expected = "conditions.jsonl:2:"
    config = write_config(tmp_path / "c.json", out)
    assert run_stage(config, "train", "--which", "denoiser") == cli.EXIT_CONFIG
    assert expected in caplog.text
    assert not (out / "denoiser.json").exists()


def conditions_lines(master_seed: int, n: int) -> list[str]:
    """The records of conditions.jsonl for ``n`` training conditions of a master seed."""
    stream = pipeline.seed_stream(master_seed, pipeline.STREAM_TRAIN_GT)
    return [
        json.dumps({
            "condition_id": cid,
            "condition": [float(v) for v in gt.condition],
            "sequence": record_from_sequence(gt.sequence),
        })
        for cid, gt in enumerate(gen_ground_truth(n, stream))
    ]


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
    assert {"latents.bin", "labels.csv", "pairs_ssl.csv", "dataset_summary.json"} <= set(
        artifact_bytes(out)
    )


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
    write_latents(tmp_path / "latents.bin", gen_ground_truth(1, seed=8)[0].latent[None])
    # the all-zero regressor maps every latent to an invalid one
    zero = LinearRegressor(np.zeros((LATENT_DIM, LATENT_DIM)), np.zeros(LATENT_DIM))
    save_model(tmp_path / "reg.json", zero)
    repairs = []
    repair = pipeline.self_repair
    monkeypatch.setattr(pipeline, "self_repair", lambda *a: repairs.append(a) or repair(*a))
    code = cli.main(
        ["repair", "--latents", str(tmp_path / "latents.bin"),
         "--regressor", str(tmp_path / "reg.json")]
    )
    assert code == cli.EXIT_OK
    assert repairs == []
    assert read_rows(tmp_path / "repair_outcomes.csv") == [
        {"row": "0", "stage": "ValidDirect", "valid": "1"}
    ]
    assert (tmp_path / "repaired.bin").read_bytes() == (tmp_path / "latents.bin").read_bytes()


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
