"""Operator surface: seeded subcommands chaining the full experiment.

Every subcommand is a pure function of (config, input files, seed): reruns
produce byte-identical artifacts. Exit codes are stable for scripting:
0 success; 2 config/schema error (``ConfigError``): a config value, input record,
latent file or model file is malformed; 3 stall (``SamplingStall``): ground-truth
rejection sampling or point-cloud sampling accepts too few draws; 4 missing
artifact, or too little data to fit: too few regressor pairs, or labels of a
single class (``MissingArtifact``); 5 empty evaluation set (``EmptyEvaluation``).
Each code has that one exception type; any other exception exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diffusion, pipeline
from .codec import CONDITION_DIM, LATENT_DIM, decode, encode, read_latents, write_latents
from .config import ConfigError, RunConfig
from .geometry import SamplingStall, kernel_check, record_from_sequence, sequence_from_record
from .metrics import MmdConfig, mmd_histogram, pca_2d
from .nets import (
    TIMESTEP_EMBED_DIM,
    LinearRegressor,
    Mlp,
    load_model,
    save_model,
    train_classifier,
    train_denoiser,
    train_regressor,
)
from .pipeline import (
    STREAM_EVAL_GT,
    STREAM_TRAIN_GT,
    STREAM_TRAINING,
    GroundTruthCondition,
    TrainedModels,
    VariantId,
    derived_seed,
    seed_stream,
)

logger = logging.getLogger("cadrepair")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALL = 3
EXIT_MISSING = 4
EXIT_EMPTY = 5

# each model's class, input width, output width and output activation, in the
# order `train --which all` trains them; a run directory keeps it in <name>.json
MODELS = {
    "denoiser": (Mlp, LATENT_DIM + TIMESTEP_EMBED_DIM + CONDITION_DIM, LATENT_DIM, "identity"),
    "classifier": (Mlp, LATENT_DIM, 1, "sigmoid"),
    "ssl_regressor": (LinearRegressor, LATENT_DIM, LATENT_DIM, None),
    "gt_regressor": (LinearRegressor, LATENT_DIM, LATENT_DIM, None),
}


class MissingArtifact(Exception):
    """An input file is missing or holds too little data to fit (exit 4)."""


class EmptyEvaluation(Exception):
    """The evaluation set has no condition (exit 5)."""


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _schedule(cfg: RunConfig) -> diffusion.DiffusionSchedule:
    return diffusion.build_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end)


def _guidance(cfg: RunConfig) -> diffusion.GuidanceConfig:
    return diffusion.GuidanceConfig(
        classifier_scale=cfg.classifier_scale,
        regressor_scale=cfg.regressor_scale,
        stop_gradient_y=cfg.stop_gradient_y,
    )


def _mmd_config(cfg: RunConfig) -> MmdConfig:
    return MmdConfig(sigma=cfg.fixed_sigma, cloud_size=cfg.cloud_size)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    return out


def _require_file(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"{path} is missing; {hint}")
    return path


def _read_finite_latents(path: Path) -> np.ndarray:
    latents = read_latents(path)
    if latents.shape[1] != LATENT_DIM:
        raise ConfigError(f"{path}: rows are {latents.shape[1]} wide, expected {LATENT_DIM}")
    n_bad = int((~np.isfinite(latents)).any(axis=1).sum())
    if n_bad:
        raise ConfigError(f"{path}: {n_bad} of {len(latents)} rows are not finite")
    return latents


def _check_layers(model, width: int, out_width: int, head: str | None) -> None:
    """Raise ValueError unless each layer of ``model`` takes the previous layer's
    output (``width`` for the first) and has a bias to match, every value is
    finite, and the last layer gives ``out_width`` through the ``head`` activation."""
    if isinstance(model, LinearRegressor):
        layers = [(model.weights, model.bias)]
    elif model.output_activation.value != head:
        raise ValueError(f"output activation is {model.output_activation.value}, need {head}")
    else:
        layers = zip(model.weights, model.biases, strict=True)
    for k, (w, b) in enumerate(layers):
        if w.ndim != 2 or w.shape[1] != width or b.shape != w.shape[:1]:
            raise ValueError(f"layer {k}: weights {w.shape}, bias {b.shape}; need {width} inputs")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {k} holds non-finite values")
        width = w.shape[0]
    if width != out_width:
        raise ValueError(f"output width is {width}, need {out_width}")


def _load_model(path: Path, name: str):
    """Read a model file against ``name``'s entry in MODELS. A file that is not JSON,
    not an object, of an unknown kind or class, missing a field, of the wrong
    shape or not finite is a ConfigError naming the path."""
    cls, width, out_width, head = MODELS[name]
    try:
        model = load_model(path)
        if not isinstance(model, cls):
            raise ConfigError(f"{path}: expected a {cls.__name__} model file")
        _check_layers(model, width, out_width, head)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a model file: {type(exc).__name__}: {exc}") from exc
    return model


def _run_model(out: Path, name: str):
    """Model ``name`` of the run directory ``out``, read by _load_model."""
    path = _require_file(out / f"{name}.json", f"run `train --which {name}` first")
    return _load_model(path, name)


def _load_conditions(path: Path) -> list[GroundTruthCondition]:
    conditions = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                seq = sequence_from_record(obj["sequence"])
                condition = np.asarray(obj["condition"], dtype=float)
                if condition.shape != (CONDITION_DIM,):
                    raise ConfigError(
                        f"condition: expected {CONDITION_DIM} numbers, got shape {condition.shape}"
                    )
                if obj["condition_id"] != len(conditions):
                    raise ConfigError(
                        f"condition_id is {obj['condition_id']!r}, expected {len(conditions)}"
                    )
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            conditions.append(GroundTruthCondition(condition, seq, encode(seq)))
    if not conditions:
        raise ConfigError(f"{path}: holds no condition")
    return conditions


def _train_conditions(cfg: RunConfig, out: Path) -> list[GroundTruthCondition]:
    """The run directory's training ground truth, kept in ``conditions.jsonl``.

    Rejection-sample it and write the file when absent; else read the file, which
    must hold ``cfg.n_conditions`` records in ``condition_id`` order whose row 0 is
    the first draw of ``cfg.master_seed``'s stream (row 0 whatever the count).
    """
    path = out / "conditions.jsonl"
    stream = seed_stream(cfg.master_seed, STREAM_TRAIN_GT)
    if not path.exists():
        conditions = pipeline.gen_ground_truth(cfg.n_conditions, stream)
        with open(path, "w") as fh:
            for cid, gt in enumerate(conditions):
                record = {
                    "condition_id": cid,
                    "condition": [float(v) for v in gt.condition],
                    "sequence": record_from_sequence(gt.sequence),
                }
                fh.write(json.dumps(record, allow_nan=False, separators=(",", ":")) + "\n")
        return conditions
    conditions = _load_conditions(path)
    if len(conditions) != cfg.n_conditions:
        raise ConfigError(f"{path}: holds {len(conditions)} conditions, need {cfg.n_conditions}")
    first, row0 = pipeline.gen_ground_truth(1, stream)[0], conditions[0]
    if first.sequence != row0.sequence or not np.array_equal(first.condition, row0.condition):
        raise ConfigError(
            f"{path}: row 0 is not the ground truth of master_seed {cfg.master_seed}; "
            "delete the file to generate it again"
        )
    return conditions


def _read_csv_ints(path: Path, columns: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """The integer cells in ``columns`` of each data row of a CSV file and each row's
    line; a short row or a non-integer cell is a ConfigError naming path:line."""
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            try:
                rows.append([int(row[c]) for c in columns])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
            lines.append(reader.line_num)
    return np.array(rows, dtype=int).reshape(-1, len(columns)), lines


def _reject_rows(path: Path, lines: list[int], bad: np.ndarray, what: str) -> None:
    """ConfigError naming path:line of the first row with a cell flagged in ``bad``."""
    rows = np.flatnonzero(bad.any(axis=1))
    if len(rows):
        raise ConfigError(f"{path}:{lines[rows[0]]}: {what}")


def _read_metrics_csv(path: Path) -> dict[tuple[str, str], str]:
    """The (model, metric) -> value cells of ``metrics.csv``; none when it is absent.

    A row that is not three cells is a ConfigError naming path:line.
    """
    rows: dict[tuple[str, str], str] = {}
    if path.exists():
        with open(path) as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                if len(row) != 3:
                    raise ConfigError(f"{path}:{reader.line_num}: expected model,metric,value")
                rows[(row[0], row[1])] = row[2]
    return rows


def cmd_gen_dataset(cfg: RunConfig, threads: int) -> int:
    """Sample several unguided latents per training condition, kernel-check them,
    and write, into the run directory:

    - ``latents.bin``: the generated latents in condition-major order (generation
      g of condition c is row c * generations_per_condition + g), then one
      ground-truth latent per condition.
    - ``labels.csv``: condition_id, seed, valid, reasons; one row per generated
      latent, reasons joined by ``|``.
    - ``pairs_ssl.csv``: invalid_row, valid_row; each invalid generation and its
      nearest valid sibling.
    - ``pairs_gt.csv``: gen_row, gt_row; each generation and its ground-truth row.
    - ``dataset_summary.json``: the counts above and the invalid fraction.

    It reads ``denoiser.json`` and the ``conditions.jsonl`` that ``train --which
    denoiser`` wrote; only when that file is absent does it draw the conditions
    and write the file. The chains run in blocks of ``pipeline.CHAIN_BLOCK``
    rows, each block decoded and kernel-checked in the same task, on at most
    ``threads`` worker processes; every file is the same at any ``threads``.
    """
    out = _out_dir(cfg)
    denoiser = _run_model(out, "denoiser")
    ground_truth = _train_conditions(cfg, out)
    per_condition = cfg.generations_per_condition
    generated, reports = pipeline.gen_dataset(
        ground_truth, per_condition, denoiser, _schedule(cfg), cfg.master_seed, threads
    )
    labels = np.array([r.valid for r in reports], dtype=bool)
    write_latents(out / "latents.bin", np.vstack([generated, [gt.latent for gt in ground_truth]]))

    label_rows = [
        [i // per_condition, i % per_condition, int(r.valid), "|".join(x.name for x in r.reasons)]
        for i, r in enumerate(reports)
    ]
    _write_csv(out / "labels.csv", ["condition_id", "seed", "valid", "reasons"], label_rows)

    ssl_pairs = pipeline.build_ssl_pairs(generated, labels, per_condition)
    if not len(ssl_pairs):
        logger.warning("no invalid/valid sibling pairs exist; pairs_ssl.csv is empty")
    _write_csv(out / "pairs_ssl.csv", ["invalid_row", "valid_row"], ssl_pairs.tolist())
    gt_pairs = pipeline.build_gt_pairs(len(generated), per_condition)
    _write_csv(out / "pairs_gt.csv", ["gen_row", "gt_row"], gt_pairs.tolist())

    n_total = len(labels)
    n_valid = int(labels.sum())
    n_invalid = n_total - n_valid
    invalid_fraction = n_invalid / n_total
    summary = {
        "conditions": len(ground_truth),
        "generations_per_condition": per_condition,
        "generated_latents": n_total,
        "valid_latents": n_valid,
        "invalid_latents": n_invalid,
        "invalid_fraction": invalid_fraction,
        "ground_truth_latents": len(ground_truth),
        "ssl_pairs": int(len(ssl_pairs)),
        "gt_pairs": int(len(gt_pairs)),
    }
    (out / "dataset_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"conditions              {summary['conditions']}")
    print(f"valid latents w/ labels {n_valid}")
    print(f"invalid latents w/ labels {n_invalid}")
    print(f"ground-truth latents    {summary['ground_truth_latents']}")
    print(f"invalid fraction        {invalid_fraction:.4f}")
    if not 0.02 <= invalid_fraction <= 0.35:
        logger.warning(
            "invalid fraction %.4f outside [0.02, 0.35]; retune denoiser epochs "
            "(fewer epochs raise infeasibility)",
            invalid_fraction,
        )
    return EXIT_OK


def _check_layout(path: Path, cids: np.ndarray, latents_path: Path, n_latents: int) -> None:
    """ConfigError unless ``latents_path`` holds, as gen-dataset writes it, one generated
    row per row of ``path``, then one ground-truth row per condition id up to max(cids)."""
    need = len(cids) + int(cids.max(initial=-1)) + 1
    if n_latents != need:
        raise ConfigError(
            f"{path}: its rows and condition ids need {need} rows in {latents_path}, "
            f"which has {n_latents}"
        )


def _train_one(
    cfg: RunConfig, out: Path, which: str
) -> tuple[Mlp | LinearRegressor, dict[str, float]]:
    """Train one model; returns it and its values for ``metrics.csv``."""
    if which == "denoiser":
        conditions = _train_conditions(cfg, out)
        result = train_denoiser(
            np.array([c.condition for c in conditions]),
            np.array([c.latent for c in conditions]),
            _schedule(cfg),
            cfg.denoiser,
            derived_seed(cfg.master_seed, STREAM_TRAINING, 0),
        )
        print(
            f"denoiser: loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f} "
            f"over {cfg.denoiser.epochs} epochs"
        )
        return result.model, {
            "first_epoch_loss": result.epoch_losses[0],
            "final_loss": result.epoch_losses[-1],
            "n_conditions": len(conditions),
        }

    latents_path = _require_file(out / "latents.bin", "run gen-dataset first")
    latents = _read_finite_latents(latents_path)

    if which == "classifier":
        labels_path = _require_file(out / "labels.csv", "run gen-dataset first")
        cells, lines = _read_csv_ints(labels_path, (0, 2))
        bad = (cells < 0) | (cells[:, 1:] > 1)
        _reject_rows(labels_path, lines, bad, "condition_id must be >= 0 and valid 0 or 1")
        labels = cells[:, 1].astype(bool)
        n_valid = int(labels.sum())
        # train_classifier balances the classes, then splits at cfg.split
        n_bal = 2 * min(n_valid, len(labels) - n_valid)
        n_train = int(round(n_bal * cfg.split))
        if not 1 <= n_train < n_bal:
            raise MissingArtifact(
                f"{labels_path} holds {n_valid} valid and {len(labels) - n_valid} invalid "
                f"rows; their balanced split has {n_train} train and {n_bal - n_train} "
                "held-out rows, need at least one of each"
            )
        _check_layout(labels_path, cells[:, 0], latents_path, len(latents))
        result = train_classifier(
            latents[: len(labels)],
            labels,
            cfg.classifier,
            derived_seed(cfg.master_seed, STREAM_TRAINING, 1),
            split=cfg.split,
        )
        m = result.metrics
        print("classifier (held out, class 1 = valid):")
        print(f"  precision {m.precision[1]:.3f}  recall {m.recall[1]:.3f}  f1 {m.f1[1]:.3f}")
        print(f"  accuracy {m.accuracy:.3f}  balanced {m.balanced_accuracy:.3f}")
        print(f"  confusion {m.confusion.tolist()}")
        return result.model, {
            "accuracy": m.accuracy,
            "balanced_accuracy": m.balanced_accuracy,
            "precision_valid": m.precision[1],
            "recall_valid": m.recall[1],
            "f1_valid": m.f1[1],
            "precision_invalid": m.precision[0],
            "recall_invalid": m.recall[0],
            "f1_invalid": m.f1[0],
            "confusion_tn": m.confusion[0, 0],
            "confusion_fp": m.confusion[0, 1],
            "confusion_fn": m.confusion[1, 0],
            "confusion_tp": m.confusion[1, 1],
            "n_train": result.n_train,
            "n_test": result.n_test,
        }

    ssl = which == "ssl_regressor"
    pair_file = "pairs_ssl.csv" if ssl else "pairs_gt.csv"
    pairs_path = _require_file(out / pair_file, "run gen-dataset first")
    pairs, lines = _read_csv_ints(pairs_path, (0, 1))
    # latents.bin holds the generated rows, one per gt pair, then the ground truth
    rows = pairs if ssl else pairs + [0, len(pairs)]
    _reject_rows(
        pairs_path,
        lines,
        (pairs < 0) | (rows >= len(latents)),
        f"names a row outside {latents_path}, which has {len(latents)} rows",
    )
    if not ssl:
        _check_layout(pairs_path, pairs[:, 1], latents_path, len(latents))
    # the fit sees only the train split of the pairs
    min_rows = latents.shape[1] + 1
    if round(len(pairs) * cfg.split) < min_rows:
        raise MissingArtifact(
            f"{pairs_path} holds {len(pairs)} pairs; need >= {min_rows} in the "
            f"{cfg.split} train split to fit"
        )
    result = train_regressor(
        latents[rows[:, 0]],
        latents[rows[:, 1]],
        derived_seed(cfg.master_seed, STREAM_TRAINING, 2 if ssl else 3),
        split=cfg.split,
        ridge=cfg.ridge,
    )
    print(
        f"{which}: train R2 {result.train_r2:.4f} MSE {result.train_mse:.4f} | "
        f"test R2 {result.test_r2:.4f} MSE {result.test_mse:.4f} ({len(pairs)} pairs)"
    )
    return result.model, {
        "train_r2": result.train_r2,
        "train_mse": result.train_mse,
        "test_r2": result.test_r2,
        "test_mse": result.test_mse,
        "n_pairs": len(pairs),
    }


def cmd_train(cfg: RunConfig, which: str) -> int:
    # read before anything is written, so a malformed file leaves the directory as it was
    metrics = _read_metrics_csv(Path(cfg.out_dir) / "metrics.csv")
    out = _out_dir(cfg)
    for target in MODELS if which == "all" else [which]:
        model, values = _train_one(cfg, out, target)
        save_model(out / f"{target}.json", model)
        for metric, value in values.items():
            metrics[(target, metric)] = _fmt(value)
        rows = [[m, k, v] for (m, k), v in sorted(metrics.items())]
        _write_csv(out / "metrics.csv", ["model", "metric", "value"], rows)
    return EXIT_OK


def _parse_variants(raw: str) -> list[VariantId]:
    if raw == "all":
        return list(VariantId)
    chosen = set()
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            chosen.add(VariantId(token))
        except ValueError as exc:
            names = ", ".join(v.value for v in VariantId)
            raise ConfigError(f"unknown variant {token!r}; expected one of {names}") from exc
    if not chosen:
        raise ConfigError("no variants requested")
    return [v for v in VariantId if v in chosen]


def cmd_eval(cfg: RunConfig, variants_raw: str, threads: int) -> int:
    """Run the variants on held-out conditions and write, into the run directory:

    - ``report.csv``: variant, n, n_valid, feasibility, mean_mmd, median_mmd,
      repaired_count, repair_failed_count; one row per variant, mean and
      median ``nan`` when the variant scored nothing.
    - ``mmd_scores.csv``: condition_id, variant, mmd; one row per valid outcome.
    - ``mmd_hist.csv``: variant, bin_lo, bin_hi, count; 16 equal-width bins per
      variant over [0, max score], or over [0, 1] when the variant has no score.
    - ``eval_latents_gt.bin``: the ground-truth latents of the conditions.
    - ``eval_latents_baseline.bin`` and ``eval_latents_full.bin``: the final
      latents of that variant, written only when that variant runs.
    """
    out = _out_dir(cfg)
    variants = _parse_variants(variants_raw)
    if cfg.n_eval_conditions < 1:
        raise EmptyEvaluation("n_eval_conditions is 0")
    needed = sorted({name for v in variants for name in pipeline._required_models(v)})
    models = TrainedModels(**{name: _run_model(out, name) for name in needed})
    eval_conditions = pipeline.gen_ground_truth(
        cfg.n_eval_conditions, seed_stream(cfg.master_seed, STREAM_EVAL_GT)
    )
    outcome_map = pipeline.run_variants(
        variants,
        eval_conditions,
        models,
        _schedule(cfg),
        cfg.master_seed,
        guidance=_guidance(cfg),
        mmd_config=_mmd_config(cfg),
        threads=threads,
    )

    print(f"{'variant':<10} {'n':>5} {'valid':>5} {'feas':>7} {'meanMMD':>8} {'repaired':>8}")
    report_rows, score_rows, hist_rows = [], [], []
    for variant, outcomes in outcome_map.items():
        name, n = variant.value, len(outcomes)
        n_valid = sum(o.valid for o in outcomes)
        feas = n_valid / n
        scored = [o for o in outcomes if o.mmd_score is not None]
        scores = [o.mmd_score for o in scored]
        mean_mmd = float(np.mean(scores)) if scores else float("nan")
        median_mmd = float(np.median(scores)) if scores else float("nan")
        repaired = sum(o.stage is pipeline.RepairStage.REPAIRED_VALID for o in outcomes)
        failed = sum(o.stage is pipeline.RepairStage.REPAIRED_INVALID for o in outcomes)
        report_rows.append(
            [name, n, n_valid, _fmt(feas), _fmt(mean_mmd), _fmt(median_mmd), repaired, failed]
        )
        score_rows += [[o.condition_id, name, _fmt(o.mmd_score)] for o in scored]
        counts, edges = mmd_histogram(scores)
        hist_rows += [
            [name, _fmt(lo), _fmt(hi), int(c)] for lo, hi, c in zip(edges, edges[1:], counts)
        ]
        mean_str = f"{mean_mmd:.4f}" if scores else "-"
        print(f"{name:<10} {n:>5} {n_valid:>5} {feas:>7.4f} {mean_str:>8} {repaired:>8}")
    _write_csv(
        out / "report.csv",
        [
            "variant",
            "n",
            "n_valid",
            "feasibility",
            "mean_mmd",
            "median_mmd",
            "repaired_count",
            "repair_failed_count",
        ],
        report_rows,
    )
    _write_csv(out / "mmd_scores.csv", ["condition_id", "variant", "mmd"], score_rows)
    _write_csv(out / "mmd_hist.csv", ["variant", "bin_lo", "bin_hi", "count"], hist_rows)

    write_latents(
        out / "eval_latents_gt.bin", np.array([c.latent for c in eval_conditions])
    )
    for variant, filename in (
        (VariantId.BASELINE, "eval_latents_baseline.bin"),
        (VariantId.FULL, "eval_latents_full.bin"),
    ):
        if variant in outcome_map:
            write_latents(
                out / filename, np.array([o.final_latent for o in outcome_map[variant]])
            )
    return EXIT_OK


def cmd_pca(cfg: RunConfig) -> int:
    """Project the eval latents onto their top two principal axes and write
    ``pca.csv``: pc1, pc2, tag; one row per latent, tagged ``Baseline``,
    ``SelfRepairing`` or ``GroundTruth`` by the file it came from
    (``eval_latents_baseline.bin``, ``eval_latents_full.bin``,
    ``eval_latents_gt.bin``)."""
    out = _out_dir(cfg)
    sources = (
        ("eval_latents_baseline.bin", "Baseline"),
        ("eval_latents_full.bin", "SelfRepairing"),
        ("eval_latents_gt.bin", "GroundTruth"),
    )
    hint = "run `eval` with baseline and full variants first"
    blocks = [_read_finite_latents(_require_file(out / name, hint)) for name, _ in sources]
    counts = [len(block) for block in blocks]
    if min(counts) < 1 or sum(counts) < 3:
        names = ", ".join(name for name, _ in sources)
        raise ConfigError(f"{out}: {names} hold {counts} rows; pca needs 3 or more, one per file")
    tags = np.repeat([tag for _, tag in sources], counts)
    projection = pca_2d(np.vstack(blocks))
    coords = projection.coords
    _write_csv(
        out / "pca.csv",
        ["pc1", "pc2", "tag"],
        [[_fmt(x), _fmt(y), tag] for (x, y), tag in zip(coords, tags)],
    )
    base_centroid = coords[tags == "Baseline"].mean(axis=0)
    full_centroid = coords[tags == "SelfRepairing"].mean(axis=0)
    centroid_distance = float(np.linalg.norm(base_centroid - full_centroid))
    print(
        "explained variance: "
        f"{projection.explained_variance[0]:.4f}, {projection.explained_variance[1]:.4f}"
    )
    print(f"baseline vs self-repairing centroid distance: {centroid_distance:.6f}")
    return EXIT_OK


def cmd_repair(latents_path: str, regressor_path: str, out_dir: str | None) -> int:
    """Kernel-check each row of a latent matrix file, self-repair the rows that
    fail, and write, into ``out_dir`` (default: beside the latents file):

    - ``repaired.bin``: one latent per row; a row that passes is kept unrepaired.
    - ``repair_outcomes.csv``: row, stage, valid; stage ``ValidDirect`` for a
      row that passed, else ``RepairedValid`` or ``RepairedInvalid``.
    """
    latents_file = _require_file(Path(latents_path), "point --latents at a latent matrix file")
    regressor_file = _require_file(Path(regressor_path), "point --regressor at a model file")
    latents = _read_finite_latents(latents_file)
    regressor = _load_model(regressor_file, "ssl_regressor")
    destination = Path(out_dir) if out_dir else latents_file.parent
    destination.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for row in latents:
        sequence = decode(row)
        report = kernel_check(sequence)
        if report.valid:
            outcomes.append(
                pipeline.RepairOutcome(pipeline.RepairStage.VALID_DIRECT, row, sequence, report)
            )
        else:
            outcomes.append(pipeline.self_repair(row, regressor))
    repaired = np.array([o.final_latent for o in outcomes]).reshape(-1, LATENT_DIM)
    write_latents(destination / "repaired.bin", repaired)
    _write_csv(
        destination / "repair_outcomes.csv",
        ["row", "stage", "valid"],
        [[i, o.stage.value, int(o.report.valid)] for i, o in enumerate(outcomes)],
    )
    stages = [o.stage for o in outcomes]
    print(f"rows                {len(outcomes)}")
    print(f"valid direct        {sum(s is pipeline.RepairStage.VALID_DIRECT for s in stages)}")
    print(f"repaired valid      {sum(s is pipeline.RepairStage.REPAIRED_VALID for s in stages)}")
    print(f"repaired invalid    {sum(s is pipeline.RepairStage.REPAIRED_INVALID for s in stages)}")
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (a container pinned to 2 of 64 CPUs gets 2), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cadrepair",
        description="Feasibility-guided latent diffusion over a miniature CAD language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", "-c", help="run config JSON (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")

    p_gen = sub.add_parser(
        "gen-dataset",
        help="generate the labeled latent dataset on `train --which denoiser`'s conditions.jsonl",
    )
    add_common(p_gen)

    p_train = sub.add_parser(
        "train",
        help="train one model or all of them; training the denoiser writes conditions.jsonl",
    )
    add_common(p_train)
    p_train.add_argument("--which", default="all", choices=[*MODELS, "all"])

    p_eval = sub.add_parser("eval", help="run the variant benchmark on held-out conditions")
    add_common(p_eval)
    p_eval.add_argument("--variants", default="all", help="comma list or 'all'")

    for p in (p_gen, p_eval):
        p.add_argument(
            "--threads",
            type=int,
            default=_usable_cpus(),
            help=(
                "worker processes, at most one per task; chains run in blocks of "
                f"{pipeline.CHAIN_BLOCK} rows (default: the CPUs this process may use)"
            ),
        )

    p_pca = sub.add_parser("pca", help="project evaluation latents to 2D")
    add_common(p_pca)

    p_repair = sub.add_parser("repair", help="apply self-repair to a latent matrix file")
    p_repair.add_argument("--latents", required=True)
    p_repair.add_argument("--regressor", required=True)
    p_repair.add_argument("--out", help="output directory (default: beside the latents file)")

    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    return replace(cfg, **overrides)  # re-runs RunConfig's range checks


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "repair":
            return cmd_repair(args.latents, args.regressor, args.out)
        cfg = _load_config(args)
        if args.command == "gen-dataset":
            return cmd_gen_dataset(cfg, max(1, args.threads))
        if args.command == "train":
            return cmd_train(cfg, args.which)
        if args.command == "eval":
            return cmd_eval(cfg, args.variants, max(1, args.threads))
        if args.command == "pca":
            return cmd_pca(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except SamplingStall as exc:
        logger.error("%s", exc)
        return EXIT_STALL
    except MissingArtifact as exc:
        logger.error("%s", exc)
        return EXIT_MISSING
    except EmptyEvaluation as exc:
        logger.error("%s", exc)
        return EXIT_EMPTY


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
