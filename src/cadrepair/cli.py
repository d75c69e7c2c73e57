"""Operator surface: seeded subcommands chaining the full experiment.

Every subcommand is a pure function of (config, input files, seed): reruns
produce byte-identical artifacts. The one ``RunConfig`` that ``_load_config``
checks is the only config object below this module: the stages hand it as it is
to ``pipeline`` and through it to the sampler and the scorer, which read their
seed, schedule, guidance scales, cloud size and MMD bandwidth from it.

Exit codes are stable for scripting: 0 success; 2 config/schema error
(``ConfigError``): a config value, input record, latent file or model file is
malformed, or the output directory cannot be created; 3 stall
(``SamplingStall``): ground-truth rejection sampling or point-cloud sampling
accepts too few draws; 4 missing artifact, or too little
data to fit: too few regressor pairs to fit or none held out, or labels of a
single class (``MissingArtifact``); 5 empty evaluation set (``EmptyEvaluation``).
Each code has that one exception type; any other exception exits 1 with a traceback.

Each stage reads and checks all of its inputs before it writes a file, then
writes all of its outputs, ``config.json`` included, through ``_write_outputs``.
So a stage that exits 2, 3, 4 or 5 writes nothing and creates no directory, and
one whose output directory is, or lies under, a file exits 2 before its work.
Each artifact kind has one reader, which raises MissingArtifact for an absent file
and ConfigError naming the path, or path:line, for a malformed or unreadable one
(a directory, or text that is not UTF-8):

- latent matrices (``*.bin``): ``codec.read_latents``;
- model files (``<name>.json`` of MODELS): ``_load_model``;
- ``conditions.jsonl``: ``_train_conditions``, which turns each record into a
  latent row by ``geometry.row_from_record``, rejects a row that fails the
  kernel check, and draws the conditions when the file is absent;
- ``labels.csv``, ``pairs_*.csv`` and ``metrics.csv``: ``_read_csv``, against
  the file's CSV_HEADERS row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import diffusion, pipeline
from .codec import CONDITION_DIM, LATENT_DIM, read_latents, write_latents
from .config import ConfigError, MissingArtifact, RunConfig
from .geometry import (
    SamplingStall,
    check_latents,
    reason_names,
    record_from_row,
    row_from_record,
)
from .metrics import mmd_histogram, pca_2d
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

# each model's class, input width, output width and output activation, by the
# name `train --which` takes; a run directory keeps it in <name>.json
MODELS = {
    "denoiser": (Mlp, LATENT_DIM + TIMESTEP_EMBED_DIM + CONDITION_DIM, LATENT_DIM, "identity"),
    "classifier": (Mlp, LATENT_DIM, 1, "sigmoid"),
    "ssl_regressor": (LinearRegressor, LATENT_DIM, LATENT_DIM, None),
    "gt_regressor": (LinearRegressor, LATENT_DIM, LATENT_DIM, None),
}

# the header row of each CSV file, shared by _write_outputs and _read_csv
CSV_HEADERS = {
    "labels.csv": ("condition_id", "seed", "valid", "reasons"),
    "pairs_ssl.csv": ("invalid_row", "valid_row"),
    "pairs_gt.csv": ("gen_row", "gt_row"),
    "metrics.csv": ("model", "metric", "value"),
    "report.csv": ("variant", "n", "n_valid", "feasibility", "mean_mmd", "median_mmd",
                   "repaired_count", "repair_failed_count"),
    "mmd_scores.csv": ("condition_id", "variant", "mmd"),
    "mmd_hist.csv": ("variant", "bin_lo", "bin_hi", "count"),
    "pca.csv": ("pc1", "pc2", "tag"),
    "repair_outcomes.csv": ("row", "stage", "valid"),
}


class EmptyEvaluation(Exception):
    """The evaluation set has no condition (exit 5)."""


# the exit code of each exception type that main reports without a traceback
EXIT_CODES = {ConfigError: EXIT_CONFIG, SamplingStall: EXIT_STALL,
              MissingArtifact: EXIT_MISSING, EmptyEvaluation: EXIT_EMPTY}


def _fmt(value) -> str:
    return repr(float(value))


def _write_outputs(out: Path, files: dict) -> None:
    """Create ``out`` and write each ``name: content`` of ``files`` into it through
    the one writer of its kind: a latent matrix (``.bin``) by write_latents, a CSV
    file's rows under its CSV_HEADERS row, ``conditions.jsonl``'s ground truth, a
    (conditions, latents) pair of arrays, one record a line, a model of MODELS by
    save_model, and any other ``.json`` file's object sorted and indented. A run
    directory that cannot be created, such as a path naming a file, is a
    ConfigError naming it, raised before any write."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out}: cannot create the output directory: {exc}") from exc
    for name, content in files.items():
        path = out / name
        if name.endswith(".bin"):
            write_latents(path, content)
        elif name.endswith(".csv"):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_HEADERS[name])
                writer.writerows(content)
        elif name == "conditions.jsonl":
            with open(path, "w") as fh:
                for cid, (condition, latent) in enumerate(zip(*content)):
                    record = {
                        "condition_id": cid,
                        "condition": condition.tolist(),
                        "sequence": record_from_row(latent),
                    }
                    fh.write(json.dumps(record, allow_nan=False, separators=(",", ":")) + "\n")
        elif name.removesuffix(".json") in MODELS:
            save_model(path, content)
        else:
            path.write_text(json.dumps(content, sort_keys=True, indent=2) + "\n")


def _require_creatable(out: Path) -> None:
    """ConfigError, as ``_write_outputs`` raises it, when ``out`` cannot be created
    because its first existing ancestor, ``out`` itself included, is not a
    directory. It creates nothing, so a stage can check before its work."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(
            f"{out}: cannot create the output directory: {existing} is not a directory"
        )


def _load_model(path: Path, name: str):
    """Read a model file against ``name``'s entry in MODELS. An absent file is a
    MissingArtifact. A file that is not JSON, not an object, of an unknown kind or
    class, missing a field, of the wrong shape or not finite is a ConfigError
    naming the path: each layer must take the previous layer's output (the entry's
    input width for the first) and have a bias to match, and the last layer must
    give the entry's output width through its output activation."""
    cls, width, out_width, head = MODELS[name]
    try:
        model = load_model(path)
        if not isinstance(model, cls):
            raise ValueError(f"expected a {cls.__name__} model file")
        if isinstance(model, LinearRegressor):
            layers = [(model.weights, model.bias)]
        elif model.output_activation.value != head:
            raise ValueError(f"output activation is {model.output_activation.value}, need {head}")
        else:
            layers = zip(model.weights, model.biases, strict=True)
        for k, (w, b) in enumerate(layers):
            if w.ndim != 2 or w.shape[1] != width or b.shape != w.shape[:1]:
                raise ValueError(
                    f"layer {k}: weights {w.shape}, bias {b.shape}; need {width} inputs"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k} holds non-finite values")
            width = w.shape[0]
        if width != out_width:
            raise ValueError(f"output width is {width}, need {out_width}")
    except FileNotFoundError as exc:
        raise MissingArtifact(f"{path} is missing") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a model file: {type(exc).__name__}: {exc}") from exc
    return model


def _train_conditions(cfg: RunConfig) -> tuple[tuple[np.ndarray, np.ndarray], dict]:
    """The run directory's training ground truth, its (conditions, latents)
    arrays, and the files the stage writes for it.

    Read ``conditions.jsonl``, which must hold ``cfg.n_conditions`` records in
    ``condition_id`` order, each row of which passes the kernel check and whose
    row 0 is the first draw of ``cfg.master_seed``'s stream (row 0 whatever the
    count), and write nothing for it. When the file is absent, rejection-sample
    the conditions; the stage then writes the file.
    """
    path = Path(cfg.out_dir) / "conditions.jsonl"
    stream = seed_stream(cfg.master_seed, STREAM_TRAIN_GT)
    if not path.exists():
        ground_truth = pipeline.gen_ground_truth(cfg.n_conditions, stream)
        return ground_truth, {"conditions.jsonl": ground_truth}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    conditions, latents, lines = [], [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            latent = row_from_record(obj["sequence"])
            condition = np.asarray(obj["condition"], dtype=float)
            if condition.shape != (CONDITION_DIM,) or not np.isfinite(condition).all():
                raise ConfigError(
                    f"condition: need {CONDITION_DIM} finite numbers, got {obj['condition']}"
                )
            # json reads true and 1.0 as well as 1, and both equal 1
            if type(obj["condition_id"]) is not int or obj["condition_id"] != len(conditions):
                raise ConfigError(
                    f"condition_id is {obj['condition_id']!r}, expected {len(conditions)}"
                )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        conditions.append(condition)
        latents.append(latent)
        lines.append(lineno)
    if not conditions:
        raise ConfigError(f"{path}: holds no condition")
    conditions, latents = np.array(conditions), np.array(latents)
    masks = check_latents(latents)
    if masks.any():
        row = np.flatnonzero(masks)[0]
        raise ConfigError(
            f"{path}:{lines[row]}: sequence fails kernel checks: {reason_names(int(masks[row]))}"
        )
    if len(conditions) != cfg.n_conditions:
        raise ConfigError(f"{path}: holds {len(conditions)} conditions, need {cfg.n_conditions}")
    first_conditions, first_latents = pipeline.gen_ground_truth(1, stream)
    if not (
        np.array_equal(first_latents[0], latents[0])
        and np.array_equal(first_conditions[0], conditions[0])
    ):
        raise ConfigError(
            f"{path}: row 0 is not the ground truth of master_seed {cfg.master_seed}; "
            "delete the file to generate it again"
        )
    return (conditions, latents), {}


def _read_csv(path: Path, columns: tuple[int, ...], cast=int) -> tuple[np.ndarray, list[int]]:
    """The cells in ``columns`` of each data row of a CSV file, through ``cast``, one
    array row per data row, and each row's line. An absent file is a MissingArtifact;
    a first row other than the file's CSV_HEADERS row is a ConfigError naming
    path:1, and a row of another width or a cell that ``cast`` rejects one naming
    path:line."""
    header = CSV_HEADERS[path.name]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise MissingArtifact(f"{path} is missing") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    rows, lines = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, None) != list(header):
        raise ConfigError(f"{path}:1: expected the header {','.join(header)}")
    for row in reader:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {','.join(header)}")
            rows.append([cast(row[c]) for c in columns])
        except ValueError as exc:
            raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
        lines.append(reader.line_num)
    return np.array(rows, dtype=cast).reshape(-1, len(columns)), lines


def _reject_rows(path: Path, lines: list[int], bad: np.ndarray, what: str) -> None:
    """ConfigError naming path:line of the first row with a cell flagged in ``bad``."""
    rows = np.flatnonzero(bad.any(axis=1))
    if len(rows):
        raise ConfigError(f"{path}:{lines[rows[0]]}: {what}")


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
    and write the file. Its chains run on the chain task that eval uses too: one
    task per block of ``pipeline.CHAIN_BLOCK`` rows samples them and
    kernel-checks them with one call, on at most ``threads`` worker processes;
    every file is the same at any ``threads``.
    """
    out = Path(cfg.out_dir)
    denoiser = _load_model(out / "denoiser.json", "denoiser")
    (conditions, gt_latents), files = _train_conditions(cfg)
    per_condition = cfg.generations_per_condition
    generated, masks = pipeline.gen_dataset(conditions, denoiser, cfg, threads)
    labels = masks == 0
    ssl_pairs = pipeline.build_ssl_pairs(generated, labels, per_condition)
    if not len(ssl_pairs):
        logger.warning("no invalid/valid sibling pairs exist; pairs_ssl.csv is empty")
    gt_pairs = pipeline.build_gt_pairs(len(generated), per_condition)

    n_total = len(labels)
    n_valid = int(labels.sum())
    n_invalid = n_total - n_valid
    invalid_fraction = n_invalid / n_total
    summary = {
        "conditions": len(conditions),
        "generations_per_condition": per_condition,
        "generated_latents": n_total,
        "valid_latents": n_valid,
        "invalid_latents": n_invalid,
        "invalid_fraction": invalid_fraction,
        "ground_truth_latents": len(gt_latents),
        "ssl_pairs": int(len(ssl_pairs)),
        "gt_pairs": int(len(gt_pairs)),
    }
    names = {mask: reason_names(mask) for mask in set(masks.tolist())}
    label_rows = [
        [i // per_condition, i % per_condition, int(mask == 0), names[mask]]
        for i, mask in enumerate(masks.tolist())
    ]
    _write_outputs(out, {
        "config.json": asdict(cfg),
        **files,
        "latents.bin": np.vstack([generated, gt_latents]),
        "labels.csv": label_rows,
        "pairs_ssl.csv": ssl_pairs.tolist(),
        "pairs_gt.csv": gt_pairs.tolist(),
        "dataset_summary.json": summary,
    })
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


def _train_one(cfg: RunConfig, which: str) -> tuple[dict, dict[str, float]]:
    """Train one model; returns the files it writes (the model, and
    ``conditions.jsonl`` when the denoiser drew it) and its values for ``metrics.csv``."""
    out = Path(cfg.out_dir)
    if which == "denoiser":
        (conditions, latents), files = _train_conditions(cfg)
        model, losses = train_denoiser(
            conditions,
            latents,
            diffusion.build_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end),
            cfg.denoiser,
            derived_seed(cfg.master_seed, STREAM_TRAINING, 0),
        )
        epochs = cfg.denoiser.epochs
        print(f"denoiser: loss {losses[0]:.4f} -> {losses[-1]:.4f} over {epochs} epochs")
        return {**files, "denoiser.json": model}, {
            "first_epoch_loss": losses[0],
            "final_loss": losses[-1],
            "n_conditions": len(conditions),
        }

    latents_path = out / "latents.bin"
    latents = read_latents(latents_path)

    if which == "classifier":
        labels_path = out / "labels.csv"
        cells, lines = _read_csv(labels_path, (0, 2))
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
        model, m = train_classifier(
            latents[: len(labels)],
            labels,
            cfg.classifier,
            derived_seed(cfg.master_seed, STREAM_TRAINING, 1),
            split=cfg.split,
        )
        print(
            "classifier (held out, class 1 = valid):\n"
            "  precision {precision_valid:.3f}  recall {recall_valid:.3f}  f1 {f1_valid:.3f}\n"
            "  accuracy {accuracy:.3f}  balanced {balanced_accuracy:.3f}\n"
            "  confusion [[{confusion_tn}, {confusion_fp}], [{confusion_fn}, {confusion_tp}]]"
            .format(**m)
        )
        return {"classifier.json": model}, m

    ssl = which == "ssl_regressor"
    pairs_path = out / ("pairs_ssl.csv" if ssl else "pairs_gt.csv")
    pairs, lines = _read_csv(pairs_path, (0, 1))
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
    # the fit sees only the train split of the pairs, the test scores only the rest
    min_rows = latents.shape[1] + 1
    n_train = round(len(pairs) * cfg.split)
    if not min_rows <= n_train < len(pairs):
        raise MissingArtifact(
            f"{pairs_path} holds {len(pairs)} pairs; split {cfg.split} gives {n_train} train "
            f"and {len(pairs) - n_train} held-out pairs, need >= {min_rows} train pairs "
            "to fit and at least one held out"
        )
    model, m = train_regressor(
        latents[rows[:, 0]],
        latents[rows[:, 1]],
        derived_seed(cfg.master_seed, STREAM_TRAINING, 2 if ssl else 3),
        split=cfg.split,
        ridge=cfg.ridge,
    )
    print(
        f"{which}: train R2 {m['train_r2']:.4f} MSE {m['train_mse']:.4f} | "
        f"test R2 {m['test_r2']:.4f} MSE {m['test_mse']:.4f} ({len(pairs)} pairs)"
    )
    return {f"{which}.json": model}, {**m, "n_pairs": len(pairs)}


def cmd_train(cfg: RunConfig, which: str) -> int:
    """Train the model ``which`` names into ``<which>.json`` and set its rows of
    ``metrics.csv`` (model, metric, value): the denoiser's first_epoch_loss, final_loss
    and n_conditions; the classifier's held-out accuracy, balanced_accuracy,
    {precision,recall,f1}_{valid,invalid} (class 1 = valid), confusion_{tn,fp,fn,tp},
    n_train and n_test; a regressor's train_r2, train_mse, test_r2, test_mse and n_pairs."""
    out = Path(cfg.out_dir)
    metrics = {}
    if (out / "metrics.csv").exists():
        rows, _ = _read_csv(out / "metrics.csv", (0, 1, 2), str)
        metrics = {(m, k): v for m, k, v in rows.tolist()}
    files, values = _train_one(cfg, which)
    metrics.update({(which, metric): _fmt(value) for metric, value in values.items()})
    rows = [[m, k, v] for (m, k), v in sorted(metrics.items())]
    _write_outputs(out, {"config.json": asdict(cfg), **files, "metrics.csv": rows})
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


def _median(values: np.ndarray) -> float:
    """np.median's own arithmetic, the mean of the two middle order statistics,
    without the import of numpy.ma that np.median's first call makes."""
    ranked = np.sort(values)
    k = len(ranked)
    return float(ranked[(k - 1) // 2] + ranked[k // 2]) / 2.0


def cmd_eval(cfg: RunConfig, variants_raw: str, threads: int) -> int:
    """Run the variants on held-out conditions and write, into the run directory,
    from each variant's ``pipeline.run_variants`` table of arrays:

    - ``report.csv``: variant, n, n_valid, feasibility, mean_mmd, median_mmd,
      repaired_count, repair_failed_count; one row per variant, mean and
      median ``nan`` when the variant scored nothing; the counts are of rows
      that self-repair made valid and left invalid.
    - ``mmd_scores.csv``: condition_id, variant, mmd; one row per valid row,
      its cloud's MMD against the condition's ground-truth cloud. Every variant
      of a condition is scored under one kernel, of bandwidth ``sigma_mode``'s
      number or else the ground-truth cloud's median pairwise distance.
    - ``mmd_hist.csv``: variant, bin_lo, bin_hi, count; 16 equal-width bins per
      variant over [0, max score], or over [0, 1] when the variant has no score.
    - ``eval_latents_gt.bin``: the ground-truth latents of the conditions.
    - ``eval_latents_baseline.bin`` and ``eval_latents_full.bin``: the final
      latents of that variant, written only when that variant runs.
    """
    variants = _parse_variants(variants_raw)
    if cfg.n_eval_conditions < 1:
        raise EmptyEvaluation("n_eval_conditions is 0")
    out = Path(cfg.out_dir)
    needed = sorted({name for v in variants for name in pipeline._required_models(v)})
    models = {name: _load_model(out / f"{name}.json", name) for name in needed}
    conditions, gt_latents = pipeline.gen_ground_truth(
        cfg.n_eval_conditions, seed_stream(cfg.master_seed, STREAM_EVAL_GT)
    )
    tables = pipeline.run_variants(variants, conditions, gt_latents, models, cfg, threads)

    print(f"{'variant':<10} {'n':>5} {'valid':>5} {'feas':>7} {'meanMMD':>8} {'repaired':>8}")
    report_rows, score_rows, hist_rows = [], [], []
    for variant, table in tables.items():
        name, valid, repaired = variant.value, table["masks"] == 0, table["repaired"]
        n, n_valid, scores = len(valid), int(valid.sum()), table["scores"][valid]
        feas = n_valid / n
        mean_mmd = float(np.mean(scores)) if n_valid else float("nan")
        median_mmd = _median(scores) if n_valid else float("nan")
        n_repaired, n_failed = int((repaired & valid).sum()), int((repaired & ~valid).sum())
        report_rows.append(
            [name, n, n_valid, _fmt(feas), _fmt(mean_mmd), _fmt(median_mmd), n_repaired, n_failed]
        )
        score_rows += [[c, name, _fmt(s)] for c, s in zip(np.flatnonzero(valid), scores)]
        counts, edges = mmd_histogram(scores)
        hist_rows += [
            [name, _fmt(lo), _fmt(hi), int(c)] for lo, hi, c in zip(edges, edges[1:], counts)
        ]
        mean_str = f"{mean_mmd:.4f}" if n_valid else "-"
        print(f"{name:<10} {n:>5} {n_valid:>5} {feas:>7.4f} {mean_str:>8} {n_repaired:>8}")
    files = {
        "config.json": asdict(cfg),
        "report.csv": report_rows,
        "mmd_scores.csv": score_rows,
        "mmd_hist.csv": hist_rows,
        "eval_latents_gt.bin": gt_latents,
    }
    for variant in (VariantId.BASELINE, VariantId.FULL):
        if variant in tables:
            files[f"eval_latents_{variant.value}.bin"] = tables[variant]["latents"]
    _write_outputs(out, files)
    return EXIT_OK


def cmd_pca(cfg: RunConfig) -> int:
    """Project the eval latents onto their top two principal axes and write
    ``pca.csv``: pc1, pc2, tag; one row per latent, tagged ``Baseline``,
    ``SelfRepairing`` or ``GroundTruth`` by the file it came from
    (``eval_latents_baseline.bin``, ``eval_latents_full.bin``,
    ``eval_latents_gt.bin``)."""
    out = Path(cfg.out_dir)
    sources = (
        ("eval_latents_baseline.bin", "Baseline"),
        ("eval_latents_full.bin", "SelfRepairing"),
        ("eval_latents_gt.bin", "GroundTruth"),
    )
    blocks = [read_latents(out / name) for name, _ in sources]
    counts = [len(block) for block in blocks]
    if min(counts) < 1 or sum(counts) < 3:
        names = ", ".join(name for name, _ in sources)
        raise ConfigError(f"{out}: {names} hold {counts} rows; pca needs 3 or more, one per file")
    tags = np.repeat([tag for _, tag in sources], counts)
    _, coords, explained = pca_2d(np.vstack(blocks))
    _write_outputs(out, {
        "config.json": asdict(cfg),
        "pca.csv": [[_fmt(x), _fmt(y), tag] for (x, y), tag in zip(coords, tags)],
    })
    base_centroid = coords[tags == "Baseline"].mean(axis=0)
    full_centroid = coords[tags == "SelfRepairing"].mean(axis=0)
    centroid_distance = float(np.linalg.norm(base_centroid - full_centroid))
    print(f"explained variance: {explained[0]:.4f}, {explained[1]:.4f}")
    print(f"baseline vs self-repairing centroid distance: {centroid_distance:.6f}")
    return EXIT_OK


def cmd_repair(latents_path: str, regressor_path: str, out: Path) -> int:
    """Kernel-check each row of a latent matrix file, self-repair the rows that
    fail with one ``pipeline.repair`` call, and write, into ``out``:

    - ``repaired.bin``: one latent per row; a row that passes is kept unrepaired.
    - ``repair_outcomes.csv``: row, stage, valid; stage ``ValidDirect`` for a
      row that passed, else ``RepairedValid`` or ``RepairedInvalid`` by its
      check after repair.
    """
    latents = read_latents(latents_path)
    regressor = _load_model(Path(regressor_path), "ssl_regressor")
    before = check_latents(latents)
    repaired, after = pipeline.repair(latents, before, regressor)
    stages = [
        "RepairedInvalid" if a else "RepairedValid" if b else "ValidDirect"
        for b, a in zip(before.tolist(), after.tolist())
    ]
    _write_outputs(out, {
        "repaired.bin": repaired,
        "repair_outcomes.csv": [
            [i, stage, int(a == 0)] for i, (stage, a) in enumerate(zip(stages, after.tolist()))
        ],
    })
    print(f"rows                {len(stages)}")
    print(f"valid direct        {stages.count('ValidDirect')}")
    print(f"repaired valid      {stages.count('RepairedValid')}")
    print(f"repaired invalid    {stages.count('RepairedInvalid')}")
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
        p.add_argument("--out", help="override the output directory")

    p_gen = sub.add_parser(
        "gen-dataset",
        help="generate the labeled latent dataset on `train --which denoiser`'s conditions.jsonl",
    )
    add_common(p_gen)

    p_train = sub.add_parser(
        "train",
        help="train one model; training the denoiser writes conditions.jsonl",
    )
    add_common(p_train)
    p_train.add_argument("--which", required=True, choices=list(MODELS))

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
    return replace(cfg, out_dir=args.out) if args.out else cfg  # re-runs the range checks


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        # an output directory that cannot be created fails before the stage's work
        if args.command == "repair":
            out = Path(args.out) if args.out else Path(args.latents).parent
            _require_creatable(out)
            return cmd_repair(args.latents, args.regressor, out)
        cfg = _load_config(args)
        _require_creatable(Path(cfg.out_dir))
        if args.command == "gen-dataset":
            return cmd_gen_dataset(cfg, args.threads)
        if args.command == "train":
            return cmd_train(cfg, args.which)
        if args.command == "eval":
            return cmd_eval(cfg, args.variants, args.threads)
        if args.command == "pca":
            return cmd_pca(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except tuple(EXIT_CODES) as exc:
        logger.error("%s", exc)
        return EXIT_CODES[type(exc)]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
