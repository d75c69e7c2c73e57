"""The benchmark's workloads: pinned run configs and the CLI stages each one runs.

Every workload pins every RunConfig field and passes ``--threads`` itself, so a
change to a CLI default (epochs, guidance scale, thread count) cannot silently
change what the benchmark measures. ``master_seed`` is the only field the
benchmark fills in per run, from its ``--seed`` argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

VARIANTS = ("baseline", "var1", "var2", "var3", "var4", "var5", "full")

_SHARED = {
    "beta_start": 1e-4,
    "beta_end": 0.02,
    "denoiser": {"epochs": 150, "batch_size": 64, "learning_rate": 3e-3},
    "classifier": {"epochs": 300, "batch_size": 64, "learning_rate": 3e-2},
    "ridge": 1e-6,
    "split": 0.8,
    "use_classifier_guidance": True,
    "use_regressor_guidance": True,
    "classifier_scale": 10.0,
    "regressor_scale": 10.0,
    "stop_gradient_y": False,
    "sigma_mode": "median",
    "out_dir": "runs/bench",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # every RunConfig field except master_seed
    setup: tuple[tuple[str, ...], ...]  # CLI argv of each prerequisite stage
    measured: tuple[str, ...]  # CLI argv of the timed stage

    @property
    def threads(self) -> int:
        argv = self.measured
        return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1

    @property
    def variants(self) -> tuple[str, ...]:
        argv = self.measured
        return tuple(argv[argv.index("--variants") + 1].split(",")) if "--variants" in argv else ()

    @property
    def samples(self) -> int:
        """Samples one measured command delivers: decoded chains, or condition x variant outcomes."""
        if self.variants:
            return self.config["n_eval_conditions"] * len(self.variants)
        return self.config["n_conditions"] * self.config["generations_per_condition"]

    def run_config(self, seed: int) -> dict:
        return {"master_seed": seed, **self.config}

    def config_json(self, seed: int) -> str:
        return json.dumps(self.run_config(seed), sort_keys=True, indent=2) + "\n"


TRAIN_DENOISER = ("train", "--which", "denoiser")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gen",
            why=(
                "gen-dataset: 1000 unguided 100-step reverse chains, decoded and kernel-checked; "
                "no MMD and no guidance run here"
            ),
            config={
                **_SHARED,
                "n_conditions": 200,
                "generations_per_condition": 5,
                "n_eval_conditions": 30,
                "timesteps": 100,
                "cloud_size": 512,
            },
            setup=(TRAIN_DENOISER,),
            measured=("gen-dataset",),
        ),
        Workload(
            name="eval-mmd",
            why=(
                "eval of baseline, var1 and var2 on 2 workers with 512-point clouds: MMD scoring "
                "is most of the time; no guidance runs here"
            ),
            config={
                **_SHARED,
                "n_conditions": 300,
                "generations_per_condition": 2,
                "n_eval_conditions": 40,
                "timesteps": 100,
                "cloud_size": 512,
            },
            setup=(
                TRAIN_DENOISER,
                ("gen-dataset",),
                ("train", "--which", "ssl_regressor"),
                ("train", "--which", "gt_regressor"),
            ),
            measured=("eval", "--variants", "baseline,var1,var2", "--threads", "2"),
        ),
        Workload(
            name="eval-guided",
            why=(
                "eval of var3, var4, var5 and full on 1 process: guided 500-step chains dominate; "
                "few samples are valid, so scoring is a small share"
            ),
            config={
                **_SHARED,
                # A longer-trained denoiser keeps enough valid siblings for the
                # ssl regressor's pairs at every seed.
                "denoiser": {"epochs": 400, "batch_size": 32, "learning_rate": 3e-3},
                "n_conditions": 60,
                "generations_per_condition": 3,
                "n_eval_conditions": 20,
                "timesteps": 500,
                "cloud_size": 16,
            },
            setup=(
                TRAIN_DENOISER,
                ("gen-dataset",),
                ("train", "--which", "classifier"),
                ("train", "--which", "ssl_regressor"),
            ),
            measured=("eval", "--variants", "var3,var4,var5,full", "--threads", "1"),
        ),
    )
}


def stage_name(argv: tuple[str, ...]) -> str:
    """Metric-safe stage name: ``train --which ssl_regressor`` -> ``train_ssl_regressor``."""
    if argv[0] == "train":
        return "train_" + argv[argv.index("--which") + 1]
    return argv[0].replace("-", "_")
