"""The benchmark's workloads: inputs made from the seed, one timed
operation, and the checks on its outputs.

Every workload calls the package through module attributes
(``gan.train_gan``, ``cli.cmd_run_scenarios``, ...), so a traced run sees
the same calls through the tracer's wrappers. One operation is repeated
unchanged within a run; per-operation counts from a traced run therefore
repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback

import numpy as np
from vibrogan import cli, gan, layers, signal_core

import checks

# samples per generate call: 2048 windows at 1024 samples, 32768 at 64, so
# that every call allocates arrays of the same size whatever the window
GENERATE_SAMPLES = 2048 * 1024
GENERATE_REPEATS = 3
EVAL_REPEATS = 2


def derive_seed(seed, tag):
    """A 63-bit seed for one input of the workload, from its seed and a tag."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Outcome:
    """Attempted and failed operations of one run.

    A raised exception (a ``DivergedError`` included) or a failed output
    check counts as a failed operation; the run goes on measuring.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def attempt(self, label, fn, check=None):
        """Run ``fn``; returns (result or None, wall seconds of ``fn``)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
            seconds = time.perf_counter() - t0
            if check is not None:
                check(result)
        except Exception as exc:  # benchmark boundary: record, count, keep measuring
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        return result, seconds


def _damaged_pool(seed, duration_s, window_len):
    record = signal_core.generate_surrogate_record(
        signal_core.SurrogateParams(duration_s=duration_s, seed=derive_seed(seed, "record")),
        condition=signal_core.DAMAGED)
    return signal_core.normalize_windows(signal_core.segment_record(record, window_len))


def _diagnostics(sample, outcome, generator, store, latent, checkpoint, real, workdir, seed,
                 window_len):
    """Time ``generate`` and ``cmd_eval_gan`` for one generator.

    Both repeat within the operation so that each run has several samples
    for its medians. Each ``generate`` call draws
    ``GENERATE_SAMPLES // window_len`` windows.
    """
    n = GENERATE_SAMPLES // window_len
    for _ in range(GENERATE_REPEATS):
        windows, seconds = outcome.attempt(
            "generate",
            lambda: gan.generate(generator, store, n, derive_seed(seed, "generate"),
                                 latent_channels=latent),
            lambda w: checks.check_windows(w, n, window_len))
        sample["generate_per_s"].append(n / seconds if windows is not None else None)
    for _ in range(EVAL_REPEATS):
        summary, seconds = outcome.attempt(
            "cmd_eval_gan",
            lambda: cli.cmd_eval_gan(checkpoint, real, os.path.join(workdir, "eval"),
                                     seed=derive_seed(seed, "eval"), pairing="one_to_one"),
            lambda s: checks.check_eval_summary(s, len(real)))
        sample["eval_gan_s"].append(seconds if summary is not None else None)


class GanWorkload:
    """``train_gan`` on a damaged surrogate pool, then the generator's
    diagnostics: ``generate`` and ``cmd_eval_gan`` against the pool."""

    def __init__(self, name, why, window_len, duration_s, epochs, gan_overrides):
        self.name = name
        self.why = why
        self.window_len = window_len
        self.duration_s = duration_s
        self.epochs = epochs
        self.gan_overrides = gan_overrides

    def setup(self, seed, workdir):
        return {"pool": _damaged_pool(seed, self.duration_s, self.window_len)}

    def op(self, state, seed, workdir, outcome):
        pool = state["pool"]
        cfg = gan.GanConfig(**self.gan_overrides, epochs=self.epochs,
                            seed=derive_seed(seed, "gan"))
        stamps = []
        start = time.perf_counter()
        result, train_s = outcome.attempt(
            "train_gan",
            lambda: gan.train_gan(cfg, pool,
                                  progress=lambda e: stamps.append(time.perf_counter())),
            lambda r: checks.check_train_log(r[4], cfg.epochs))
        sample = {"train_s": train_s, "train_windows": 0, "epoch_s": [],
                  "epoch_windows": len(pool) * cfg.critic_iterations,
                  "generate_per_s": [], "eval_gan_s": [], "fixed_output": None}
        if result is None:
            return sample
        sample["train_windows"] = sample["epoch_windows"] * cfg.epochs
        sample["epoch_s"] = [b - a for a, b in zip([start] + stamps, stamps)]
        generator, gen_store, _, _, log = result
        sample["fixed_output"] = {"first_epoch_critic_loss": log.entries[0].critic_loss}
        checkpoint = os.path.join(workdir, "generator.ckpt")
        outcome.attempt(
            "save_checkpoint",
            lambda: layers.save_checkpoint(checkpoint, generator, gen_store, kind="generator",
                                           meta={"config": {"latent_channels":
                                                            cfg.latent_channels}}))
        _diagnostics(sample, outcome, generator, gen_store, cfg.latent_channels, checkpoint,
                     pool, workdir, seed, self.window_len)
        return sample


class ScenarioWorkload:
    """``cmd_run_scenarios`` with the six default scenarios on a fixed
    generator checkpoint, then ``cmd_eval_gan`` and ``generate`` on it."""

    def __init__(self, name, why, classifier_epochs):
        self.name = name
        self.why = why
        self.window_len = signal_core.DEFAULT_WINDOW_LEN
        self.classifier_epochs = classifier_epochs

    def setup(self, seed, workdir):
        pool = _damaged_pool(seed, 256.0, self.window_len)
        cfg = gan.GanConfig()
        generator = gan.build_generator(self.window_len, cfg)
        store = layers.init_params(generator, np.random.default_rng(derive_seed(seed, "init")))
        checkpoint = os.path.join(workdir, "generator.ckpt")
        layers.save_checkpoint(checkpoint, generator, store, kind="generator",
                               meta={"config": {"latent_channels": cfg.latent_channels}})
        return {"pool": pool, "generator": generator, "store": store,
                "latent": cfg.latent_channels, "checkpoint": checkpoint}

    def op(self, state, seed, workdir, outcome):
        cfg = cli.load_run_config(None, {
            "seed": derive_seed(seed, "run"),
            "window_len": self.window_len,
            "classifier": {"epochs": self.classifier_epochs},
            "generator_checkpoint": state["checkpoint"],
            "synthetic_count": 256,
        })
        reports, suite_s = outcome.attempt(
            "cmd_run_scenarios",
            lambda: cli.cmd_run_scenarios(cfg, os.path.join(workdir, "run"), overwrite=True),
            checks.check_scenario_reports)
        sample = {"train_s": suite_s, "train_windows": 0, "epoch_s": [],
                  "generate_per_s": [], "eval_gan_s": [], "fixed_output": None}
        if reports is not None:
            sample["train_windows"] = self.classifier_epochs * sum(
                sum(v for k, v in r["counts"].items() if k.startswith("train_"))
                for r in reports)
            sample["fixed_output"] = {"scenario0_scores":
                                      [e["score"] for e in reports[0]["entries"]]}
        _diagnostics(sample, outcome, state["generator"], state["store"], state["latent"],
                     state["checkpoint"], state["pool"], workdir, seed, self.window_len)
        return sample


WORKLOADS = {w.name: w for w in (
    GanWorkload(
        "gan-w64",
        "Python- and graph-bound regime: 64-sample windows, batch 32; conv kernels are a "
        "small share, so node-count and fusion changes show here and conv-kernel changes "
        "barely move it.",
        window_len=64, duration_s=16.0, epochs=4,
        gan_overrides={"batch_size": 32, "critic_iterations": 12, "lambda_gp": 20.0,
                       "lr_generator": 1e-3, "lr_critic": 4e-3}),
    GanWorkload(
        "gan-w1024",
        "BLAS- and conv-bound regime at paper scale: 5 stages, 1024-sample windows, batch "
        "256; conv-kernel and memory changes show here, Python overhead is a rounding error.",
        window_len=1024, duration_s=256.0, epochs=1,
        gan_overrides={"batch_size": 1024}),
    ScenarioWorkload(
        "scenarios-w1024",
        "First-order autodiff only, classifier at batch 30 in train and eval mode, plus "
        "record generation, scenario assembly and report writing, which no GAN workload "
        "touches.",
        classifier_epochs=10),
)}
