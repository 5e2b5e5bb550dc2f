"""Output checks that hold under any legitimate change of float or RNG order.

Each check raises :class:`CheckFailed` naming the first violation. The
checks test ranges, shapes, counts and finiteness, never exact values, so
a faster kernel that reorders a sum or draws random numbers in another
order still passes.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is out of its specified range."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check_train_log(log, epochs):
    """Every logged critic loss, generator loss and monitor FID is finite."""
    _require(len(log.entries) == epochs,
             f"train log has {len(log.entries)} entries, expected {epochs}")
    for e in log.entries:
        for field in ("critic_loss", "generator_loss", "fid"):
            value = getattr(e, field)
            _require(math.isfinite(value), f"epoch {e.epoch}: {field} is {value}")


def check_windows(windows, n, length):
    """``n`` generated windows of ``length`` samples, all in [-1, 1]."""
    _require(len(windows) == n, f"got {len(windows)} windows, expected {n}")
    batch = np.stack([w.samples for w in windows])
    _require(batch.shape == (n, length), f"windows have shape {batch.shape}, "
                                         f"expected {(n, length)}")
    _require(bool(np.all(np.isfinite(batch))), "generated windows hold non-finite samples")
    lo, hi = float(batch.min()), float(batch.max())
    _require(-1.0 <= lo and hi <= 1.0, f"generated samples span [{lo}, {hi}], not in [-1, 1]")


def check_scenario_reports(reports, count=6, entries=30):
    """``count`` reports of ``entries`` scores in [0, 1] with finite MAE/CA/AP."""
    _require(len(reports) == count, f"got {len(reports)} scenario reports, expected {count}")
    for r in reports:
        sid = r.get("scenario_id")
        _require(len(r["entries"]) == entries,
                 f"scenario {sid}: {len(r['entries'])} entries, expected {entries}")
        for e in r["entries"]:
            _require(0.0 <= e["score"] <= 1.0,
                     f"scenario {sid} entry {e['index']}: score {e['score']} not in [0, 1]")
        for key in ("mae", "classification_accuracy", "average_precision"):
            _require(math.isfinite(r[key]), f"scenario {sid}: {key} is {r[key]}")


def check_eval_summary(summary, n):
    """The eval-gan summary counts ``n`` generated and ``n`` real windows."""
    for key in ("n_generated", "n_real"):
        _require(summary[key] == n, f"eval summary {key} = {summary[key]}, expected {n}")
