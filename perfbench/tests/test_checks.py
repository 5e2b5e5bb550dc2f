import math

import numpy as np
import pytest

from vibrogan.gan import TrainLog, TrainLogEntry
from vibrogan.signal_core import Window

from checks import (CheckFailed, check_eval_summary, check_scenario_reports,
                    check_train_log, check_windows)


def _log(critic_loss=1.0, fid=0.5):
    return TrainLog([TrainLogEntry(1, 2.0, -0.1, 0.7, 1.0),
                     TrainLogEntry(2, critic_loss, -0.2, fid, 1.0)])


def _reports(score=0.25, mae=0.1):
    entries = [{"index": i, "score": 0.5, "label": i % 2} for i in range(30)]
    reports = [{"scenario_id": k, "entries": [dict(e) for e in entries], "mae": 0.1,
                "classification_accuracy": 0.9, "average_precision": 0.95} for k in range(6)]
    reports[3]["entries"][7]["score"] = score
    reports[4]["mae"] = mae
    return reports


def test_train_log_accepts_finite_and_rejects_nan_loss():
    check_train_log(_log(), 2)
    with pytest.raises(CheckFailed, match="critic_loss"):
        check_train_log(_log(critic_loss=math.nan), 2)
    with pytest.raises(CheckFailed, match="fid"):
        check_train_log(_log(fid=math.inf), 2)
    with pytest.raises(CheckFailed, match="entries"):
        check_train_log(_log(), 3)


@pytest.mark.parametrize("score", [1.5, -0.01, math.nan])
def test_scenario_reports_reject_out_of_range_score(score):
    check_scenario_reports(_reports())
    with pytest.raises(CheckFailed, match="score"):
        check_scenario_reports(_reports(score=score))


def test_scenario_reports_reject_nan_metric_and_wrong_counts():
    with pytest.raises(CheckFailed, match="mae"):
        check_scenario_reports(_reports(mae=math.nan))
    with pytest.raises(CheckFailed, match="reports"):
        check_scenario_reports(_reports()[:5])


def test_windows_range_and_shape():
    ok = [Window(np.linspace(-1.0, 1.0, 64), "damaged") for _ in range(3)]
    check_windows(ok, 3, 64)
    with pytest.raises(CheckFailed, match="shape"):
        check_windows(ok, 3, 1024)
    bad = ok[:2] + [Window(np.full(64, 1.0 + 1e-9), "damaged")]
    with pytest.raises(CheckFailed, match=r"\[-1, 1\]"):
        check_windows(bad, 3, 64)


def test_eval_summary_counts():
    check_eval_summary({"n_generated": 256, "n_real": 256}, 256)
    with pytest.raises(CheckFailed, match="n_real"):
        check_eval_summary({"n_generated": 256, "n_real": 255}, 256)
