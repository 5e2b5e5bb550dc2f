import json
import os
from dataclasses import replace

import numpy as np
import pytest

from vibrogan import (autodiff, classifier, cli, gan, gan_eval, layers, metrics, optim,
                      signal_core)

from tracing import Span, Tracer, conv_stage, layer_metrics, self_times

MODULES = (autodiff, classifier, cli, gan, gan_eval, layers, metrics, optim, signal_core)


def test_self_time_subtracts_merged_children_clipped_to_parent():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),      # overlaps a: covered once
        Span("a.x", 2.0, 3.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # clipped to the root's end
        Span("lone", 20.0, 21.5),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_conv_stage_from_long_side():
    assert [conv_stage("critic", 5, 1024 >> 2 * k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert [conv_stage("generator", 5, 4 << 2 * k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert conv_stage("classifier", 3, 64) == 0
    assert conv_stage("critic", 3, 48) is None


def _snapshot():
    state = {mod.__name__: dict(vars(mod)) for mod in MODULES}
    state["AdamW"] = dict(vars(optim.AdamW))
    return state


def _assert_restored(before):
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)


def _tiny_pool(n=8, length=16):
    rng = np.random.default_rng(0)
    record = signal_core.AccelRecord(samples=rng.normal(size=n * length), rate=1024.0,
                                     condition=signal_core.DAMAGED)
    return signal_core.normalize_windows(signal_core.segment_record(record, length))


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _snapshot()
    pool = _tiny_pool()
    tracer = Tracer()
    with tracer.installed():
        assert autodiff.conv1d is not before["vibrogan.autodiff"]["conv1d"]
        assert gan.forward is layers.forward is classifier.forward
        cfg = gan.GanConfig(epochs=1, batch_size=4, critic_iterations=1, latent_channels=4)
        generator, store, _, _, _ = gan.train_gan(cfg, pool)
        path = str(tmp_path / "g.ckpt")
        layers.save_checkpoint(path, generator, store, kind="generator",
                               meta={"config": {"latent_channels": 4}})
        cli.cmd_eval_gan(path, pool, str(tmp_path / "eval"))
        classifier.train_classifier(classifier.ClassifierConfig(epochs=1, batch_size=4),
                                    pool[:4] + [replace(w, condition="undamaged")
                                                for w in pool[4:]])
    _assert_restored(before)

    convs = [s for s in tracer.spans if s.name.startswith("autodiff.conv")]
    assert convs and all(s.attrs["net"] in ("generator", "critic", "classifier")
                         for s in convs)
    assert {s.attrs["stage"] for s in convs} == {0, 1}
    assert tracer.graph_nodes["critic"] > 0 and tracer.graph_nodes["classifier"] > 0
    assert tracer.counts["gan_eval.ssim"] == 8 * 8 + 8 * 7 // 2
    m = layer_metrics(tracer, 1)
    assert m["gan.critic_iter.ms_p50"] > 0 and m["classifier.step.ms_p50"] > 0


def test_wrappers_removed_when_the_traced_block_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_layer_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(layer_metrics(Tracer(), 1)) + ["trace.overhead_s", "trace.overhead_pct"]
    assert sorted(produced) == sorted(listed)
