"""Span tracing of the vibrogan package from outside it.

A :class:`Tracer` replaces public functions of the package's modules with
wrappers that record spans (name, start, end, parent, attributes) in
memory. Wrappers are installed where the real code looks the names up:
modules that bind a function by name (``from .layers import forward``)
get the wrapper in their own namespace too, and the conv vjps resolve the
primitives through ``autodiff``'s globals. ``Tracer.installed()`` restores
every original attribute on exit, so an untraced run measures the
unwrapped program.

Conv spans carry the network (generator, critic or classifier) and the
conv stage. The network comes from the innermost enclosing ``forward``
call or, during a backward pass, from the conv node whose vjp is running;
the stage comes from the network's stage count and the conv's long side.
FLOP and byte counts are computed from the operand shapes, not measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

PRIMS = ("conv1d", "conv1d_transpose", "conv1d_wgrad")
NETS = ("generator", "critic", "classifier")
STAGES = 5


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0.0, parent=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.attrs]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose ``parent`` is the span's index. Their
    intervals are clipped to the parent and merged first, so overlapping
    children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                           for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def count_graph_nodes(root):
    """Number of Tensor nodes reachable from ``root`` through ``.parents``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


def conv_stage(net, stages, length):
    """Conv stage of a layer whose long (input for conv, output for tconv)
    side is ``length``: the critic and classifier shrink 4x per stage from
    ``4**stages``, the generator grows 4x per stage from 4."""
    e = length.bit_length() - 1
    if length != 1 << e or e % 2:
        return None
    k = e // 2 - 1 if net == "generator" else stages - e // 2
    return k if 0 <= k < stages else None


def _conv_geometry(prim, args, kwargs):
    """(B, O, C, K, J, L, output elements, input elements) of a conv
    primitive call, in the frame of the forward conv C -> O whose long side
    is L and short side J."""
    def arg(i, name, default):
        return args[i] if len(args) > i else kwargs.get(name, default)

    if prim == "conv1d":
        x, w = arg(0, "x", None), arg(1, "w", None)
        (B, C, L), (O, _, K) = x.shape, w.shape
        stride, padding = arg(2, "stride", 1), arg(3, "padding", 0)
        J = (L + 2 * padding - K) // stride + 1
        return B, O, C, K, J, L, B * O * J, x.size + w.size
    if prim == "conv1d_transpose":
        y, w = arg(0, "y", None), arg(1, "w", None)
        (B, O, J), (_, C, K) = y.shape, w.shape
        stride, padding = arg(2, "stride", 1), arg(3, "padding", 0)
        L = (J - 1) * stride - 2 * padding + K
        return B, O, C, K, J, L, B * C * L, y.size + w.size
    x, y, K = arg(0, "x", None), arg(1, "y", None), arg(2, "kernel", None)
    (B, C, L), (_, O, J) = x.shape, y.shape
    return B, O, C, K, J, L, O * C * K, x.size + y.size


def _net_kind(net):
    kinds = [layer.kind for layer in net.layers]
    if kinds and kinds[0] == "tconv1d":
        name = "generator"
    elif kinds and kinds[-1] == "sigmoid":
        name = "classifier"
    else:
        name = "critic"
    return name, sum(k in ("conv1d", "tconv1d") for k in kinds)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.graph_nodes = {}
        self._stack = []
        self._net_ctx = []
        self._patches = []
        self._nets = {}     # id(NetworkSpec) -> (spec, name, stages)
        self._stores = {}   # id(params dict) -> (dict, name)
        self._arrays = {}   # id(param ndarray) -> (ndarray, name)

    # -- span recording ---------------------------------------------------

    def _open(self, name, attrs):
        stack = self._stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, attrs)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, describe=None):
        """A wrapper that records one span per call of ``fn``."""

        def wrapper(*args, **kwargs):
            span = self._open(name, describe(args, kwargs) if describe else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key):
        """A wrapper that only counts calls, for functions called too often
        for a span each."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- network bookkeeping ----------------------------------------------

    def _net_info(self, net):
        info = self._nets.get(id(net))
        if info is None or info[0] is not net:
            info = (net, *_net_kind(net))
            self._nets[id(net)] = info
        return info

    def _register_store(self, store, name):
        params = store.params
        known = self._stores.get(id(params))
        if known is None or known[0] is not params:
            self._stores[id(params)] = (params, name)
            for arr in params.values():
                self._arrays[id(arr)] = (arr, name)

    def _store_net(self, params):
        known = self._stores.get(id(params))
        return known[1] if known and known[0] is params else "unknown"

    def _array_net(self, arr):
        known = self._arrays.get(id(arr))
        return known[1] if known and known[0] is arr else "unknown"

    # -- wrappers with program knowledge ----------------------------------

    def _forward_wrapper(self, fn):
        ctx = self._net_ctx

        def forward(net, store, *args, **kwargs):
            _, name, stages = self._net_info(net)
            self._register_store(store, name)
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "eval")
            ctx.append((name, stages))
            span = self._open("layers.forward", {"net": name, "mode": mode})
            try:
                return fn(net, store, *args, **kwargs)
            finally:
                self._close(span)
                ctx.pop()

        forward.__wrapped__ = fn
        return forward

    def _conv_wrapper(self, fn, prim):
        ctx = self._net_ctx
        name = f"autodiff.{prim}"

        def conv(*args, **kwargs):
            tag = ctx[-1] if ctx else ("unknown", 0)
            B, O, C, K, J, L, out_size, in_size = _conv_geometry(prim, args, kwargs)
            span = self._open(name, {"net": tag[0], "stage": conv_stage(tag[0], tag[1], L),
                                     "flops": 2 * B * O * C * K * J,
                                     "bytes": 8 * (in_size + out_size)})
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if out.vjp is not None:
                out.vjp = self._tagged_vjp(out.vjp, tag)
            return out

        conv.__wrapped__ = fn
        return conv

    def _tagged_vjp(self, vjp, tag):
        ctx = self._net_ctx

        def tagged(g):
            ctx.append(tag)
            try:
                return vjp(g)
            finally:
                ctx.pop()

        return tagged

    def _grad_wrapper(self, fn):

        def grad(root, wrt, *args, **kwargs):
            create_graph = bool(args[0] if args else kwargs.get("create_graph", False))
            net = self._array_net(wrt[0].data) if wrt else "unknown"
            if not create_graph and net not in self.graph_nodes:
                self.graph_nodes[net] = count_graph_nodes(root)
            span = self._open("autodiff.grad", {"net": net, "create_graph": create_graph})
            try:
                return fn(root, wrt, *args, **kwargs)
            finally:
                self._close(span)

        grad.__wrapped__ = fn
        return grad

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions for the duration of the block."""
        from vibrogan import (autodiff, classifier, cli, gan, gan_eval, layers,
                              metrics, optim, signal_core)
        try:
            for prim in PRIMS:
                self.patch(autodiff, prim, self._conv_wrapper(getattr(autodiff, prim), prim))
            self.patch(autodiff, "grad", self._grad_wrapper(autodiff.grad))
            fwd = self._forward_wrapper(layers.forward)
            for mod in (layers, gan, classifier):
                self.patch(mod, "forward", fwd)

            def file_size(args, kwargs):
                return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

            for attr, name, describe in (("save_checkpoint", "layers.checkpoint_save", None),
                                         ("load_checkpoint", "layers.checkpoint_load",
                                          file_size)):
                w = self.wrap(getattr(layers, attr), name, describe)
                for mod in (layers, gan, cli):
                    if attr in mod.__dict__:
                        self.patch(mod, attr, w)

            self.patch(optim.AdamW, "step",
                       self.wrap(optim.AdamW.step, "optim.adamw_step",
                                 lambda a, k: {"net": self._store_net(a[1])}))

            for attr in ("generate_surrogate_record", "segment_record",
                         "normalize_windows", "assemble_scenario"):
                self.patch(signal_core, attr,
                           self.wrap(getattr(signal_core, attr), f"signal_core.{attr}"))

            for attr in ("train_gan", "generate"):
                w = self.wrap(getattr(gan, attr), f"gan.{attr}")
                self.patch(gan, attr, w)
                self.patch(cli, attr, w)
            for attr in ("critic_loss", "generator_loss", "generate_from"):
                self.patch(gan, attr, self.wrap(getattr(gan, attr), f"gan.{attr}"))

            for attr in ("fid", "pooled_summary"):
                w = self.wrap(getattr(gan_eval, attr), f"gan_eval.{attr}")
                self.patch(gan_eval, attr, w)
                self.patch(gan, attr, w)
            for attr in ("gaussian_summary", "creativity_scores", "diversity_scores",
                         "fid_scores", "pdf_estimate", "boxplot_stats"):
                self.patch(gan_eval, attr,
                           self.wrap(getattr(gan_eval, attr), f"gan_eval.{attr}"))
            self.patch(gan_eval, "ssim", self.counted(gan_eval.ssim, "gan_eval.ssim"))

            for attr in ("train_classifier", "predict"):
                w = self.wrap(getattr(classifier, attr), f"classifier.{attr}")
                self.patch(classifier, attr, w)
                self.patch(cli, attr, w)
            for attr in ("mae", "classification_accuracy", "average_precision"):
                self.patch(metrics, attr, self.wrap(getattr(metrics, attr), f"metrics.{attr}"))
            for attr in ("cmd_run_scenarios", "cmd_eval_gan"):
                self.patch(cli, attr, self.wrap(getattr(cli, attr), f"cli.{attr}"))
            yield self
        finally:
            self.restore()

    def write(self, path):
        """Write the spans out, one JSON array per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_row(), default=str))
                fh.write("\n")


# -- per-layer metrics -----------------------------------------------------

def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _phase_intervals(spans, children, parent_name, start_pred, end_pred):
    """(start, end) intervals among the direct children of each
    ``parent_name`` span: from a child matching ``start_pred`` to the next
    child matching ``end_pred``."""
    out = []
    for i, s in enumerate(spans):
        if s.name != parent_name:
            continue
        start = None
        for c in children[i]:
            child = spans[c]
            if start is None and start_pred(child):
                start = child.start
            elif start is not None and end_pred(child):
                out.append(child.end - start)
                start = None
    return out


def layer_metrics(tracer, n_ops):
    """Per-layer metrics from a traced run of ``n_ops`` identical operations.

    Counts and summed self times are per operation; ``.ms`` and
    ``.ms_per_call`` values are means per call.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    children = [[] for _ in spans]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent >= 0:
            children[s.parent].append(i)
    per_op = 1.0 / n_ops
    m = {}

    def dur_ms(idx):
        return [spans[i].duration * 1e3 for i in idx]

    for prim in PRIMS:
        idx = by_name[f"autodiff.{prim}"]
        self_s = sum(selfs[i] for i in idx)
        flops = sum(spans[i].attrs["flops"] for i in idx)
        m[f"autodiff.{prim}.calls"] = len(idx) * per_op
        m[f"autodiff.{prim}.self_s"] = self_s * per_op
        m[f"autodiff.{prim}.gflops_computed"] = flops / self_s / 1e9 if self_s else 0.0
        m[f"autodiff.{prim}.gbytes_computed"] = (
            sum(spans[i].attrs["bytes"] for i in idx) * per_op / 1e9)
        groups = defaultdict(list)
        for i in idx:
            groups[(spans[i].attrs["net"], spans[i].attrs["stage"])].append(i)
        for net in NETS:
            for k in range(STAGES):
                m[f"autodiff.{prim}.{net}.s{k}.ms_per_call"] = _mean(dur_ms(groups[(net, k)]))

    grads = by_name["autodiff.grad"]
    for flag, key in ((True, "create_graph"), (False, "first_order")):
        m[f"autodiff.grad.{key}.self_s"] = per_op * sum(
            selfs[i] for i in grads if spans[i].attrs["create_graph"] is flag)
    m["autodiff.grad.calls"] = len(grads) * per_op
    for net in ("critic", "classifier"):
        m[f"autodiff.graph_nodes.{net}_loss"] = tracer.graph_nodes.get(net, 0)

    forwards = defaultdict(list)
    for i in by_name["layers.forward"]:
        forwards[(spans[i].attrs["net"], spans[i].attrs["mode"])].append(i)
    for net, mode in (("generator", "train"), ("generator", "eval"), ("critic", "train"),
                      ("classifier", "train"), ("classifier", "eval")):
        idx = forwards[(net, mode)]
        m[f"layers.forward.{net}.{mode}.self_ms"] = _mean([selfs[i] * 1e3 for i in idx])
        m[f"layers.forward.{net}.{mode}.calls"] = len(idx) * per_op
    m["layers.checkpoint_save.ms"] = _mean(dur_ms(by_name["layers.checkpoint_save"]))
    m["layers.checkpoint_load.ms"] = _mean(dur_ms(by_name["layers.checkpoint_load"]))
    m["layers.checkpoint.bytes"] = _mean(
        [spans[i].attrs["bytes"] for i in by_name["layers.checkpoint_load"]])

    steps = defaultdict(list)
    for i in by_name["optim.adamw_step"]:
        steps[spans[i].attrs["net"]].append(i)
    for net in NETS:
        m[f"optim.adamw_step.{net}.ms"] = _mean(dur_ms(steps[net]))

    def is_(name, **attrs):
        return lambda s: s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())

    critic_iters = [1e3 * d for d in _phase_intervals(
        spans, children, "gan.train_gan",
        is_("layers.forward", net="generator", mode="train"),
        is_("optim.adamw_step", net="critic"))]
    m["gan.critic_iter.ms_p50"] = _quantile(critic_iters, 0.5)
    m["gan.critic_iter.ms_p90"] = _quantile(critic_iters, 0.9)
    direct = defaultdict(list)
    for i in by_name["gan.train_gan"]:
        for c in children[i]:
            direct[spans[c].name].append(c)
    m["gan.gen_forward.ms"] = _mean(dur_ms(
        [c for c in direct["layers.forward"] if spans[c].attrs["net"] == "generator"
         and spans[c].attrs["mode"] == "train"]))
    m["gan.critic_loss.ms"] = _mean(dur_ms(by_name["gan.critic_loss"]))
    m["gan.gp_backward.ms"] = _mean(dur_ms(
        [i for i in grads if spans[i].attrs["create_graph"]]))
    m["gan.second_backward.ms"] = _mean(dur_ms(
        [c for c in direct["autodiff.grad"] if spans[c].attrs["net"] == "critic"]))
    m["gan.gen_step.ms"] = 1e3 * _mean(_phase_intervals(
        spans, children, "gan.train_gan", is_("gan.generator_loss"),
        is_("optim.adamw_step", net="generator")))
    m["gan.monitor.ms"] = 1e3 * _mean(_phase_intervals(
        spans, children, "gan.train_gan", is_("gan.generate_from"), is_("gan_eval.fid")))

    m["signal_core.surrogate_record.s"] = _mean(
        [spans[i].duration for i in by_name["signal_core.generate_surrogate_record"]])
    segments = by_name["signal_core.segment_record"]
    windowing_s = sum(spans[i].duration for i in segments + by_name[
        "signal_core.normalize_windows"])
    m["signal_core.windowing.ms"] = 1e3 * windowing_s / len(segments) if segments else 0.0
    m["signal_core.assemble_scenario.ms"] = _mean(dur_ms(by_name["signal_core.assemble_scenario"]))

    m["gan_eval.creativity.s"] = _mean(
        [spans[i].duration for i in by_name["gan_eval.creativity_scores"]])
    m["gan_eval.diversity.s"] = _mean(
        [spans[i].duration for i in by_name["gan_eval.diversity_scores"]])
    m["gan_eval.ssim.calls"] = tracer.counts["gan_eval.ssim"] * per_op
    m["gan_eval.fid.calls"] = len(by_name["gan_eval.fid"]) * per_op

    m["classifier.train.s"] = per_op * sum(
        spans[i].duration for i in by_name["classifier.train_classifier"])
    m["classifier.step.ms_p50"] = 1e3 * _quantile(_phase_intervals(
        spans, children, "classifier.train_classifier",
        is_("layers.forward", net="classifier", mode="train"),
        is_("optim.adamw_step", net="classifier")), 0.5)
    m["classifier.predict.ms"] = _mean(dur_ms(by_name["classifier.predict"]))

    m["metrics.self_ms"] = 1e3 * per_op * sum(
        selfs[i] for name in ("metrics.mae", "metrics.classification_accuracy",
                              "metrics.average_precision") for i in by_name[name])
    m["cli.run_scenarios.self_s"] = _mean([selfs[i] for i in by_name["cli.cmd_run_scenarios"]])
    m["cli.eval_gan.self_s"] = _mean([selfs[i] for i in by_name["cli.cmd_eval_gan"]])
    return m
