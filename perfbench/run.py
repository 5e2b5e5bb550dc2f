"""Benchmark of the vibrogan pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gan-w64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare DIR_A DIR_B

A run sets the workload up five times (the median is ``setup_s``), then
repeats the workload's operation until ``--seconds`` would be exceeded,
and checks every output. With ``--trace 0`` it reports the end-to-end
metrics of ``BENCHMARK.json``. With ``--trace 1`` it traces the set-up and
the operations, between two untraced operations, and reports the
per-layer metrics with the trace overhead. Per-layer metrics of a layer
the workload never calls read 0.

The last line of standard output is the result as one JSON object. The
full result, with the environment record, the per-workload figures and
the numerical drift against ``perfbench/baseline``, goes to
``.perfbench-out/results/<workload>_s<seed>_t<trace>.json``; the spans of
a traced run go to ``.perfbench-out/spans/``. ``--compare`` reads two
such result directories.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5


def _pin_blas_threads():
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    from envinfo import cpu_count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(cpu_count()))


def _import_seconds():
    """Wall time of ``import vibrogan`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import vibrogan; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def _timing(name, values):
    """Median, sample count and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    if not values:
        return {}
    out = {f"{name}_p50": statistics.median(values), f"{name}_n": len(values)}
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(values)
            out[f"{name}_p{pct:g}"] = ordered[min(len(ordered) - 1,
                                                  int(pct / 100.0 * len(ordered)))]
            break
    return out


def _measure(workload, state, seed, seconds, workdir, outcome):
    """Repeat the operation while another one still fits in ``seconds``."""
    samples = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sample = workload.op(state, seed, workdir, outcome)
        sample["op_s"] = time.perf_counter() - t0
        samples.append(sample)
        if time.perf_counter() - began + sample["op_s"] > seconds:
            return samples


def _summaries(workload, samples, setup_s, outcome):
    """End-to-end metrics under BENCHMARK.json's names, and the per-workload
    figures under the names of the workload's own domain."""
    from workloads import GanWorkload
    gen_rates = [r for s in samples for r in s["generate_per_s"] if r is not None]
    evals = [t for s in samples for t in s["eval_gan_s"] if t is not None]
    epochs = [t for s in samples for t in s["epoch_s"]]
    if epochs:
        # GAN: the median epoch is robust to a burst of load that slows one epoch
        rate = samples[0]["epoch_windows"] / statistics.median(epochs)
    else:
        rates = [s["train_windows"] / s["train_s"] for s in samples if s["train_windows"]]
        rate = statistics.median(rates) if rates else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(setup_s),
        "train_windows_per_s": rate,
        "eval_gan_s": statistics.median(evals) if evals else 0.0,
        "generate_windows_per_s": statistics.median(gen_rates) if gen_rates else 0.0,
        "peak_rss_mb": peak_mb,
    }
    named = {"setup_s": e2e["setup_s"], "peak_rss_mb": peak_mb,
             "generate_windows_per_s": e2e["generate_windows_per_s"],
             "error_rate": outcome.failed / max(outcome.attempted, 1),
             "operations": len(samples)}
    named.update(_timing("eval_gan_s", evals))
    if isinstance(workload, GanWorkload):
        named["critic_windows_per_s"] = e2e["train_windows_per_s"]
        named.update(_timing("gan_epoch_s", epochs))
    else:
        named.update(_timing("scenario_suite_s",
                             [s["train_s"] for s in samples if s["train_windows"]]))
    return e2e, named


def _drift(workload, seed, fixed):
    """Distance of this run's fixed-seed outputs from the committed baseline."""
    path = os.path.join(HERE, "baseline", f"{workload}_s{seed}_t0.json")
    if fixed is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        ref = json.load(fh).get("fixed_output") or {}
    out = {}
    if "first_epoch_critic_loss" in fixed and "first_epoch_critic_loss" in ref:
        a, b = fixed["first_epoch_critic_loss"], ref["first_epoch_critic_loss"]
        out["first_epoch_critic_loss_abs"] = abs(a - b)
        out["first_epoch_critic_loss_rel"] = abs(a - b) / abs(b) if b else None
    if "scenario0_scores" in fixed and "scenario0_scores" in ref:
        out["scenario0_scores_max_abs"] = max(
            abs(a - b) for a, b in zip(fixed["scenario0_scores"], ref["scenario0_scores"]))
    return out


def _select(values, specs, fill):
    """{name: {"value", "unit"}} for every metric BENCHMARK.json lists."""
    out = {}
    for spec in specs:
        value = values.get(spec["name"], fill)
        if value is None:
            raise KeyError(f"benchmark produced no value for {spec['name']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def run(args):
    if not os.path.isfile(os.path.join(SRC, "vibrogan", "__init__.py")):
        print(f"perfbench: no vibrogan package under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, SRC)
    import vibrogan
    if not os.path.abspath(vibrogan.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported vibrogan from {vibrogan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from envinfo import environment
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outcome = Outcome()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            imported = _import_seconds()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_s.append(imported + time.perf_counter() - t0)
        if args.trace:
            # untraced operations before and after the traced ones, so the
            # reference is not only a process's first operation
            untraced = _measure(workload, state, args.seed, 0.0, workdir, outcome)
            tracer = Tracer()
            with tracer.installed():
                traced_state = workload.setup(args.seed, workdir)
                samples = _measure(workload, traced_state, args.seed, args.seconds, workdir,
                                   outcome)
            untraced += _measure(workload, state, args.seed, 0.0, workdir, outcome)
            reference = statistics.median(s["op_s"] for s in untraced)
            values = layer_metrics(tracer, len(samples))
            traced = statistics.median(s["op_s"] for s in samples)
            values["trace.overhead_s"] = traced - reference
            values["trace.overhead_pct"] = 100.0 * (traced - reference) / reference
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            tracer.write(os.path.join(OUT, "spans", f"{args.workload}_s{args.seed}.jsonl"))
            metrics = _select(values, spec["per_layer"], 0.0)
            _, named = _summaries(workload, samples, setup_s, outcome)
        else:
            samples = _measure(workload, state, args.seed, args.seconds, workdir, outcome)
            values, named = _summaries(workload, samples, setup_s, outcome)
            metrics = _select(values, spec["end_to_end"], None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fixed = samples[0]["fixed_output"]
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "failures": outcome.failures,
              "workload_metrics": named, "fixed_output": fixed,
              "drift": _drift(args.workload, args.seed, fixed),
              "env": environment(ROOT, SRC, args.seed)}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}_s{args.seed}_t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(samples)} operations, "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    for name, value in named.items():
        print(f"  {name} = {value:.6g}")
    print(f"  drift vs baseline: {record['drift']}")
    env = record["env"]
    print(f"  env: {env['cpu_count']} cpus, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} threads={env['blas_threads']}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    sys.path.insert(0, HERE)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two result directories instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
