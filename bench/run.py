#!/usr/bin/env python3
"""The rfad benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--out RESULT.json]
    python3 bench/run.py --workload all      # every workload, one after another
    python3 bench/run.py --write-benchmark-json
    python3 bench/run.py --workload NAME --record-golden   # default seed only

Runs one closed-loop workload (see ``workloads.py``) from the root of a
checkout for ``--seconds`` seconds, checks every output, and prints the
metrics by name and unit. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, holding the
gated end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``. ``--out`` writes the whole result: provenance, the
named metrics, both metric sets and the failed checks. The traced run
also writes its spans to ``bench/out/spans-<workload>-seed<seed>.csv``.

The program is imported and started from ``src/`` of the checkout; the
benchmark builds nothing and exits with code 2 when ``src/rfad`` is not
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
HOSTSPEED = os.path.join(HERE, "hostspeed.py")

# One client on a small machine: numpy's BLAS and OpenMP pools stay at one
# thread, in this process and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 9          # fresh interpreters per run; set-up time is their median

import hostspeed  # noqa: E402
import layers  # noqa: E402
import registry  # noqa: E402
import spans  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None, None
        return git("rev-parse", "HEAD").stdout.strip(), bool(git("status", "--porcelain").stdout)
    except (OSError, subprocess.SubprocessError):
        return None, None


def measure_setup(env: dict, modules: tuple, cwd: str) -> float:
    """Median time from starting a fresh interpreter until the workload's
    modules are imported and ``load_config()`` has returned. A first,
    uncounted start fills the bytecode cache."""
    code = (f"import time\nimport {', '.join(modules)}\nimport rfad.config\n"
            "rfad.config.load_config()\nprint(repr(time.perf_counter()))")
    times = []
    for n in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if n:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def peak_rss_mb(in_process: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def run_iteration(ctx, workload, i, tracer=None, instrumentation=None):
    """One iteration; an exception fails it and the run goes on."""
    ctx.tracer = tracer
    if tracer is not None:
        instrumentation.install()
        idx = tracer.open("iteration")
    try:
        return workload.iterate(ctx, i)
    except Exception:
        ctx.op(False, f"iteration {i}: {traceback.format_exc(limit=4)}")
        return None
    finally:
        if tracer is not None:
            tracer.close(idx)
            instrumentation.remove()
        ctx.tracer = None


def hostspeed_s(ctx, workload) -> float:
    """One timing of the host-speed kernel (``hostspeed.py``): one pass
    in-process, or a fresh interpreter running it, timed from spawn to exit."""
    if workload.hostspeed == "kernel":
        return hostspeed.kernel_s()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, HOSTSPEED], env=ctx.env, cwd=ctx.workdir,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"host-speed kernel failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def closed_loop(ctx, workload, seconds, trace):
    """A warm-up iteration, then iterations until ``seconds`` have passed,
    with the host-speed kernel timed between each two of them. With
    ``trace``, every second iteration runs traced."""
    run_iteration(ctx, workload, 0)      # fills page and bytecode caches
    hostspeed_s(ctx, workload)           # and those of the host-speed kernel
    tracer = spans.Tracer() if trace else None
    instrumentation = spans.Instrumentation(tracer) if trace else None
    samples, traced = [], []
    i, t0 = 1, time.perf_counter()
    before = hostspeed_s(ctx, workload)
    while True:
        on = trace and i % 2 == 0
        sample = run_iteration(ctx, workload, i, tracer if on else None, instrumentation)
        after = hostspeed_s(ctx, workload)
        if sample is not None:
            sample.hostspeed_s = (before + after) / 2
            (traced if on else samples).append(sample)
        before = after
        i += 1
        if time.perf_counter() - t0 >= seconds and (not trace or i > 2):
            return samples, traced, tracer


def end_to_end(workload, samples, setup_s, ctx):
    """The named metrics of the workload, and the gated ones."""
    latency = statistics.median(s.latency for s in samples)
    named = {"setup_s": setup_s, "latency_s": latency,
             "hostspeed_s": statistics.median(s.hostspeed_s for s in samples)}
    if workload.latency_metric:
        named[workload.latency_metric] = latency
    for metric, kind in workload.rates.items():
        count, seconds = zip(*(s.work[kind] for s in samples))
        named[metric] = statistics.median(c / t for c, t in zip(count, seconds))
    named["error_rate"] = ctx.failed / max(ctx.attempted, 1)
    named["peak_rss_mb"] = peak_rss_mb(workload.in_process)
    gated = {"setup_s": setup_s,
             "latency_rel": statistics.median(s.latency / s.hostspeed_s for s in samples),
             "peak_rss_mb": named["peak_rss_mb"]}
    return named, gated


def probe_layers(owner, ctx):
    """Per-layer metrics from one traced iteration of workload ``owner``."""
    import workloads
    pctx = workloads.Context(owner, ctx.seed, os.path.join(ctx.workdir, f"probe-{owner}"),
                             ctx.env, mc_hands=workloads.PROBE_MC_HANDS)
    os.makedirs(pctx.workdir)
    tracer = spans.Tracer()
    run_iteration(pctx, workloads.WORKLOADS[owner], 0, tracer, spans.Instrumentation(tracer))
    ctx.attempted += pctx.attempted
    ctx.failed += pctx.failed
    ctx.failures.extend(f"probe {owner}: {f}" for f in pctx.failures)
    return tracer, layers.layer_metrics(tracer, 1, pctx.cli_marks, pctx.classified,
                                        pctx.classified_correct)


def per_layer(ctx, tracer, traced, untraced_latency):
    """Per-layer metrics of the traced iterations; those they do not reach
    come from a probe of the workload that owns them."""
    values = layers.layer_metrics(tracer, max(1, len(traced)), ctx.cli_marks,
                                  ctx.classified, ctx.classified_correct)
    missing = [m for m in registry.PER_LAYER
               if m.workload != "all" and values.get(m.name) is None]
    probed = []
    for owner in dict.fromkeys(m.workload for m in missing):
        probe_tracer, probe_values = probe_layers(owner, ctx)
        tracer.merge(probe_tracer.to_json({}), -1)
        for m in missing:
            if m.workload == owner:
                values[m.name] = probe_values.get(m.name)
                probed.append(m.name)
    if traced:
        values["trace.overhead_ratio"] = (
            statistics.median(s.latency for s in traced) / untraced_latency)
    unmeasured = [m.name for m in registry.PER_LAYER if values.get(m.name) is None]
    return ({m.name: float(values.get(m.name) or 0.0) for m in registry.PER_LAYER},
            probed, unmeasured)


def run_workload(args) -> dict:
    import numpy

    import workloads

    name = args.workload
    workload = workloads.WORKLOADS[name]
    load_start = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    golden = None
    if args.seed == registry.DEFAULT_SEED:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        ctx = workloads.Context(name, args.seed, workdir, child_env(), golden=golden,
                                recording=args.record_golden)
        setup_s = measure_setup(ctx.env, workload.setup_modules, workdir)
        samples, traced, tracer = closed_loop(ctx, workload, args.seconds, args.trace)
        if not samples:
            raise RuntimeError(f"no iteration of {name} completed: {ctx.failures[:3]}")
        named, gated = end_to_end(workload, samples, setup_s, ctx)
        layer_values, probed, unmeasured = {}, [], []
        if args.trace:
            layer_values, probed, unmeasured = per_layer(ctx, tracer, traced,
                                                         named["latency_s"])
            tracer.write_csv(os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record_golden:
        with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded golden digests of {len(golden.get(name, {}))} inputs of {name}")

    sha, dirty = git_state()
    return {
        "workload": name,
        "provenance": {
            "git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {var: "1" for var in THREAD_VARS},
            "golden_checked": golden is not None and not args.record_golden,
            "input_sizes": ctx.sizes,
            "iterations": {"untraced": len(samples), "traced": len(traced)},
        },
        "correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
        "failures": ctx.failures, "named": named, "end_to_end": gated,
        "per_layer": layer_values, "per_layer_probed": probed,
        "per_layer_unmeasured": unmeasured,
    }


def print_result(result, trace) -> None:
    print(f"workload {result['workload']}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure.strip()}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    named_units = {m.name: m.unit for m in registry.NAMED}
    for key, value in result["named"].items():
        print(f"  {key:<40} {value:.6g} {named_units[key]}")
    for m in registry.END_TO_END:
        print(f"  {m.name:<40} {result['end_to_end'][m.name]:.6g} {m.unit}  (gated)")
    for m in registry.PER_LAYER if trace else ():
        note = " (probe)" if m.name in result["per_layer_probed"] else ""
        note += " (unmeasured)" if m.name in result["per_layer_unmeasured"] else ""
        print(f"  {m.name:<40} {result['per_layer'][m.name]:.6g} {m.unit}{note}")
    table = registry.PER_LAYER if trace else registry.END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                                  for m in table}}))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in registry.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*registry.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=registry.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the whole result as JSON here")
    parser.add_argument("--record-golden", action="store_true",
                        help="record output digests at the default seed instead of checking")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != registry.DEFAULT_SEED:
        parser.error(f"--record-golden needs --seed {registry.DEFAULT_SEED}")

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(registry.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "rfad", "__init__.py")):
        print(f"rfad sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.environ.update({var: "1" for var in THREAD_VARS})   # before numpy loads
    sys.path.insert(0, SRC)
    import rfad
    if not os.path.realpath(rfad.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"imported rfad from {rfad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print_result(result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
