#!/usr/bin/env python3
"""Benchmark of the conceptdistil pipeline.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run sets its inputs up from ``--seed`` at least three times and for
at least a second (``setup_s`` is the median), then repeats passes of the
workload's timed section, one client in a closed loop, until
``--seconds`` have elapsed. Every pass is checked for correctness and
must reproduce the first pass's digests. A fixed reference kernel
(reference.py) runs before every set-up and every pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, timings
as medians over the run's set-ups and passes, each scaled to the
reference speed by the kernel runs on either side of it; the unscaled
medians are printed as ``figure`` lines.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: per-pass medians of call counts and self/total times
of each wrapped function (see spans.py), exact counts, source sizes and
the tracing overhead. Traced and untraced passes must give the same
digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
record the environment, the digests and workload-specific figures. The
exit code is 1 when any check fails and 2 when the sources are missing.
``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that the emitted metric names and units match BENCHMARK.json.
``sweep`` runs by hand and in the smoke run but is not declared in
BENCHMARK.json; see README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S have been spent
SETUP_MIN_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fidelity": "ratio",
    "concept_auc": "ratio",
}

# per-layer metrics besides the span metrics of spans.TARGETS
DERIVED_UNITS = {
    "training.steps": "count",
    "training.step_ms": "ms",
    "nn.forward.train_calls_per_step": "1/step",
    "nn.backward.calls_per_step": "1/step",
    "nn.optimizer_step.calls_per_step": "1/step",
    "teachers.tree_nodes": "count",
    "data.csv_bytes": "bytes",
    "hpo.work_item_bytes": "bytes",
    "hpo.trials_failed": "count",
}
SOURCE_MODULES = ("nn", "model", "training", "teachers", "blackbox", "data", "metrics", "hpo", "cli", "errors")


def layer_units() -> dict[str, str]:
    units = {}
    for name, _, _ in spans.TARGETS:
        units |= {f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.total_s": "s"}
    units |= DERIVED_UNITS
    units |= {f"{m}.src_lines": "lines" for m in SOURCE_MODULES}
    units |= {"src_lines": "lines", "trace_overhead_s": "s", "error_rate": "ratio"}
    return units


def source_lines() -> dict[str, int]:
    pkg = SRC / "conceptdistil"
    count = lambda p: len(p.read_text(encoding="utf-8").splitlines())
    out = {f"{m}.src_lines": count(pkg / f"{m}.py") if (pkg / f"{m}.py").exists() else 0
           for m in SOURCE_MODULES}
    out["src_lines"] = sum(count(p) for p in pkg.rglob("*.py"))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, size):
    """Run one workload; returns (result line dict, log lines)."""
    import reference  # imports numpy, so only after main() pinned the threads
    import workloads  # imports conceptdistil, so only after main() put src/ on sys.path

    wl = workloads.WORKLOADS[name]
    log = []
    setup_times = []
    kernel_times = []
    passes, traced = [], []
    ran = []  # passes and traced passes in the order they ran
    failures = []
    attempted = 0
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build")
    rec = spans.Recorder() if trace else None
    try:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            state = None  # release the previous inputs before building new ones
            kernel_times.append(reference.kernel_s())
            t0 = time.perf_counter()
            state = wl.setup(seed, size, workdir)
            setup_times.append(time.perf_counter() - t0)

        # with tracing, untraced and traced passes alternate, so drift in
        # machine speed reaches both and their difference is the overhead
        start = time.perf_counter()
        while True:
            recorder = rec if trace and len(passes) > len(traced) else None
            sink = traced if recorder else passes
            mark = recorder.mark() if recorder else 0
            kernel_times.append(reference.kernel_s())
            if recorder:
                recorder.install()
            t0 = time.perf_counter()
            try:
                r = wl.run_pass(state, recorder)
            except Exception:  # a pass that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failures.append(f"pass {len(passes) + len(traced)} raised")
                break
            finally:
                if recorder:
                    recorder.uninstall()
            r.wall_s = time.perf_counter() - t0
            if recorder:
                r.layer |= recorder.summary(mark)
            attempted += r.ops
            failures.extend(r.failures)
            if passes and r.digests != passes[0].digests:
                drift = sorted(k for k in r.digests if r.digests[k] != passes[0].digests.get(k))
                attempted += 1
                failures.append(f"pass {len(passes) + len(traced)} digests differ: {drift}")
            sink.append(r)
            ran.append(r)
            if failures or (time.perf_counter() - start >= seconds and len(traced) >= trace):
                break
        kernel_times.append(reference.kernel_s())  # so every pass has a kernel run on each side
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # set-ups, then passes in the order they ran, each between two kernel runs
    paces = [2 * reference.REF_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]
    for r, pace in zip(ran, paces[len(setup_times):]):
        r.pace = pace

    timed = passes + traced
    if timed:
        log.append("fingerprint " + json.dumps(timed[0].digests, sort_keys=True))
    log.append("pass_wall_s " + json.dumps({"untraced": [p.wall_s for p in passes],
                                            "traced": [p.wall_s for p in traced]}))
    log.append("kernel_s " + json.dumps({"setup": kernel_times[:len(setup_times)],
                                         "passes": kernel_times[len(setup_times):]}))
    error_rate = len(failures) / max(attempted, 1)
    for msg in failures[:20]:
        log.append(f"FAILED {msg}")
    if trace:
        units = layer_units()
        values = dict.fromkeys(units, 0)
        for key in values.keys() & set().union(*(p.layer for p in traced)):
            values[key] = median([p.layer.get(key, 0) for p in traced])
        steps = values["training.steps"]
        values["training.step_ms"] = values["training.train.total_s"] * 1e3 / steps if steps else 0.0
        values["hpo.work_item_bytes"] = median(rec.item_bytes)
        values |= source_lines()
        if traced:
            values["trace_overhead_s"] = median([p.wall_s for p in traced]) - median([p.wall_s for p in passes])
        values["error_rate"] = error_rate
    else:
        units = E2E_UNITS
        raw = {
            "setup_s": median(setup_times),
            "wall_s": median([p.wall_s for p in passes]),
            "rows_per_s": median([p.rows / p.main_s for p in passes]),
        }
        log.append(f"figure reference_kernel_s {median(kernel_times)!r} s (median of {len(kernel_times)}, "
                   f"reference {reference.REF_S} s)")
        log += [f"figure {name}.{k}_unscaled {v!r}" for k, v in raw.items()]
        # a slowed machine slows the kernel runs next to a pass too, so
        # scaling each pass by them cancels the slowdown
        values = {
            "setup_s": median([t * pace for t, pace in zip(setup_times, paces)]),
            "wall_s": median([p.wall_s * p.pace for p in passes]),
            "rows_per_s": median([p.rows / p.main_s / p.pace for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fidelity": median([p.fidelity for p in passes]),
            "concept_auc": median([p.concept_auc for p in passes]),
        }
        figures = {}
        for p in passes:
            for k, v in p.figures.items():
                figures.setdefault(k, []).append(v)
        for k, v in sorted(figures.items()):
            log.append(f"figure {name}.{k} {median(v)!r} (median of {len(v)} passes)")
        lat = sorted(x for p in passes for x in p.latencies_ms)
        if lat:
            p99 = lat[math.ceil(0.99 * len(lat)) - 1]  # nearest rank
            log.append(f"figure {name}.explain_1row_p50_ms {median(lat)!r} ms")
            log.append(f"figure {name}.explain_1row_p99_ms {p99!r} ms ({len(lat)} samples)")
        log.append(f"figure {name}.error_rate {error_rate!r} ({len(failures)} of {attempted})")
        log.append(f"figure {name}.passes {len(passes)}")
        log += [f"metric {k} {values[k]!r} {u}" for k, u in units.items()]
    ok = not failures and bool(passes) and all(math.isfinite(v) for v in values.values())
    result = {
        "correct": ok,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, log


def smoke() -> int:
    """Tiny run of every workload; emitted names must match BENCHMARK.json."""
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in declared["workloads"]]
    if not set(names) <= workloads.WORKLOADS.keys():
        problems.append(f"declared workloads {names} are not all in {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            result, log = run_workload(name, 1, 0.0, trace, workloads.SMOKE)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            status = "ok"
            if got != want:
                status = "MISMATCH"
                problems.append(f"{name} trace {trace}: missing {sorted(want.keys() - got.keys())}, "
                                f"undeclared {sorted(got.keys() - want.keys())}, "
                                f"unit changes {sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")
            if not result["correct"]:
                status = "FAILED"
                problems.append(f"{name} trace {trace}: " + "; ".join(l for l in log if l.startswith("FAILED")))
            print(f"smoke {name} trace {trace}: {status}", flush=True)
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke " + ("ok" if not problems else "failed"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    for v in THREAD_VARS:  # before numpy is imported
        os.environ[v] = "1"
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload, names checked")
    args = p.parse_args(argv)

    if not (SRC / "conceptdistil" / "__init__.py").is_file():
        print(f"perfbench: no conceptdistil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import conceptdistil
    if not Path(conceptdistil.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: conceptdistil imported from {conceptdistil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    print("env " + json.dumps(environment(np), sort_keys=True), flush=True)
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, log = run_workload(args.workload, args.seed, args.seconds, args.trace, workloads.FULL)
    for line in log:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
