"""Seeded end-to-end benchmark of mvloc, with per-layer timings from a trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root. Workloads: localize-k150, localize-1px,
studies (see perfbench/README.md). The process pins BLAS to one thread,
imports mvloc from ./src, sets the workload up several times (a fresh
interpreter's ``import mvloc`` plus writing the seeded inputs), then runs
units of work round-robin (one query's ``mvloc localize``, or one round of
the studies) while the next one fits in ``--seconds``.

While a unit runs, ``speed.sampling`` times a fixed micro-computation ten
times a second. Each unit's time is also reported over the mean sample
(``run_rel``): the shared machine's speed swings for minutes at a time, and
the ratio cancels most of them.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; the
only wrapper installed then times each query (or k-sweep trial). With
``--trace 1`` rounds alternate between untraced and traced, and it reports
the per-layer metrics: per set-up plus unit, from the traced units.

Every output file is hashed. Repeats of a unit must write the same bytes,
traced or not, and set-ups the same inputs, else ``correct`` is false. The full
record (digests, versions, side metrics) goes to
perfbench/out/results/<workload>-seed<N>-trace<T>.json; the last stdout
line is the JSON summary.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_mvloc():
    """Import mvloc from this checkout's src, single-threaded."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import mvloc
    except ImportError as exc:
        sys.exit(f"error: cannot import mvloc from {SRC}: {exc}")
    if not Path(mvloc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported mvloc from {mvloc.__file__}, not from {SRC}")
    return mvloc


def declared_metrics(trace):
    """(name, unit) pairs this mode must report, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def tree_digest(root):
    """sha256 over every file under ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    root = Path(root)
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(mvloc, numpy):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {
        "backend": mvloc._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
        "source_sha256": tree_digest(SRC / "mvloc"),
    }


def timed_setup(workload, root, seed):
    """One set-up: a fresh interpreter importing mvloc, then the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mvloc"], env=env, check=True, timeout=120)
    inputs = workload.setup(root, seed)
    return inputs, time.perf_counter() - start


# ``unit`` indexes the workload's units; ``seconds`` is the unit's time less
# the speed samples' own, and ``sample_s`` the mean speed sample.
Pass = namedtuple("Pass", "unit traced outcome tracer seconds sample_s")


def timed_phase(workload, units, args, work):
    """Run units round-robin, one after another, while the next one fits in
    ``args.seconds``; with --trace 1 every other round is traced."""
    from speed import sampling
    from tracer import TARGETS, Tracer, instrument

    rounds = 2 if args.trace else 1
    passes = []
    longest = 0.0
    began = time.perf_counter()
    while True:
        n = len(passes)
        traced = bool(args.trace) and (n // len(units)) % 2 == 1
        tracer = Tracer()
        out = work / f"pass{n}"
        start = time.perf_counter()
        with sampling() as samples, instrument(
            tracer, TARGETS if traced else (workload.timer,)
        ):
            outcome = workload.run_pass(units[n % len(units)], out, args.seed)
        shutil.rmtree(out, ignore_errors=True)
        seconds = outcome.seconds - samples.in_unit()
        passes.append(Pass(n % len(units), traced, outcome, tracer, seconds, samples.mean()))
        longest = max(longest, time.perf_counter() - start)
        if n + 1 >= rounds * len(units) and time.perf_counter() - began + longest > args.seconds:
            return passes


def per_unit_mean(passes, value):
    """Mean over the workload's units of each unit's mean over its repeats,
    so that a run stopping mid-round weighs every unit alike."""
    repeats = defaultdict(list)
    for p in passes:
        repeats[p.unit].append(value(p))
    return statistics.mean(statistics.mean(v) for v in repeats.values())


def relative(p):
    return p.seconds / p.sample_s


def end_to_end_metrics(workload, passes, setup_times, n_units):
    outcomes = [p.outcome for p in passes]
    items = [x for p in passes for x in workload.item_times(p.tracer, p.outcome)]
    first_round = outcomes[:n_units]
    errors_m = [e for o in first_round for e in o.errors_m]
    errors_deg = [e for o in first_round for e in o.errors_deg]
    attempted = sum(o.attempted for o in outcomes)
    localized = sum(o.localized for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # Means, not medians: on a shared machine the CPU speed swings
        # between levels within seconds, and a median of a few units jumps
        # from one level to the other.
        "run_s": (per_unit_mean(passes, lambda p: p.seconds), "s"),
        "run_rel": (per_unit_mean(passes, relative), "ratio"),
        "sample_ms": (1e3 * statistics.mean(p.sample_s for p in passes), "ms"),
        "query_s_p50": (statistics.median(items) if items else 0.0, "s"),
        "query_samples": (len(items), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(o.failed for o in outcomes) / attempted, "ratio"),
        "refined_frac": (sum(o.refined for o in outcomes) / localized if localized else None, "ratio"),
        "error_m_p50": (statistics.median(errors_m) if errors_m else None, "m"),
        "error_deg_p50": (statistics.median(errors_deg) if errors_deg else None, "deg"),
    }


def traced_metrics(workload, passes, setup_tracer):
    """Per-layer metrics; exits if a layer the workload must call was not."""
    from tracer import layer_metrics

    metrics, uncalled = layer_metrics(setup_tracer, [p.tracer for p in passes if p.traced])
    missing = sorted(uncalled - workload.idle)
    if missing:
        sys.exit(f"error: wrapped layers recorded no calls (renamed or moved?): {missing}")
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    # With the speed samples left in, like the spans, so that a layer's
    # share of it is a share of one clock.
    metrics["traced.run_s"] = (per_unit_mean(traced, lambda p: p.outcome.seconds), "s")
    metrics["trace_overhead_frac"] = (
        per_unit_mean(traced, relative) / per_unit_mean(untraced, relative) - 1.0, "ratio"
    )
    return metrics


def summary_metrics(metrics, declared):
    """The metrics BENCHMARK.json declares for this mode, in its units."""
    summary = {}
    for name, unit in declared:
        if name not in metrics:
            sys.exit(f"error: BENCHMARK.json declares {name!r}, which this run does not measure")
        value, have = metrics[name]
        if have != unit:
            sys.exit(f"error: {name} is measured in {have}, BENCHMARK.json says {unit}")
        summary[name] = {"value": value, "unit": unit}
    return summary


def main(argv=None):
    args = parse_args(argv)
    mvloc = load_mvloc()
    declared = declared_metrics(args.trace)

    import numpy

    from tracer import TARGETS, Tracer, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "out" / stem
    results_dir = BENCH / "out" / "results"
    shutil.rmtree(work, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    setup_tracer = Tracer()
    setup_times = []
    input_digests = []
    try:
        if args.trace:
            with instrument(setup_tracer, TARGETS):
                units = workload.setup(work / "setup0", args.seed)
            input_digests.append(tree_digest(work / "setup0"))
        else:
            for rep in range(SETUP_REPS):
                units, seconds = timed_setup(workload, work / f"setup{rep}", args.seed)
                setup_times.append(seconds)
                input_digests.append(tree_digest(work / f"setup{rep}"))
        passes = timed_phase(workload, units, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [p.outcome for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    output_digests = {}
    consistent = all(d == input_digests[0] for d in input_digests)
    for o in outcomes:
        for key, value in o.digests.items():
            consistent &= output_digests.setdefault(key, value) == value
    correct = consistent and all(o.well_formed for o in outcomes)
    if args.trace:
        metrics = traced_metrics(workload, passes, setup_tracer)
    else:
        metrics = end_to_end_metrics(workload, passes, setup_times, len(units))
    summary = summary_metrics(metrics, declared)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(mvloc, numpy),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "setup_s_reps": setup_times,
        "digests": {"inputs": input_digests[0], "outputs": output_digests},
        "passes": [
            {
                "unit": p.unit,
                "traced": p.traced,
                "seconds": p.seconds,
                "sample_s": p.sample_s,
                "failed": p.outcome.failed,
            }
            for p in passes
        ],
        "notes": sorted({note for o in outcomes for note in o.notes}),
    }
    with open(results_dir / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as handle:
            phases = [("setup", setup_tracer)] + [
                (f"pass{i}", p.tracer) for i, p in enumerate(passes) if p.traced
            ]
            for phase, tracer in phases:
                for span in tracer.spans:
                    handle.write(json.dumps([phase, *span]) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} backend={record['stamp']['backend']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(f"  correct = {correct}; record in {results_dir / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
