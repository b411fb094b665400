"""lightband benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sig_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's own src/, never from an installed copy, so each commit measures
its own code. With --trace 0 the run times the workload untraced and prints
the end-to-end metrics. Throughput is bounded as frames per run of a fixed
yardstick sampled during each pass (see yardstick.py), and set-up time as
seconds at the yardsticks' nominal speed, because the host's speed drifts;
wall-clock figures are in the report. With --trace 1 the run
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object: correct,
attempted, failed, metrics. The `report` line before it records every
figure, the input properties, the checks and the machine.
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
from pathlib import Path
from time import perf_counter

from yardstick import IMPORT_REF_S, REF_S, Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
EXPECTED_DIGESTS = HERE / "expected_digests.json"

# setup_s is the median of at least SETUP_REPEATS fresh set-ups, and of more
# while they would take under SETUP_BUDGET_S, judged by the first one.
SETUP_REPEATS = 9
SETUP_BUDGET_S = 7.0

# Bounded end-to-end metrics: every workload reports each one.
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_ref", "1/ref"),
    ("accuracy_pct", "%"),
    ("peak_rss_mb", "MB"),
)
# Figures reported beside them, in the report line only.
REPORTED = {
    "sig_batch": (("frames_per_s", "1/s"),),
    "live_stream": (
        ("frames_per_s", "1/s"),
        ("sig_latency_p50_us", "us"),
        ("sig_latency_p99_us", "us"),
        ("nn_latency_p50_us", "us"),
        ("nn_latency_p99_us", "us"),
    ),
    "nn_train": (
        ("frames_per_s", "1/s"),
        ("train_rows_per_s", "1/s"),
        ("predict_rows_per_s", "1/s"),
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPORTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a 3-gesture script and 1 epoch (harness smoke test)")
    return parser.parse_args(argv)


def import_lightband():
    """Import lightband from this checkout's src/ or exit non-zero."""
    package = SRC / "lightband"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no lightband package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lightband

    if Path(lightband.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported lightband from {lightband.__file__}, not {package}")


def fresh_import_seconds(module: str) -> float:
    """Wall time of a new interpreter that imports module and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        info["blas_threads"] = getter()
    return info


def machine_info(load_before) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "note": "wall-clock timings on a shared sandbox",
    }


def expected_digests(size: str, seed: int) -> dict:
    if size != "full":
        return {}
    with open(EXPECTED_DIGESTS) as handle:
        return json.load(handle)["seeds"].get(str(seed), {})


def median_of(rows, key) -> float:
    return statistics.median(row[key] for row in rows)


def pass_figures(result, stick) -> dict:
    """One pass's rates, over its time less the yardstick's samples.

    frames_per_ref counts frames per yardstick run: the pass's net time
    divided by the yardstick's mean duration while the pass ran.
    """
    net = stick.net(result.start, result.end)
    row = dict(
        result.figures,
        frames_per_s=result.frames / net,
        frames_per_ref=result.frames * stick.ref(result.start, result.end) / net,
    )
    for name, (count, start, end) in result.rates.items():
        row[name] = count / stick.net(start, end)
    return row


def run_untraced(workload, seconds):
    stick = Yardstick()
    setups, setups_wall, imports, numpy_imports = [], [], [], []

    def set_up():
        """One set-up, in seconds on a host of the yardsticks' nominal speed.

        Each part is measured against a yardstick of its own kind. The fresh
        interpreter importing lightband is timed against one importing numpy,
        run just before and just after it: both are mostly process start,
        dynamic loading and unmarshalling, which the in-process yardstick
        does not track. Building the inputs is timed with the in-process
        yardstick sampling, as a pass is.
        """
        before = fresh_import_seconds("numpy")
        imports.append(fresh_import_seconds("lightband"))
        numpy_imports.append((before + fresh_import_seconds("numpy")) / 2)
        with stick:
            start = perf_counter()
            workload.setup()
            end = perf_counter()
        build = stick.net(start, end) * REF_S / stick.ref(start, end)
        setups.append(imports[-1] * IMPORT_REF_S / numpy_imports[-1] + build)
        setups_wall.append(imports[-1] + end - start)

    started = perf_counter()
    set_up()
    repeats = max(SETUP_REPEATS, int(SETUP_BUDGET_S / (perf_counter() - started)))
    workload.prepare_oracle()
    # No separate warm-up: a slow first pass is one sample the median absorbs.
    # The other set-ups are spread over the run, so that setup_s samples the
    # host at several moments rather than only at the start.
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        start = perf_counter()
        with stick:
            passes.append(workload.run_pass())
        measured += perf_counter() - start
        while len(setups) < repeats and measured >= seconds * len(setups) / repeats:
            set_up()
    while len(setups) < repeats:
        set_up()
    summary = workload.finish()
    rows = [pass_figures(p, stick) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "frames_per_ref": median_of(rows, "frames_per_ref"),
        "accuracy_pct": summary["accuracy_pct"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, _ in REPORTED[workload.name]:
        metrics[name] = median_of(rows, name)
    details = {
        "passes": len(passes),
        "pass_s": [round(p.seconds, 4) for p in passes],
        "frames_per_ref_passes": [round(row["frames_per_ref"], 3) for row in rows],
        "yardstick_ms": 1e3 * statistics.median(stick.durations) if stick.durations else None,
        "yardstick_samples": len(stick.durations),
        "fresh_import_s": statistics.median(imports),
        "fresh_numpy_import_s": statistics.median(numpy_imports),
        "setup_wall_s": statistics.median(setups_wall),
        "setup_runs_wall_s": [round(s, 4) for s in setups_wall],
        "setup_runs_s": [round(s, 4) for s in setups],
        **summary.get("extra", {}),
    }
    return passes, summary, metrics, details


def run_traced(workload, seconds, spans_path):
    from tracer import LAYER_METRICS, Tracer

    workload.setup()
    workload.prepare_oracle()
    done = []
    untraced, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        result = workload.run_pass()
        untraced.append(result.seconds)
        done.append(result)
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            result = workload.run_pass()
        finally:
            uninstall()
        traced.append(result.seconds)
        done.append(result)
        layers.append(tracer.layer_metrics())
    tracer.write_spans(spans_path, trace_id=f"{workload.name}-seed{workload.seed}-pass{len(done) - 1}")
    summary = workload.finish()
    metrics = {name: median_of(layers, name) for name, _ in LAYER_METRICS if name != "trace.overhead_pct"}
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(untraced) - 1)
    details = {
        "untraced_pass_s": [round(s, 4) for s in untraced],
        "traced_pass_s": [round(s, 4) for s in traced],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "wait_s": "not measured: single-threaded, no queues, nothing waits",
    }
    return done, summary, metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lightband()
    from workloads import SIZES, WORKLOADS

    load_before = os.getloadavg()
    size = SIZES[args.size]
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](
        args.seed, size, str(workdir), expected_digests(args.size, args.seed)
    )
    try:
        if args.trace:
            from tracer import LAYER_METRICS as units

            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            passes, summary, values, details = run_traced(workload, args.seconds, spans)
        else:
            units = END_TO_END + REPORTED[args.workload]
            passes, summary, values, details = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + summary["failed"])
    correct = failed == 0 and not workload.problems
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "inputs": summary["inputs"],
        "details": details,
        "digests": workload.digests(),
        "problems": workload.problems,
        "machine": machine_info(load_before),
    }
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} fraction ({failed}/{attempted})")
    for problem in workload.problems:
        print(f"check failed: {problem}")
    print("report " + json.dumps(report))
    if not args.trace:
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
