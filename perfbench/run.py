"""emscat benchmark: one workload per process, closed loop, correctness-gated.

Usage (from the repository root):

    python3 perfbench/run.py --workload one-body --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One caller runs the workload's cases one after another, each solve waiting
for the previous one, and repeats whole passes until --seconds is used up.
The last stdout line is the JSON result; the line before it is a JSON record
of the run environment, pass count and fail ratio.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: BLAS threads for every run; fixed so that runs stay comparable.  One
#: thread leaves the second core of a 2-core box to the interpreter and the
#: system, which keeps the dense matvec timings steadier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Child processes timed for setup_s; the median is reported.  Two run
#: before the passes, one after each pass, and the rest after the last pass,
#: so that the samples span the run like the timings they sit beside.
SETUP_REPEATS = {"full": 6, "tiny": 1}

#: Extra small-case runs per untraced pass, spread evenly after its cases.
SMALL_CASE_EXTRA_PER_PASS = 5

END_TO_END = {"wall_s": "s", "small_case_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def pin_environment() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the BLAS thread count was pinned")
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = threads


def import_emscat():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "emscat" / "__init__.py").is_file():
        raise ImportError(f"no emscat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import emscat

    if Path(emscat.__file__).resolve().parent != (SRC / "emscat").resolve():
        raise ImportError(f"emscat imported from {emscat.__file__}, not from {SRC}")
    return emscat


def warm_up(emscat) -> None:
    """One tiny one-body and one tiny many-body solve."""
    wave = emscat.default_wave()
    emscat.solve_current(emscat.mesh_sphere(1e-9, 4), wave)
    emscat.solve_effective_field(
        emscat.lattice_layout(8, 1e-7, 1e-9), wave, emscat.gamma_sphere_analytic())


def measure_setup() -> float:
    """Wall seconds of a fresh process that imports emscat and warms up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment_record(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "emscat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
    }


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100)[q - 1]


def run_case(case, tracer, pass_no, failures) -> float:
    """Time one case, then check its outputs; returns its seconds."""
    if tracer is not None:
        tracer.case, tracer.pass_no = case.id, pass_no
    start = time.perf_counter()
    span = tracer.open("bench.case") if tracer is not None else None
    try:
        out = case.run()
    except Exception as exc:  # a failed case is counted, not fatal
        out, broken = None, [f"{type(exc).__name__}: {exc}"]
    else:
        broken = None
    finally:
        if span is not None:
            tracer.close(span)
        elapsed = time.perf_counter() - start
    if broken is None:
        try:
            broken = case.check(out)
        except Exception as exc:  # unreadable outputs fail the case too
            broken = [f"check raised {type(exc).__name__}: {exc}"]
    if broken:
        failures.append((pass_no, case.id, broken))
        print(f"FAILED pass {pass_no} case {case.id}: {'; '.join(broken)}", file=sys.stderr)
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload in this process and return the result record.

    Untraced: every pass is timed with the library unmodified.  Traced:
    passes alternate untraced / traced, so the record carries both wall
    times and the tracing overhead besides the per-layer metrics.
    """
    import emscat
    import tracing
    import workloads

    setup_times = [measure_setup() for _ in range(min(2, SETUP_REPEATS[size]))]
    warm_up(emscat)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        cases = workloads.build_cases(workload, seed, size, Path(tmp))
        tracer = tracing.Tracer() if trace else None
        failures: list = []
        small = next(c for c in cases if c.id == workloads.SMALL_CASE[size][workload])
        small_extra = []
        extra_per_case = math.ceil(SMALL_CASE_EXTRA_PER_PASS / len(cases))
        passes = []  # per pass: (traced, {case id: seconds})
        start = time.perf_counter()
        while True:
            pass_no = len(passes)
            traced = trace and pass_no % 2 == 1
            times = {}
            if traced:
                tracer.install()
            try:
                for case in cases:
                    times[case.id] = run_case(case, tracer if traced else None,
                                              pass_no, failures)
                    # Extra small-case samples, spread over the whole run:
                    # the box's speed drifts over seconds, so a burst of
                    # repeats would sample only one moment of it.
                    for _ in range(0 if traced else extra_per_case):
                        small_extra.append(run_case(small, None, pass_no, failures))
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, times))
            if len(setup_times) < SETUP_REPEATS[size]:
                setup_times.append(measure_setup())
            elapsed = time.perf_counter() - start
            # Stop when another pass would end nearer the far side of the
            # budget; traced runs need at least one pass of each kind.
            if elapsed + elapsed / len(passes) / 2 >= seconds and len(passes) > trace:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < SETUP_REPEATS[size]:
        setup_times.append(measure_setup())
    attempted = len(cases) * len(passes) + len(small_extra)
    untraced = [times for traced, times in passes if not traced]
    small_times = small_extra + [times[small.id] for times in untraced]
    walls = [sum(times.values()) for times in untraced]
    record = {
        "workload": workload,
        "size": size,
        "environment": environment_record(seed),
        "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "case_median_s": {c.id: statistics.median(t[c.id] for t in untraced)
                          for c in cases},
        "wall_s": statistics.median(walls),
        "wall_high_percentile": high_percentile(walls),
        "small_case_s": statistics.median(small_times),
        "small_case_repeats": len(small_times),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    if trace:
        table_ids = workloads.TABLES
        per_pass = {}
        for span in tracer.spans:
            per_pass.setdefault(span.pass_no, []).append(span)
        layer = {}
        for spans in per_pass.values():
            for name, value in tracing.pass_metrics(spans, table_ids).items():
                layer.setdefault(name, []).append(value)
        layer = {name: statistics.median(values) for name, values in layer.items()}
        traced_cases = {no: times for no, (traced, times) in enumerate(passes) if traced}
        layer["trace.wall_s"] = statistics.median(
            sum(times.values()) for times in traced_cases.values())
        layer["trace.untraced_wall_s"] = record["wall_s"]
        layer["trace.overhead_ratio"] = layer["trace.wall_s"] / record["wall_s"]
        layer["trace.overhead_est_s"] = layer["trace.spans"] * tracing.span_cost()
        record["per_layer"] = layer
        record["spans"] = [s.to_dict() for s in tracer.spans]
        record["traced_case_s"] = traced_cases
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The contract's final line: end-to-end metrics, or per-layer ones."""
    import tracing

    if trace:
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def write_spans(record: dict, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{record['workload']}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(record["spans"], fh)
    return path


def run_all(args) -> int:
    """Each workload in a fresh process; prints one summary row per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(json.dumps(summary))
        row = [f"{workload:10s}", f"fail_ratio={summary['fail_ratio']:.3g}",
               f"passes={summary['passes']}"]
        row += [f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        print("  ".join(row))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["one-body", "lattice", "scatter",
                                               "reproduce", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(BENCH_DIR))
    try:
        emscat = import_emscat()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        warm_up(emscat)
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        record["spans_file"] = str(write_spans(record, args.seed).relative_to(ROOT))
    summary = {k: v for k, v in record.items()
               if k not in ("spans", "per_layer", "traced_case_s")}
    print(json.dumps(summary))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
