"""Self-test of the benchmark at tiny sizes (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced run at the "tiny"
sizes and checks that every metric named in BENCHMARK.json is emitted with
its unit, that no case fails, and that the traced spans nest: children lie
inside their parent, self times are >= 0, and each top-level span lies within
its case's measured wall time.  It then checks that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 7
#: Per-span slack for float rounding of perf_counter differences.
EPS = 1e-9

#: Units written out by hand, so that a wrong unit in BENCHMARK.json and the
#: same wrong unit in the emitted metrics cannot agree with each other.
KNOWN_UNITS = {
    "wall_s": "s", "small_case_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
    "geometry.mesh_s": "s", "kernels.pairs": "count", "one_body.operator_mb": "MiB",
    "one_body.matvec_gbps": "GB/s", "linalg.gmres_iters": "count",
    "trace.overhead_ratio": "ratio", "trace.overhead_est_s": "s",
    **{f"cli.table_s.{table}": "s" for table in (
        "q-sphere", "e-sphere", "e-ellipsoid", "e-cube", "sweep-1386", "many-27", "many-1000")},
}


def check_spans(record: dict, problems: list[str]) -> None:
    spans = {s["id"]: s for s in record["spans"]}
    child_time = dict.fromkeys(spans, 0.0)
    for s in spans.values():
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            if s["name"] != "bench.case":
                problems.append(f"top-level span {s['name']} is not a case span")
            case_s = record["traced_case_s"][s["pass"]][s["case"]]
            if s["end"] - s["start"] > case_s + EPS:
                problems.append(f"case span {s['case']} longer than its wall time")
            continue
        parent = spans[s["parent"]]
        child_time[parent["id"]] += s["end"] - s["start"]
        if not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            problems.append(f"span {s['name']} outside its parent {parent['name']}")
        if (s["case"], s["pass"]) != (parent["case"], parent["pass"]):
            problems.append(f"span {s['name']} has another case than its parent")
    for s in spans.values():
        if s["end"] - s["start"] - child_time[s["id"]] < -EPS:
            problems.append(f"span {s['id']} {s['name']} has negative self time")
    names = {s["name"] for s in spans.values()}
    if len(names) < 3:
        problems.append(f"too few span kinds recorded: {sorted(names)}")


def check_metrics(line: dict, expected: dict[str, str], positive: bool,
                  problems: list[str]) -> None:
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, unit {wrong}")
    for name, metric in line["metrics"].items():
        value = metric["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            problems.append(f"metric {name} = {value!r}")
        elif positive and value == 0:
            problems.append(f"end-to-end metric {name} is 0")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        problems.append(f"correct={line['correct']} failed={line['failed']} "
                        f"attempted={line['attempted']}")


def check_bare_directory(problems: list[str]) -> None:
    """Without src/ the benchmark must fail fast and print no result."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "one-body",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run.pin_environment()
    run.import_emscat()
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != workloads.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    for name, unit in KNOWN_UNITS.items():
        if {**end_to_end, **per_layer}.get(name) != unit:
            problems.append(f"BENCHMARK.json: {name} should be listed in {unit}")

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            found: list[str] = []
            record = run.run_workload(workload, SEED, 0.05, trace, size="tiny")
            line = run.result_line(record, trace)
            json.dumps(line)
            check_metrics(line, per_layer if trace else end_to_end, not trace, found)
            if trace:
                check_spans(record, found)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in found]
            print(f"{workload} trace={int(trace)}: {'ok' if not found else 'FAILED'}")

    check_bare_directory(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
