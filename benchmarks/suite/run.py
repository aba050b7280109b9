"""The repository benchmark: workloads over pricing, the protocol and repricing.

One run measures one workload::

    python3 benchmarks/suite/run.py --workload price-isp-400 --seed 0 --seconds 10 --trace 0

and prints every end-to-end metric by name with its unit (``--trace 1``:
every per-layer metric), then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` it runs every workload untraced and traced and writes
the records, with input fingerprints and host facts, to ``--out``::

    python3 benchmarks/suite/run.py --seed 0 --out results.json
    python3 benchmarks/suite/run.py compare --base a1.json a2.json --head b1.json b2.json

Protocol: this process only schedules and aggregates.  The measuring
happens in fresh child processes (``child.py``), one at a time and
never concurrently, so peak RSS belongs to the workload alone.  An
untimed warm-up child runs the workload at toy size first, so bytecode
and the page cache are warm.  BLAS/OpenMP thread counts are capped at
the number of usable CPUs.  A run makes passes over the workload's
children until ``--seconds`` is spent (at least one pass) and reports
the median over the children.  A traced run pairs every traced child
with an untraced one on the same instances, which gives the tracing
overhead.

Metric names, units and bounds are read from ``BENCHMARK.json`` at the
repository root; this file imports nothing from the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
TRACE_DIR = ROOT / ".bench_build" / "suite" / "traces"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150
COVERAGE_FLOOR = 0.95


class BenchError(RuntimeError):
    """A child failed to run; the benchmark prints no result."""


def load_declarations() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    """The environment with every thread pool capped at the usable CPUs."""
    env = dict(os.environ)
    cap = usable_cpus()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def run_child(spec: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {spec} timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"child {spec} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values: Sequence[float]) -> float:
    """The 90th percentile, interpolated within the samples (a child of
    a whole-call workload has only a few)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    toy: bool = False,
    declarations: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Measure one workload; returns its record (metrics, counts, inputs)."""
    declarations = declarations or load_declarations()
    env = child_env()
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "index": 0, "toy": True, "trace": None}
    count = 1 if toy else run_child(spec, env)["children"]

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    measuring = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for index in range(count):
            spec = {"workload": workload, "seed": seed, "index": index, "toy": toy, "trace": None}
            untraced.append(run_child(spec, env))
            if trace:
                spec["trace"] = str(TRACE_DIR / f"{workload}-{index}.jsonl")
                traced.append(run_child(spec, env))
        now = time.perf_counter()
        if now - measuring + (now - pass_started) > seconds:
            break

    children = untraced + traced
    failures = [f"{key}: {reason}" for child in children for key, reason in child["failed"].items()]
    instances = [instance for child in untraced[:count] for instance in child["instances"]]
    digest = hashlib.sha256(f"{workload}:{toy}".encode())
    for instance in instances:
        digest.update(instance["fingerprint"].encode())

    if trace:
        values = _layer_values(traced, untraced, declarations)
        declared = declarations["per_layer"]
    else:
        values = _end_to_end_values(untraced)
        declared = declarations["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload} produced no value for {missing}")
    counts = {
        key: statistics.median([child["counts"][key] for child in untraced])
        for key in sorted(untraced[0]["counts"])
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "toy": toy,
        "fingerprint": digest.hexdigest(),
        "instances": instances,
        "children": len(children),
        "correct": not failures,
        "attempted": sum(child["attempted"] for child in children),
        "failed": len(failures),
        "failures": failures[:20],
        "counts": counts,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def _end_to_end_values(children: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every metric is the median over the run's children of that
    child's own value, so one child caught by a slow spell of the host
    moves none of them."""

    def across(metric: Any) -> float:
        return statistics.median([metric(child) for child in children])

    def latencies_ms(child: Dict[str, Any]) -> List[float]:
        return [s * 1000.0 for s in child["latencies_s"]]

    return {
        "wall_s": across(lambda child: child["wall_s"]),
        "setup_s": across(lambda child: child["setup_s"]),
        "peak_rss_mb": across(lambda child: child["peak_rss_mb"]),
        "event_p50_ms": across(lambda child: statistics.median(latencies_ms(child))),
        "event_p90_ms": across(lambda child: _p90(latencies_ms(child))),
    }


def _layer_values(
    traced: List[Dict[str, Any]],
    untraced: List[Dict[str, Any]],
    declarations: Dict[str, Any],
) -> Dict[str, float]:
    """Mean over traced children of every declared per-layer metric, so
    the layer times still add up to the mean traced wall; a layer the
    workload never entered reads 0.  The overhead compares the traced
    children with their untraced twins."""
    values = {
        m["name"]: statistics.fmean([child["layers"].get(m["name"], 0) for child in traced])
        for m in declarations["per_layer"]
    }
    values["trace.overhead_frac"] = (
        sum(child["wall_s"] for child in traced) / sum(child["wall_s"] for child in untraced)
        - 1.0
    )
    return values


def host_facts() -> Dict[str, Any]:
    facts: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "thread_caps": {var: child_env()[var] for var in THREAD_VARS},
        "git_head": None,
    }
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            facts["git_head"] = proc.stdout.strip()
    return facts


def print_record(record: Dict[str, Any]) -> None:
    label = "traced" if record["trace"] else "untraced"
    print(
        f"{record['workload']} seed {record['seed']} ({label}, {record['children']} children): "
        f"{record['attempted']} operations, {record['failed']} failed"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    coverage = record["metrics"].get("trace.coverage")
    if coverage is not None and coverage["value"] < COVERAGE_FLOOR:
        print(f"  WARNING trace coverage {coverage['value']:.3f} < {COVERAGE_FLOOR}")


def write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ----------------------------------------------------------------------
# compare: two sets of result files, one verdict per (workload, metric)
# ----------------------------------------------------------------------


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    base: List[float], head: List[float], better: str, bound: float
) -> Dict[str, Any]:
    """Medians, quartiles, pairwise wins and the verdict for one metric.

    ``unresolved``: a side's spread (quartile distance over median) is
    wider than the bound, and not every head run beats every base run.
    ``improved`` needs two runs a side at least, head winning nine
    tenths of the pairs, and a median gap wider than the base spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    base_q, head_q = _quartiles(base), _quartiles(head)
    pairs = [(b, h) for b in base for h in head]
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    spread = max(
        (base_q[1] - base_q[0]) / base_median if base_median else 0.0,
        (head_q[1] - head_q[0]) / head_median if head_median else 0.0,
    )
    worse_by = sign * (head_median - base_median) / base_median if base_median else 0.0
    if spread > bound and wins < len(pairs):
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    elif (
        min(len(base), len(head)) >= 2
        and wins >= 0.9 * len(pairs)
        and abs(head_median - base_median) > base_q[1] - base_q[0]
    ):
        label = "improved"
    else:
        label = "within bound"
    return {
        "base_median": base_median,
        "head_median": head_median,
        "base_quartiles": base_q,
        "head_quartiles": head_q,
        "wins": wins,
        "pairs": len(pairs),
        "change": worse_by,
        "verdict": label,
    }


def _load_records(paths: Sequence[str]) -> Dict[Tuple[str, bool], List[Dict[str, Any]]]:
    records: Dict[Tuple[str, bool], List[Dict[str, Any]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        for record in document["records"]:
            records.setdefault((record["workload"], record["trace"]), []).append(record)
    return records


def _deterministic(record: Dict[str, Any], declared: Dict[str, Any]) -> Dict[str, Any]:
    """The record's counts: they must repeat exactly on the same inputs."""
    values = {f"counts.{name}": value for name, value in record["counts"].items()}
    for name, metric in record["metrics"].items():
        if declared[name]["unit"] == "count":
            values[name] = metric["value"]
    return values


def compare(base_paths: Sequence[str], head_paths: Sequence[str]) -> int:
    """Print one verdict per (workload, metric); 1 on a regression or a
    changed deterministic count, 2 when the inputs differ."""
    declarations = load_declarations()
    base, head = _load_records(base_paths), _load_records(head_paths)
    declared = {m["name"]: m for m in declarations["end_to_end"] + declarations["per_layer"]}
    status = 0
    for key in sorted(set(base) & set(head)):
        workload, traced = key
        fingerprints = {r["fingerprint"] for r in base[key] + head[key]}
        if len(fingerprints) != 1:
            print(f"{workload}: input fingerprints differ; refusing to compare", file=sys.stderr)
            return 2
        counts = [_deterministic(record, declared) for record in base[key] + head[key]]
        for name in sorted(counts[0]):
            seen = {json.dumps(c.get(name)) for c in counts}
            if len(seen) != 1:
                print(f"{workload} {name}: deterministic count changed: {sorted(seen)}")
                status = 1
        if traced:
            continue
        for metric in declarations["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [r["metrics"][name]["value"] for r in base[key]],
                [r["metrics"][name]["value"] for r in head[key]],
                metric["better"],
                metric["bound"],
            )
            print(
                f"{workload:<18} {name:<14} {result['base_median']:>12.6g} -> "
                f"{result['head_median']:>12.6g} {metric['unit']:<4} "
                f"{result['change']:+8.2%}  wins {result['wins']}/{result['pairs']}  "
                f"{result['verdict']}"
            )
            if result["verdict"] == "regressed":
                status = 1
    return status


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--base", nargs="+", required=True, help="parent result files")
        parser.add_argument("--head", nargs="+", required=True, help="change result files")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.head)

    declarations = load_declarations()
    names = [w["name"] for w in declarations["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declarations["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="with --workload: per-layer metrics"
    )
    parser.add_argument("--out", help="write the records and host facts here")
    args = parser.parse_args(argv)

    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [(name, trace) for name in names for trace in (False, True)]
    records = []
    try:
        for workload, trace in plan:
            record = run_workload(
                workload, args.seed, args.seconds, trace, declarations=declarations
            )
            print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_json(args.out, {"host": host_facts(), "records": records})
    correct = all(r["correct"] for r in records)
    if args.workload:
        record = records[0]
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record["metrics"],
                },
                allow_nan=False,
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
