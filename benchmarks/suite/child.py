"""One child of a benchmark run: set up, time, read RSS, check.

``run.py`` starts this script once per child, never two at a time, so
``ru_maxrss`` belongs to this workload alone.  The argument is a JSON
object with ``workload``, ``seed`` (the run's seed), ``index`` (the
child's position in the run), ``toy`` and ``trace`` (a JSONL path for
the spans, or null for an untraced child).  Child ``index`` measures
the workload's ``batch`` instances with seeds
``seed * 1000 + index * batch + j``.  The last line of standard output
is one JSON object with the results.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from before `import repro`

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
_NULL_SPAN = nullcontext()


def _untraced(name: str) -> nullcontext:
    return _NULL_SPAN


def _import_library() -> None:
    """Import the library from this checkout's sources, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"repro imported from {location}, not from {ROOT / 'src'}")


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    _import_library()
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[spec["workload"]]
    n = workload.toy_n if spec["toy"] else workload.n
    batch = 1 if spec["toy"] else workload.batch
    first = spec["seed"] * 1000 + spec["index"] * batch
    instances = [workload.prepare(first + j, n, spec["toy"]) for j in range(batch)]
    tracer = Tracer() if spec["trace"] else None
    span = _untraced
    if tracer is not None:
        workloads.install_layer_spans(tracer)
        span = tracer.span

    started = time.perf_counter()
    outputs = [workload.timed(instance, span) for instance in instances]
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = started - _STARTED

    counts: dict = {}
    for output in outputs:
        for key, value in output.counts.items():
            counts[key] = counts.get(key, 0) + value
    result = {
        "children": workload.children,
        "instances": [
            {
                "seed": instance.seed,
                "n": instance.graph.num_nodes,
                "m": instance.graph.num_edges,
                "fingerprint": instance.fingerprint(),
            }
            for instance in instances
        ],
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [latency for output in outputs for latency in output.latencies],
        "counts": counts,
    }
    if tracer is not None:
        tracer.close()
        result["layers"] = workloads.layer_metrics(n, wall, tracer, counts)
        tracer.write_jsonl(spec["trace"])

    failed = {}
    for instance, output in zip(instances, outputs):
        problems = dict(output.failed)
        if output.value is not None:
            try:
                problems.update(workload.check(instance, output))
            except Exception as exc:  # a check that cannot complete fails the output
                problems.setdefault(0, f"check raised {exc!r}")
        for index, reason in sorted(problems.items()):
            failed[f"instance {instance.seed}, operation {index}"] = reason
    result["attempted"] = len(result["latencies_s"])
    result["failed"] = failed
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
