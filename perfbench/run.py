"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload superpeer-10k --seed 1 --seconds 14 --trace 0

Workloads: ``superpeer-10k``, ``serve-zipf``, ``serve-churn`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json`` for what each runs
and why).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off for about ``--seconds`` seconds.  Its wall-time metrics (``setup_s``,
``queries_per_s``, ``route_p50_ms``, ``route_p95_ms``) are scaled to a
reference machine speed (``perfbench/speed.py``); the provenance line
holds the raw values.  With ``--trace 1`` it replays a
fixed amount of work twice, untraced and traced, checks that both give
the same output digest, and reports the per-layer metrics.

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

The line before it holds the run's provenance (seed, run length, repeat
counts, CPU count, Python and numpy versions, source commit).  Both are
also written to ``.perfbench/`` in the checkout, with the raw span table
of a traced run.

The run pins ``PYTHONHASHSEED=0``, re-executing itself if needed:
string-hash randomization changes set and dict layouts from process to
process, and with it the work that identical code does.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.workloads import RunResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".perfbench"
HASH_SEED = "0"


def _source_commit() -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _workload_reasons() -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in spec.get("workloads", [])}


def result_line(result: "RunResult") -> dict:
    """The final stdout line: exactly correct, attempted, failed, metrics.

    A metric the run could not measure (only after a failed operation,
    so ``correct`` is false) reads 0.
    """
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics.get(name, 0.0), "unit": unit}
            for name, unit in result.units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    provenance = {
        "workload": args.workload,
        "why": _workload_reasons().get(args.workload, ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _source_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        **result.provenance,
        "problems": result.problems,
    }
    line = result_line(result)
    OUTPUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUTPUT_DIR / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": line}, indent=2) + "\n"
    )
    if result.tracer is not None:
        result.tracer.save(OUTPUT_DIR / f"{stem}-spans.npz")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replaces this process: there is no child to wait for.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
