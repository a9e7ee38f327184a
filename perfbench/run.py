"""Benchmark of qudisc's verify and search paths, run from a source checkout.

    python3 perfbench/run.py --workload verify-random-d2 --seed 1 --seconds 25 --trace 0

Workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
One run is one process with OpenBLAS pinned to one thread. It sets up
(import, inputs from the seed, one warm-up op) seven times, once here and
six times in child processes, then times passes over its few input items
for ``--seconds`` seconds, so each item is timed many times. Each item keeps
its fastest run, which filters out the slow phases of a shared host.

With ``--trace 0`` the last line of stdout is the end-to-end result. With
``--trace 1`` every item runs once untraced and once traced, in turn, and
the last line holds the per-layer metrics of the first traced pass; its
spans go to ``.bench_out/``. The line before the result records the
environment and the failed ratio. The exit code is 0 only when every output
passed the correctness gate.
"""

import os

BLAS_THREADS = "1"
# Must precede the first numpy import, which reads them once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Child processes that repeat the set-up; with this process, seven samples.
SETUP_PROBES = 6
SETUP_PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="time one set-up, print it, exit")
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import qudisc, make the inputs and run one warm-up op; returns the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    # Imported here, not at the top, because importing qudisc is part of set-up.
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[name]
    items = workloads.make_inputs(w, seed)
    workloads.warm_up(w, items)
    return w, items, time.perf_counter() - start


def probe_setups(args) -> list[float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def untraced_passes(workloads, w, items, seconds: float, outcome) -> list[float]:
    """Fastest timed run of each item, cycling over the items until time is up."""
    samples = [[] for _ in items]
    min_runs = 2 * len(items)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_runs or time.perf_counter() < deadline:
        i = k % len(items)
        samples[i].append(workloads.run_item(w, items[i], outcome))
        k += 1
    return [min(s) for s in samples]


def traced_passes(workloads, tracing, w, items, seconds: float, outcome):
    """Each item untraced then traced, in turn; the first traced cycle is kept."""
    plain = [[] for _ in items]
    traced = [[] for _ in items]
    kept = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(items) or time.perf_counter() < deadline:
        i = k % len(items)
        plain[i].append(workloads.run_item(w, items[i], outcome))
        with kept if k < len(items) else tracing.Tracer():
            traced[i].append(workloads.run_item(w, items[i], outcome))
        k += 1
    overhead = sum(min(s) for s in traced) / sum(min(s) for s in plain)
    return kept, overhead


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # a plain source checkout; src_sha256 identifies the code
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qudisc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qudisc" / "__init__.py").is_file():
        print(f"perfbench: no qudisc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    w, items, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import tracing
    import workloads

    outcome = workloads.Outcome()
    detail = {"workload": w.name, "env": environment(args.seed), "items": len(items)}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer, overhead = traced_passes(workloads, tracing, w, items, args.seconds, outcome)
        metrics = tracer.layer_metrics(overhead)
        spans_path = OUT / f"{w.name}-seed{args.seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    else:
        best = untraced_passes(workloads, w, items, args.seconds, outcome)
        setups = [setup_s] + probe_setups(args)
        detail["item_seconds"] = best
        metrics = {
            "ops_per_s": {"value": len(best) / sum(best), "unit": "op/s"},
            "op_s_p50": {
                "value": statistics.median(best),
                "unit": "s",
                "samples": len(best),
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    detail["failed_ratio"] = {"value": outcome.failed / outcome.attempted, "unit": "1"}
    detail["errors"] = outcome.errors[:20]
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }
    detail["metrics"] = metrics
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2)
    for err in outcome.errors[:20]:
        print(f"perfbench: gate failed: {err}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
