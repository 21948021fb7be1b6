"""respgame benchmark: one workload as a closed loop of CLI invocations.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

One client sends one invocation at a time.  Each invocation is a fresh
`python3 -I perfbench/child.py` process that imports `respgame.cli` from
`src/` and calls `run_cli(argv)` on an input file made at set-up, so every
sample pays import time and its own peak memory as a respgame user does.
Invocations repeat until S seconds have passed (at least MIN_SAMPLES).

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced invocations alternate; the result holds
the per-layer metrics of the traced ones (see tracer.py) and the tracing
overhead, traced against untraced wall time.

Every invocation must exit 0, match the workload's reference
(workloads.py) and print byte-identical output; counts in the traced
invocations must repeat exactly, and every layer metric mapped to the
workload must be non-zero.  Any breach is reported on stderr and makes
`correct` false.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 120
# child.calibrate() on the host the bounds were tuned on (Intel Xeon at
# 2.1 GHz, 2 vCPUs) with no neighbour load; see `Sample.scale`.
REFERENCE_CALIBRATION_S = 0.085


@dataclass
class Sample:
    """One invocation: its costs, its output digest and what went wrong.

    Times are as measured.  `scale` converts them to the reference speed:
    other tenants of the shared host slow every process on it by up to 2x
    for minutes at a time, and the child's calibration loop, timed around
    and during the call, slows by the same factor.
    """

    traced: bool
    problem: Optional[str] = None
    digest: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    scale: float = 1.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)


def invoke(argv: List[str], traced: bool, check) -> Sample:
    read_fd, write_fd = os.pipe()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", CHILD, SRC, str(write_fd),
         "1" if traced else "0", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, pass_fds=(write_fd,))
    os.close(write_fd)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    errors: List[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        with os.fdopen(read_fd, "rb") as fh:
            raw = fh.read()
    finally:
        # os.wait4, unlike Popen.wait, also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    sample = Sample(traced, digest=hashlib.sha256(out).hexdigest(),
                    peak_rss_mb=usage.ru_maxrss / 1024)
    if proc.returncode != 0 or not raw:
        tail = errors[0].decode(errors="replace").strip().splitlines()[-1:]
        sample.problem = f"exit {proc.returncode}: {' '.join(tail)}"
        return sample
    result = json.loads(raw)
    sample.wall_s = result["wall_s"]
    sample.cpu_s = result["cpu_s"]
    sample.setup_s = result["imported_at"] - spawned
    sample.scale = REFERENCE_CALIBRATION_S / result["calibration_s"]
    sample.layers = result.get("layers", {})
    sample.problem = check(out.decode(errors="replace"))
    return sample


def measure(argv: List[str], check, seconds: float,
            trace: bool) -> List[Sample]:
    """Invocations, one at a time, until `seconds` have passed."""
    samples: List[Sample] = []
    deadline = time.monotonic() + seconds
    while True:
        samples.append(invoke(argv, False, check))
        if trace:
            samples.append(invoke(argv, True, check))
        untraced = sum(1 for s in samples if not s.traced)
        if untraced >= MIN_SAMPLES and time.monotonic() >= deadline:
            return samples


def tail_note(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any
    sits at or above the 75th."""
    n = len(values)
    pct = int(100 * (1 - 10 / n)) if n >= 40 else 0
    if pct < 75:
        return f"median of {n}; too few samples for a tail percentile"
    value = statistics.quantiles(values, n=100)[pct - 1]
    return f"median of {n}; p{pct} {value:.6g}"


def end_to_end(samples: List[Sample]):
    """Medians of the untraced invocations, plus their per-sample values."""
    finished = [s for s in samples if not s.traced and s.wall_s > 0]
    values = {
        "wall_s": [s.wall_s * s.scale for s in finished],
        "cpu_s": [s.cpu_s * s.scale for s in finished],
        "setup_s": [s.setup_s * s.scale for s in finished],
        "peak_rss_mb": [s.peak_rss_mb for s in finished],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["ok_ratio"] = (sum(1 for s in samples if s.problem is None)
                           / len(samples))
    return metrics, values


def per_layer(samples: List[Sample], count_names, problems: List[str]):
    traced = [s for s in samples if s.traced and s.layers]
    untraced = [s for s in samples if not s.traced and s.wall_s > 0]
    if not traced or not untraced:
        raise SystemExit(f"no {'traced' if untraced else 'untraced'} "
                         f"invocation finished: {problems}")
    first = traced[0].layers
    for sample in traced[1:]:
        differ = sorted(n for n in count_names
                        if sample.layers[n] != first[n])
        if differ:
            problems.append("counts differ between traced invocations: "
                            + ", ".join(differ))
            break
    metrics = {name: first[name] if name in count_names
               else statistics.median(s.layers[name] for s in traced)
               for name in first}
    metrics["trace.wall_s"] = statistics.median(
        s.wall_s * s.scale for s in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(
        s.wall_s * s.scale for s in untraced)
    metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"]
                                       / metrics["trace.untraced_wall_s"])
    return metrics


def run_workload(workloads, name: str, seed: int, seconds: float,
                 trace: bool, spec: dict) -> dict:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, "_work"))
    try:
        t0 = time.perf_counter()
        prepared = workloads.prepare(name, seed, workdir)
        bench_setup_s = time.perf_counter() - t0
        samples = measure(prepared.argv, prepared.check, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(prepared.setup_problems)
    first_digest = samples[0].digest
    for sample in samples:
        if sample.problem is None and sample.digest != first_digest:
            sample.problem = "output differs from the first invocation's"
    failed = [s for s in samples if s.problem is not None]
    problems += sorted({s.problem for s in failed})
    if all(s.wall_s == 0 for s in samples):
        raise SystemExit(f"{name}: no invocation finished: {problems[0]}")

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        counts = [m["name"] for m in declared if m["unit"] == "count"]
        metrics = per_layer(samples, counts, problems)
        for metric, mapped in workloads.LAYER_MAP.items():
            if name in mapped and metrics[metric] == 0:
                problems.append(f"{metric} is 0 on {name}, which it is "
                                f"mapped to")
    else:
        metrics, values = end_to_end(samples)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit("metrics do not match BENCHMARK.json: "
                         + ", ".join(sorted(set(metrics) ^ {
                             m["name"] for m in declared})))

    untraced = [s for s in samples if not s.traced]
    print(f"workload {name}: seed {seed}, size {workloads.SIZES[name]}, "
          f"{len(untraced)} untraced and {len(samples) - len(untraced)} "
          f"traced invocations in a closed loop of one client; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"benchmark set-up {bench_setup_s:.3f} s")
    print(f"  command: respgame {' '.join(prepared.argv)}")
    print(f"  output sha256 {first_digest}")
    finished = [s for s in untraced if s.wall_s > 0]
    print(f"  as measured: wall {statistics.median(s.wall_s for s in finished):.6g} s, "
          f"cpu {statistics.median(s.cpu_s for s in finished):.6g} s; "
          f"times below are scaled to the reference speed by a median "
          f"factor of {statistics.median(s.scale for s in samples if s.wall_s > 0):.4g}")
    for m in declared:
        line = f"  {m['name']:<28} {metrics[m['name']]:.6g} {m['unit']}"
        if not trace and m["name"] in values:
            line += f"  ({tail_note(values[m['name']])})"
        print(line)
    for problem in problems:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "respgame", "cli.py")):
        print(f"error: no respgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import workloads

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    for name in names:
        result = run_workload(workloads, name, args.seed, args.seconds,
                              bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
