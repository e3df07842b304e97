"""warpgeo benchmark: one closed-loop client driving one workload through
warpgeo's public Python API.

    python3 bench/run.py --workload {grid,warp,verify} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
sends every request of a shorter list once untraced and once traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object (correct, attempted, failed, metrics);
the lines before it print every metric by name with its unit, and the
full record, with the environment, is written to bench/out/.  Run it from the root of a
checkout: warpgeo is imported from src/ of that checkout and nowhere else.
Workload choices and the metric definitions are in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_CPUS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
TRACE_SHARE = 10
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
# Every timing is scaled to a reference machine speed.  A loop of
# SPEED_ITERS additions is timed every SPEED_INTERVAL_S; it takes
# SPEED_REF_US on the reference machine.  See NOTES.md, "Machine drift".
SPEED_ITERS = 1_000
SPEED_INTERVAL_S = 0.005
SPEED_WINDOW_S = 0.01
SPEED_REF_US = 40.0
READY = "ready"


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap every BLAS/OpenMP thread variable at nproc before numpy loads;
    returns the values found, for the record."""
    found = {var: os.environ.get(var) for var in BLAS_VARS}
    limit = nproc()
    for var, value in found.items():
        if value is None or not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return found


def import_warpgeo():
    """Import warpgeo from this checkout's src/, or exit with an error:
    a directory holding only the benchmark must not run."""
    sys.path.insert(0, str(SRC))
    try:
        import warpgeo
    except ImportError as exc:
        sys.exit(f"bench: cannot import warpgeo from {SRC}: {exc}")
    if Path(warpgeo.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: warpgeo imported from {warpgeo.__file__}, not {SRC}")
    return warpgeo


class SpeedProbe:
    """Times a fixed pure-Python loop every SPEED_INTERVAL_S from a SIGALRM
    handler, so the machine's speed is known throughout every request,
    however long.  Python runs the handler between bytecodes of the main
    thread, so each sample is taken on the thread the request runs on.
    The loop touches no numpy and almost no memory, so its time does not
    depend on what the request left in the caches."""

    def __init__(self):
        self.at, self.us = array("d"), array("d")

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPEED_ITERS):
            acc += i
        self.us.append((time.perf_counter() - t0) * 1e6)
        self.at.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def to_reference(self, seconds, t0):
        """`seconds` measured from `t0`, scaled to the reference speed by
        the median loop time sampled within SPEED_WINDOW_S of the interval
        (and at least the nearest sample on either side)."""
        lo = max(0, bisect.bisect_left(self.at, t0 - SPEED_WINDOW_S) - 1)
        hi = bisect.bisect_right(self.at, t0 + seconds + SPEED_WINDOW_S) + 1
        return seconds * SPEED_REF_US / statistics.median(self.us[lo:hi])


def tail(latencies):
    """The highest percentile that still has TAIL_BEYOND samples beyond
    it: the value with exactly TAIL_BEYOND larger samples, its percentile
    and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:  # no percentile qualifies: report the lowest sample
        return ordered[0], 0.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


# -- setup ------------------------------------------------------------------


def probe_setup(args):
    """Child side of a setup probe: build the scenes and run the warm-up
    request with the speed probe running, then print READY and the
    median speed sample.  The parent times this process from spawn."""
    from workloads import WORKLOADS

    with SpeedProbe() as speed:
        setup_in_process(WORKLOADS[args.workload], args.seed)
    print(READY, statistics.median(speed.us), flush=True)


def measure_setup(args):
    """Spawn-to-ready time of one fresh process, and that process's median
    speed sample in microseconds."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    word, _, speed_us = line.partition(" ")
    if word != READY or proc.returncode != 0:
        sys.exit(f"bench: setup probe failed (exit {proc.returncode})")
    return elapsed, float(speed_us)


def setup_in_process(workload, seed, tracer=None):
    """Build the scenes and run the warm-up request (unmeasured)."""
    with tracer.span(f"setup.{workload.name}") if tracer else nullcontext():
        built = workload.build()
        workload.run(built, workload.warmup(seed))
    return built


# -- the closed loop --------------------------------------------------------


class Loop:
    """One client sending requests one at a time.  A request that raises
    is counted and the loop goes on."""

    def __init__(self, workload, built, tracer=None):
        self.workload, self.built, self.tracer = workload, built, tracer
        self.units = self.attempted = self.failed = self.wrong = 0
        self.first_error = None

    def send(self, request):
        """Send one request; returns its start time and latency in seconds."""
        workload = self.workload
        span = self.tracer.span(f"request.{workload.name}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = workload.run(self.built, request)
        except Exception as exc:  # counted as a failed request; the run goes on
            out = exc
        latency = time.perf_counter() - t0
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(out).__name__}: {out}"
        else:
            self.units += workload.units(request, out)
            self.wrong += not workload.check(request, out)
        return t0, latency


# -- the record -------------------------------------------------------------


def source_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "warpgeo").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, workload, blas_found, n_requests):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas_threads_found": blas_found,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "seconds": args.seconds,
        "requests": n_requests,
        "clients": 1,
        "loop": "closed",
    }


def emit(record, result):
    OUT.mkdir(exist_ok=True)
    name = f"{record['env']['workload']}-seed{record['env']['seed']}-trace{record['trace']}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for key, value in record["metrics"].items():
        note = record["notes"].get(key, "")
        shown = "absent" if value["value"] is None else f"{value['value']:.6g}"
        print(f"{key:40s} {shown} {value['unit']}{'  ' + note if note else ''}")
    print(json.dumps(result))


# -- main -------------------------------------------------------------------


def end_to_end(args, workload, requests):
    """Send the request list once with the speed probe running;
    SETUP_PROBES setup probes are spread over the list, each scaled by its
    own process's speed samples."""
    loop = Loop(workload, setup_in_process(workload, args.seed))
    n = len(requests)
    probe_before = {k * n // SETUP_PROBES for k in range(SETUP_PROBES)}
    setups, sends = [], []
    t0 = time.perf_counter()
    with SpeedProbe() as speed:
        for i, request in enumerate(requests):
            if i in probe_before:
                setups.append(measure_setup(args))
            sends.append(loop.send(request))
    wall_s = time.perf_counter() - t0

    raw_ms = [x * 1e3 for _, x in sends]
    ref_ms = [speed.to_reference(x, start) * 1e3 for start, x in sends]
    setup_ref = [x * SPEED_REF_US / speed_us for x, speed_us in setups]
    tail_ms, tail_pct, _ = tail(ref_ms)
    attempted, failed, wrong = loop.attempted, loop.failed, loop.wrong
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "units_per_s": (loop.units / sum(ref_ms) * 1e3, "units/s"),
        "req_p50_ms": (statistics.median(ref_ms), "ms"),
        "req_tail_ms": (tail_ms, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "right_frac": ((attempted - failed - wrong) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "units_per_s": f"unit = {workload.unit}",
        "req_tail_ms": f"p{tail_pct:.1f} of {n} requests",
        "ok_frac": f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted})",
        "right_frac": f"wrong_frac = {wrong / attempted:.6g} ({wrong}/{attempted})",
    }
    details = {
        "timings": f"scaled to a {SPEED_ITERS}-addition loop taking {SPEED_REF_US} us",
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "fail_frac": failed / attempted,
        "wrong_frac": wrong / attempted,
        "raw_setup_s": statistics.median(x for x, _ in setups),
        "raw_units_per_s": loop.units / sum(raw_ms) * 1e3,
        "raw_req_p50_ms": statistics.median(raw_ms),
        "raw_req_tail_ms": tail(raw_ms)[0],
        "speed_samples_us": {
            "count": len(speed.us),
            "min": min(speed.us),
            "median": statistics.median(speed.us),
            "max": max(speed.us),
        },
        "wall_s": wall_s,
        "first_error": loop.first_error,
    }
    return metrics, notes, details, (attempted, failed, wrong, loop.first_error)


def traced(args, workload, requests):
    """One untraced and one traced send of every request, back to back in
    alternating order, so both see the same machine state; the tracer is
    installed only around the traced send and the traced set-up."""
    from tracer import Tracer

    import warpgeo.jet

    tracer = Tracer()
    plain = Loop(workload, setup_in_process(workload, args.seed))
    with tracer:
        built = setup_in_process(workload, args.seed, tracer)
    traced_loop = Loop(workload, built, tracer)
    plain_s = traced_s = 0.0
    for i, request in enumerate(requests):
        for kind in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if kind == "plain":
                plain_s += plain.send(request)[1]
            else:
                with tracer:
                    traced_s += traced_loop.send(request)[1]

    metrics = tracer.layer_metrics(getattr(warpgeo.jet, "_space", None))
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans)
    totals = tracer.totals()
    notes = {
        "trace.overhead_frac": f"traced {traced_s:.3f} s / untraced {plain_s:.3f} s - 1"
    }
    details = {
        "spans_file": str(spans.relative_to(ROOT)),
        "spans": len(tracer.span_start),
        "mul_by_shape": {k: totals[k][0] for k in sorted(tracer.mul_shapes)},
    }
    counts = [
        sum(getattr(loop, k) for loop in (plain, traced_loop))
        for k in ("attempted", "failed", "wrong")
    ]
    return metrics, notes, details, (*counts, plain.first_error or traced_loop.first_error)


def main(argv=None):
    blas_found = cap_blas_threads()
    import_warpgeo()
    sys.path.insert(0, str(BENCH))
    import numpy as np

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_setup(args)
        return 0

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    # The traced run sends a list a tenth as long: tracing keeps every span
    # in memory, and each request is sent twice.
    requests = workload.requests(rng, args.seconds / (TRACE_SHARE if args.trace else 1))
    run = traced if args.trace else end_to_end
    metrics, notes, details, (attempted, failed, wrong, first_error) = run(
        args, workload, requests
    )
    record = {
        "trace": args.trace,
        "env": environment(args, workload, blas_found, len(requests)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "details": details,
    }
    if first_error:
        print(f"bench: first failed request: {first_error}", file=sys.stderr)
    result = {
        "correct": failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    emit(record, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
