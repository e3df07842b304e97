"""In-process A/B timing of two versions of warpgeo on the benchmark's own
requests.

    python3 tools/ab.py --out BENCH.json [--base REV_OR_DIR]
        [--workloads grid,warp,verify] [--quick]

The base is a git revision of this repository (default HEAD), whose
src/warpgeo is extracted with `git archive` into a temporary directory that
is deleted afterwards, or a directory holding a `warpgeo` package.  The
change is src/warpgeo of the working tree.  Both are imported in one
process under their own package names (warpgeo imports itself only
relatively), and bench/workloads.py, imported as it is, drives both: its
`warpgeo` global is set to the side that runs.

Each workload's request list, sized as `bench/run.py --seconds 2` sizes
it and drawn from seed 0, is sent for 60 rounds.  Within a round the two
sides alternate request by request, and the side that goes first swaps
every round, so neither side always runs in the other's wake.
An A/A control times the base against a second copy of itself the same
way.  The JSON written holds, per workload, each side's round sums with
their median and quartiles, the rounds the change was faster in, and the
median ratio base/change (above 1: the change is faster) next to the A/A
ratio, whose distance from 1 is the noise of the protocol.  The summary
line of each workload also says whether the change was faster in at least
9 of 10 rounds, whether the change's median round lies below the
base's by more than the base's own quartile spread (q3 - q1), and whether
the median ratio lies inside the A/A ratio's q1 to q3.  `--quick`
runs 2 rounds of each workload's shortest request list: a check that the
harness runs, not a measurement.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # nothing is written next to the sources
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROUNDS, SECONDS, SEED = 60, 2.0, 0


def load(package_dir, name):
    """The warpgeo package in `package_dir`, imported as `name`, with its
    verify module loaded as workloads.py loads warpgeo.verify."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.verify")
    return module


def extract(rev, into):
    """src/warpgeo of git revision `rev` extracted under `into`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/warpgeo"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src" / "warpgeo"


class Side:
    """One version of warpgeo with a workload's objects built by it."""

    def __init__(self, package, workload):
        self.package, self.workload = package, workload
        with self:
            self.built = workload.build()

    def __enter__(self):
        workloads.warpgeo = self.package

    def __exit__(self, *exc):
        workloads.warpgeo = None

    def run(self, request):
        """(seconds, whether the output checks) of one request."""
        with self:
            start = time.perf_counter()
            out = self.workload.run(self.built, request)
            elapsed = time.perf_counter() - start
            return elapsed, bool(self.workload.check(request, out))


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(first, second, requests, rounds):
    """Round sums of `first` and `second` over `requests`, alternating
    request by request, the side that goes first swapping every round."""
    sums = ([], [])
    failed = [0, 0]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        total = [0.0, 0.0]
        gc.collect()
        for request in requests:
            for k in order:
                elapsed, ok = (first, second)[k].run(request)
                total[k] += elapsed
                failed[k] += not ok
        for k in (0, 1):
            sums[k].append(total[k])
    ratios = [a / b for a, b in zip(*sums)]
    return {
        "round_s": {"first": sums[0], "second": sums[1]},
        "first_s": quartiles(sums[0]),
        "second_s": quartiles(sums[1]),
        "ratio": quartiles(ratios),  # first / second: above 1, second is faster
        "second_faster_rounds": sum(x > 1.0 for x in ratios),
        "failed_requests": {"first": failed[0], "second": failed[1]},
    }


def measure(name, base, base_copy, change, rounds, seconds):
    workload = workloads.WORKLOADS[name]
    requests = workload.requests(np.random.default_rng(SEED), seconds)
    sides = [Side(package, workload) for package in (base, base_copy, change)]
    for side in sides:
        side.run(workload.warmup(SEED))
    ab = compare(sides[0], sides[2], requests, rounds)
    aa = compare(sides[0], sides[1], requests, rounds)
    return {
        "requests_per_round": len(requests),
        "base_round_s": ab["round_s"]["first"],
        "change_round_s": ab["round_s"]["second"],
        "base_s": ab["first_s"],
        "change_s": ab["second_s"],
        "ratio_base_over_change": ab["ratio"],
        "change_faster_rounds": ab["second_faster_rounds"],
        "rounds": rounds,
        "aa_ratio": aa["ratio"],
        "aa_second_faster_rounds": aa["second_faster_rounds"],
        "failed_requests": {
            "base": ab["failed_requests"]["first"],
            "change": ab["failed_requests"]["second"],
            "aa": aa["failed_requests"]["second"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--base", default="HEAD", help="git revision or package directory")
    parser.add_argument("--workloads", default="grid,warp,verify")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds of the shortest request lists, to check the harness")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    rounds, seconds = (2, 0.0) if args.quick else (ROUNDS, SECONDS)

    with tempfile.TemporaryDirectory() as tmp:
        if os.path.isdir(args.base):
            base_dir = Path(args.base).resolve()
            base_dir = base_dir / "warpgeo" if (base_dir / "warpgeo").is_dir() else base_dir
        else:
            base_dir = extract(args.base, tmp)
        base = load(base_dir, "warpgeo_base")
        base_copy = load(base_dir, "warpgeo_base_copy")
        change = load(ROOT / "src" / "warpgeo", "warpgeo_change")
        results = {
            name: measure(name, base, base_copy, change, rounds, seconds) for name in names
        }
    record = {
        "base": args.base,
        "protocol": {"rounds": rounds, "seconds": seconds, "seed": SEED},
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, r in results.items():
        won = 10 * r["change_faster_rounds"] >= 9 * r["rounds"]
        base_s, change_s = r["base_s"], r["change_s"]
        apart = base_s["median"] - change_s["median"] > base_s["q3"] - base_s["q1"]
        ratio, aa = r["ratio_base_over_change"]["median"], r["aa_ratio"]
        inside = aa["q1"] <= ratio <= aa["q3"]
        print(
            f"{name}: base/change {ratio:.3f} "
            f"(change faster in {r['change_faster_rounds']}/{r['rounds']} rounds, "
            f"{'at least' if won else 'under'} 9/10; change median "
            f"{'below' if apart else 'not below'} base median by more than base q3 - q1), "
            f"A/A {aa['median']:.3f} (q1 {aa['q1']:.3f}, q3 {aa['q3']:.3f}; base/change "
            f"{'inside' if inside else 'outside'} it)"
        )


if __name__ == "__main__":
    main()
