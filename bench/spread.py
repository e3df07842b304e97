"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload grid --seeds 1-10

Runs bench/run.py --trace 0 once per seed, one run at a time, for the
run_seconds that BENCHMARK.json sets, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median.  The per-run results and
the summary are written to bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("nan"),
            "values": values,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=BENCH.parent
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(
            f"seed {seed}: correct={result['correct']} "
            + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True,
        )

    summary = summarize(runs)
    for name, s in summary.items():
        print(
            f"{name:24s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
            f"q3 {s['q3']:.5g}  iqr/median {s['iqr_share']:.4f}"
        )
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
