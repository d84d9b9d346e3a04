"""Run every workload in its own process and print the end-to-end metrics.

    python3 perfbench/suite.py [--seed N]

Prints wall_s, setup_s, peak_rss_mb and failed_frac (failed over attempted
operations) for each workload, one fresh process per workload so that the
workloads' peak memory does not mask each other, each run for
BENCHMARK.json's run_seconds.  Exits 1 when a workload failed an operation or
a correctness gate, or printed no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    print(f"{'workload':<12} {'wall_s':>9} {'setup_s':>8} {'peak_rss_mb':>12} {'failed_frac':>12}")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:<12} no result (exit code {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        m = {k: v["value"] for k, v in result["metrics"].items()}
        frac = result["failed"] / result["attempted"]
        print(f"{name:<12} {m['wall_s']:>9.4f} {m['setup_s']:>8.4f} {m['peak_rss_mb']:>12.1f} "
              f"{frac:>12.4g}")
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr, end="")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
