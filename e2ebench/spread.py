"""Run one workload over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workload coverage-csim --seeds 1-10

Each run is a fresh untraced ``run.py`` process at ``BENCHMARK.json``'s
``run_seconds``, one after another.  For every
end-to-end metric the report gives the median, the quartiles and the
spread (inter-quartile distance over the median, the rule the bounds in
``BENCHMARK.json`` are checked against), and every run's value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from measure import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    values: Dict[str, List[float]] = {}
    incorrect = 0
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        shown = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            shown.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed:>3}  correct={result['correct']}  failed={result['failed']}/"
              f"{result['attempted']}  " + "  ".join(shown), flush=True)
    bounds = {item["name"]: item["bound"] for item in spec["end_to_end"]}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        print(f"{name:<12} median {statistics.median(series):.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread(series):.3f}  bound {bounds[name]}")
    print(f"incorrect runs: {incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
