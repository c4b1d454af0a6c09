"""Compare two checkouts on one workload, alternating which side runs first.

Usage (from the root of the checkout holding this benchmark):

    python3 benchmarks/compare.py --base ../parent --head . --workload invert_recover

Both sides run this copy of the benchmark (``run.py --root``) for the
``run_seconds`` of ``BENCHMARK.json``, so only their ``src/`` differs. Pair k
runs both sides with seed ``FIRST_SEED + k``; even pairs run the base
first, odd pairs the head first, so a drift of the machine does not always
favour one side. For every end-to-end metric the
script prints each side's median and quartiles, the share of pairs the head
won (ties count for neither side) and whether the medians differ by more
than the distance between the base's own quartiles. Failed ops are judged
by their share of the attempted ops, which is fixed per round, not by their
count, which grows with the number of rounds a run completes: a head that
fails a larger share than the base is flagged, and its gains do not count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIRST_SEED = 1000


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--root", str(root)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--head", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs = {"base": [], "head": []}
    for k in range(args.pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, FIRST_SEED + k,
                                       spec["run_seconds"]))
        print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    shares = {}
    for side, results in runs.items():
        shares[side] = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{side}: correct={correct} failed share={shares[side]}")
    if shares["head"][-1] > shares["base"][-1]:
        print("head fails a larger share of its ops than base: its gains do not count")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        shift = statistics.median(head) - statistics.median(base)
        resolved = abs(shift) > qb[2] - qb[0]
        print(f"{args.workload} {name} [{metric['unit']}]: "
              f"base {qb[1]:.6g} ({qb[0]:.6g}..{qb[2]:.6g}), "
              f"head {qh[1]:.6g} ({qh[0]:.6g}..{qh[2]:.6g}), "
              f"head wins {wins}/{args.pairs}, "
              f"shift {shift / qb[1]:+.1%} {'beyond' if resolved else 'within'} the base spread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
