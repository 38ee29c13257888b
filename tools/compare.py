"""Compare a parent commit with the working tree on the benchmark, in pairs.

    python3 tools/compare.py --parent HEAD --workload data_pass --pairs 10 --seed 0 --seconds 15

The parent is extracted with `git archive <rev> | tar -x` into a temporary
directory, so `.git` is left as it is. `__pycache__` directories are removed
on both sides first. Then, for each workload, N pairs of `perfbench/run.py`
runs (untraced) alternate which side goes first: parent then change in even
pairs, change then parent in odd ones (paired, alternating runs: Kalibera
and Jones, "Rigorous Benchmarking in Reasonable Time", ISMM 2013). This script
only calls each side's own `perfbench/run.py`; it changes nothing about how
a run is measured.

The result, BENCH_<short sha256 of the change's src>.json unless --out says
otherwise, holds for every workload and end-to-end metric of BENCHMARK.json
the per-pair values, each side's median and quartiles, the change's wins,
losses and ties, the parent's interquartile range, and whether a gain holds:
at least nine tenths of the pairs won and the medians further apart than the
parent's interquartile range. It also holds the machine record of every run
and both sides' `src` sha256 digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev: str, into: str) -> str:
    """The sha of rev; its tree is extracted into the directory into."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def clear_pycache(root: str) -> None:
    for path, dirs, _ in os.walk(root):
        if ".git" in dirs:
            dirs.remove(".git")
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(path, "__pycache__"))
            dirs.remove("__pycache__")


def bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench/run.py of the tree at root: its last-line JSON
    result, with the machine record it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py {workload} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    machine = [line for line in lines if line.startswith("# machine ")]
    result["machine"] = json.loads(machine[0][len("# machine "):]) if machine else None
    return result


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarise(pairs: list[dict], metric: dict) -> dict:
    """The comparison of one end-to-end metric over the pairs."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["metrics"][name]["value"] for p in pairs]
    # positive when the change is better
    gains = [sign * (b - c) for b, c in zip(parent, change)]
    parent_q, change_q = quartiles(parent), quartiles(change)
    parent_iqr = parent_q[2] - parent_q[0]
    median_gain = sign * (parent_q[1] - change_q[1])
    wins = sum(g > 0 for g in gains)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "parent_median": parent_q[1],
        "change_median": change_q[1],
        "parent_quartiles": [parent_q[0], parent_q[2]],
        "change_quartiles": [change_q[0], change_q[2]],
        "parent_iqr": parent_iqr,
        "change_vs_parent": change_q[1] / parent_q[1] - 1.0 if parent_q[1] else None,
        "wins": wins,
        "losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "gain_holds": wins >= 0.9 * len(pairs) and median_gain > parent_iqr,
        # the change's median is no worse than the parent's by more than the bound
        "within_bound": -median_gain <= metric["bound"] * abs(parent_q[1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", help="a workload; repeat for more (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", default=None, help="output path (default BENCH_<short src sha256>.json)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as parent_root:
        parent_sha = extract(args.parent, parent_root)
        for root in (parent_root, ROOT):
            clear_pycache(root)
        sides = {"parent": parent_root, "change": ROOT}
        results = {}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(sides[side], workload, args.seed, args.seconds)
                    print(f"{workload} pair {i} {side}: wall_s {pair[side]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
                pairs.append(pair)
            results[workload] = {
                "metrics": {m["name"]: summarise(pairs, m) for m in benchmark["end_to_end"]},
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in sides},
                "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in sides},
                "machine": [{side: p[side]["machine"] for side in sides} for p in pairs],
            }
    first = next(iter(results.values()))["machine"][0]
    src = {side: first[side]["src_sha256"] for side in sides}
    out = {
        "parent": parent_sha,
        "change": "working tree",
        "src_sha256": src,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": results,
    }
    path = args.out or os.path.join(ROOT, f"BENCH_{src['change'][:12]}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(
                f"{workload:14s} {name:12s} parent {m['parent_median']:.6g} change {m['change_median']:.6g} "
                f"wins {m['wins']}/{args.pairs} iqr {m['parent_iqr']:.3g} gain {m['gain_holds']} "
                f"within bound {m['within_bound']}"
            )
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
