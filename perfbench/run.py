"""Run one hoimix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload golden_run --seed 0 --seconds 30 --trace 0

Each workload is a batch job run as a closed loop with one client: runs are
serial, each in a fresh process started by this one (worker.py). Runs repeat
until the next one would end after --seconds, with at least MIN_RUNS of them.
Set-up (interpreter start, `import hoimix`, one warm-up forward) is timed in
SETUP_PROBES extra processes and in every run.

The host this was built on changes speed by up to a third from one half
minute to the next, as its neighbours load it. So every run also times a
fixed reference job that uses no hoimix code (worker.reference_seconds)
just before and just after the workload, and wall_s, wall_s_tail, cpu_s and
trace.overhead_frac use run times scaled to the nominal host speed: the
measured time times REF_NOMINAL_S over the mean reference time. Set-up
processes time the reference job right after set-up, and setup_s is scaled
the same way. The raw median wall time and the host speed are printed
beside wall_s.

With --trace 0 every run is untraced and the end-to-end metrics are printed.
With --trace 1 traced and untraced runs alternate, starting traced; the
per-layer metrics come from the traced runs and trace.overhead_frac compares
the two kinds. Counts must repeat exactly across the traced runs, and every
run's outputs must match the first run's; a run that differs is a failed run.

Every metric is printed with its unit, then the machine record, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. Spans of the last traced run go to .perfbench/spans/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.trace import EXACT_UNITS, PER_LAYER, tail  # noqa: E402
from perfbench.worker import REF_NOMINAL_S  # noqa: E402

WORKLOADS = ("golden_run", "data_pass", "seed_sweep", "pseudo_cycles")
END_TO_END = {
    "wall_s": "s",
    "wall_s_tail": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "map_full": "ratio",
}
MIN_RUNS = 3
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run of this script must end within 180 s


def _spawn(spec: dict, timeout: float):
    """Run worker.py once; its JSON result, or None if it did not produce one."""
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, worker, json.dumps(spec)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run {spec['run_id']} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run {spec['run_id']} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT) else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hoimix", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _machine(versions: dict, load_start, load_end) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def _mark_inconsistent(runs: list[dict]) -> None:
    """Fail every run whose outputs, or whose counts when traced, differ
    from those of the first successful run of its kind."""
    ok = [r for r in runs if r["ok"]]
    if not ok:
        return
    reference = ok[0]["fingerprint"]
    traced = [r for r in ok if "layers" in r]
    counts = {
        name: traced[0]["layers"][name]
        for name, unit in PER_LAYER.items()
        if unit in EXACT_UNITS and traced
    }
    for r in ok:
        if r["fingerprint"] != reference:
            r.update(ok=False, error="outputs differ from the first run at the same seed")
        elif "layers" in r:
            differing = sorted(n for n, v in counts.items() if r["layers"][n] != v)
            if differing:
                r.update(ok=False, error=f"counts differ from the first traced run: {differing}")


def _nominal(seconds: float, ref_s: list[float]) -> float:
    """A time taken next to the reference runs ref_s, at the nominal host speed."""
    return seconds * REF_NOMINAL_S / statistics.mean(ref_s)


def _report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:>16.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hoimix", "__init__.py")):
        print(f"perfbench: no hoimix sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2

    started = time.monotonic()
    load_start = os.getloadavg()
    work_dir = os.path.join(ROOT, ".perfbench", "work", str(os.getpid()))
    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    base = {
        "workload": args.workload,
        "seed": args.seed,
        "work_dir": work_dir,
        "spans_path": os.path.join(spans_dir, f"{args.workload}.jsonl"),
    }

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        probes = []
        for i in range(SETUP_PROBES):
            probe = _spawn(dict(base, run_id=f"setup{i}", trace=0, setup_only=True), remaining())
            if probe is None:
                print("perfbench: the program cannot be set up", file=sys.stderr)
                return 1
            probes.append(probe)

        runs: list[dict] = []
        durations: list[float] = []
        loop_start = time.monotonic()
        while True:
            elapsed = time.monotonic() - loop_start
            if len(runs) >= MIN_RUNS and elapsed + statistics.median(durations) > args.seconds:
                break
            if durations and remaining() < 2 * max(durations):
                break
            traced = bool(args.trace) and len(runs) % 2 == 0
            run_id = f"{args.workload}-s{args.seed}-r{len(runs)}"
            spec = dict(base, run_id=run_id, trace=int(traced), setup_only=False)
            t0 = time.monotonic()
            result = _spawn(spec, remaining())
            durations.append(time.monotonic() - t0)
            if result is None:
                result = {"ok": False, "error": "the run process failed"}
            result["traced"] = traced
            runs.append(result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    _mark_inconsistent(runs)
    for i, r in enumerate(runs):
        if not r["ok"]:
            print(f"perfbench: run {i} failed: {r['error']}", file=sys.stderr)
    failed = sum(not r["ok"] for r in runs)
    plain = [r for r in runs if r["ok"] and not r["traced"]]
    traced = [r for r in runs if r["ok"] and r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1

    walls = [_nominal(r["wall_s"], r["ref_s"]) for r in plain]
    # a run's first reference job follows its set-up
    setups = [_nominal(r["setup_s"], r["ref_s"][:1]) for r in probes + runs if "ref_s" in r]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(runs)} runs, {failed} failed")
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                traced_wall = statistics.median(_nominal(r["wall_s"], r["ref_s"]) for r in traced)
                metrics[name] = traced_wall / statistics.median(walls) - 1.0
            elif unit in EXACT_UNITS:
                metrics[name] = traced[0]["layers"][name]
            else:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            _report(name, metrics[name], unit, f"{len(traced)} traced runs")
        units = PER_LAYER
    else:
        wall_tail, pct, n = tail(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": wall_tail,
            "cpu_s": statistics.median(_nominal(r["cpu_s"], r["ref_s"]) for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "map_full": plain[0]["map_full"],
        }
        raw_wall = statistics.median(r["wall_s"] for r in plain)
        speed = statistics.median(REF_NOMINAL_S / statistics.mean(r["ref_s"]) for r in plain)
        notes = {
            "wall_s": f"median of {n} runs (raw {raw_wall:.4g} s at host speed {speed:.3g})",
            "wall_s_tail": f"p{pct:.4g} of {n} runs"
            + (" (fewer than 11: the slowest)" if n < 11 else ""),
            "cpu_s": f"median of {n} runs, user + system, children included",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": f"median of {n} runs, children included",
            "map_full": "final Full mAP",
        }
        for name, unit in END_TO_END.items():
            _report(name, metrics[name], unit, notes[name])
        units = END_TO_END
    _report("fail_frac", failed / len(runs), "ratio", f"{failed} of {len(runs)} runs failed")
    print("# machine " + json.dumps(_machine(probes[0]["versions"], load_start, os.getloadavg())))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
