"""One measured process: set-up, then at most one run of a workload.

run.py starts this script once per sample, so that every run starts cold,
like a user's `hoimix` process, and its peak resident memory is its own. The
argument is a JSON object with the keys workload, seed, trace, run_id,
setup_only, spawned (time.monotonic() in the parent just before the spawn),
work_dir and spans_path. The last line of standard output is a JSON result.
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _library_versions(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


# The reference job: a fixed mix of small numpy products (like a training
# step) and Python tuple churn and sorting (like scoring), that uses no
# hoimix code. Its time on a host at nominal speed is REF_NOMINAL_S.
REF_PRODUCTS = 2000
REF_SORTS = 60
REF_NOMINAL_S = 0.15


def reference_seconds() -> float:
    """Time the reference job once, to gauge how fast the host runs now."""
    import numpy as np

    rng = np.random.default_rng(0)
    w1, w2, x = rng.normal(size=(23, 64)), rng.normal(size=(64, 24)), rng.normal(size=(48, 23))
    scores = rng.random((100, 24)).tolist()
    start = time.perf_counter()
    for _ in range(REF_PRODUCTS):
        h = np.maximum(x @ w1, 0.0)
        o = h @ w2
        e = np.exp(o - o.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        x.T @ ((p @ w2.T) * (h > 0.0))
    for _ in range(REF_SORTS):
        entries = [(i, j, v) for i, row in enumerate(scores) for j, v in enumerate(row)]
        entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    return time.perf_counter() - start


def measure(workload_name: str, seed: int, work_dir: str, run_id: str, spans_path=None) -> dict:
    """Run one workload once: time it, then check its outputs.

    With spans_path set, the run is traced, the spans are written there and
    the per-layer metrics are returned under "layers". "ref_s" holds the
    times of the reference job run just before and just after the workload.
    """
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    out_dir = tempfile.mkdtemp(dir=work_dir)
    tracing = spans_path is not None
    try:
        with Tracer(run_id) if tracing else contextlib.nullcontext() as tracer:
            ref_before = reference_seconds()
            cpu_start = _cpu_s()
            start = time.perf_counter()
            result = workload.run(seed, out_dir)
            wall_s = time.perf_counter() - start
            cpu_s = _cpu_s() - cpu_start
            ref_after = reference_seconds()
            map_full, fingerprint = workload.check(seed, out_dir, result)
            layers = tracer.metrics(wall_s) if tracing else None
    except Exception as exc:  # any failure of the program or of a check is one failed run
        traceback.print_exc()
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out = {
        "ok": True,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": [ref_before, ref_after],
        "peak_rss_mb": _peak_rss_mb(),
        "map_full": map_full,
        "fingerprint": fingerprint,
    }
    if tracing:
        out["layers"] = layers
        tracer.write_spans(spans_path)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy as np

    import hoimix
    from hoimix.model import ModelParams, forward

    if not os.path.abspath(hoimix.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"hoimix was imported from {hoimix.__file__}, not from this checkout", file=sys.stderr)
        return 2
    forward(ModelParams.init(23, 64, 24, 0), np.ones((4, 23)))
    out = {"setup_s": time.monotonic() - spec["spawned"]}
    if spec["setup_only"]:
        out["ref_s"] = [reference_seconds()]
        out["versions"] = _library_versions(np)
    else:
        out.update(
            measure(
                spec["workload"],
                spec["seed"],
                spec["work_dir"],
                spec["run_id"],
                spec["spans_path"] if spec["trace"] else None,
            )
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
