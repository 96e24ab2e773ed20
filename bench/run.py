"""bisweep benchmark: one workload per run, timed passes, checked outputs.

    python3 bench/run.py --workload corridor --seed 1 --seconds 10 --trace 0

Run from the repository root; bisweep is imported from ``src/``.  The run
builds its inputs from ``--seed``, repeats whole passes of the workload until
``--seconds`` have passed (at least one pass), checks every operation's
output, and prints one line per metric followed, as the last line of
standard output, by a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the bisweep layers are wrapped by ``tracing.Tracer`` and the
metrics are the per-layer ones.  A detail record (step timings, fingerprints,
host and provenance) is written to ``--out``.  Exit code 0 when every check
passed, 1 when one failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("geometry", "dynamics", "transcription", "solver", "certificate", "oracle")
SETUP_REPEATS = 5
STEPS = ("solve", "certify", "oracle", "simulate")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="detail record (default bench/out/<workload>-s<seed>-t<trace>.json)")
    return p.parse_args(argv)


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    dirty = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (dirty != "") if dirty is not None else None,
    }


def timing_stats(xs) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = xs[n - 11]
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "bisweep" / "__init__.py").is_file():
        print(f"bisweep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401
    libs_s = time.perf_counter() - t0
    import hostspeed

    probe = hostspeed.SpeedProbe()
    probe.start()
    try:
        return _run(args, probe, libs_s)
    finally:
        probe.stop()


def _import_bisweep():
    """Import bisweep's modules afresh; returns the (start, end) window."""
    for name in [m for m in sys.modules if m == "bisweep" or m.startswith("bisweep.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    for name in MODULES:
        importlib.import_module(f"bisweep.{name}")
    return t0, time.perf_counter()


def _run(args, probe, libs_s) -> int:
    # the first import is cold; the median of the repeats is what set-up reports
    import_windows = [_import_bisweep() for _ in range(SETUP_REPEATS)]
    import bisweep
    if Path(bisweep.__file__).resolve().parent != SRC / "bisweep":
        print(f"bisweep imported from {bisweep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import hostspeed
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    rec = workloads.Recorder()
    setup_windows, pass_windows, fingerprints = [], [], []
    if args.trace:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed)
            setup_windows.append((t0, time.perf_counter()))
        start = time.perf_counter()
        while not pass_windows or time.perf_counter() - start < args.seconds:
            tracer.phase = len(pass_windows)
            rec.begin_pass()
            t0 = time.perf_counter()
            fingerprints.append(wl.run_pass(state, rec))
            pass_windows.append((t0, time.perf_counter()))
            rec.end_pass()
    finally:
        tracer.uninstall()
    probe.stop()
    passes = len(pass_windows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def raw(windows):
        return [b - a for a, b in windows]

    def at_ref(windows):
        return [probe.at_reference(a, b) for a, b in windows]

    setup_s = statistics.median(at_ref(import_windows)) + statistics.median(at_ref(setup_windows))
    pass_s = statistics.median(at_ref(pass_windows))

    steps = {f"{k}_s": timing_stats(v) for k, v in rec.step_times.items()}
    ops = {k: timing_stats(v) for k, v in rec.op_times.items()}
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "host": provenance(),
        "host_speed": {"reference_ms": 1e3 * hostspeed.REFERENCE_S,
                       "median_sample_ms": 1e3 * probe.median_sample(),
                       "samples": len(probe.samples)},
        "setup": {"import_bisweep_s": raw(import_windows), "setup_repeats_s": raw(setup_windows),
                  "numpy_scipy_import_s": libs_s},
        "end_to_end": {
            "setup_s": setup_s, "pass_s": timing_stats(at_ref(pass_windows)),
            "wall_s": timing_stats(raw(pass_windows)), **steps,
            "peak_rss_mb": peak_rss_mb, "max_violation": rec.max_violation,
            "ops_attempted": rec.attempted, "ops_failed": rec.failed},
        "ops": ops,
        "failures": rec.failures,
        "fingerprint": fingerprints[0],
        "fingerprints_repeat": all(f == fingerprints[0] for f in fingerprints),
    }

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, passes)
        layers["solver.stages"] = rec.counters.get("solver.stages", 0.0) / passes
        layers["trace.pass_s"] = pass_s
        detail["per_layer"] = layers
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {"pass_s": {"value": pass_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    out = args.out or ROOT / "bench" / "out" / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        tracer.dump(out.with_suffix(".spans.json"))

    e2e = detail["end_to_end"]
    print(f"# {wl.name} seed={args.seed} passes={passes} trace={args.trace} "
          f"detail={out}")
    for key in ("setup_s", "pass_s", "wall_s", *(f"{s}_s" for s in STEPS)):
        v = e2e.get(key)
        if isinstance(v, dict):
            print(f"{key:>14s} {v['median']:.6g} s  (median of n={v['n']})")
        elif v is not None:
            print(f"{key:>14s} {v:.6g} s")
    print(f"{'peak_rss_mb':>14s} {peak_rss_mb:.1f} MB")
    print(f"{'max_violation':>14s} {rec.max_violation:.3e}")
    print(f"{'ops_attempted':>14s} {rec.attempted}")
    print(f"{'ops_failed':>14s} {rec.failed}")
    for line in rec.failures:
        print(f"FAILED {line.strip().splitlines()[-1]}")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if rec.failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
