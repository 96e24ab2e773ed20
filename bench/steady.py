"""Steadiness self-check: the same run twice must do the same work.

    python3 bench/steady.py --workload corridor [--seed 1]

Runs ``bench/run.py`` once untraced and twice traced, one process at a time,
with the same seed.  The two traced runs must report identical work counters
(every per-layer metric counted in units of ``count``: trajectories,
node steps, lower solves per budget, line-search trials, upper iterations,
``fit_nfev``, candidates, ...) and identical result fingerprints.  The
tracing overhead is printed as traced minus untraced ``pass_s``; compare it
with the run-to-run spread from ``bench/spread.py`` before reading anything
into it.  Exit code 1 when anything differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace, out):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = ROOT / "bench" / "out"

    plain = run(args.workload, args.seed, seconds, 0, out / f"steady-{args.workload}-0.json")
    traced = [run(args.workload, args.seed, seconds, 1, out / f"steady-{args.workload}-{i}.json")
              for i in (1, 2)]
    if plain is None or None in traced:
        print("a run failed", file=sys.stderr)
        return 1

    ok = True
    (ra, da), (rb, db) = traced
    counts = sorted(k for k, m in ra["metrics"].items() if m["unit"] == "count")
    for k in counts:
        a, b = ra["metrics"][k]["value"], rb["metrics"].get(k, {}).get("value")
        same = a == b
        ok &= same
        shown = "-" if b is None else f"{b:g}"
        print(f"{'same' if same else 'DIFF':4s} {k:40s} {a:>14g} {shown:>14s}")
    same_fp = da["fingerprint"] == db["fingerprint"] == plain[1]["fingerprint"]
    ok &= same_fp
    print(f"{'same' if same_fp else 'DIFF':4s} fingerprint (T*, phi, history, certificate, ...)")
    for name, d in (("untraced", plain[1]), ("traced 1", da), ("traced 2", db)):
        if not d["fingerprints_repeat"]:
            ok = False
            print(f"DIFF fingerprints differ between passes of the {name} run")

    untraced = plain[0]["metrics"]["pass_s"]["value"]
    traced_wall = statistics.median(r["metrics"]["trace.pass_s"]["value"] for r, _ in traced)
    print(f"tracing overhead: traced {traced_wall:.4f} s - untraced {untraced:.4f} s = "
          f"{traced_wall - untraced:+.4f} s ({(traced_wall - untraced) / untraced:+.1%}); "
          f"unresolved unless larger than the spread from bench/spread.py")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
