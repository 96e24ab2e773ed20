"""The corridor solve and its certificate at one and at two BLAS threads.

The two runs are made in child processes with ``OPENBLAS_NUM_THREADS`` set
before scipy loads.  scipy's bundled OpenBLAS rounds SLSQP's QP differently
with its worker thread, so ``solver`` runs every SLSQP solve, plan and
lower, at one scipy BLAS thread (``solver._one_blas_thread``).  Every
output is then the same float at either count, by that pin and not by
coincidence: T*, phi, every field of every gamma-path record, and every
certificate verdict and residual.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import bisweep

SCRIPT = """
import json
from bisweep.certificate import certify
from bisweep.geometry import straight_corridor
from bisweep.solver import SolverOptions, solve_bilevel

s = straight_corridor()
sol = solve_bilevel(s, opts=SolverOptions(n_intervals=40, seeds=1, screen_iters=3))
rep = certify(sol, s)
print(json.dumps({"T_star": sol.T_star, "phi": sol.lower.value, "history": sol.history,
                  "verdicts": {k: c["ok"] for k, c in rep.conditions.items()},
                  "residuals": {k: c["residual"] for k, c in rep.conditions.items()}},
                 default=lambda o: o.item()))
"""


def _run(threads: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(Path(bisweep.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    return json.loads(proc.stdout)


def test_corridor_solve_and_verdicts_agree_at_one_and_two_blas_threads():
    one, two = _run(1), _run(2)
    assert len(one["history"]) == 6
    # json round-trips every float exactly, so == compares the bits (a NaN
    # residual would fail it)
    for key in ("T_star", "phi", "history", "verdicts", "residuals"):
        assert one[key] == two[key], key
