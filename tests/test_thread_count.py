"""The corridor solve and its certificate at one and at two BLAS threads.

scipy's bundled OpenBLAS rounds differently with its worker thread, so the
two runs are made in child processes with ``OPENBLAS_NUM_THREADS`` set
before scipy loads.  Measured on a 2-core host:

- T* (7.989999999999999), the final phi (1.7838161235959955), every lower
  solve's iteration count (12/7/7/8/9/10), exit status and convergence flag,
  and every verdict are equal;
- the other floats of the gamma-path records move in their last bits: phi
  by at most 3e-15 relative, the KKT residual by 1e-7 relative and the
  contact violation (about 1e-13 or below) by 1.3e-15;
- of the certificate's residuals, value_selection moves most, by 2.5e-7
  relative. On the exact Jacobian the Levenberg-Marquardt fit hardly
  moves: adjoint by 2.6e-11 and conservation by 3.5e-10 relative
  (1.7e-3 and 3e-4 under the earlier forward differences), measures not
  at all; nontriviality goes from 2.2e-16 to 0 and boundary from 0 to
  5.6e-17.

The history tolerances are about ten times the largest of these. The
residual tolerance was set at about six times the forward-difference fit's
moves, and is kept.

The exact ``one["phi"] == two["phi"]`` holds by a one-ulp coincidence, not
by a property of the solve.  Scaling ``reverse_smooth``'s ``d_u`` by
(1 + k 2^-52), for k = +-1, +-2, +-3, 4 and 5, split phi across one and two
threads in all 8 cases (at k = 1, 1.7838161235959904 at one thread and
1.7838161235959928 at two), while T*, every iteration count and every
verdict stayed equal.  On a prototype lower solve that gave SLSQP its u-ball rows
only where they bind, varying only scipy's bundled OpenBLAS thread count
reproduced its phi split, and varying only numpy's changed nothing.  So
any change to the lower solve's arithmetic is likely to fail this
assertion, whatever its effect on the answer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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

# exact across thread counts: the final answer and every count and flag
EXACT_KEYS = ("gamma", "iterations", "exit_status", "converged")
HISTORY_RTOL, HISTORY_ATOL = 1e-6, 1e-14
RESIDUAL_RTOL, RESIDUAL_ATOL = 1e-2, 1e-15


def _run(threads: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(Path(bisweep.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    return json.loads(proc.stdout)


def test_corridor_solve_and_verdicts_agree_at_one_and_two_blas_threads():
    one, two = _run(1), _run(2)
    assert one["T_star"] == two["T_star"]
    assert one["phi"] == two["phi"]
    assert len(one["history"]) == len(two["history"]) == 6
    for a, b in zip(one["history"], two["history"]):
        assert a.keys() == b.keys()
        for key in a:
            if key in EXACT_KEYS:
                assert a[key] == b[key], key
            else:
                assert np.isclose(a[key], b[key], rtol=HISTORY_RTOL, atol=HISTORY_ATOL), key
    assert one["verdicts"] == two["verdicts"]
    assert one["residuals"].keys() == two["residuals"].keys()
    for name, res in one["residuals"].items():
        assert np.isclose(res, two["residuals"][name],
                          rtol=RESIDUAL_RTOL, atol=RESIDUAL_ATOL), name
