"""Direct transcription of the lower effort problem.

An instance holds the frozen plan's path and the layout of the flat
decision xi = (x_init, D u, D u0) that the lower solve optimizes: ``pack``
scales a ``DecisionVector`` into it, ``split`` reads an iterate's lower
controls back, u0 clipped at its per-node floor ``u0_floor`` and cap
``u0_cap``, and ``unpack`` makes the returned ``DecisionVector``.  The node
scale D_i = sqrt(2 w_i omega_i), with w the trapezoid weights, makes the
effort z_N = sum_i w_i omega_i (|u_i|^2 + u0_i^2) equal to half the squared
norm of xi's control part, so its Hessian in xi is the identity: the matrix
SLSQP's quasi-Newton update starts from on every solve.
``solver.solve_lower`` checks and builds the plan once through
``dynamics.frozen_plan``.  The objective and the contact constraints are
read from the smoothed RK4 integrator, so the quadrature used for the
objective is the single source of truth shared with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlProfile, PlanPath
from .geometry import Scenario

__all__ = [
    "DecisionVector",
    "NLPInstance",
]

# the least node scale D_i, read where omega_i is 0 or nearly so: the effort
# has no curvature there to match, and a smaller D_i would stretch u_i's
# columns of the contact Jacobian by 1 / D_i
SCALE_FLOOR = 1e-2


@dataclass(frozen=True)
class DecisionVector:
    """Initial lower state plus the full control profile."""

    x_init: np.ndarray
    controls: ControlProfile

    def __post_init__(self):
        object.__setattr__(self, "x_init", np.asarray(self.x_init, dtype=float))


@dataclass
class NLPInstance:
    """The transcribed lower problem's decision layout.

    Decision: x_init, D u, D u0; the frozen plan (omega, v) enters as its plan
    path, built once per solve.  ``node_scale`` is D, at least
    ``SCALE_FLOOR``, and ``scale`` is D laid out as the flat decision, 1 on
    x_init.  ``u0_floor`` and ``u0_cap`` are u0's per-node clip in
    ``split``: 0 and 1, or infinite outside ``solver.solve_lower``'s working
    sets, where the model SLSQP differentiates must stay smooth in u0.
    """

    plan: PlanPath
    scenario: Scenario
    node_scale: np.ndarray = field(init=False)
    scale: np.ndarray = field(init=False)
    u0_floor: np.ndarray = field(init=False)
    u0_cap: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.scenario.dim
        self.node_scale = np.maximum(np.sqrt(2.0 * self.plan.weights * self.plan.omega),
                                     SCALE_FLOOR)
        self.scale = np.concatenate([np.ones(d), np.repeat(self.node_scale, d),
                                     self.node_scale])
        n = self.plan.grid.n_nodes
        self.u0_floor, self.u0_cap = np.zeros(n), np.ones(n)

    def pack(self, dv: DecisionVector) -> np.ndarray:
        cp = dv.controls
        return self.scale * np.concatenate([dv.x_init.ravel(), cp.u.ravel(), cp.u0.ravel()])

    def split(self, flat: np.ndarray):
        """(x_init, u, u0) of a flat decision, unscaled; u0 clipped, only
        inside the lower solve's working sets, at 0 (``u0_floor``) and at 1
        (``u0_cap``)."""
        n = self.plan.grid.n_nodes
        d = self.scenario.dim
        flat = np.asarray(flat, dtype=float) / self.scale
        return (flat[:d], flat[d:d + d * n].reshape(n, d),
                np.clip(flat[d + d * n:d + d * n + n], self.u0_floor, self.u0_cap))

    def unpack(self, flat: np.ndarray) -> DecisionVector:
        x_init, u, u0 = self.split(flat)
        return DecisionVector(x_init, ControlProfile(self.plan.grid, self.plan.v, u, u0,
                                                     self.plan.omega))
