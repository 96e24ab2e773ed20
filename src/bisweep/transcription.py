"""Direct transcription of the lower effort problem.

An instance holds the frozen plan's path and packs a decision (x_init, u,
u0) into the flat vector the lower solve optimizes; ``solver.solve_lower``
checks and builds the plan once through ``dynamics.frozen_plan``.  The
objective and the contact constraints are read from the smoothed RK4
integrator, so the quadrature used for the objective is the single source
of truth shared with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlProfile, PlanPath
from .geometry import Scenario

__all__ = [
    "DecisionVector",
    "NLPInstance",
]


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

    Decision: x_init, u, u0; the frozen plan (omega, v) enters as its plan
    path, built once, which every unpacked profile carries.
    """

    plan: PlanPath
    scenario: Scenario

    def pack(self, dv: DecisionVector) -> np.ndarray:
        cp = dv.controls
        return np.concatenate([dv.x_init.ravel(), cp.u.ravel(), cp.u0.ravel()])

    def unpack(self, flat: np.ndarray) -> DecisionVector:
        n = self.plan.grid.n_nodes
        d = self.scenario.dim
        flat = np.asarray(flat, dtype=float)
        x_init = flat[:d]
        u = flat[d:d + d * n].reshape(n, d)
        u0 = np.clip(flat[d + d * n:d + d * n + n], 0.0, 1.0)
        return DecisionVector(x_init, self.plan.profile(u, u0))
