"""Direct transcription of the lower effort problem.

An instance holds the frozen plan's path and the layout of the flat
decision (x_init, u, u0) that the lower solve optimizes: ``split`` reads an
iterate's lower controls, ``unpack`` makes the returned ``DecisionVector``.
``solver.solve_lower`` checks and builds the plan once through
``dynamics.frozen_plan``.  The objective and the contact constraints are
read from the smoothed RK4 integrator, so the quadrature used for the
objective is the single source of truth shared with the simulator.
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
    path, built once per solve.
    """

    plan: PlanPath
    scenario: Scenario

    def pack(self, dv: DecisionVector) -> np.ndarray:
        cp = dv.controls
        return np.concatenate([dv.x_init.ravel(), cp.u.ravel(), cp.u0.ravel()])

    def split(self, flat: np.ndarray):
        """(x_init, u, u0) of a flat decision; u0 clipped to [0, 1]."""
        n = self.plan.grid.n_nodes
        d = self.scenario.dim
        flat = np.asarray(flat, dtype=float)
        return (flat[:d], flat[d:d + d * n].reshape(n, d),
                np.clip(flat[d + d * n:d + d * n + n], 0.0, 1.0))

    def unpack(self, flat: np.ndarray) -> DecisionVector:
        x_init, u, u0 = self.split(flat)
        return DecisionVector(x_init, ControlProfile(self.plan.grid, self.plan.v, u, u0,
                                                     self.plan.omega))
