"""Direct transcription of the lower effort problem.

An instance holds the frozen plan and packs a decision (x_init, u, u0) into
the flat vector the lower solve optimizes; ``solver.solve_lower`` checks the
plan through ``ControlProfile``.  The objective and the contact constraints
are read from the smoothed RK4 integrator, so the quadrature used for the
objective is the single source of truth shared with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlProfile, TimeGrid
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

    Decision: x_init, u, u0; omega and v are frozen plan parameters.
    """

    grid: TimeGrid
    scenario: Scenario
    fixed_omega: np.ndarray
    fixed_v: np.ndarray

    def pack(self, dv: DecisionVector) -> np.ndarray:
        cp = dv.controls
        return np.concatenate([dv.x_init.ravel(), cp.u.ravel(), cp.u0.ravel()])

    def unpack(self, flat: np.ndarray) -> DecisionVector:
        n = self.grid.n_nodes
        d = self.scenario.dim
        flat = np.asarray(flat, dtype=float)
        x_init = flat[:d]
        u = flat[d:d + d * n].reshape(n, d)
        u0 = np.clip(flat[d + d * n:d + d * n + n], 0.0, 1.0)
        cp = ControlProfile(self.grid, self.fixed_v, u, u0, self.fixed_omega)
        return DecisionVector(x_init, cp)

