"""Problem-instance data model: disks, constraint functions, exit target, assumption checks.

The moving set is a small disk Q1 (radius ``R1``) translated by the plan
center ``y`` inside a big disk Q (center ``q0``, radius ``R``).  The exit
target is the boundary of the exit arc thickened by ``R1`` and clipped to Q:
at most four circular arcs (``_target_arcs``), so the distance to it and the
direction of its nearest point have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import yaml

__all__ = [
    "DriftSpec",
    "ExitArc",
    "Scenario",
    "TruncationBounds",
    "ValidationCheck",
    "ValidationReport",
    "h_upper",
    "h_lower",
    "project_disk",
    "truncation_bounds",
    "target_distance",
    "target_direction",
    "validate",
    "load_scenario",
    "save_scenario",
    "require_known_keys",
    "straight_corridor",
]


@dataclass(frozen=True)
class DriftSpec:
    """Named drift family.

    ``identity``: f(x, u) = u.
    ``affine``:   f(x, u) = A x + u, saturated at magnitude ``M1`` so the
    global bound of H1 holds (the saturation never activates inside the
    working box |x| <= R + R1 for sane A).
    """

    name: str = "identity"
    A: Optional[tuple] = None  # row-major n x n matrix entries, affine only

    def matrix(self, dim: int) -> np.ndarray:
        if self.name == "identity" or self.A is None:
            return np.zeros((dim, dim))
        A = np.asarray(self.A, dtype=float).reshape(dim, dim)
        return A

    def __post_init__(self):
        if self.name not in ("identity", "affine"):
            raise ValueError(f"unsupported drift family {self.name!r}")


@dataclass(frozen=True)
class ExitArc:
    """Closed angular arc of the big circle's boundary; degenerate (point) arcs allowed."""

    angle_lo: float = 0.0
    angle_hi: float = 0.0

    def __post_init__(self):
        _require_finite(angle_lo=self.angle_lo, angle_hi=self.angle_hi)
        if self.angle_lo > self.angle_hi:
            raise ValueError("angle_lo must not exceed angle_hi")


@dataclass(frozen=True)
class TruncationBounds:
    """Admissible window (m_bar, M_bar) for the cone truncation level."""

    M_bar: float
    m_bar: float

    @property
    def window_nonempty(self) -> bool:
        return self.M_bar > self.m_bar


ASSUMPTION_SAMPLES = 256  # sample count of the sampled assumption checks
EXIT_ARC_SAMPLES = 512  # points per target arc in Scenario.exit_boundary_samples

# sections and keys of a scenario file, as Scenario.to_dict writes them
SCENARIO_KEYS = {"geometry": ("q0", "R", "R1", "y0", "exit"), "cone": ("M",),
                 "controls": ("u_bound", "v_bound"), "drift": ("name", "A", "M1", "K_f", "delta")}


def require_known_keys(d, known, what: str) -> dict:
    """The mapping ``d`` ({} for None); a ValueError names any key not in ``known``."""
    d = {} if d is None else d
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {type(d).__name__}")
    unknown = [str(k) for k in d if k not in known]
    if unknown:
        raise ValueError(f"unknown {what}: {', '.join(unknown)} "
                         f"(expected one of: {', '.join(known)})")
    return d


def _require_finite(**values) -> None:
    """A ValueError names the first value (None skipped) with a non-finite entry."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """All problem constants for one bilevel sweeping instance."""

    q0: tuple = (0.0, 0.0)
    R: float = 10.0
    R1: float = 1.0
    y0: tuple = (0.0, 0.0)
    exit: ExitArc = field(default_factory=ExitArc)
    M: float = 1.5
    u_bound: float = 1.0
    v_bound: float = 1.0
    drift: DriftSpec = field(default_factory=DriftSpec)
    M1: Optional[float] = None
    K_f: Optional[float] = None
    delta: Optional[float] = None
    dim: int = 2

    def __post_init__(self):
        _require_finite(q0=self.q0, R=self.R, R1=self.R1, y0=self.y0, M=self.M,
                       u_bound=self.u_bound, v_bound=self.v_bound, M1=self.M1,
                       K_f=self.K_f, delta=self.delta, A=self.drift.A)
        if self.dim != 2:
            raise ValueError("only planar scenarios are supported")
        if not (self.R > self.R1 > 0.0):
            raise ValueError("need R > R1 > 0")
        if np.linalg.norm(self.y0_arr - self.q0_arr) > self.R - self.R1 + 1e-12:
            raise ValueError("initial small disk must be contained in the big disk")
        if self.u_bound < 0 or self.v_bound < 0:
            raise ValueError("control bounds must be nonnegative")
        if self.M1 is None:
            object.__setattr__(self, "M1", self._default_M1())
        if self.K_f is None:
            object.__setattr__(self, "K_f", float(np.linalg.norm(self.drift.matrix(self.dim), 2)))
        if self.delta is None:
            # identity drift covers delta*B with any delta <= u_bound
            object.__setattr__(self, "delta", self.u_bound)

    def _default_M1(self) -> float:
        if self.drift.name == "identity":
            return self.u_bound
        A = self.drift.matrix(self.dim)
        box = self.R + self.R1
        return float(np.linalg.norm(A, 2) * box + self.u_bound)

    @property
    def q0_arr(self) -> np.ndarray:
        return np.asarray(self.q0, dtype=float)

    @property
    def y0_arr(self) -> np.ndarray:
        return np.asarray(self.y0, dtype=float)

    @property
    def cone_gain(self) -> float:
        """M / R1, the cap of the cone coefficient."""
        return self.M / self.R1

    def exit_boundary_samples(self) -> np.ndarray:
        """``EXIT_ARC_SAMPLES`` points on each arc of the exit target curve;
        ``target_distance`` and ``target_direction`` read the arcs, not these."""
        return np.concatenate([c + r * _unit(np.linspace(a0, a1, EXIT_ARC_SAMPLES))
                               for c, arcs in _target_arcs(self) for r, a0, a1 in arcs])

    def to_dict(self) -> dict:
        return {
            "geometry": {
                "q0": list(self.q0),
                "R": self.R,
                "R1": self.R1,
                "y0": list(self.y0),
                "exit": {"angle_lo": self.exit.angle_lo, "angle_hi": self.exit.angle_hi},
            },
            "cone": {"M": self.M},
            "controls": {"u_bound": self.u_bound, "v_bound": self.v_bound},
            "drift": {
                "name": self.drift.name,
                "A": None if self.drift.A is None else list(self.drift.A),
                "M1": self.M1,
                "K_f": self.K_f,
                "delta": self.delta,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Inverse of ``to_dict``; an unknown section or key is a ValueError."""
        d = require_known_keys(d, tuple(SCENARIO_KEYS), "scenario section")
        g, cone, ctrl, dr = (require_known_keys(d.get(name), keys, f"{name} key")
                             for name, keys in SCENARIO_KEYS.items())
        exit_d = require_known_keys(g.get("exit"), ("angle_lo", "angle_hi"), "geometry.exit key")
        return cls(
            q0=tuple(g.get("q0", (0.0, 0.0))),
            R=float(g.get("R", 10.0)),
            R1=float(g.get("R1", 1.0)),
            y0=tuple(g.get("y0", (0.0, 0.0))),
            exit=ExitArc(float(exit_d.get("angle_lo", 0.0)), float(exit_d.get("angle_hi", 0.0))),
            M=float(cone.get("M", 1.5)),
            u_bound=float(ctrl.get("u_bound", 1.0)),
            v_bound=float(ctrl.get("v_bound", 1.0)),
            drift=DriftSpec(dr.get("name", "identity"), None if dr.get("A") is None else tuple(dr["A"])),
            M1=dr.get("M1"),
            K_f=dr.get("K_f"),
            delta=dr.get("delta"),
        )


def straight_corridor(**overrides) -> Scenario:
    """Canonical demo instance: exit dead ahead at angle 0, everything symmetric."""
    base = Scenario()
    return replace(base, **overrides) if overrides else base


def load_scenario(path) -> Scenario:
    with open(path, "r") as fh:
        return Scenario.from_dict(yaml.safe_load(fh))


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(s.to_dict(), fh, sort_keys=False)


def h_upper(y, s: Scenario) -> float:
    """Upper containment constraint: <= 0 iff Q1 + y lies inside Q."""
    d = np.asarray(y, dtype=float) - s.q0_arr
    return 0.5 * (np.einsum("...i,...i", d, d) - (s.R - s.R1) ** 2)


def h_lower(x, y, s: Scenario) -> float:
    """Lower containment constraint: <= 0 iff x lies in Q1 + y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return 0.5 * (np.einsum("...i,...i", d, d) - s.R1 ** 2)


def project_disk(p, center, radius: float) -> np.ndarray:
    """Euclidean projection onto the closed disk of the given center and radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    p = np.asarray(p, dtype=float)
    center = np.asarray(center, dtype=float)
    d = p - center
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    scale = np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)
    return center + d * scale


def truncation_bounds(s: Scenario) -> TruncationBounds:
    """Admissible truncation window (M_bar, m_bar) for the cone level M.

    For ball control sets with identity drift the minimax has the closed form
    M_bar = b_U + b_V, m_bar = -(b_U + b_V).  Other drifts are estimated by
    minimax over ``ASSUMPTION_SAMPLES`` unit normals and control extremes over
    the working box.
    """
    bU, bV = s.u_bound, s.v_bound
    if s.drift.name == "identity":
        return TruncationBounds(M_bar=bU + bV, m_bar=-(bU + bV))
    # sampled minimax: zeta on the unit circle, x on the working box boundary region
    thetas = np.linspace(0.0, 2.0 * math.pi, ASSUMPTION_SAMPLES, endpoint=False)
    zetas = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    A = s.drift.matrix(s.dim)
    box = s.R  # centers of Q1 + y stay within |y - q0| <= R - R1; x within R
    xs = s.q0_arr + box * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    # max_u <zeta, Ax + u> = <zeta, Ax> + bU ; min over x samples handled jointly
    proj = np.einsum("ij,kj->ik", zetas, xs @ A.T)  # <zeta_i, A x_k>
    upper = (proj + bU).max(axis=1) + bV  # max_u - min_v = ... + bU + bV
    lower = (proj - bU).min(axis=1) - bV
    return TruncationBounds(M_bar=float(upper.min()), m_bar=float(lower.max()))


def _unit(angles):
    """Unit vectors (..., 2) at the given angles."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _target_arcs(s: Scenario):
    """The exit target curve, the boundary of (arc + R1*ball) intersected
    with Q, as four circular arcs grouped by center: (center, ((radius,
    angle_lo, angle_hi), ...)).

    With delta = 2 asin(R1 / 2R), the angle a chord of length R1 subtends on
    the big circle, they are: about q0, the inner offset arc and the rim
    within R1 of the exit arc; about the arc's end points e_hi and e_lo, the
    end caps from the rim inward to the inner arc.  An arc spanning 2*pi or
    more is the whole circle.  Where the exit arc nearly closes, parts of the
    caps lie inside the target region.  That changes no ``target_distance``:
    no point outside the region is nearer to them than to its boundary, and
    every point inside is within R1 of the exit arc, which lies on the rim.
    """
    lo, hi = s.exit.angle_lo, s.exit.angle_hi
    q0, R, R1 = s.q0_arr, s.R, s.R1
    delta = 2.0 * math.asin(R1 / (2.0 * R))
    return ((q0, ((R - R1, lo, hi), (R, lo - delta, hi + delta))),
            (q0 + R * _unit(hi), ((R1, hi + 0.5 * (math.pi + delta), hi + math.pi),)),
            (q0 + R * _unit(lo), ((R1, lo - math.pi, lo - 0.5 * (math.pi + delta)),)))


def _arc_gaps(rows, s: Scenario):
    """For each target arc: its center and radius, the distance from each of
    the points ``rows`` (B, 2) to it, and the angle about the center of the
    arc point nearest to each.

    That point is at the row's own angle theta clipped to the arc, t, so with
    rho the row's distance from the center the distance is
    hypot(rho - r, 2 sqrt(rho r) sin((theta - t) / 2)): exactly |rho - r|
    within the arc's angles.
    """
    for c, arcs in _target_arcs(s):
        rel = rows - c
        rho, theta = np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])
        for r, a0, a1 in arcs:
            w = _wrap_to(theta, a0, a1)
            t = np.clip(w, a0, a1)
            yield c, r, np.hypot(rho - r, 2.0 * np.sqrt(rho * r) * np.sin(0.5 * (w - t))), t


def _wrap_to(ang, lo, hi):
    """Shift angles by multiples of 2*pi as close as possible into [lo, hi]."""
    mid = 0.5 * (lo + hi)
    return ang + 2.0 * math.pi * np.round((mid - ang) / (2.0 * math.pi))


def target_distance(y, s: Scenario) -> float:
    """How far the moving disk Q1 + y is from touching the exit target curve.

    Returns max(0, dist(y, target curve) - R1): zero exactly when the disk
    around y reaches the curve.  The subtraction of R1 (rather than the raw
    point distance of y itself) is what makes the canonical corridor
    instance have an 8-unit straight-line run; see README notes on the target.
    The distance is the least over the four arcs of ``_target_arcs``, for a
    point (n,) or a batch (..., n).
    """
    y = np.asarray(y, dtype=float)
    best = np.inf
    for _, _, gap, _ in _arc_gaps(y.reshape(-1, 2), s):
        best = np.minimum(best, gap)
    return np.maximum(0.0, best - s.R1).reshape(y.shape[:-1])[()]


def dot_rows(a, b):
    """Dot product over the last axis, each row rounded exactly as ``np.dot``."""
    return (np.asarray(a, dtype=float)[..., None, :] @ np.asarray(b, dtype=float)[..., :, None])[..., 0, 0]


def target_direction(y, s: Scenario) -> np.ndarray:
    """Unit vector from y toward the point of the exit target curve nearest
    to it, the one whose distance ``target_distance`` reports (zero if on
    it); for a point (n,) or a batch (..., n)."""
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, 2)
    best = np.full(len(rows), np.inf)
    near = np.empty_like(rows)
    for c, r, gap, t in _arc_gaps(rows, s):
        closer = gap < best
        best[closer] = gap[closer]
        near[closer] = c + r * _unit(t[closer])
    d = near - rows
    nrm = np.linalg.norm(d, axis=-1, keepdims=True)
    return np.where(nrm < 1e-12, 0.0, d / np.maximum(nrm, 1e-300)).reshape(y.shape)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def validate(s: Scenario) -> ValidationReport:
    """Check the standing assumptions H1-H6 on a scenario, by sampling where
    needed: ``ASSUMPTION_SAMPLES`` points from a generator seeded with 0."""
    from . import dynamics  # local import: drift evaluation lives there

    rng, samples = np.random.default_rng(0), ASSUMPTION_SAMPLES
    checks = []

    # H1: bound M1 and Lipschitz constant K_f by sampling the working box
    box = s.R + s.R1
    xs = rng.uniform(-box, box, size=(samples, s.dim)) + s.q0_arr
    us = rng.normal(size=(samples, s.dim))
    us *= (s.u_bound * rng.uniform(0, 1, size=(samples, 1)) ** 0.5) / np.maximum(
        np.linalg.norm(us, axis=1, keepdims=True), 1e-12
    )
    fvals = dynamics.drift(xs, us, s)
    sup_f = float(np.linalg.norm(fvals, axis=1).max())
    checks.append(
        ValidationCheck("H1-bound", sup_f <= s.M1 + 1e-9, f"sampled sup|f|={sup_f:.6g}, M1={s.M1:.6g}")
    )
    # Lipschitz sample in x at fixed u
    x2 = xs + rng.normal(scale=0.1, size=xs.shape)
    f2 = dynamics.drift(x2, us, s)
    num = np.linalg.norm(f2 - fvals, axis=1)
    den = np.maximum(np.linalg.norm(x2 - xs, axis=1), 1e-12)
    lip = float((num / den).max())
    checks.append(
        ValidationCheck("H1-lipschitz", lip <= s.K_f + 1e-9, f"sampled Lipschitz={lip:.6g}, K_f={s.K_f:.6g}")
    )
    # H2: convex image -- satisfied by construction for the supported families
    checks.append(ValidationCheck("H2-convex-image", True, "by construction for identity/affine drift"))
    # H3: ball control sets are compact convex by construction, but degenerate
    # zero-radius pairs break H5 downstream
    checks.append(ValidationCheck("H3-compact-convex", True, "U, V are closed balls"))
    # H4: delta * B subset of f(x, U); for identity drift iff delta <= u_bound
    h4_ok = s.delta is not None and s.delta > 0 and s.delta <= s.u_bound + 1e-12
    checks.append(ValidationCheck("H4-inner-ball", bool(h4_ok), f"delta={s.delta}, u_bound={s.u_bound}"))
    # H5: truncation window
    tb = truncation_bounds(s)
    h5_ok = (s.M > 0) and (tb.m_bar < s.M < tb.M_bar)
    detail = f"m_bar={tb.m_bar:.6g} < M={s.M:.6g} < M_bar={tb.M_bar:.6g}"
    if s.M <= 0:
        detail = f"M={s.M:.6g} must be positive"
    elif s.M >= tb.M_bar:
        detail += " violated: strong invariance, bilevel collapses"
    elif s.M <= tb.m_bar:
        detail += " violated: lower-level feasibility may be lost"
    if not tb.window_nonempty:
        detail += " (window empty: degenerate control sets)"
        h5_ok = False
    checks.append(ValidationCheck("H5-truncation-window", bool(h5_ok), detail))
    # geometric containment
    cont = np.linalg.norm(s.y0_arr - s.q0_arr) <= s.R - s.R1 + 1e-12
    checks.append(ValidationCheck("geometry-containment", bool(cont), "Q1 + y0 inside Q"))
    # exit target nonempty: with finite angles and R > R1 > 0 it holds the inner offset arc
    checks.append(ValidationCheck("exit-target-nonempty", True, "by construction"))
    # H6 is not machine checkable: recorded as assumed
    checks.append(ValidationCheck("H6-nonisolated-optimum", True, "assumed (not machine-checkable)"))
    return ValidationReport(tuple(checks))
