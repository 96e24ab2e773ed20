"""Problem-instance data model: disks, constraint functions, exit target, assumption checks.

The moving set is a small disk Q1 (radius ``R1``) translated by the plan
center ``y`` inside a big disk Q (center ``q0``, radius ``R``).  The exit
target is the boundary of the exit arc thickened by ``R1`` and clipped to Q:
at most four circular arcs (``_target_arcs``), so the distance to it and the
direction of its nearest point have closed forms.  Every number of a scenario
is read by ``checked``, and ``validate`` checks by formula, without sampling,
the standing assumptions that its numbers can break.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "DriftSpec",
    "ExitArc",
    "Scenario",
    "ValidationCheck",
    "ValidationReport",
    "checked",
    "h_upper",
    "h_lower",
    "truncation_bounds",
    "target_distance",
    "target_direction",
    "validate",
    "require_known_keys",
    "straight_corridor",
]


def checked(name: str, value, kind=float, least=-math.inf, most=math.inf, size=None):
    """``value`` as a ``kind`` (float or int) in [least, most]; with a ``size``,
    a flat tuple of that many such entries, a nested value read row-major.

    A ValueError names ``name`` when the value is a bool or not a number, has
    another length, or is not finite or out of range.
    """
    if size is not None:
        entries = np.array(value, dtype=object).ravel().tolist()
        if len(entries) != size:
            raise ValueError(f"{name} must have {size} entries, got {value!r}")
        return tuple(checked(name, x, kind, least, most) for x in entries)
    word = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{name} must be {word}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the range of a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not least <= value <= most:
        raise ValueError(f"{name} must be {word} in [{least}, {most}], got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class DriftSpec:
    """Named drift family.

    ``identity``: f(x, u) = u; it takes no ``A``.
    ``affine``:   f(x, u) = A x + u, saturated at magnitude ``M1`` so the
    global bound of H1 holds by construction; ``A`` is its 2 x 2 matrix, flat
    row-major or nested, stored flat.
    """

    name: str = "identity"
    A: Optional[tuple] = None

    def matrix(self, dim: int) -> np.ndarray:
        if self.A is None:
            return np.zeros((dim, dim))
        return np.asarray(self.A, dtype=float).reshape(dim, dim)

    def __post_init__(self):
        if self.name not in ("identity", "affine"):
            raise ValueError(f"unsupported drift family {self.name!r}")
        if (self.A is None) != (self.name == "identity"):
            raise ValueError(f"A must be given for affine drift and only for it: "
                             f"drift {self.name!r}, A = {self.A!r}")
        if self.A is not None:
            object.__setattr__(self, "A", checked("A", self.A, size=4))


@dataclass(frozen=True)
class ExitArc:
    """Closed angular arc of the big circle's boundary; degenerate (point) arcs allowed."""

    angle_lo: float = 0.0
    angle_hi: float = 0.0

    def __post_init__(self):
        for name in ("angle_lo", "angle_hi"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))
        if self.angle_lo > self.angle_hi:
            raise ValueError("angle_lo must not exceed angle_hi")


EXIT_ARC_SAMPLES = 512  # points per target arc in Scenario.exit_boundary_samples

# a scenario file's sections and keys, in the order Scenario.to_dict writes them
SCENARIO_KEYS = {"geometry": ("q0", "R", "R1", "y0", "exit"), "cone": ("M",),
                 "controls": ("u_bound", "v_bound"), "drift": ("name", "A", "M1", "K_f")}


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


@dataclass(frozen=True)
class Scenario:
    """All problem constants for one bilevel sweeping instance.

    ``M1`` and ``K_f`` left at None are derived from the drift and the
    control bounds: the drift's bound over the working box and ‖A‖₂.
    """

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
    dim: ClassVar[int] = 2  # only planar scenarios

    def __post_init__(self):
        def store(name, value, **kw):
            object.__setattr__(self, name, checked(name, value, **kw))

        for name in ("q0", "y0"):
            store(name, getattr(self, name), size=self.dim)
        for name in ("R", "R1", "u_bound", "v_bound"):
            store(name, getattr(self, name), least=0.0)
        store("M", self.M)
        if not (self.R > self.R1 > 0.0):
            raise ValueError("need R > R1 > 0")
        if np.linalg.norm(self.y0_arr - self.q0_arr) > self.R - self.R1 + 1e-12:
            raise ValueError("initial small disk must be contained in the big disk")
        A = self.drift.matrix(self.dim)
        lip = float(np.linalg.norm(A, 2))
        # identity drift: |f| = |u|;
        # affine drift: |A x| <= |A q0| + ‖A‖₂ |x - q0| on the box |x - q0| <= R + R1
        M1 = self.u_bound if self.drift.A is None else (
            float(np.linalg.norm(A @ self.q0_arr)) + lip * (self.R + self.R1) + self.u_bound)
        for name, value in (("M1", M1), ("K_f", lip)):
            given = getattr(self, name)
            store(name, value if given is None else given, least=0.0)

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

    def smoothing_gain(self, value, name: str = "gamma") -> float:
        """``value`` read by ``checked`` as a smoothing gain: the smoothed
        system is defined only for a finite gain above M/R1."""
        try:
            gamma = checked(name, value)
        except ValueError:   # not a finite number: refused below, naming M/R1
            gamma = -math.inf
        if gamma <= self.cone_gain:
            raise ValueError(f"{name} must be a finite number above M/R1 = "
                             f"{self.cone_gain:g}, got {value!r}")
        return gamma

    def exit_boundary_samples(self) -> np.ndarray:
        """``EXIT_ARC_SAMPLES`` points on each arc of the exit target curve;
        ``target_distance`` and ``target_direction`` read the arcs, not these."""
        return np.concatenate([c + r * _unit(np.linspace(a0, a1, EXIT_ARC_SAMPLES))
                               for c, arcs in _target_arcs(self) for r, a0, a1 in arcs])

    def to_dict(self) -> dict:
        """The scenario file: ``SCENARIO_KEYS`` in order, ``exit`` as
        ``ExitArc``'s fields and ``name`` and ``A`` from ``DriftSpec``."""
        def value(key):
            if key == "exit":
                return {k: getattr(self.exit, k) for k in ExitArc.__dataclass_fields__}
            v = getattr(self.drift if key in DriftSpec.__dataclass_fields__ else self, key)
            return list(v) if isinstance(v, tuple) else v

        return {name: {key: value(key) for key in keys} for name, keys in SCENARIO_KEYS.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Inverse of ``to_dict``: a key the mapping leaves out takes the
        field's default; an unknown section or key is a ValueError."""
        d = require_known_keys(d, tuple(SCENARIO_KEYS), "scenario section")
        g, cone, ctrl, dr = (require_known_keys(d.get(name), keys, f"{name} key")
                             for name, keys in SCENARIO_KEYS.items())
        spec = DriftSpec.__dataclass_fields__
        kw = {k: v for sec in (g, cone, ctrl, dr) for k, v in sec.items()
              if k != "exit" and k not in spec}
        if "exit" in g:
            kw["exit"] = ExitArc(**require_known_keys(g["exit"], ExitArc.__dataclass_fields__,
                                                      "geometry.exit key"))
        if any(k in dr for k in spec):
            kw["drift"] = DriftSpec(**{k: dr[k] for k in spec if k in dr})
        return cls(**kw)


def straight_corridor(**kw) -> Scenario:
    """Canonical demo instance: exit dead ahead at angle 0, everything symmetric;
    ``kw`` are ``Scenario`` fields, its constants derived as for any scenario."""
    return Scenario(**kw)


def h_upper(y, s: Scenario) -> float:
    """Upper containment constraint: <= 0 iff Q1 + y lies inside Q."""
    d = np.asarray(y, dtype=float) - s.q0_arr
    return 0.5 * (np.einsum("...i,...i", d, d) - (s.R - s.R1) ** 2)


def h_lower(x, y, s: Scenario) -> float:
    """Lower containment constraint: <= 0 iff x lies in Q1 + y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return 0.5 * (np.einsum("...i,...i", d, d) - s.R1 ** 2)


def project_ball_rows(p, radius: float) -> np.ndarray:
    """Euclidean projection of each row of ``p`` (..., n) onto the closed
    ball of the given radius about the origin: rows beyond it are scaled
    radially onto it; the norm is ``np.linalg.norm``'s, bitwise."""
    p = np.asarray(p, dtype=float)
    norm = np.sqrt(np.add.reduce(p * p, -1, keepdims=True))
    return p * np.where(norm > radius, radius / np.maximum(norm, 1e-300), 1.0)


def project_out_normal(p, v, radius: float) -> np.ndarray:
    """The rows of ``p`` (N, n) less their outward component along the rows
    of v where |v| reaches the given radius: the projection that removes the
    normal cone of the ball at v."""
    nrm = np.linalg.norm(v, axis=1)
    vhat = v / np.maximum(nrm, 1e-300)[:, None]
    on_ball = (radius > 0) & (nrm >= radius * (1.0 - 1e-9))
    outward = np.where(on_ball, np.maximum(0.0, dot_rows(p, vhat)), 0.0)
    return p - outward[:, None] * vhat


def truncation_bounds(s: Scenario) -> float:
    """M_bar, the upper end of the admissible truncation window (-M_bar,
    M_bar) for the cone level M.

    M_bar is the least over unit normals zeta of the greatest
    <zeta, A x + u> - <zeta, v> over x in Q and the control balls:
    b_U + b_V plus the least support value of the ellipse A Q, which is the
    signed distance d from 0 to its boundary, positive iff 0 is interior (A
    invertible and |q0| < R), |d| the least of ``_rim_drift_range``; the lower
    end follows by zeta -> -zeta.  Identity drift (A = 0) gives d = 0.
    """
    near, _ = _rim_drift_range(s)
    inside = np.linalg.det(s.drift.matrix(s.dim)) != 0.0 and np.linalg.norm(s.q0_arr) < s.R
    return (near if inside else -near) + s.u_bound + s.v_bound


def _rim_drift_range(s: Scenario):
    """The least and the greatest |A x| over the rim of Q, the latter also its
    greatest over Q: |c + R A e(t)| with c = A q0, e(t) = (cos t, sin t), whose
    square is a trigonometric polynomial of degree 2 in t; its critical points
    are roots of a quartic in exp(i t)."""
    A = s.drift.matrix(s.dim)
    c = A @ s.q0_arr
    # |c + R A e(t)|^2 = const + b1 cos t + b2 sin t + b3 cos 2t + b4 sin 2t
    b1, b2 = 2.0 * s.R * (A.T @ c)
    gram = s.R ** 2 * (A.T @ A)
    b3, b4 = 0.5 * (gram[0, 0] - gram[1, 1]), gram[0, 1]
    # its t-derivative times 2 exp(2 i t), a polynomial in exp(i t)
    quartic = [2.0 * b4 + 2j * b3, b2 + 1j * b1, 0.0, b2 - 1j * b1, 2.0 * b4 - 2j * b3]
    t = np.append(np.angle(np.roots(quartic)), 0.0)   # t = 0 for a constant distance
    gap = np.linalg.norm(c + s.R * _unit(t) @ A.T, axis=1)
    return float(gap.min()), float(gap.max())


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


def validate(s: Scenario) -> ValidationReport:
    """Check by formula the standing assumptions a scenario's numbers can break:
    H1 (|f| <= M1 under identity drift, ‖A‖₂ <= K_f under affine drift), H4
    from the drift's range over Q and H5 from ``truncation_bounds``.

    The rest get no row.  By construction: H1's bound under affine drift (f
    clips A x + u at M1), its Lipschitz constant under identity drift
    (‖A‖₂ = 0), H2 where H4 holds (f(x, U) is the u_bound-ball about A x cut
    by the M1-ball), H3 (U, V are closed balls), Q1 + y0 inside Q
    (``Scenario`` refuses any other y0) and a nonempty exit target (it holds
    the inner offset arc).  Assumed: H6.
    """
    if s.drift.A is None:
        h1 = ValidationCheck("H1-bound", s.u_bound <= s.M1 + 1e-9,
                             f"sup|f| = u_bound={s.u_bound:.6g}, M1={s.M1:.6g}")
    else:
        lip = float(np.linalg.norm(s.drift.matrix(s.dim), 2))
        h1 = ValidationCheck("H1-lipschitz", lip <= s.K_f + 1e-9,
                             f"Lipschitz constant ||A||_2={lip:.6g}, K_f={s.K_f:.6g}")
    # H4: delta B lies in f(x, U), the u_bound-ball about A x clipped at M1,
    # for every x in Q iff delta <= min(u_bound - max_Q |A x|, M1)
    _, far = _rim_drift_range(s)
    delta = min(s.u_bound - far, s.M1)
    h4 = ValidationCheck("H4-inner-ball", delta > 0.0,
                         f"delta*={delta:.6g}: u_bound={s.u_bound:.6g}, max_Q|A x|={far:.6g}, M1={s.M1:.6g}")
    M_bar = truncation_bounds(s)
    # m_bar = 0 - M_bar, never -0.0
    detail = f"m_bar={0.0 - M_bar:.6g} < M={s.M:.6g} < M_bar={M_bar:.6g}"
    if s.M <= 0:
        detail = f"M={s.M:.6g} must be positive"
    elif s.M >= M_bar:
        detail += " violated: strong invariance, bilevel collapses"
    if not M_bar > 0:
        detail += " (window empty: degenerate control sets)"
    h5 = ValidationCheck("H5-truncation-window", 0 < s.M < M_bar, detail)
    return ValidationReport((h1, h4, h5))
