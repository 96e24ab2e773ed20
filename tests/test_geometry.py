"""Constraint functions, projections, bounds, and scenario validation."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
import yaml

from bisweep.cli import _load_config
from bisweep.geometry import (
    SCENARIO_KEYS,
    DriftSpec,
    ExitArc,
    Scenario,
    ValidationReport,
    _rim_drift_range,
    h_lower,
    h_upper,
    project_ball_rows,
    straight_corridor,
    target_direction,
    target_distance,
    truncation_bounds,
    validate,
)

S = straight_corridor()


# ---------------------------------------------------------------- h_upper
def test_h_upper_at_center():
    assert h_upper((0.0, 0.0), S) == pytest.approx(-40.5)


def test_h_upper_zero_on_admissible_rim():
    y = (S.R - S.R1, 0.0)
    assert h_upper(y, S) == pytest.approx(0.0, abs=1e-12)


def test_h_upper_outside():
    assert h_upper((10.0, 0.0), S) == pytest.approx(9.5)


# ---------------------------------------------------------------- h_lower
def test_h_lower_at_disk_center():
    assert h_lower((1.0, 2.0), (1.0, 2.0), S) == pytest.approx(-0.5)


def test_h_lower_zero_on_rim():
    assert h_lower((1.0, 0.0), (0.0, 0.0), S) == pytest.approx(0.0, abs=1e-12)


def test_h_lower_outside():
    assert h_lower((2.0, 0.0), (0.0, 0.0), S) == pytest.approx(1.5)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_h_lower_translation_invariant(xa, xb, ya, yb, tx, ty):
    x = np.array([xa, xb])
    y = np.array([ya, yb])
    t = np.array([tx, ty])
    assert h_lower(x + t, y + t, S) == pytest.approx(h_lower(x, y, S), abs=1e-9)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 2 * math.pi))
@settings(max_examples=50, deadline=None)
def test_h_lower_rotation_invariant(xa, xb, ya, yb, ang):
    x = np.array([xa, xb])
    y = np.array([ya, yb])
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    assert h_lower(y + rot @ (x - y), y, S) == pytest.approx(h_lower(x, y, S), abs=1e-9)


# ---------------------------------------------------------------- project_ball_rows
def test_project_ball_rows_fixed_at_center():
    # the origin and every other row inside the ball stay where they are
    rows = np.array([[0.0, 0.0], [1.0, -2.0]])
    assert np.array_equal(project_ball_rows(rows, 3.0), rows)


def test_project_ball_rows_radial_scaling():
    assert np.allclose(project_ball_rows((3.0, 4.0), 1.0), (0.6, 0.8))
    # row by row over leading axes
    rows = np.array([[[3.0, 4.0], [0.0, -5.0]], [[0.3, 0.4], [-8.0, 6.0]]])
    assert np.allclose(project_ball_rows(rows, 1.0),
                       [[[0.6, 0.8], [0.0, -1.0]], [[0.3, 0.4], [-0.8, 0.6]]])


def test_project_ball_rows_idempotent_on_boundary():
    p = np.array([0.0, 1.0])
    assert np.array_equal(project_ball_rows(p, 1.0), p)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_project_ball_rows_idempotent_and_nonexpansive(ax, ay, bx, by):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    pa = project_ball_rows(a, 2.0)
    pb = project_ball_rows(b, 2.0)
    assert np.allclose(project_ball_rows(pa, 2.0), pa, atol=1e-12)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


# ---------------------------------------------------------------- truncation bounds
def test_truncation_bounds_unit_balls():
    assert truncation_bounds(S) == pytest.approx(2.0)


def test_truncation_bounds_degenerate_controls():
    s = straight_corridor(u_bound=0.0, v_bound=0.0)
    assert truncation_bounds(s) == pytest.approx(0.0)


def test_truncation_bounds_asymmetric_balls():
    s = straight_corridor(u_bound=2.0, v_bound=0.5, M=2.2, M1=2.0)
    assert truncation_bounds(s) == pytest.approx(2.5)


def _dense_truncation_bounds(s, points=4096):
    """The window with both extrema sampled, and the greatest sampled |A x|:
    zeta at ``points`` unit normals, x at ``points`` points of the circle
    about q0 of radius R.  The inner maximum sampled is low by at most
    R |A| (1 - cos(pi / points)), the outer minimum high by the curvature of
    the support function times (pi / points)^2 / 2."""
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    drifts = (s.q0_arr + s.R * unit) @ s.drift.matrix(s.dim).T
    support = np.concatenate([(z @ drifts.T).max(axis=1) for z in np.array_split(unit, 8)])
    return (support.min() + s.u_bound + s.v_bound, -support.min() - s.u_bound - s.v_bound,
            np.linalg.norm(drifts, axis=1).max())


SKEW_A, SKEW_Q0 = ((-0.3, 0.7), (0.2, -0.45)), (-1.5, 2.5)


def test_truncation_bounds_match_a_dense_reference_off_center():
    # the origin inside the ellipse A Q (the first two) and outside it
    for A, q0 in (((0.3, 0.2, -0.4, 0.1), (3.0, -2.0)), (SKEW_A, SKEW_Q0),
                  ((0.2, 0.1, -0.3, 0.4), (12.0, 0.0))):
        s = Scenario(q0=q0, y0=q0, drift=DriftSpec("affine", A))
        M_bar = truncation_bounds(s)
        M_dense, m_dense, far_dense = _dense_truncation_bounds(s)
        assert abs(M_bar - M_dense) <= 1e-5 and abs(-M_bar - m_dense) <= 1e-5
        # the greatest |A x| over Q, which H4 reads, from the same quartic
        assert abs(_rim_drift_range(s)[1] - far_dense) <= 1e-5


def test_truncation_bounds_of_a_singular_drift_touch_zero():
    # A = (1, 2, 0.5, 1) maps Q onto a segment through 0: d = 0 up to
    # roundoff, where 256 sampled normals read 0.058
    s = Scenario(q0=(1.0, 1.0), y0=(1.0, 1.0), drift=DriftSpec("affine", (1.0, 2.0, 0.5, 1.0)))
    assert abs(truncation_bounds(s) - 2.0) <= 1e-12


def test_validate_refuses_a_level_above_the_exact_window():
    # the exact M_bar is 2.0507; 256 sampled normals put it at 2.0751
    s = Scenario(q0=SKEW_Q0, y0=SKEW_Q0, drift=DriftSpec("affine", SKEW_A), M=2.06)
    assert truncation_bounds(s) == pytest.approx(2.0506705, abs=1e-7)
    # max_Q |A x| = 9.07 also exceeds u_bound = 1
    assert [c.name for c in validate(s).failures()] == ["H4-inner-ball", "H5-truncation-window"]


def test_validate_refuses_an_empty_window():
    # zero control balls under identity drift give M_bar = 0, so no
    # level M > 0 lies inside the window
    checks = {c.name: c for c in validate(Scenario(u_bound=0.0, v_bound=0.0)).checks}
    h5 = checks["H5-truncation-window"]
    assert not h5.passed
    assert h5.detail == ("m_bar=0 < M=1.5 < M_bar=0 violated: strong invariance, bilevel "
                         "collapses (window empty: degenerate control sets)")


# ---------------------------------------------------------------- exit target
def test_target_distance_on_target_curve():
    # nearest target point for the default corridor is (9, 0)
    assert target_distance((9.0, 0.0), S) == pytest.approx(0.0, abs=1e-3)


def test_target_distance_from_start():
    assert target_distance(S.y0_arr, S) == pytest.approx(8.0, abs=1e-4)


def test_target_distance_batched_matches_scalar():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [9.0, 0.0], [0.0, 5.0]])
    batched = target_distance(pts, S)
    singles = [target_distance(p, S) for p in pts]
    assert np.allclose(batched, singles, atol=1e-12)


# Independent reference for the closed-form target: a dense point cloud on
# the target curve, built by filtering whole circles rather than from the
# four arcs, and queried for its nearest sample.
ARCS = [(0.0, 0.0), (-0.3, 0.4), (1.0, 2.5), (-3.0, 3.0), (-3.1, 3.1)]
ARC_IDS = ["corridor", "wide-arc", "off-axis", "long-arc", "nearly-closed"]


def _wrap_to(ang, lo, hi):
    mid = 0.5 * (lo + hi)
    return ang + 2.0 * math.pi * np.round((mid - ang) / (2.0 * math.pi))


def _sampled_exit_boundary(s, n):
    """Samples of the boundary of (arc + R1*ball) intersected with Q: the two
    radial offsets of the arc, the parts of the end-point circles at distance
    R1 from the arc, clipped to Q, and the big circle within R1 of the arc."""
    lo, hi = s.exit.angle_lo, s.exit.angle_hi
    q0, R, R1 = s.q0_arr, s.R, s.R1

    def arc_distance(p):
        rel = p - q0
        ang = np.clip(_wrap_to(np.arctan2(rel[..., 1], rel[..., 0]), lo, hi), lo, hi)
        return np.linalg.norm(p - q0 - R * np.stack([np.cos(ang), np.sin(ang)], axis=-1), axis=-1)

    ring = np.stack([np.cos(np.linspace(lo, hi, n)), np.sin(np.linspace(lo, hi, n))], axis=1)
    pts = [q0 + (R - R1) * ring, q0 + (R + R1) * ring]
    circle = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    for end in (lo, hi):
        cap = q0 + R * np.array([math.cos(end), math.sin(end)]) + R1 * np.stack(
            [np.cos(circle), np.sin(circle)], axis=1)
        pts.append(cap[np.abs(arc_distance(cap) - R1) <= 1e-9 * max(R, 1.0) + 1e-12])
    cloud = np.concatenate(pts)
    cloud = cloud[np.linalg.norm(cloud - q0, axis=1) <= R + 1e-12]
    circle = np.linspace(0.0, 2.0 * math.pi, 4 * n, endpoint=False)
    rim = q0 + R * np.stack([np.cos(circle), np.sin(circle)], axis=1)
    return np.concatenate([cloud, rim[arc_distance(rim) <= R1 + 1e-12]])


def _sampled_target_distance(points, s, n):
    d, _ = cKDTree(_sampled_exit_boundary(s, n)).query(points)
    return np.maximum(0.0, d - s.R1)


def _target_points(s, count, seed=5):
    """Random points in the disk of radius R + 3 about q0, inside and outside Q."""
    rng = np.random.default_rng(seed)
    radius = (s.R + 3.0) * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(-math.pi, math.pi, count)
    return s.q0_arr + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)


@pytest.mark.parametrize("lo, hi", ARCS, ids=ARC_IDS)
def test_target_distance_is_below_dense_sampling_and_the_gap_shrinks(lo, hi):
    s = straight_corridor(exit=ExitArc(lo, hi))
    points = _target_points(s, 20_000)
    inside = np.linalg.norm(points - s.q0_arr, axis=1) <= s.R
    assert inside.any() and not inside.all()
    exact = target_distance(points, s)
    gaps = []
    for n in (2048, 4096, 8192):
        sampled = _sampled_target_distance(points, s, n)
        # the samples lie on the curve, so none is nearer than the curve
        assert np.all(exact <= sampled + 1e-12)
        gaps.append(float(np.max(sampled - exact)))
    assert 0.0 < gaps[2] < gaps[1] < gaps[0]
    # batches of any leading shape, and single points, give the same values
    np.testing.assert_array_equal(target_distance(points.reshape(-1, 1, 2), s), exact[:, None])
    for k in range(0, len(points), 997):
        assert target_distance(points[k], s) == exact[k]


def test_target_distance_along_the_corridor_axis():
    x = np.linspace(0.0, 8.0, 1001)
    got = target_distance(np.stack([x, np.zeros_like(x)], axis=1), S)
    np.testing.assert_allclose(got, 8.0 - x, rtol=0, atol=1e-15)
    assert target_distance((12.0, 0.0), S) == 1.0


def test_target_distance_from_the_center_of_a_wide_arc():
    # every point of the inner offset arc is R - R1 from q0
    s = straight_corridor(exit=ExitArc(-0.3, 0.4))
    assert target_distance(s.q0_arr, s) == pytest.approx(s.R - 2 * s.R1, abs=1e-15)


def _on_target_curve(p, s):
    """Distance of points p (B, 2) from the nearest of the four target arcs,
    written out from their definition."""
    lo, hi = s.exit.angle_lo, s.exit.angle_hi
    q0, R, R1 = s.q0_arr, s.R, s.R1
    delta = 2.0 * math.asin(R1 / (2.0 * R))
    e_lo = q0 + R * np.array([math.cos(lo), math.sin(lo)])
    e_hi = q0 + R * np.array([math.cos(hi), math.sin(hi)])
    arcs = [(q0, R - R1, lo, hi), (q0, R, lo - delta, hi + delta),
            (e_hi, R1, hi + math.pi / 2 + delta / 2, hi + math.pi),
            (e_lo, R1, lo - math.pi, lo - math.pi / 2 - delta / 2)]
    off = []
    for c, r, a0, a1 in arcs:
        rel = p - c
        ang = _wrap_to(np.arctan2(rel[:, 1], rel[:, 0]), a0, a1)
        outside = 0.0 if a1 - a0 >= 2.0 * math.pi else np.maximum(a0 - ang, ang - a1).clip(0.0)
        off.append(np.abs(np.linalg.norm(rel, axis=1) - r) + r * outside)
    return np.min(off, axis=0)


@pytest.mark.parametrize("lo, hi", ARCS, ids=ARC_IDS)
def test_target_direction_reaches_the_curve_and_is_minus_the_gradient(lo, hi):
    s = straight_corridor(exit=ExitArc(lo, hi))
    y = _target_points(s, 2_000, seed=9)
    dist = target_distance(y, s)
    y, dist = y[dist > 0.0], dist[dist > 0.0]
    direction = target_direction(y, s)
    np.testing.assert_allclose(np.linalg.norm(direction, axis=1), 1.0, rtol=0, atol=1e-15)
    # the point the direction aims at, at the reported distance, is on the curve
    assert np.max(_on_target_curve(y + (dist + s.R1)[:, None] * direction, s)) < 1e-12
    h = 1e-6
    grad = np.stack([(target_distance(y + h * e, s) - target_distance(y - h * e, s)) / (2 * h)
                     for e in np.eye(2)], axis=1)
    np.testing.assert_allclose(grad, -direction, rtol=0, atol=1e-6)
    for k in range(0, len(y), 97):
        np.testing.assert_array_equal(target_direction(y[k], s), direction[k])


def test_target_distance_of_a_large_batch_allocates_no_pairwise_block():
    s = straight_corridor()
    s.exit_boundary_samples()
    points = np.random.default_rng(1).uniform(-11.0, 11.0, size=(100_000, 2))
    tracemalloc.start()
    try:
        target_distance(points, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_target_direction_points_toward_exit():
    d = target_direction(S.y0_arr, S)
    assert np.allclose(d, (1.0, 0.0), atol=1e-3)


# ---------------------------------------------------------------- validation
def test_validate_default_scenario_passes():
    report = validate(S)
    assert isinstance(report, ValidationReport)
    assert report.ok, [c.name for c in report.failures()]
    # only rows the scenario's numbers can fail
    assert [c.name for c in report.checks] == ["H1-bound", "H4-inner-ball", "H5-truncation-window"]


def test_validate_rejects_excessive_truncation_level():
    report = validate(straight_corridor(M=5.0))
    assert not report.ok
    names = " ".join(c.name for c in report.failures())
    assert "H5" in names or "truncation" in names.lower()


def test_validate_rejects_negative_truncation_level():
    report = validate(straight_corridor(M=-1.0))
    assert not report.ok


def test_validate_checks_h1_by_formula():
    # K_f = 0.9 lies below ||A||_2 = 0.9069, the Lipschitz constant of A x + u;
    # max_Q |A x| = 9.07 exceeds u_bound = 1, so H4 fails too
    skew = Scenario(drift=DriftSpec("affine", ((-0.3, 0.7), (0.2, -0.45))), K_f=0.9, M1=0.9)
    assert [c.name for c in validate(skew).failures()] == ["H1-lipschitz", "H4-inner-ball"]
    # the clip at M1 bounds affine drift, so its H1 row is the Lipschitz one
    assert [c.name for c in validate(skew).checks] == ["H1-lipschitz", "H4-inner-ball",
                                                       "H5-truncation-window"]
    # identity drift: sup |f| = u_bound = 1 exceeds M1
    assert [c.name for c in validate(Scenario(M1=0.999)).failures()] == ["H1-bound"]


AFFINE_A = (0.3, 0.2, -0.4, 0.1)


@pytest.mark.parametrize("kw, file", [
    ({"u_bound": 0.5}, {"controls": {"u_bound": 0.5}}),
    ({"u_bound": 2.0}, {"controls": {"u_bound": 2.0}}),
    ({"drift": DriftSpec("affine", AFFINE_A)}, {"drift": {"name": "affine", "A": list(AFFINE_A)}}),
], ids=["u_bound=0.5", "u_bound=2", "affine"])
def test_every_construction_path_gives_one_scenario(kw, file):
    # the derived M1 and K_f come from the scenario's own drift and bounds
    built = [straight_corridor(**kw), Scenario(**kw), Scenario.from_dict(Scenario(**kw).to_dict()),
             Scenario.from_dict(file)]
    assert all(s == built[0] for s in built)
    assert len({(s.M1, s.K_f) for s in built}) == 1



def test_derived_M1_bounds_the_affine_drift_on_an_off_centre_Q():
    # |A x| + u_bound on the rim of Q about q0 = (3, -2) reaches 7.44; a bound
    # taken about the origin (6.52) would clip the drift inside Q
    s = Scenario(q0=(3.0, -2.0), y0=(3.0, -2.0), drift=DriftSpec("affine", AFFINE_A))
    theta = np.linspace(0.0, 2.0 * np.pi, 100_000)
    rim = s.q0_arr + s.R * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sup = np.linalg.norm(rim @ s.drift.matrix(2).T, axis=1).max() + s.u_bound
    assert sup > 7.4
    assert s.M1 >= sup
    # about the origin the bound is ‖A‖₂ (R + R1) + u_bound, as it always was
    centred = Scenario(drift=DriftSpec("affine", AFFINE_A))
    assert centred.M1 == centred.K_f * (centred.R + centred.R1) + centred.u_bound

def test_construction_rejects_start_outside_outer_disk():
    with pytest.raises(ValueError):
        straight_corridor(y0=(20.0, 0.0))


# ---------------------------------------------------------------- serialization
def test_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.yaml"
    # A4's affine scenario gives its A nested; it is stored flat
    a4 = Scenario(drift=DriftSpec("affine", ((0.0, 0.05), (-0.05, 0.0))), K_f=0.05, M1=1.2)
    for s in (straight_corridor(M=1.4, u_bound=0.9), a4):
        path.write_text(yaml.safe_dump(s.to_dict(), sort_keys=False))
        loaded, run = _load_config(path)   # the one reader of scenario files
        assert loaded == s and hash(loaded) == hash(s) and run == {}


# the corridor, A4, the wide-arc instance and a scenario that sets every field
WRITTEN = {
    "corridor": straight_corridor(),
    "A4": Scenario(drift=DriftSpec("affine", ((0.0, 0.05), (-0.05, 0.0))), K_f=0.05, M1=1.2),
    "wide-arc": Scenario(y0=(2.0, -5.0), exit=ExitArc(-0.3, 0.4)),
    "every-field": Scenario(q0=(1.0, -0.5), R=9.0, R1=0.8, y0=(1.5, 0.0),
                            exit=ExitArc(-0.2, 0.1), M=1.2, u_bound=0.9, v_bound=1.1,
                            drift=DriftSpec("affine", AFFINE_A), M1=8.0, K_f=0.6),
}


@pytest.mark.parametrize("s", WRITTEN.values(), ids=WRITTEN)
def test_to_dict_writes_the_scenario_keys_in_order_and_from_dict_inverts_it(s):
    data = s.to_dict()
    assert [(name, list(keys)) for name, keys in data.items()] == [
        (name, list(keys)) for name, keys in SCENARIO_KEYS.items()]
    assert list(data["geometry"]["exit"]) == [f.name for f in fields(ExitArc)]
    assert Scenario.from_dict(data) == s


@pytest.mark.parametrize("s, delta", [
    (WRITTEN["corridor"], 1.0), (WRITTEN["A4"], 0.5), (WRITTEN["wide-arc"], 1.0),
    (straight_corridor(u_bound=0.25, M=0.75), 0.25),
    (replace(WRITTEN["A4"], M1=0.3), 0.3),
    (straight_corridor(drift=DriftSpec("affine", AFFINE_A), M1=0.9), -4.01976),
    (straight_corridor(drift=DriftSpec("affine", ((0.0, 0.5), (-0.5, 0.0))), M1=0.9, K_f=0.5), -4.0),
], ids=["corridor", "A4", "wide-arc", "cap-binding", "A4-M1=0.3", "clipped", "saturating"])
def test_h4_reads_the_inner_ball_from_the_drift(s, delta):
    # delta* = min(u_bound - max_Q |A x|, M1): A4's drift reaches 0.05 R = 0.5
    # on the rim of Q, and M1 = 0.3 clips the ball below that; the clipped
    # and saturating drifts of test_adjoint.py reach 5.02 and 0.5 R = 5,
    # beyond u_bound = 1
    h4 = {c.name: c for c in validate(s).checks}["H4-inner-ball"]
    assert h4.passed == (delta > 0.0)
    assert h4.detail.startswith(f"delta*={delta:.6g}: ")


@pytest.mark.parametrize("section, key", [("cone", "R"), ("drift", "matrix"), ("geometry", "M"),
                                          ("geometry", "exit_samples")])
def test_from_dict_refuses_unknown_key(section, key):
    data = straight_corridor().to_dict()
    data[section][key] = 1.0
    with pytest.raises(ValueError, match=f"unknown {section} key: {key}"):
        Scenario.from_dict(data)


def test_scenario_defaults():
    assert S.R == 10.0 and S.R1 == 1.0 and S.M == 1.5
    assert S.u_bound == 1.0 and S.v_bound == 1.0
    assert S.drift.name == "identity"
    assert isinstance(S, Scenario)
