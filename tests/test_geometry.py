"""Constraint functions, projections, bounds, and scenario validation."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisweep.geometry import (
    ExitArc,
    Scenario,
    ValidationReport,
    h_lower,
    h_upper,
    load_scenario,
    project_disk,
    save_scenario,
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


# ---------------------------------------------------------------- project_disk
def test_project_disk_fixed_at_center():
    c = np.array([1.0, -2.0])
    assert np.allclose(project_disk(c, c, 3.0), c)


def test_project_disk_radial_scaling():
    assert np.allclose(project_disk((3.0, 4.0), (0.0, 0.0), 1.0), (0.6, 0.8))


def test_project_disk_idempotent_on_boundary():
    p = np.array([0.0, 1.0])
    assert np.allclose(project_disk(p, (0.0, 0.0), 1.0), p)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_project_disk_idempotent_and_nonexpansive(ax, ay, bx, by):
    c = np.zeros(2)
    a = np.array([ax, ay])
    b = np.array([bx, by])
    pa = project_disk(a, c, 2.0)
    pb = project_disk(b, c, 2.0)
    assert np.allclose(project_disk(pa, c, 2.0), pa, atol=1e-12)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


# ---------------------------------------------------------------- truncation bounds
def test_truncation_bounds_unit_balls():
    tb = truncation_bounds(S)
    assert tb.M_bar == pytest.approx(2.0)
    assert tb.m_bar == pytest.approx(-2.0)


def test_truncation_bounds_degenerate_controls():
    s = straight_corridor(u_bound=0.0, v_bound=0.0)
    tb = truncation_bounds(s)
    assert tb.M_bar == pytest.approx(0.0)
    assert tb.m_bar == pytest.approx(0.0)


def test_truncation_bounds_asymmetric_balls():
    s = straight_corridor(u_bound=2.0, v_bound=0.5, M=2.2, M1=2.0)
    tb = truncation_bounds(s)
    assert tb.M_bar == pytest.approx(2.5)
    assert tb.m_bar == pytest.approx(-2.5)


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


def test_target_distance_sampling_consistency():
    coarse = straight_corridor(exit_samples=2048)
    fine = straight_corridor(exit_samples=4096)
    y = (3.0, 2.0)
    step = 2 * math.pi * coarse.R / 2048
    assert abs(target_distance(y, coarse) - target_distance(y, fine)) <= step


def test_exit_samples_cached_per_scenario_and_freed_with_it():
    s = straight_corridor(exit_samples=512)
    cloud = s.exit_boundary_samples()
    assert s.exit_boundary_samples() is cloud
    tree = s.exit_tree()
    assert s.exit_tree() is tree
    # the tree indexes the cached cloud itself, so the cloud outlives it
    assert tree.data is cloud
    assert straight_corridor(exit_samples=512) == s  # the cache is not a field
    ref = weakref.ref(cloud)
    del s, cloud, tree
    gc.collect()
    assert ref() is None


def _all_pairs_distance(points, cloud):
    """Reference nearest-sample distance: every pair, in row blocks."""
    return np.concatenate([np.linalg.norm(block[:, None, :] - cloud, axis=-1).min(axis=1)
                           for block in np.array_split(points, max(1, len(points) // 256))])


def _plan_endpoints(s, levels, n_intervals, omega_max=10.0):
    """Distinct end points of the oracle's piecewise-constant plans."""
    lv = np.linspace(-s.v_bound, s.v_bound, levels)
    v = np.stack(np.meshgrid(lv, lv, indexing="ij"), axis=-1).reshape(-1, 2)
    v = v[np.linalg.norm(v, axis=1) <= s.v_bound + 1e-12]
    steps = (v[:, None, :] * np.linspace(0.0, omega_max, levels)[None, :, None]).reshape(-1, 2)
    ends = s.y0_arr[None, :]
    for _ in range(n_intervals):
        ends = np.unique((ends[:, None, :] + steps[None] / n_intervals).reshape(-1, 2), axis=0)
    return ends


@pytest.mark.parametrize("s", [straight_corridor(), straight_corridor(exit_samples=512),
                               straight_corridor(exit=ExitArc(-0.3, 0.4))],
                         ids=["default", "512-samples", "wide-arc"])
def test_target_distance_is_the_all_pairs_minimum_bitwise(s):
    cloud = s.exit_boundary_samples()
    rng = np.random.default_rng(5)
    box = s.R + s.R1
    points = np.concatenate([
        rng.uniform(-box, box, size=(8_000, 2)) + s.q0_arr,
        cloud + rng.uniform(-1e-6, 1e-6, size=cloud.shape),
        cloud,
        s.y0_arr[None, :],
        _plan_endpoints(s, 3, 4),
    ])
    expected = np.maximum(0.0, _all_pairs_distance(points, cloud) - s.R1)
    assert np.array_equal(target_distance(points, s), expected)
    assert np.array_equal(target_distance(points.reshape(-1, 1, 2), s), expected[:, None])
    for k in rng.choice(len(points), 200, replace=False):
        assert target_distance(points[k], s) == expected[k]


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


def test_target_direction_aims_at_the_sample_target_distance_reports():
    # from q0 every inner-ring sample of a wide arc is at distance R - R1 up to
    # rounding, so a separate nearest-sample search may pick another sample
    # than the k-d tree query that target_distance reports
    s = straight_corridor(exit=ExitArc(-0.3, 0.4))
    y = s.q0_arr
    dist, idx = s.exit_tree().query(y)
    assert target_distance(y, s) == max(0.0, dist - s.R1)
    sample = s.exit_boundary_samples()[idx]
    np.testing.assert_allclose(target_direction(y, s), (sample - y) / dist, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- validation
def test_validate_default_scenario_passes():
    report = validate(S)
    assert isinstance(report, ValidationReport)
    assert report.ok, [c.name for c in report.failures()]


def test_validate_rejects_excessive_truncation_level():
    report = validate(straight_corridor(M=5.0))
    assert not report.ok
    names = " ".join(c.name for c in report.failures())
    assert "H5" in names or "truncation" in names.lower()


def test_validate_rejects_negative_truncation_level():
    report = validate(straight_corridor(M=-1.0))
    assert not report.ok


def test_construction_rejects_start_outside_outer_disk():
    with pytest.raises(ValueError):
        straight_corridor(y0=(20.0, 0.0))


# ---------------------------------------------------------------- serialization
def test_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.yaml"
    s = straight_corridor(M=1.4, u_bound=0.9)
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded == s


@pytest.mark.parametrize("section, key", [("cone", "R"), ("drift", "matrix"), ("geometry", "M")])
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
