import json

import numpy as np
import pytest

from liouvol.curves import (CurveSpec, circle_curve, ellipse_curve,
                            polyline_is_simple, polynomial_curve)
from liouvol.errors import CorrespondenceError, DomainError
from liouvol.mapping import (conformal_map_pair, exterior_map, interior_map,
                             recenter_interior, welding)
from liouvol.series import LaurentMap, PowerSeriesMap


def test_polyline_simplicity_detects_crossing():
    n = 64
    t = 2 * np.pi * np.arange(n) / n
    good = np.cos(t) + 1j * np.sin(t)
    assert polyline_is_simple(good)
    bow = np.array([0, 1 + 1j, 1, 0 + 1j, 0]) + 0j  # figure-eight-ish
    assert not polyline_is_simple(bow[:-1])


def test_curvespec_json_roundtrip():
    c = polynomial_curve(0.0, 0.05)
    payload = json.dumps(c.to_json())
    c2 = CurveSpec.from_json(payload)
    assert np.allclose(c2.series.coeffs, c.series.coeffs)

    e = ellipse_curve(1.2, 1.0, n=64)
    e2 = CurveSpec.from_json(json.dumps(e.to_json()))
    assert np.allclose(e2.points, e.points)


def test_curvespec_bad_json():
    with pytest.raises(DomainError):
        CurveSpec.from_json({"nope": []})


def test_nonsimple_series_curve_rejected():
    # large quadratic coefficient destroys injectivity on the closed disk
    with pytest.raises(DomainError):
        CurveSpec.from_series(PowerSeriesMap([0, 1, 0.9]))


def test_non_star_shaped_polyline_rejected_by_solvers():
    # a thin horseshoe is simple but not star shaped about its centroid
    t_out = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 80)
    t_in = t_out[::-1]
    pts = np.concatenate([np.exp(1j * t_out), 0.55 * np.exp(1j * t_in)])
    curve = CurveSpec.from_polyline(pts, check=False)
    with pytest.raises(DomainError):
        interior_map(curve, order=32)


def test_exterior_map_unit_circle_is_identity():
    g, diag = exterior_map(circle_curve(), order=64)
    assert abs(g.b1 - 1.0) < 1e-10
    assert abs(g.b0) < 1e-10
    assert np.all(np.abs(g.bneg) < 1e-10)
    assert diag.boundary_mismatch < 1e-10


def test_exterior_map_ellipse_matches_joukowski(ellipse):
    g, diag = exterior_map(ellipse, order=64)
    assert abs(g.b1 - 1.1) < 1e-9
    assert abs(g.b0) < 1e-9
    assert abs(g.bneg[0] - 0.1) < 1e-9
    assert np.all(np.abs(g.bneg[1:]) < 1e-9)
    assert diag.boundary_mismatch < 1e-9


def test_exterior_map_cubic_residual_certified(cubic):
    g, diag = exterior_map(cubic, order=64)
    assert diag.boundary_mismatch < 1e-8


def test_exterior_residual_analytic_curves_at_64():
    for curve in (polynomial_curve(0.1), polynomial_curve(0.0, 0.05),
                  ellipse_curve(1.2, 1.0)):
        _, diag = exterior_map(curve, order=64)
        assert diag.boundary_mismatch < 1e-6


def test_interior_map_of_polyline_ellipse(ellipse):
    f, diag = interior_map(ellipse, order=96)
    assert diag.boundary_mismatch < 1e-9
    # maps the axes to the vertices
    assert abs(f.eval_unchecked(1.0) - 1.2) < 1e-8
    assert abs(f.eval_unchecked(1.0j) - 1.0j) < 1e-8
    assert abs(f.coeffs[0]) < 1e-12
    assert f.coeffs[1].real > 0 and abs(f.coeffs[1].imag) < 1e-12


def test_welding_identity_pair():
    f = PowerSeriesMap([0, 1], hint_radius=8)
    g = LaurentMap(1.0)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.max(np.abs(welding(f, g, th) - th)) < 1e-12


def test_welding_monotone(ellipse_maps):
    f, g = ellipse_maps
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    w = welding(f, g, th)
    assert np.all(np.diff(w) > 0)
    # bijective across one full turn
    assert abs((w[-1] - w[0]) + (w[1] - w[0]) - 2 * np.pi) < 0.2


def test_welding_ellipse_symmetry_angles(ellipse_maps):
    f, g = ellipse_maps
    assert abs(welding(f, g, 0.0)) < 1e-8
    assert abs(welding(f, g, np.pi / 2) - np.pi / 2) < 1e-8


def test_welding_mismatch_raises(ellipse_maps):
    f, _ = ellipse_maps
    g_wrong = LaurentMap(3.0)  # circle of radius 3, nowhere near the ellipse
    with pytest.raises(CorrespondenceError):
        welding(f, g_wrong, 0.3, tol=1e-8)


def test_conformal_pair_consistency(cubic):
    f, g = conformal_map_pair(cubic, order=96)
    # boundary images coincide as point sets: sample f-side, match g-side
    th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    phi = welding(f, g, th)
    d = np.abs(g(np.exp(1j * phi)) - f.eval_unchecked(np.exp(1j * th)))
    assert np.max(d) < 1e-8


def _distance_to_boundary(f, points, n=4096, newton=8):
    """Distance from each point to the curve f(e^{i phi}): nearest sample,
    then Newton steps on |f(e^{i phi}) - p|^2 in phi."""
    grid = 2 * np.pi * np.arange(n) / n
    samples = f.eval_unchecked(np.exp(1j * grid))
    phi = grid[np.argmin(np.abs(points[:, None] - samples[None, :]), axis=1)]
    for _ in range(newton):
        e = np.exp(1j * phi)
        v, d1, d2 = f.jet(e, upto=2)
        dv = 1j * e * d1
        ddv = -e * d1 - e * e * d2
        diff = v - points
        grad = np.real(np.conj(diff) * dv)
        hess = np.real(np.conj(dv) * dv + np.conj(diff) * ddv)
        phi = phi - grad / hess
    return np.abs(f.eval_unchecked(np.exp(1j * phi)) - points)


def test_recenter_interior_keeps_the_boundary():
    # an asymmetric curve is parametrized off its hyperbolic center; the
    # recentered map (f composed with a disk automorphism) is an infinite
    # series and must still trace the same curve
    k = np.arange(2, 7)
    phases = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.8, 0.95]))
    f = PowerSeriesMap(np.concatenate([[0.0, 1.0], 0.04 * phases / k]),
                       hint_radius=2.0)
    fr = recenter_interior(f)
    assert fr is not f and fr.order > f.order
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.max(_distance_to_boundary(f, fr.eval_unchecked(circle))) < 1e-12
