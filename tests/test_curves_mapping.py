import json

import numpy as np
import pytest

from oracles import (boundary_samples, circle_curve, curve_to_json,
                     ellipse_curve, polar_exterior_map,
                     polyline_is_simple_sweep, polynomial_curve)

import liouvol.curves as curves_module
import liouvol.mapping as mapping_module
from liouvol.action import liouville_action
from liouvol.cli import load_curve
from liouvol.curves import CurveSpec
from liouvol.errors import CorrespondenceError, DomainError, NonConvergence
from liouvol.mapping import (conformal_map_pair, exterior_map, interior_map,
                             recenter_interior, welding)
from liouvol.series import LaurentMap, PowerSeriesMap
from liouvol.volume import renormalized_volume


def _admitted(points):
    """Whether the closed polygon passes the curves' one admissibility
    test, star shaped about its vertex centroid."""
    try:
        curves_module._star_steps(points - np.mean(points))
    except DomainError:
        return False
    return True


def _action(curve):
    return liouville_action(*conformal_map_pair(curve)).total


def test_polyline_simplicity_detects_crossing():
    n = 64
    t = 2 * np.pi * np.arange(n) / n
    good = np.cos(t) + 1j * np.sin(t)
    assert _admitted(good)
    bow = np.array([0, 1 + 1j, 1, 0 + 1j, 0]) + 0j  # figure-eight-ish
    assert not _admitted(bow[:-1])


def _simplicity_cases():
    rng = np.random.default_rng(2607)
    cases = {"ellipse-4096": ellipse_curve(1.2, 1.0).points}
    for name in ("ellipse", "cubic", "wobble", "circle"):
        curve = load_curve(name)
        cases[name] = (curve.points if curve.kind == "polyline"
                       else boundary_samples(curve))
    for trial in range(40):
        n = 8 if trial < 4 else int(rng.integers(9, 700))
        t = 2 * np.pi * (np.arange(n) + 0.3 * rng.random(n)) / n
        lobes = int(rng.integers(1, 8))
        r = 1 + 0.4 * rng.random() * np.cos(lobes * t + 6 * rng.random())
        star = r * np.exp(1j * t) * np.exp(2j * np.pi * rng.random())
        cases[f"star-{trial}"] = star
        swapped = star.copy()
        i, j = rng.choice(n, 2, replace=False)
        swapped[[i, j]] = swapped[[j, i]]
        cases[f"swap-{trial}"] = swapped
        cases[f"jitter-{trial}"] = star + 0.05 * rng.random() * (
            rng.normal(size=n) + 1j * rng.normal(size=n))
    # crossing inside two segments, and on a vertex shared by both halves
    for name, shift in (("figure-eight", 0.5), ("figure-eight-vertex", 0.0)):
        t = 2 * np.pi * (np.arange(64) + shift) / 64
        cases[name] = np.sin(t) + 0.5j * np.sin(2 * t)
    # a notch whose tip comes within d of the bottom edge, or across it
    for d in (1e-3, 1e-10, 1e-13, 0.0, -1e-13, -1e-10, -1e-3):
        notch = np.array([0, 4, 4 + 4j, 2.2 + 4j, 2 + 1j * d, 1.8 + 4j, 4j])
        turn = np.exp(2j * np.pi * rng.random())
        cases[f"notch-{d:g}"] = turn * notch + (0.3 - 0.7j)
    # the segment from 2 to 1 runs along the one from 0 to 3
    cases["overlap"] = np.array([0, 3, 3 + 1j, 2 + 1j, 2, 1, 1 + 2j, 2j])
    return cases


_SIMPLICITY_CASES = _simplicity_cases()


@pytest.mark.parametrize("points", _SIMPLICITY_CASES.values(),
                         ids=_SIMPLICITY_CASES.keys())
def test_simplicity_sweep_matches_the_oracle(points):
    # sound: every polygon the star-shape test admits is simple
    assert not _admitted(points) or polyline_is_simple_sweep(points)


def test_star_shape_verdicts_on_the_simplicity_cases():
    cases = _SIMPLICITY_CASES
    admitted = {name: _admitted(points) for name, points in cases.items()}
    for name, ok in admitted.items():
        if name.startswith("star-"):
            assert ok, name
        elif name.startswith(("swap-", "figure-eight", "notch-", "overlap")):
            assert not ok, name
    # the sweep calls 15 of the jittered stars simple
    assert sum(admitted[f"jitter-{i}"] for i in range(40)) == 12


def test_touching_or_overlapping_polylines_are_not_simple():
    # non-adjacent segments that cross, touch at an end or overlap along a
    # line make a polyline not simple, so not star shaped
    cases = _SIMPLICITY_CASES
    for name in ("figure-eight", "figure-eight-vertex", "notch-0",
                 "notch--1e-13", "notch--1e-10", "notch--0.001", "overlap"):
        assert not _admitted(cases[name]), name
    for name in ("ellipse-4096", "cubic"):
        assert _admitted(cases[name]), name
    # a tip 1e-13 above the opposite edge meets it however it is turned
    notch = np.array([0, 4, 4 + 4j, 2.2 + 4j, 2 + 1e-13j, 1.8 + 4j, 4j])
    for turn in (1.0, np.exp(0.3j)):
        assert not _admitted(turn * notch)
        assert not polyline_is_simple_sweep(turn * notch)
    with pytest.raises(DomainError, match="star shaped"):
        CurveSpec.from_polyline(cases["overlap"])


def test_a_clockwise_polyline_has_the_same_action():
    ccw = load_curve("ellipse")
    s0 = _action(ccw)
    cw = CurveSpec.from_polyline(ccw.points[::-1])
    assert abs(_action(cw) - s0) <= 1e-12 * s0


def test_a_polygon_that_winds_twice_is_refused():
    # every step turns the same way by less than pi, but the total is 4 pi
    twice = np.exp(4j * np.pi * np.arange(63) / 63)
    with pytest.raises(DomainError, match="star shaped"):
        CurveSpec.from_polyline(twice)


def test_a_simple_series_curve_that_is_not_starlike_is_refused():
    f = PowerSeriesMap([0, 1, -0.71 + 0.1j, 0.19 + 0.12j, -0.04 - 0.09j])
    samples = boundary_samples(CurveSpec("series", series=f))
    assert polyline_is_simple_sweep(samples)
    with pytest.raises(DomainError, match="star shaped"):
        CurveSpec.from_series(f)


def test_polyline_size_counts_vertices_after_the_closing_point():
    # a closed polyline repeats its first vertex; the copy is not a vertex
    for n in (7, 8):
        ring = np.exp(2j * np.pi * np.arange(n) / n)
        closed = np.append(ring, ring[0])
        if n < 8:
            with pytest.raises(DomainError, match="at least 8"):
                CurveSpec.from_polyline(closed)
        else:
            assert CurveSpec.from_polyline(closed).points.size == 8


@pytest.mark.parametrize("radius", [1.0, 10.0, 1000.0])
def test_closing_point_of_a_large_polyline_is_dropped(radius):
    # the 257th sample r e^{2 pi i} is the first to the rounding of r
    closed = radius * np.exp(2j * np.pi * np.arange(257) / 256)
    assert CurveSpec.from_polyline(closed).points.size == 256


@pytest.mark.parametrize("scale", [10.0, 100.0, 1e3, 1e6])
def test_a_scaled_polyline_keeps_its_action(scale):
    # the fit certification is relative to the curve's size
    ellipse = load_curve("ellipse")
    s0 = _action(ellipse)
    scaled = CurveSpec.from_polyline(scale * ellipse.points)
    assert abs(_action(scaled) - s0) <= 1e-12 * s0


@pytest.mark.parametrize("scale", [1e3, 1e5, 1e6])
def test_a_scaled_and_turned_series_curve_keeps_its_action(scale):
    c = np.array([0, 1, 0.1 + 0.05j, -0.03j])
    s0 = _action(CurveSpec.from_series(c))
    turned = CurveSpec.from_series(scale * np.exp(0.7j) * c)
    assert abs(_action(turned) - s0) <= 1e-12 * s0


@pytest.mark.parametrize("offset", [10, 1e3, 1e4, 1e6, 1e7])
def test_a_translated_series_curve_keeps_its_action_and_volume(offset):
    # the welding solves f - f(0) and g - f(0) is certified against it, so
    # the offset costs no digits
    c = np.array([0, 1, 0.1 + 0.05j, -0.03j])
    f, g = conformal_map_pair(CurveSpec.from_series(c))
    moved = CurveSpec.from_series(c + np.r_[offset, 0, 0, 0])
    fd, gd = conformal_map_pair(moved)
    for ref, shifted in ((liouville_action(f, g).total,
                          liouville_action(fd, gd).total),
                         (renormalized_volume(f, g).V_R,
                          renormalized_volume(fd, gd).V_R)):
        assert abs(shifted - ref) <= 1e-12 * abs(ref)


def test_a_translated_polyline_keeps_its_action():
    ellipse = load_curve("ellipse")
    s0 = _action(ellipse)
    moved = CurveSpec.from_polyline(ellipse.points + 1e3)
    assert abs(_action(moved) - s0) <= 1e-12 * s0


@pytest.mark.parametrize("offset", [1e3, 1e7])
def test_a_translated_polyline_keeps_its_action_and_volume(offset):
    # both maps are fitted and certified about the centroid, which is added
    # last: at 1e7 the points' own rounding, about 1e-9, is the floor
    ellipse = load_curve("ellipse")
    f, g = conformal_map_pair(ellipse)
    fd, gd = conformal_map_pair(CurveSpec.from_polyline(ellipse.points
                                                        + offset))
    for ref, shifted in ((liouville_action(f, g).total,
                          liouville_action(fd, gd).total),
                         (renormalized_volume(f, g).V_R,
                          renormalized_volume(fd, gd).V_R)):
        assert abs(shifted - ref) <= 2e-9 * abs(ref)


def test_welding_of_a_translated_series_pair():
    # welding takes both maps minus f(0) before evaluating them: at 1e6 the
    # angles keep the digits that g.b0's rounding leaves
    c = np.array([0, 1, 0.1 + 0.05j, -0.03j])
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ref = welding(*conformal_map_pair(CurveSpec.from_series(c)), theta)
    moved = CurveSpec.from_series(c + np.r_[1e6, 0, 0, 0])
    assert np.max(np.abs(welding(*conformal_map_pair(moved), theta)
                         - ref)) <= 1e-10


def test_curvespec_json_roundtrip():
    c = polynomial_curve(0.0, 0.05)
    payload = json.loads(json.dumps(curve_to_json(c)))
    c2 = CurveSpec.from_json(payload)
    assert np.allclose(c2.series.coeffs, c.series.coeffs)

    e = ellipse_curve(1.2, 1.0, n=64)
    e2 = CurveSpec.from_json(json.loads(json.dumps(curve_to_json(e))))
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
    curve = CurveSpec("polyline", points=pts)
    with pytest.raises(DomainError):
        interior_map(curve, order=32)


def test_exterior_map_unit_circle_is_identity():
    g, diag = exterior_map(circle_curve())
    assert abs(g.b1 - 1.0) < 1e-10
    assert abs(g.b0) < 1e-10
    assert np.all(np.abs(g.bneg) < 1e-10)
    assert diag.boundary_mismatch < 1e-10


def test_exterior_map_ellipse_matches_joukowski(ellipse):
    g, diag = exterior_map(ellipse)
    assert abs(g.b1 - 1.1) < 1e-9
    assert abs(g.b0) < 1e-9
    assert abs(g.bneg[0] - 0.1) < 1e-9
    assert np.all(np.abs(g.bneg[1:]) < 1e-9)
    assert diag.boundary_mismatch < 1e-9


def test_exterior_map_cubic_residual_certified(cubic):
    g, diag = exterior_map(cubic)
    assert diag.boundary_mismatch < 1e-8


def test_exterior_residual_analytic_curves_at_64():
    for curve in (polynomial_curve(0.1), polynomial_curve(0.0, 0.05),
                  ellipse_curve(1.2, 1.0)):
        _, diag = exterior_map(curve)
        assert diag.boundary_mismatch < 1e-6


def test_interior_map_of_polyline_ellipse(ellipse):
    f, diag = interior_map(ellipse, order=96)
    assert diag.boundary_mismatch < 1e-9
    # maps the axes to the vertices
    assert abs(f.eval_unchecked(1.0) - 1.2) < 1e-8
    assert abs(f.eval_unchecked(1.0j) - 1.0j) < 1e-8
    assert abs(f.coeffs[0]) < 1e-12
    assert f.coeffs[1].real > 0 and abs(f.coeffs[1].imag) < 1e-12


def test_interior_diagnostics_report_spurious_mass(ellipse):
    # the polyline's boundary samples carry Fourier mass the series cannot:
    # it is reported, and the certified mismatch bounds it
    _, diag = interior_map(ellipse, order=96)
    assert 0.0 < diag.negative_energy <= diag.boundary_mismatch


def test_welding_identity_pair():
    f = PowerSeriesMap([0, 1])
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
        welding(f, g_wrong, 0.3)


def test_conformal_pair_consistency(cubic, ellipse):
    star = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    for curve in (cubic, ellipse, star):
        f, g = conformal_map_pair(curve)
        # boundary images coincide as point sets: sample f-side, match g-side
        phi = welding(f, g, th)
        d = np.abs(g(np.exp(1j * phi)) - f.eval_unchecked(np.exp(1j * th)))
        assert np.max(d) < 1e-13


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


def test_doubled_orders_start_from_the_previous_solution(monkeypatch):
    # the star's exterior series doubles 128 -> 256 -> 512; each finer grid
    # starts from the coarser solution and takes at most 3 iterations, and
    # the map is a cold solve's at every order to rounding
    curve = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    solve, runs = mapping_module._solve_correspondence, []

    def counted(problem, n, start=None):
        out = solve(problem, n, start)
        runs.append((n, out[1]))
        return out

    monkeypatch.setattr(mapping_module, "_solve_correspondence", counted)
    warm, _ = exterior_map(curve)
    assert warm.order == 512
    assert [n for n, _ in runs] == [1024, 2048, 4096]
    assert all(iters <= 3 for _, iters in runs[1:])
    monkeypatch.setattr(mapping_module, "_solve_correspondence",
                        lambda problem, n, start=None: solve(problem, n))
    cold, _ = exterior_map(curve)
    assert cold.order == 512
    assert abs(warm.b1 - cold.b1) <= 1e-14
    assert abs(warm.b0 - cold.b0) <= 1e-14
    assert np.max(np.abs(warm.bneg - cold.bneg)) <= 1e-14


def _starlike_series(seed, degree, b):
    # z + sum a_k z^k with sum k|a_k| = b < 1: starlike, hence univalent
    rng = np.random.default_rng(seed)
    k = np.arange(2, degree + 1)
    a = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
    coeffs = np.concatenate([[0.0, 1.0], a * (b / np.sum(k * np.abs(a)))])
    return CurveSpec.from_series(coeffs)


def test_series_exterior_map_matches_the_polar_fixed_point(monkeypatch):
    # exterior_map and the interior fixed point of the inverted curve reach
    # the same order and the same coefficients. On a series curve the
    # welding solve's iterations agree with it to one on every grid: the
    # welding's linearisation is Theodorsen's, and its warm starts on
    # doubled grids are as good. On a polyline the exterior equation
    # theta = psi - conj[log rho(theta)] is the inverted curve's interior
    # equation read backwards, so the iterations are equal
    solve, runs = mapping_module._solve_correspondence, []

    def counted(problem, n, start=None):
        out = solve(problem, n, start)
        runs[-1].append(out[1])
        return out

    monkeypatch.setattr(mapping_module, "_solve_correspondence", counted)
    curves = [load_curve("cubic"), load_curve("wobble"),
              polynomial_curve(0.0, 0.0, 0.0, 0.08),
              polynomial_curve(0.0, 0.0, 0.0, 0.12)]
    curves += [_starlike_series(seed, degree, b) for seed, degree, b in
               ((1, 2, 0.45), (2, 4, 0.3), (3, 6, 0.4), (4, 8, 0.45),
                (5, 5, 0.45))]
    curves += [load_curve("ellipse")] + [
        CurveSpec.from_polyline(boundary_samples(c)) for c in
        (polynomial_curve(0.0, 0.0, 0.0, 0.08),
         polynomial_curve(0.1, 0.05j))]
    for curve in curves:
        runs.append([])
        g, _ = exterior_map(curve)
        runs.append([])
        ref, _ = polar_exterior_map(curve)
        assert g.order == ref.order
        assert len(runs[-2]) == len(runs[-1])
        if curve.kind == "series":
            slack, tol = 1, 1e-13
        else:
            slack, tol = 0, 1e-14
        assert all(abs(a - b) <= slack for a, b in zip(runs[-2], runs[-1]))
        assert abs(g.b1 - ref.b1) <= tol
        assert abs(g.b0 - ref.b0) <= tol
        assert np.max(np.abs(g.bneg - ref.bneg)) <= tol


def _exterior_solve_passes(monkeypatch, curve):
    """(Horner passes of the exterior solve of ``curve`` outside its
    certification, correspondence iterations, Horner passes inside it).
    The solve fails the test if it builds the polar radius or inverts
    arg(f - anchor)."""
    import liouvol.series as series
    horner = series._taylor_horner
    certify = mapping_module._Welding.distance
    solve = mapping_module._solve_correspondence
    passes, iterations, in_certification = [], [], [False]

    def taylor(c, x, upto):
        passes.append(in_certification[0])
        return horner(c, x, upto)

    def certified(*args):
        in_certification[0] = True
        try:
            return certify(*args)
        finally:
            in_certification[0] = False

    def counted(problem, n, start=None):
        out = solve(problem, n, start)
        iterations.append(out[1])
        return out

    def forbidden(*args):
        raise AssertionError("a series exterior solve used the polar radius")

    with monkeypatch.context() as patch:
        patch.setattr(series, "_taylor_horner", taylor)
        patch.setattr(mapping_module._Welding, "distance", certified)
        patch.setattr(mapping_module, "_solve_correspondence", counted)
        patch.setattr(CurveSpec, "polar", forbidden)
        patch.setattr(mapping_module, "_argument_inverse", forbidden)
        exterior_map(curve)
    return passes.count(False), sum(iterations), passes.count(True)


def test_series_exterior_solve_takes_one_jet_per_iteration(monkeypatch):
    # each correspondence iteration evaluates f by one jet and the fit
    # reuses the last; the certification on the welding takes one value
    # pass of f, and the polar radius is never built. The circle's start is
    # the uniform grid, so its one iteration is a ring FFT
    star = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    passes, iterations, certification = _exterior_solve_passes(
        monkeypatch, star)
    assert 0 < passes <= iterations and certification == 1
    passes, iterations, certification = _exterior_solve_passes(
        monkeypatch, circle_curve())
    assert passes == 0 and iterations == 1 and certification == 1


def test_welding_certification_catches_an_off_curve_map(monkeypatch):
    # f(e^{it}) is on the curve for every real t, so a map 1e-9 off the
    # curve fails the certification however the welding came out
    star = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    curves = [load_curve("cubic"), load_curve("wobble"), star]
    for curve in curves:
        assert exterior_map(curve)[1].boundary_mismatch <= 1e-13
    fit = mapping_module._fit_exterior

    def off_curve(*args, **kwargs):
        g, *rest = fit(*args, **kwargs)
        bneg = g.bneg.copy()
        bneg[2] += 1e-9
        return (LaurentMap(g.b1, g.b0, bneg), *rest)

    monkeypatch.setattr(mapping_module, "_fit_exterior", off_curve)
    for curve in curves:
        with pytest.raises(NonConvergence):
            exterior_map(curve)


def test_a_polylines_map_pair_builds_one_spline(monkeypatch):
    # the interior and the exterior solve share the curve's polar radius:
    # one periodic spline per curve, and the maps are those of solves that
    # each build their own
    import scipy.interpolate

    built = []

    class Counted(scipy.interpolate.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "CubicSpline", Counted)
    f, g = conformal_map_pair(load_curve("ellipse"))
    assert len(built) == 1
    f_alone, _ = interior_map(load_curve("ellipse"))
    g_alone, _ = exterior_map(load_curve("ellipse"))
    assert len(built) == 3
    assert f.coeffs.tobytes() == f_alone.coeffs.tobytes()
    assert (np.array([g.b1, g.b0]).tobytes()
            == np.array([g_alone.b1, g_alone.b0]).tobytes())
    assert g.bneg.tobytes() == g_alone.bneg.tobytes()


def test_recenter_interior_keeps_the_boundary():
    # an asymmetric curve is parametrized off its hyperbolic center; the
    # recentered map (f composed with a disk automorphism) is an infinite
    # series and must still trace the same curve
    k = np.arange(2, 7)
    phases = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.8, 0.95]))
    f = PowerSeriesMap(np.concatenate([[0.0, 1.0], 0.04 * phases / k]))
    fr = recenter_interior(f)
    assert fr is not f and fr.order > f.order
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    assert np.max(_distance_to_boundary(f, fr.eval_unchecked(circle))) < 1e-12
