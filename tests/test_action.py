import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (MobiusTransform, balanced_curve,
                     dirichlet_exterior_series, dirichlet_interior_series,
                     ellipse_curve, equipotential, first_variation_action,
                     grid_displacement, grunsky_determinant_action,
                     grunsky_gap_horner, mc_disk_integral, polynomial_curve)

from liouvol.action import grunsky_gap, liouville_action
from liouvol.cli import load_curve
from liouvol.curves import CurveSpec
from liouvol.epstein import mean_curvature_total
from liouvol.mapping import conformal_map_pair
from liouvol.quadrature import QuadratureGrid
from liouvol.series import (LaurentMap, PowerSeriesMap, area_norm,
                            nonlinearity, nonlinearity_of, schwarzian)


def test_grid_weights_sum_to_area(grid):
    assert abs(grid.integrate(np.ones(grid.nodes.size)) - math.pi) < 1e-10


def test_exterior_grid_inversion_jacobian(grid):
    ext = grid.exterior()
    val = ext.integrate(np.abs(ext.nodes) ** -4.0)
    assert abs(val - math.pi) < 1e-10


def test_dirichlet_identity_zero():
    f = PowerSeriesMap([0, 1])
    assert area_norm(f, nonlinearity_of)[0] == 0


def test_dirichlet_scaled_circle_zero():
    f = PowerSeriesMap([0, 2.7])
    assert area_norm(f, nonlinearity_of)[0] == 0


def test_dirichlet_matches_monte_carlo():
    f = PowerSeriesMap([0, 1, 0.1])
    value = area_norm(f, nonlinearity_of)[0]
    mc, sigma = mc_disk_integral(
        lambda z: np.abs(nonlinearity(f, z)) ** 2, n=2_000_000)
    assert abs(value - mc) < 3 * sigma


def test_dirichlet_matches_coefficient_series(ellipse_maps):
    f, g = ellipse_maps
    interior = area_norm(f, nonlinearity_of)[0]
    exterior = area_norm(g, nonlinearity_of)[0]
    assert interior == pytest.approx(dirichlet_interior_series(f), rel=1e-6)
    assert exterior == pytest.approx(dirichlet_exterior_series(g), rel=1e-6)


def test_dirichlet_divergence_detected():
    # boundary-singular derivative: the refinements keep moving
    k = np.arange(1, 400)
    coeffs = np.concatenate([[0], 1.0 / k ** 1.5])
    f = PowerSeriesMap(coeffs)
    assert area_norm(f, nonlinearity_of)[1] > 1e-11


def test_action_circle_zero():
    for radius, center in ((1.0, 0.0), (0.7, 0.2 - 0.4j), (2.5, 1j)):
        f = PowerSeriesMap([center, radius])
        g = LaurentMap(radius, center)
        rep = liouville_action(f, g)
        assert abs(rep.total) < 1e-8
        assert rep.total == rep.interior_term + rep.exterior_term + rep.log_term


def test_action_ellipse_positive_and_consistent(ellipse_maps):
    f, g = ellipse_maps
    rep = liouville_action(f, g)
    assert rep.total > 0
    oracle = (dirichlet_interior_series(f) + dirichlet_exterior_series(g)
              + 4 * math.pi * math.log(abs(f.coeffs[1]) / abs(g.b1)))
    assert rep.total == pytest.approx(oracle, rel=1e-3)
    assert rep.total >= -rep.error_estimate


def _ellipse_action(a, b):
    """S of the ellipse with semi-axes a > b in closed form: its exterior map
    is w + q/w rescaled, q = (a - b)/(a + b), whose Grunsky operator is
    diag(q^n), so S = -12 pi sum_n log(1 - q^(2n))."""
    q = (a - b) / (a + b)
    return -12.0 * math.pi * math.fsum(np.log1p(-q ** (2 * np.arange(1, 100))))


@pytest.mark.parametrize("a, n, bound", [(1.2, 1024, 1e-10),
                                         (1.5, 2048, 1e-11),
                                         (2.0, 2048, 1e-11),
                                         (2.0, 4096, 1e-12)])
def test_action_of_an_ellipse_is_its_closed_form(a, n, bound):
    # (1.2, 1024) is the bundled ellipse fixture, point for point; the
    # bounds are the floor of the polyline's periodic spline
    f, g = conformal_map_pair(ellipse_curve(a, 1.0, n))
    exact = _ellipse_action(a, 1.0)
    assert abs(liouville_action(f, g).total - exact) <= bound * exact


@pytest.mark.parametrize("a", [1.2, 1.5, 2.0])
def test_grunsky_determinant_of_an_ellipse_is_its_closed_form(a):
    q = (a - 1.0) / (a + 1.0)
    exact = _ellipse_action(a, 1.0)
    determinant = grunsky_determinant_action(LaurentMap(1.0, 0.0, [q]))
    assert abs(determinant - exact) <= 1e-13 * exact


@pytest.mark.parametrize("name", ["cubic", "wobble", "star", "quintic",
                                  "balanced1", "balanced2", "balanced3"])
def test_action_is_the_grunsky_determinant_of_either_map(name):
    # S = -12 pi log det(I - B B*), with B the Grunsky operator of g, or of
    # f read as the exterior operator of the inverted curve. The quintic
    # z + 0.12 z^5 has an exterior map of order 2048, beyond the torus
    # grids the oracle builds, so only its interior form is checked
    if name == "star":
        curve = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    elif name == "quintic":
        curve = polynomial_curve(0.0, 0.0, 0.0, 0.12)
    elif name.startswith("balanced"):
        curve = balanced_curve(int(name[-1]), 2)
    else:
        curve = load_curve(name)
    f, g = conformal_map_pair(curve)
    action = liouville_action(f, g).total
    for m in (f,) if name == "quintic" else (f, g):
        determinant = grunsky_determinant_action(m)
        assert abs(determinant - action) <= 1e-12 * action


@pytest.mark.parametrize("shift, turn", [(1e3, 0.0), (1e5, 0.0), (0.0, 0.7),
                                         (1e3, 0.7)])
def test_grunsky_determinant_of_a_moved_curve(shift, turn):
    # both forms take the maps minus their constant terms, so a curve moved
    # far from 0 or turned keeps the action of its pair
    c = np.array([0, 1, 0.1 + 0.05j, -0.03j]) * np.exp(1j * turn)
    f, g = conformal_map_pair(CurveSpec.from_series(c + np.r_[shift, 0, 0, 0]))
    action = liouville_action(f, g).total
    for m in (f, g):
        assert abs(grunsky_determinant_action(m) - action) <= 1e-12 * action


def test_action_mobius_invariance(rng, ellipse_maps):
    f, g = ellipse_maps
    base = liouville_action(f, g).total
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    boundary = f.eval_unchecked(np.exp(1j * th))
    # inversions about poles held away from the curve keep the image bounded
    a = float(rng.uniform(0, 2 * np.pi))
    poles = [2.0, -2.2 + 1.1j, 3.0 * np.exp(1j * a)]
    for pole in poles:
        A = MobiusTransform(0, 1, 1, -pole)
        moved = CurveSpec.from_polyline(A.eval_array(boundary))
        f2, g2 = conformal_map_pair(moved)
        assert abs(liouville_action(f2, g2).total - base) < 1e-4


def test_grunsky_identity_pair(grid):
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    gap = grunsky_gap(f, g, grid)
    assert abs(gap["lhs"]) < 1e-12
    assert abs(gap["rhs"]) < 1e-12


def test_grunsky_equality_for_jordan_pair(grid, ellipse_maps):
    f, g = ellipse_maps
    gap = grunsky_gap(f, g, grid)
    assert abs(gap["lhs"] - gap["rhs"]) < 1e-5


def test_grunsky_strict_inequality_for_shrunken_interior(grid, ellipse_maps):
    _, g = ellipse_maps
    f_small = PowerSeriesMap([0, 0.5])
    gap = grunsky_gap(f_small, g, grid)
    assert gap["lhs"] < gap["rhs"] - 0.1


def test_grunsky_gap_is_translation_invariant(grid, ellipse_maps):
    # both maps are taken about f(0): moving the pair by c moves no term
    f, g = ellipse_maps
    gap = grunsky_gap(f, g, grid)
    for c in (0.3, 0.5 + 0.25j):
        f_moved = PowerSeriesMap(f.coeffs + np.r_[c, np.zeros(f.order)])
        g_moved = LaurentMap(g.b1, g.b0 + c, g.bneg)
        moved = grunsky_gap(f_moved, g_moved, grid)
        for side in ("lhs", "rhs"):
            assert abs(moved[side] - gap[side]) <= 1e-12 * gap["rhs"]


def test_equipotential_action_monotone_with_rate(ellipse_maps):
    # the approximating family increases to the curve's action like C/n
    from liouvol.mapping import exterior_map

    f, g = ellipse_maps
    base = liouville_action(f, g).total
    deficits = []
    for n in (8, 16, 32, 64, 256):
        fn = equipotential(f, n)
        gn, _ = exterior_map(CurveSpec.from_series(fn))
        deficits.append((n, base - liouville_action(fn, gn).total))
    assert all(d > 0 for _, d in deficits)
    assert all(d2 < d1 for (_, d1), (_, d2) in zip(deficits, deficits[1:]))
    scaled = [n * d for n, d in deficits]
    assert max(scaled) / min(scaled) < 1.25   # clean 1/n law
    assert deficits[-1][1] <= 0.02 * base     # 2% reached by n = 256


def test_first_variation_zero_field(grid, ellipse_maps):
    _, g = ellipse_maps
    assert first_variation_action(g, lambda w: np.zeros_like(w), grid) == 0


def test_first_variation_circle_any_field(grid):
    g = LaurentMap(1.0)
    val = first_variation_action(
        g, lambda w: np.exp(-np.abs(w)) * (1 + 1j), grid)
    assert abs(val) < 1e-14


def test_first_variation_sign_antisymmetry(grid, ellipse_maps):
    _, g = ellipse_maps
    nu = lambda w: np.conj(schwarzian(g, w)) / (4.0 / (np.abs(w) ** 2 - 1) ** 2)
    v_plus = first_variation_action(g, nu, grid)
    v_minus = first_variation_action(g, lambda w: -nu(w), grid)
    assert v_plus > 0
    assert v_minus == pytest.approx(-v_plus)


def test_first_variation_matches_finite_difference(grid, ellipse, ellipse_maps):
    from liouvol.flow import beltrami_step
    from liouvol.mapping import conformal_map_pair

    f, g = ellipse_maps
    nu = lambda w: np.conj(schwarzian(g, w)) * (np.abs(w) ** 2 - 1) ** 2 / 4.0
    formula = first_variation_action(g, nu, grid)
    base = liouville_action(f, g).total

    velocity = grid_displacement(ellipse, g, nu, grid)

    def action_at(t):
        moved = beltrami_step(nu, t, precomputed=velocity)
        fm, gm = conformal_map_pair(moved)
        return liouville_action(fm, gm).total

    dt = 1e-3
    fd = (action_at(dt) - action_at(-dt)) / (2 * dt)
    assert abs(fd - formula) < 0.02 * abs(formula)


@st.composite
def starlike_polynomials(draw):
    """z + sum_{k=2..d} a_k z^k with sum k|a_k| = b <= 1/2, which keeps the
    map starlike and univalent."""
    d = draw(st.integers(2, 8))
    unit = st.floats(0.0, 1.0)
    mags = np.array(draw(st.lists(unit, min_size=d - 1, max_size=d - 1)))
    phases = np.array(draw(st.lists(unit, min_size=d - 1, max_size=d - 1)))
    b = draw(st.floats(0.01, 0.5))
    k = np.arange(2, d + 1)
    a = (mags + 0.05) * np.exp(2j * np.pi * phases)
    a *= b / np.sum(k * np.abs(a))
    return PowerSeriesMap(np.concatenate([[0, 1], a]))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(starlike_polynomials())
def test_spectral_integrals_match_grid_on_starlike_polynomials(f0):
    f, g = conformal_map_pair(CurveSpec.from_series(f0))
    grid = QuadratureGrid.disk()
    # the exterior series can be long; resolve it in angle
    ext = QuadratureGrid.for_order(g.order).exterior()
    rep = liouville_action(f, g)
    grid_action = (grid.integrate(np.abs(nonlinearity(f, grid.nodes)) ** 2)
                   + ext.integrate(np.abs(nonlinearity(g, ext.nodes)) ** 2)
                   + 4 * math.pi * math.log(abs(f.coeffs[1]) / abs(g.b1)))
    assert rep.total >= 0
    assert rep.total == pytest.approx(grid_action, rel=1e-9, abs=1e-12)
    for m, q in ((f, grid), (g, ext)):
        weight = (1 - np.abs(q.nodes) ** 2) ** 2 / 4
        grid_mc = q.integrate(np.abs(schwarzian(m, q.nodes)) ** 2 * weight)
        assert mean_curvature_total(m) == pytest.approx(grid_mc, rel=1e-9,
                                                        abs=1e-12)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(starlike_polynomials())
def test_grunsky_equality_on_starlike_polynomials(f0):
    # a Jordan pair fills the plane, so the area inequality is an equality;
    # the angular count resolves the longer of the two series
    f, g = conformal_map_pair(CurveSpec.from_series(f0))
    gap = grunsky_gap(f, g, QuadratureGrid.for_order(max(f.order, g.order)))
    assert abs(gap["rhs"] - gap["lhs"]) <= 1e-10 * gap["rhs"]


_LONG_EXTERIOR = PowerSeriesMap([0, 1, 0.00439, 0.00439, 0.00439, 0.0921])


def test_grunsky_default_grid_resolves_long_exterior_series():
    # the exterior series runs to order 1024; the default grid is sized to it
    f, g = conformal_map_pair(CurveSpec.from_series(_LONG_EXTERIOR))
    assert g.order == 1024
    gap = grunsky_gap(f, g)
    assert abs(gap["rhs"] - gap["lhs"]) <= 1e-10 * gap["rhs"]


# the ids keep a middle field that named the order each solve started
# from, before the solvers chose it, so that they name the same cases
@pytest.mark.parametrize("curve, angular_n", [
    pytest.param(curve, angular_n, id=f"{curve}-{start}-{angular_n}")
    for curve, start, angular_n in [
        ("circle", 128, None), ("ellipse", 128, None), ("cubic", 128, None),
        ("wobble", 128, None), ("star", 128, None), ("long", 64, 256),
        ("long", 64, 1024)]])
def test_grunsky_rings_match_horner(curve, angular_n):
    # ring FFTs against Horner at every node of the same grid; the long
    # exterior series (order 1024) on 256 angular nodes folds its terms,
    # and the circle's rhs is 0, so its lhs is held to 1e-13 absolute
    if curve == "star":
        spec = CurveSpec.from_series(PowerSeriesMap([0, 1, 0, 0, 0, 0.08]))
    elif curve == "long":
        spec = CurveSpec.from_series(_LONG_EXTERIOR)
    else:
        spec = load_curve(curve)
    f, g = conformal_map_pair(spec)
    grid = (QuadratureGrid.for_order(max(f.order, g.order))
            if angular_n is None else QuadratureGrid.disk(angular_n=angular_n))
    gap = grunsky_gap(f, g, grid)
    ref = grunsky_gap_horner(f, g, grid)
    assert gap["rhs"] == ref["rhs"]
    scale = 1.0 if curve == "circle" else ref["rhs"]
    assert abs(gap["lhs"] - ref["lhs"]) <= 1e-13 * scale


@pytest.mark.parametrize("curve", ["ellipse", "cubic", "star"])
def test_first_variation_rings_match_horner(curve):
    # S(g) on the exterior grid's rings by FFT against Horner at every node,
    # paired with nu = conj(S(g)) (|w|^2 - 1)^2, whose integrand is positive
    if curve == "star":
        spec = CurveSpec.from_series(PowerSeriesMap([0, 1, 0, 0, 0, 0.08]))
    else:
        spec = load_curve(curve)
    _, g = conformal_map_pair(spec)
    grid = QuadratureGrid.for_order(g.order)
    ext = grid.exterior()
    sg = schwarzian(g, ext.nodes)
    nu = np.conj(sg) * (np.abs(ext.nodes) ** 2 - 1) ** 2
    ref = 4.0 * ext.integrate(np.abs(sg) ** 2
                              * (np.abs(ext.nodes) ** 2 - 1) ** 2)
    assert abs(first_variation_action(g, nu, grid) - ref) <= 1e-13 * ref


@settings(max_examples=8, derandomize=True, deadline=None)
@given(starlike_polynomials(), st.floats(3.0, 6.0), st.floats(0.0, 1.0))
def test_action_mobius_invariance_on_starlike_polynomials(f0, radius, phase):
    # A(z) = 1/(z - p) is analytic on the closed inside of the curve, so
    # A o f0 maps the disk onto the inside of the moved curve; its series
    # comes from one FFT of boundary samples
    A = MobiusTransform(0, 1, 1, -radius * np.exp(2j * np.pi * phase))
    n = 512
    samples = A.eval_array(f0(np.exp(2j * np.pi * np.arange(n) / n)))
    moved = PowerSeriesMap(np.fft.fft(samples)[: n // 4] / n)
    base = liouville_action(*conformal_map_pair(CurveSpec.from_series(f0)))
    image = liouville_action(
        *conformal_map_pair(CurveSpec.from_series(moved))).total
    # near-translations (f0 = z + a z^2, small a) have S = O(|a|^4) while
    # its terms are O(|a|^2): relative precision refers to the terms
    terms = base.interior_term + base.exterior_term - base.log_term
    assert abs(image - base.total) <= 1e-9 * terms
