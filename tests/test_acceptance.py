"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. Tolerances are fixed here, not
configurable: stated once next to each check. Run with -s to see the
summary lines, e.g.  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from oracles import (MetricJet, boundary_samples, circle_curve,
                     dirichlet_exterior_series, dirichlet_interior_series,
                     ellipse_curve, epstein_point, equipotential,
                     fd_shape_operator, polynomial_curve)

from liouvol.action import grunsky_gap, liouville_action
from liouvol.epstein import _frame_fields
from liouvol.flow import gradient_field, run_flow
from liouvol.mapping import conformal_map_pair
from liouvol.meshing import mesh_surface, surface_separation
from liouvol.quadrature import QuadratureGrid
from liouvol.series import LaurentMap, PowerSeriesMap, schwarzian
from liouvol.volume import mesh_flux, renormalized_volume, volume

GRID = QuadratureGrid.disk()


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ellipse_pair():
    return conformal_map_pair(ellipse_curve(1.2, 1.0))


@pytest.fixture(scope="module")
def cubic_pair():
    return conformal_map_pair(polynomial_curve(0.0, 0.05))


def test_criterion_1_closed_form_envelopes():
    """Three closed-form metrics on a 64x64 grid, max error 1e-10, < 1 s."""
    t0 = time.time()
    r = np.linspace(0.01, 0.95, 64)
    th = 2 * np.pi * np.arange(64) / 64
    zs = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    worst = 0.0
    tpar = 0.37
    for z in zs:
        fr = epstein_point(MetricJet(2 * tpar, 0.0), z)
        worst = max(worst,
                    abs(fr.base.z - z),
                    abs(fr.base.xi - 2 * math.exp(-tpar)))
    for z in zs:
        fr = epstein_point(MetricJet(
            math.log(4) - 2 * math.log(1 + abs(z) ** 2),
            -2 * z / (1 + abs(z) ** 2)), z)
        worst = max(worst, abs(fr.base.z), abs(fr.base.xi - 1.0))
    for z in zs:
        r2 = abs(z) ** 2
        fr = epstein_point(MetricJet(
            math.log(4) - 2 * math.log(1 - r2), 2 * z / (1 - r2)), z)
        worst = max(worst,
                    abs(fr.base.z - 2 * z / (1 + r2)),
                    abs(fr.base.xi - (1 - r2) / (1 + r2)))
    elapsed = time.time() - t0
    report(1, "closed-form envelope examples",
           worst < 1e-10 and elapsed < 1.0,
           f"max_err={worst:.2e} time={elapsed:.2f}s")


def test_criterion_2_circle_baseline():
    """Circle: action 0 +- 1e-8, V and V_R 0 +- 1e-6, hemispheres to 1e-10."""
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    action = liouville_action(f, g).total
    rep = renormalized_volume(f, g)
    mesh_in = mesh_surface(f, 64, 64)
    mesh_out = mesh_surface(g, 64, 64)
    dev_in = float(np.max(np.abs(
        np.linalg.norm(mesh_in.vertices, axis=1) - 1)))
    # the exterior apex is a numerical limit; hold the rest to 1e-10
    dev_out = float(np.max(np.abs(
        np.linalg.norm(mesh_out.vertices[1:], axis=1) - 1)))
    ok = (abs(action) < 1e-8 and abs(rep.V) < 1e-6 and abs(rep.V_R) < 1e-6
          and dev_in < 1e-10 and dev_out < 1e-10)
    report(2, "circle baseline", ok,
           f"S={action:.1e} V={rep.V:.1e} V_R={rep.V_R:.1e} "
           f"hemi_dev=({dev_in:.1e},{dev_out:.1e})")


def test_criterion_3_main_identity(ellipse_pair, cubic_pair):
    """Action equals 4x renormalized volume within max(1%, 5e-4), <= 5 min
    per curve, with independent cross-checks of both sides."""
    for name, (f, g) in (("ellipse", ellipse_pair), ("cubic", cubic_pair)):
        t0 = time.time()
        rep = renormalized_volume(f, g)
        elapsed = time.time() - t0
        tol = max(0.01 * abs(rep.action_total), 5e-4)
        ok = abs(rep.identity_residual) <= tol and elapsed <= 300

        # cross-validate the action terms against coefficient-space sums
        interior = dirichlet_interior_series(f)
        exterior = dirichlet_exterior_series(g)
        oracle_total = interior + exterior + 4 * math.pi * math.log(
            abs(f.coeffs[1]) / abs(g.b1))
        ok = ok and abs(oracle_total - rep.action_total) < 1e-3

        # cross-validate the volume side: flux over a closed synthetic
        # sphere reproduces the enclosed hyperbolic ball volume
        from oracles import ball_volume_euclidean_sphere
        from test_volume import _sphere_mesh
        verts, faces = _sphere_mesh(2.0, 1.0, 128)
        flux, _ = mesh_flux(verts, faces, 1e-9)
        exact = ball_volume_euclidean_sphere(2.0, 1.0)
        ok = ok and abs(flux - exact) / exact < 5e-3

        report(3, f"main identity ({name})", ok,
               f"S={rep.action_total:.6f} 4V_R={4 * rep.V_R:.6f} "
               f"resid={rep.identity_residual:+.2e} tol={tol:.1e} "
               f"time={elapsed:.0f}s")


def test_criterion_4_mean_curvature_identity(ellipse_pair, cubic_pair):
    """Finite-difference integral of H dA on a 256x256 grid matches the
    Schwarzian quadrature within 1% for both curves."""
    for name, (f, _) in (("ellipse", ellipse_pair), ("cubic", cubic_pair)):
        n_r, n_t = 256, 256
        r_max = 0.995
        rr = (np.arange(1, n_r + 1) - 0.5) / n_r * r_max
        tt = 2 * np.pi * np.arange(n_t) / n_t
        zeta = (rr[:, None] * np.exp(1j * tt)[None, :]).ravel()
        _, _, H, area = fd_shape_operator(
            lambda z: _frame_fields(f, z), zeta)
        # the difference stencil works in Cartesian parameter steps, so the
        # polar grid weight carries the r Jacobian
        dr = r_max / n_r
        dth = 2 * np.pi / n_t
        rad = np.repeat(rr, n_t)
        fd_total = float(np.sum(H * area * rad) * dr * dth)
        quad = GRID.integrate(
            np.abs(schwarzian(f, GRID.nodes)) ** 2
            * (1 - np.abs(GRID.nodes) ** 2) ** 2 / 4.0)
        rel = abs(fd_total - quad) / quad
        report(4, f"mean-curvature identity ({name})", rel < 0.01,
               f"fd={fd_total:.6f} quad={quad:.6f} rel={rel:.2e}")


def test_criterion_5_grunsky(ellipse_pair):
    """Equality within 1e-5 for the Jordan pair; strict gap for the
    non-filling pair."""
    f, g = ellipse_pair
    gap = grunsky_gap(f, g, GRID)
    eq_ok = abs(gap["lhs"] - gap["rhs"]) < 1e-5
    shrunk = grunsky_gap(PowerSeriesMap([0, 0.5]), g, GRID)
    strict_ok = shrunk["lhs"] < shrunk["rhs"] - 1e-3
    report(5, "area inequality", eq_ok and strict_ok,
           f"equality_diff={gap['lhs'] - gap['rhs']:.2e} "
           f"strict_gap={shrunk['rhs'] - shrunk['lhs']:.3f}")


def test_criterion_6_equipotential_monotonicity(ellipse_pair):
    """Action of the level-n approximating curves is nondecreasing over
    n in {2,4,8,16,32} and lands within 2% of the curve's action at n=32.

    KNOWN RED: the family converges at the exact rate deficit ~ C/n (the
    missing boundary annulus of the Dirichlet integrals has thickness 1/n),
    and the relative deficit at n=32 is ~12% for every ellipse, independent
    of eccentricity (mild ellipses: 11.97% at axis ratio 1.05, 12.11% at
    1.1, 12.60% at 1.2; n * deficit is constant to three digits out to
    n=512). Hitting 2% requires n of roughly 200. The monotone-convergence
    statement itself is verified here and, with the measured 1/n law, in
    the action test module."""
    f, g = ellipse_pair
    base = liouville_action(f, g).total
    values = []
    for n in (2, 4, 8, 16, 32):
        fn = equipotential(f, n)
        from liouvol.curves import CurveSpec
        from liouvol.mapping import exterior_map
        curve_n = CurveSpec.from_series(fn)
        gn, _ = exterior_map(curve_n)
        values.append(liouville_action(fn, gn).total)
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    close = abs(values[-1] - base) <= 0.02 * base
    report(6, "equipotential monotonicity", nondecreasing and close,
           f"values={['%.5f' % v for v in values]} target={base:.5f} "
           f"(deficit follows ~1.34/n; 2% needs n~200, see test docstring)")


def test_criterion_7_first_variations(ellipse_pair):
    """Finite differences of the action and of V_R against their integral
    formulas: within 5% + 1e-3 at dt = 1e-3, first-order decay over three
    halvings."""
    from liouvol.flow import beltrami_step
    from oracles import (first_variation_action, grid_displacement,
                         variation_check)

    f, g = ellipse_pair
    curve = ellipse_curve(1.2, 1.0)
    nu = lambda w: np.conj(schwarzian(g, w)) * (np.abs(w) ** 2 - 1) ** 2 / 4.0
    formula = first_variation_action(g, nu, GRID)
    s0 = liouville_action(f, g).total
    velocity = grid_displacement(curve, g, nu, GRID)

    def action_at(t):
        moved = beltrami_step(nu, t, precomputed=velocity)
        fm, gm = conformal_map_pair(moved)
        return liouville_action(fm, gm).total

    dt = 1e-3
    central = (action_at(dt) - action_at(-dt)) / (2 * dt)
    action_ok = abs(central - formula) <= 0.05 * abs(formula) + 1e-3

    fwd_errors = [abs((action_at(t) - s0) / t - formula)
                  for t in (1e-3, 5e-4, 2.5e-4)]
    decay_ok = all(b <= 0.65 * a + 1e-6
                   for a, b in zip(fwd_errors, fwd_errors[1:]))

    out = variation_check(f, g, nu, dt, grid=GRID)
    volume_ok = abs(out["lhs"] - out["rhs"]) <= 0.05 * abs(out["rhs"]) + 1e-3

    report(7, "first-variation consistency",
           action_ok and decay_ok and volume_ok,
           f"dS:fd={central:.5f} formula={formula:.5f}; "
           f"fwd_err={['%.1e' % e for e in fwd_errors]}; "
           f"dV_R:fd={out['lhs']:.5f} formula={out['rhs']:.5f}")


def test_criterion_8_gradient_flow():
    """Ellipse start: within 50 accepted steps the action drops below 10%
    of its initial value, monotonically, with the sup bound holding at 6;
    circle start is stationary to 1e-9. Runtime <= 10 min."""
    t0 = time.time()
    f, g = conformal_map_pair(ellipse_curve(1.2, 1.0))
    states = run_flow(f, g, max_steps=50)
    elapsed = time.time() - t0
    acts = [s.action for s in states]
    monotone = all(b <= a for a, b in zip(acts, acts[1:]))
    decreased = acts[-1] < 0.1 * acts[0] and len(states) - 1 <= 50
    nehari_ok = True
    for s in states:
        if gradient_field(s.g).sup_norm > 6.0 + 1e-9:
            nehari_ok = False

    from liouvol.flow import beltrami_step
    g0 = LaurentMap(1.0)
    moved = beltrami_step(gradient_field(g0), 1e-2)
    delta = np.max(np.abs(moved.series.coeffs
                          - np.pad(np.array([0, 1 + 0j]),
                                   (0, moved.series.coeffs.size - 2))))
    stationary = delta < 1e-9

    ok = monotone and decreased and nehari_ok and stationary \
        and elapsed <= 600
    report(8, "gradient flow", ok,
           f"steps={len(states) - 1} S0={acts[0]:.5f} Sf={acts[-1]:.2e} "
           f"circle_delta={delta:.1e} time={elapsed:.0f}s")


def test_criterion_9_disjointness(ellipse_pair):
    """Positive separation for the ellipse; coincidence for the circle."""
    f, g = ellipse_pair
    sep_e = surface_separation(mesh_surface(f, 96, 384, r_max=0.8),
                               mesh_surface(g, 96, 384, r_max=0.8))
    f0 = PowerSeriesMap([0, 1])
    g0 = LaurentMap(1.0)
    sep_c = surface_separation(mesh_surface(f0, 96, 384, r_max=0.8),
                               mesh_surface(g0, 96, 384, r_max=0.8))
    mesh_tol = 1e-6  # discretization floor for coinciding smooth sheets
    ok = sep_e > 1e-4 and sep_c <= mesh_tol
    report(9, "sheet disjointness", ok,
           f"ellipse={sep_e:.2e} circle={sep_c:.2e}")


def test_criterion_10_boundary_height_bounds(ellipse_pair, cubic_pair):
    """d/5 <= xi <= 4d at mesh vertices; the lower bound is checked on the
    bounded side everywhere and on the unbounded side in the near field,
    where the Euclidean distance comparison is meaningful."""
    ok = True
    detail = []
    fixtures = [("ellipse", ellipse_pair, ellipse_curve(1.2, 1.0)),
                ("cubic", cubic_pair, polynomial_curve(0.0, 0.05)),
                ("circle", (PowerSeriesMap([0, 1]),
                            LaurentMap(1.0)), circle_curve())]
    for name, (f, g), curve in fixtures:
        gamma = boundary_samples(curve, 8192)
        diam = float(np.max(np.abs(gamma[:, None] - gamma[None, ::8])))
        mesh_in = mesh_surface(f, 48, 64)
        z_in = f.eval_unchecked(mesh_in.source)
        d_in = np.min(np.abs(z_in[:, None] - gamma[None, :]), axis=1)
        xi_in = mesh_in.vertices[:, 2]
        lo_in = np.all(xi_in >= d_in / 5 - 1e-12)
        hi_in = np.all(xi_in <= 4 * d_in + 1e-12)

        mesh_out = mesh_surface(g, 48, 64)
        src = mesh_out.source[1:]  # skip the apex at infinity
        z_out = g(src)
        d_out = np.min(np.abs(z_out[:, None] - gamma[None, :]), axis=1)
        xi_out = mesh_out.vertices[1:, 2]
        hi_out = np.all(xi_out <= 4 * d_out + 1e-12)
        near = d_out <= diam / 2
        lo_out = np.all(xi_out[near] >= d_out[near] / 5 - 1e-12)

        this = lo_in and hi_in and hi_out and lo_out
        ok = ok and this
        detail.append(f"{name}:{'ok' if this else 'bad'}")
    report(10, "envelope height bounds", ok, " ".join(detail))
