import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

import oracles
from oracles import (EPS_COUNT, H3Point, MobiusTransform, _SAMPLE_X,
                     _RaySheet, _crossings, _ray_sheets, _row_sums,
                     ball_volume_euclidean_sphere, balanced_curve,
                     default_heights, equipotential, geodesic_flow,
                     hyperbolic_annulus_area, mesh_flux_scalar,
                     polynomial_curve, ray_level_eleven_pieces, slab_volume,
                     truncated_ray_volume, variation_check)

from liouvol.action import liouville_action
from liouvol.cli import load_curve
from liouvol.curves import CurveSpec
from liouvol.epstein import (_frame_fields, _height_jacobian,
                             mean_curvature_total)
from liouvol.errors import CapTopologyError, DivergenceSuspected, DomainError
from liouvol.mapping import conformal_map_pair, recenter_interior
from liouvol.meshing import aligned_surface_meshes, mesh_surface
from liouvol.quadrature import angular_count
from liouvol.series import LaurentMap, PowerSeriesMap, ring_jet
from liouvol.volume import (GAUSS_NODES, _X, _check_clip_loops,
                            _inv_sq_simplex, mesh_flux, renormalized_volume,
                            richardson_extrapolate, truncated_volume, volume)

# the module itself: the package exports a function of the same name
volume_module = importlib.import_module("liouvol.volume")


def _mesh_schedule(g):
    """The 7-level halving schedule from 0.1 |g'(inf)| of the mesh flux."""
    return [0.1 * abs(g.b1) * 0.5 ** k for k in range(7)]


def _mesh_volume(f, g, **mesh_opts):
    """V from the mesh flux: the interior map recentered, aligned meshes
    whose rims sit below the smallest height, and two Richardson stages on
    the last three samples."""
    schedule = _mesh_schedule(g)
    f_mesh = recenter_interior(f)
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    dmax = max(float(np.max(np.abs(f_mesh.jet(circle, upto=1)[1]))),
               float(np.max(np.abs(g.deriv_at(circle, 1)))))
    r_max = 1.0 - min(2.0 ** -9, schedule[-1] / (5.0 * dmax))
    mi, mo = aligned_surface_meshes(f_mesh, g, r_max=r_max, **mesh_opts)
    samples = [(eps, truncated_volume(mi, mo, eps)) for eps in schedule]
    return richardson_extrapolate(samples[-3:])[0]


def _identity_curves():
    """The fixtures, the fivefold star z + 0.08 z^5 and a balanced
    starlike curve."""
    return {"ellipse": load_curve("ellipse"), "cubic": load_curve("cubic"),
            "wobble": load_curve("wobble"),
            "star": polynomial_curve(0.0, 0.0, 0.0, 0.08),
            "balanced": balanced_curve(1, 2)}


def _levels(sheet, schedule):
    """The sheet's level at each height: its panels summed exactly."""
    return [math.fsum(row) for row in sheet.volume(schedule).tolist()]


def test_simplex_integral_closed_forms():
    # second divided difference of -log
    assert float(_inv_sq_simplex(np.array(1.0), np.array(2.0),
                                 np.array(3.0))) == pytest.approx(
        0.5 * math.log(4.0 / 3.0), abs=1e-14)
    assert float(_inv_sq_simplex(np.array(2.0), np.array(2.0),
                                 np.array(2.0))) == pytest.approx(1 / 8)
    # near-degenerate branch agrees with the divided-difference formula
    a, b, c = 1.0, 1.0005, 1.00075
    lo = float(_inv_sq_simplex(np.array(a), np.array(b), np.array(c)))
    f1_ab = -math.log(b / a) / (b - a)
    f1_bc = -math.log(c / b) / (c - b)
    ref = (f1_bc - f1_ab) / (c - a)
    assert lo == pytest.approx(ref, rel=1e-7)


def _sphere_mesh(h, r, n=96):
    th = np.linspace(0, np.pi, n + 1)
    ph = np.linspace(0, 2 * np.pi, 2 * n, endpoint=False)
    verts = [(0.0, 0.0, h + r)]
    for t in th[1:-1]:
        for p in ph:
            verts.append((r * math.sin(t) * math.cos(p),
                          r * math.sin(t) * math.sin(p),
                          h + r * math.cos(t)))
    verts.append((0.0, 0.0, h - r))
    verts = np.array(verts)
    faces = []
    M = len(ph)
    for j in range(M):
        faces.append((0, 1 + j, 1 + (j + 1) % M))
    rings = n - 1
    for i in range(rings - 1):
        for j in range(M):
            a = 1 + i * M + j
            b = 1 + i * M + (j + 1) % M
            c = 1 + (i + 1) * M + j
            d = 1 + (i + 1) * M + (j + 1) % M
            faces.append((a, d, b))
            faces.append((a, c, d))
    last = 1 + (rings - 1) * M
    bot = len(verts) - 1
    for j in range(M):
        faces.append((bot, last + j, last + (j + 1) % M))
    return verts, np.array(faces)


def test_flux_over_closed_sphere_matches_ball_volume():
    h, r = 2.0, 1.0
    verts, faces = _sphere_mesh(h, r, 128)
    flux, segments = mesh_flux(verts, faces, 1e-9)
    assert len(segments) == 0
    exact = ball_volume_euclidean_sphere(h, r)
    assert abs(flux - exact) / exact < 5e-3


def test_flux_cap_consistency_on_sphere():
    # truncating at a level inside the ball keeps exactly the volume above it
    h, r = 2.0, 1.0
    verts, faces = _sphere_mesh(h, r, 128)
    eps = 1.5
    flux, segments = mesh_flux(verts, faces, eps)
    assert len(segments) > 0
    zs = np.linspace(eps, h + r, 4000)
    disc_r2 = r ** 2 - (zs - h) ** 2
    disc_r2[disc_r2 < 0] = 0
    shell = float(np.trapezoid(math.pi * disc_r2 / zs ** 3, zs))
    assert abs(flux - shell) / shell < 5e-3


SLAB = (0.35, 0.75, 0.4)   # inner and outer disk radius, geodesic shift


@pytest.fixture(scope="module")
def slab_mesh():
    """Closed mesh of a band of the geodesic plane, its shifted copy and the
    two geodesic side walls, oriented outward."""
    f = PowerSeriesMap([0, 1])
    r1, r2, t = SLAB
    n_ang, n_rad, n_wall = 256, 80, 48

    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    rr = np.linspace(r1, r2, n_rad)
    zeta = rr[:, None] * np.exp(1j * theta)[None, :]
    Z, xi, eh, ev = _frame_fields(f, zeta.ravel())

    def flow_points(ring_zeta, times):
        Z0, x0, e0, v0 = _frame_fields(f, ring_zeta)
        pts = []
        for u in times:
            for j in range(ring_zeta.size):
                base, _, _ = geodesic_flow(
                    H3Point(complex(Z0[j]), float(x0[j])),
                    complex(e0[j]), float(v0[j]), -u)
                pts.append((base.z.real, base.z.imag, base.xi))
        return np.array(pts)

    top = np.column_stack([Z.real, Z.imag, xi])
    top_ref = np.column_stack([eh.real, eh.imag, ev])  # outward = +eta
    sh = flow_points(zeta.ravel(), [t])
    sh_ref = -top_ref                                  # outward = -eta moved
    times = np.linspace(0, t, n_wall)
    wall_outer = flow_points(r2 * np.exp(1j * theta), times)
    wall_inner = flow_points(r1 * np.exp(1j * theta), times)
    horiz = lambda pts: np.column_stack(
        [pts[:, 0], pts[:, 1], np.zeros(len(pts))])
    wall_outer_ref = horiz(wall_outer)                 # outward = +radial
    wall_inner_ref = -horiz(wall_inner)                # outward = -radial

    def grid_faces(nu, nv, start):
        out = []
        for i in range(nu - 1):
            for j in range(nv):
                a = start + i * nv + j
                b = start + i * nv + (j + 1) % nv
                c = start + (i + 1) * nv + j
                d = start + (i + 1) * nv + (j + 1) % nv
                out += [(a, d, b), (a, c, d)]
        return out

    verts = np.vstack([top, sh, wall_outer, wall_inner])
    refs = np.vstack([top_ref, sh_ref, wall_outer_ref, wall_inner_ref])
    faces = []
    for block, nu in ((0, n_rad), (1, n_rad), (2, n_wall), (3, n_wall)):
        start = sum([top.shape[0], sh.shape[0], wall_outer.shape[0]][:block])
        faces += grid_faces(nu, n_ang, start)
    faces = np.array(faces)
    # orient every face outward against its reference direction
    p = verts[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = np.einsum("ij,ij->i", cross, refs[faces].mean(axis=1)) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return verts, faces


def test_slab_between_plane_and_equidistant(slab_mesh):
    """Closed flux over the slab mesh equals the closed-form slab volume."""
    r1, r2, t = SLAB
    flux, _ = mesh_flux(*slab_mesh, 1e-6)
    exact = slab_volume(hyperbolic_annulus_area(r1, r2), t)
    assert flux > 0
    assert abs(flux - exact) / exact < 5e-3


def test_truncated_volume_circle_zero():
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    mi, mo = aligned_surface_meshes(f, g, n_ang=256, per_octave=8,
                                    interior_rings=24)
    for eps in (0.1, 0.05, 0.0125):
        assert abs(truncated_volume(mi, mo, eps)) < 1e-6


def test_truncated_volume_guards(ellipse_maps):
    f, g = ellipse_maps
    mi, mo = aligned_surface_meshes(f, g, n_ang=256, per_octave=8,
                                    interior_rings=24)
    with pytest.raises(DomainError):
        truncated_volume(mi, mo, 10.0)    # above both sheets
    with pytest.raises(DomainError):
        truncated_volume(mi, mo, 1e-9)    # below the mesh rims


def test_truncated_volume_monotone_neighborhood(ellipse_maps):
    f, g = ellipse_maps
    mi, mo = aligned_surface_meshes(f, g, n_ang=512, per_octave=10,
                                    interior_rings=48)
    v1 = truncated_volume(mi, mo, 0.05)
    v2 = truncated_volume(mi, mo, 0.025)
    v3 = truncated_volume(mi, mo, 0.0125)
    assert 0 < v2 - v1
    assert 0 < v3 - v2 < v2 - v1


def test_clip_topology_error_on_open_sheet():
    # a single open sheet crossing the level has a non-closed clip curve
    f = PowerSeriesMap([0, 1])
    from liouvol.meshing import mesh_surface
    mesh = mesh_surface(f, 32, 32, r_max=0.9)
    with pytest.raises(CapTopologyError):
        from liouvol.volume import _check_clip_loops
        _, segs = mesh_flux(mesh.vertices, mesh.faces, 0.6)
        _check_clip_loops(segs[: len(segs) // 2])  # half a loop cannot close


def _assert_matches_scalar_clip(verts, faces, levels):
    for eps in levels:
        flux, segments = mesh_flux(verts, faces, eps)
        ref, ref_segments = mesh_flux_scalar(verts, faces, eps,
                                             _inv_sq_simplex)
        assert len(segments) == len(ref_segments) > 0
        assert abs(flux - ref) <= 1e-12 * abs(ref)


def test_mesh_flux_matches_scalar_clip_on_sphere():
    verts, faces = _sphere_mesh(2.0, 1.0, 128)
    _assert_matches_scalar_clip(verts, faces, (1.13, 1.5, 2.31, 2.87))


def test_mesh_flux_matches_scalar_clip_on_slab(slab_mesh):
    verts, faces = slab_mesh
    lo, hi = verts[:, 2].min(), verts[:, 2].max()
    _assert_matches_scalar_clip(verts, faces,
                                lo + (hi - lo) * np.array([0.17, 0.43, 0.71]))


def test_mesh_flux_matches_scalar_clip_on_ellipse_sheets(ellipse_maps):
    f, g = ellipse_maps
    for mesh in aligned_surface_meshes(f, g, n_ang=256):
        _assert_matches_scalar_clip(mesh.vertices, mesh.faces,
                                    (0.11, 0.0275, 0.0034375))


def _cone(ring_heights, apex=(0.0, 0.0, 2.0)):
    """Open cone from an apex down to a unit ring of given heights, faces
    oriented upward; the apex is vertex 0."""
    n = len(ring_heights)
    phi = 2 * np.pi * np.arange(n) / n
    verts = np.vstack([apex, np.column_stack(
        [np.cos(phi), np.sin(phi), ring_heights])])
    j = np.arange(n)
    faces = np.column_stack([np.zeros(n, int), 1 + j, 1 + (j + 1) % n])
    return verts, faces


def test_clip_loop_closes_on_open_sheet():
    f = PowerSeriesMap([0, 1])
    mesh = mesh_surface(f, 32, 32, r_max=0.9)
    _, segs = mesh_flux(mesh.vertices, mesh.faces, 0.6)
    assert _check_clip_loops(segs) == len(segs) > 0


def test_clip_loops_keep_nearby_crossings_on_distinct_edges_apart():
    # two cones over one ring whose apexes sit 1e-11 apart: crossings on
    # their side edges agree to 9 digits but lie on distinct mesh edges
    n = 16
    verts, faces = _cone(np.full(n, 0.5))
    verts = np.vstack([verts, [1e-11, 0.0, 2.0]])
    twin = faces[:, [0, 2, 1]].copy()
    twin[:, 0] = n + 1
    _, segs = mesh_flux(verts, np.vstack([faces, twin]), 1.0)
    assert _check_clip_loops(segs) == 2 * n


def test_clip_loop_through_vertices_on_the_level():
    # every other ring vertex sits exactly at eps: those crossings are keyed
    # by the vertex and still close the loop; the flux is unchanged
    n = 16
    verts, faces = _cone(np.where(np.arange(n) % 2 == 0, 1.0, 0.5))
    flux, segs = mesh_flux(verts, faces, 1.0)
    assert len(segs) == n
    assert _check_clip_loops(segs) == n
    ref, _ = mesh_flux_scalar(verts, faces, 1.0, _inv_sq_simplex)
    assert abs(flux - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("apex_height", [2.0, 1.0, 0.5])
def test_mesh_flux_on_faces_touching_the_level(apex_height):
    # the ring sits exactly at eps: with the apex above, every face has
    # hmin == eps and counts as above; with the apex below, every face has
    # hmax == eps and counts as below; with the apex at eps the cone is a
    # flat 16-gon, counted once; none straddles
    verts, faces = _cone(np.full(16, 1.0), apex=(0.0, 0.0, apex_height))
    flux, segs = mesh_flux(verts, faces, 1.0)
    ref, ref_segs = mesh_flux_scalar(verts, faces, 1.0, _inv_sq_simplex)
    assert len(segs) == len(ref_segs) == 0
    assert abs(flux - ref) <= 1e-12 * abs(ref)


def test_richardson_on_synthetic_sequence():
    eps = [0.1 * 0.5 ** k for k in range(5)]
    samples = [(e, 1.0 - 0.3 * e + 0.07 * e * e) for e in eps]
    v, err = richardson_extrapolate(samples)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_volume_circle_baseline():
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    v, samples, err = truncated_ray_volume(f, g)
    assert abs(v) < 1e-6
    # and at every level of the default schedule
    assert len(samples) == EPS_COUNT
    assert max(abs(s) for _, s in samples) <= 1e-11


def test_circle_volume_is_zero():
    # the unit circle's two sheets are the unit hemisphere from either side
    f, g = PowerSeriesMap([0, 1]), LaurentMap(1.0)
    assert abs(volume(f, g)) <= 1e-14


def test_volume_ellipse_refinement_stable(ellipse_maps):
    f, g = ellipse_maps
    v1 = _mesh_volume(f, g, n_ang=512, per_octave=8, interior_rings=32)
    v2 = _mesh_volume(f, g, n_ang=1024, per_octave=10, interior_rings=64)
    assert abs(v1 - v2) / abs(v2) < 0.01


def test_volume_mobius_invariance(ellipse, ellipse_maps):
    from liouvol.curves import CurveSpec
    from liouvol.mapping import conformal_map_pair

    f, g = ellipse_maps
    v_base = volume(f, g)
    A = MobiusTransform(0, 1, 1, -2)   # z -> 1/(z - 2), image stays bounded
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    pts = A.eval_array(f.eval_unchecked(np.exp(1j * th)))
    moved = CurveSpec.from_polyline(pts)
    f2, g2 = conformal_map_pair(moved)
    v_moved = volume(f2, g2)
    # both curves are polylines, whose maps carry their splines' floor
    assert abs(v_moved - v_base) / abs(v_base) < 1e-10


def test_identity_residual_shrinks_under_refinement(ellipse_maps):
    # the mesh flux: its residual shrinks as the meshes refine
    f, g = ellipse_maps
    action_total = liouville_action(f, g).total
    mch = 0.5 * (mean_curvature_total(f) + mean_curvature_total(g))
    coarse_v_r = _mesh_volume(f, g, n_ang=256, per_octave=6,
                              interior_rings=16) - mch
    fine_v_r = _mesh_volume(f, g, n_ang=1024, per_octave=10,
                            interior_rings=64) - mch
    assert (abs(action_total - 4 * fine_v_r)
            < abs(action_total - 4 * coarse_v_r))
    # fixed-resolution inequality direction, up to the numerical tolerance
    assert action_total >= 4 * fine_v_r - 2e-3


def test_equipotential_family_tracks_identity(ellipse_maps):
    from liouvol.curves import CurveSpec
    from liouvol.mapping import exterior_map
    from liouvol.volume import renormalized_volume

    f, _ = ellipse_maps
    for n in (2, 4, 8, 16):
        fn = equipotential(f, n)
        gn, _ = exterior_map(CurveSpec.from_series(fn))
        rep = renormalized_volume(fn, gn)
        tol = max(0.01 * abs(rep.action_total), 1e-3)
        assert abs(rep.identity_residual) <= tol


def test_renormalized_volume_circle():
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    rep = renormalized_volume(f, g)
    assert abs(rep.V_R) < 1e-6
    assert rep.V_R == rep.V - rep.mean_curvature_half
    assert abs(rep.identity_residual) < 1e-6


def test_identity_on_energetic_star_curve():
    # fivefold star with action ~30x the ellipse; the solvers auto-refine
    # the series order and the identity still holds at the 1% level
    from liouvol.mapping import conformal_map_pair
    from liouvol.volume import renormalized_volume

    curve = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    f, g = conformal_map_pair(curve)
    assert g.order >= 256  # refinement kicked in
    rep = renormalized_volume(f, g)
    assert abs(rep.identity_residual) <= 0.01 * rep.action_total


def test_variation_check_trivial_field(ellipse_maps):
    f, g = ellipse_maps
    out = variation_check(f, g, lambda w: np.zeros_like(w), 1e-3)
    assert out["rhs"] == 0
    assert abs(out["lhs"]) < 1e-6


def test_variation_check_circle_rhs_zero():
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    nu = lambda w: 0.05 / (np.abs(w) ** 2 + 1.0) + 0j
    out = variation_check(f, g, nu, 1e-3)
    assert out["rhs"] == 0
    assert abs(out["lhs"]) < 5e-3


def test_richardson_recovers_a_cubic_on_uneven_heights():
    eps = [0.04, 0.03, 0.02, 0.01]
    samples = [(e, 1.0 - 0.3 * e + 0.07 * e * e - 2.0 * e ** 3) for e in eps]
    v, err = richardson_extrapolate(samples)
    assert v == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["circle", "ellipse", "cubic", "wobble"])
def test_ray_sheet_areas_cancel(name):
    f, g = conformal_map_pair(load_curve(name))
    inside, outside = _ray_sheets(f, g, 1e-4 * abs(g.b1))
    assert inside.area > 0
    assert abs(inside.area + outside.area) <= 1e-10 * abs(inside.area)


def test_too_few_rays_for_the_star_raise(monkeypatch):
    # the star's exterior map has order 512; 256 rays alias it and leave
    # its sheet areas uncancelled at ~5e-10
    curve = polynomial_curve(0.0, 0.0, 0.0, 0.08)
    f, g = conformal_map_pair(curve)
    assert volume(f, g) > 0
    monkeypatch.setattr(volume_module, "angular_count", lambda order: 256)
    with pytest.raises(DivergenceSuspected):
        volume(f, g)


@pytest.mark.parametrize("fmap, s", [
    (PowerSeriesMap([0, 1]), 1.0), (LaurentMap(1.0), -1.0)])
def test_ray_sheet_heights_at_the_rim(fmap, s):
    # the unit circle's sheets have xi = tau / (2 - s tau) with
    # tau = s (1 - r^2) from the node t; formed from the rounded point
    # r e^{i theta}, tau would be 1e-16 / tau relative off next to the rim
    edges = np.array([0.0, 1e-12, 1e-6, 0.5, 1.0])
    sheet = _RaySheet.of(fmap, 8, edges)
    half = np.diff(edges) / 2.0
    t = (edges[:-1] + half)[:, None] + half[:, None] * _X
    tau = t * (2.0 - t) / ((1.0 - t) ** 2 if s < 0 else 1.0)
    expect = np.tile(tau / (2.0 - s * tau), (8, 1))
    assert np.max(np.abs(sheet.xi / expect - 1.0)) <= 1e-15


@pytest.mark.parametrize("name", ["ellipse", "cubic", "star"])
def test_ring_jets_give_the_horner_sheets(name, monkeypatch):
    # the sheets from one FFT per radius and from Horner at the same points
    # agree at every default height to rounding: neither J nor xi amplifies
    # the jets' last-digit differences; nor does the finite part
    f, g = conformal_map_pair(_identity_curves()[name])
    schedule = default_heights(g)
    ring = [_levels(s, schedule) for s in _ray_sheets(f, g, schedule[-1])]
    v = volume(f, g)
    horner_jet = lambda m, radii, n: m.jet(
        radii[..., None] * np.exp(2j * np.pi * np.arange(n) / n), upto=3)
    monkeypatch.setattr(oracles, "ring_jet", horner_jet)
    monkeypatch.setattr(volume_module, "ring_jet", horner_jet)
    horner = [_levels(s, schedule) for s in _ray_sheets(f, g, schedule[-1])]
    assert np.max(np.abs(np.subtract(ring, horner) / horner)) <= 1e-15
    assert abs(volume(f, g) / v - 1.0) <= 5e-14


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "star"])
def test_newton_cuts_match_bisection(name):
    # every bracket of both sheets at every default height, in one call
    # with one height per bracket: the Newton crossing against 60 halvings
    # of the bracket, on Clenshaw values
    f, g = conformal_map_pair(_identity_curves()[name])
    schedule = default_heights(g)
    for sheet in _ray_sheets(f, g, schedule[-1]):
        above = sheet.samples > np.array(schedule)[:, None, None]
        h, p, j = np.nonzero(above[..., 1:] != above[..., :-1])
        eps, coeffs = np.array(schedule)[h], sheet.xi_c[p]
        lo, hi, lo_above = _SAMPLE_X[j], _SAMPLE_X[j + 1], above[h, p, j]
        cuts = _crossings(coeffs, eps, lo, hi, lo_above)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            same = (legendre.legval(mid, coeffs.T, tensor=False)
                    > eps) == lo_above
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        assert set(h) == set(range(len(schedule)))
        assert np.max(np.abs(cuts - (lo + hi) / 2.0)) <= 1e-14


def test_newton_keeps_an_iterate_on_the_crossing():
    # xi = 0.5 +- 0.25 x: one Newton step from the midpoint of each bracket
    # lands on the crossing +-0.25 of eps = 0.5625, where the interpolant
    # equals eps; that iterate is the cut, not its bracket's midpoint
    coeffs = np.zeros((2, GAUSS_NODES))
    coeffs[:, 0], coeffs[:, 1] = 0.5, [0.25, -0.25]
    cuts = _crossings(coeffs, 0.5625, np.array([0.0, -1.0]),
                      np.array([1.0, 0.0]), np.array([False, True]))
    assert cuts.tolist() == [0.25, -0.25]


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "star"])
def test_levels_match_the_eleven_piece_rule(name):
    # cutting a straddling panel only at its crossings changes each sheet's
    # level and V(eps) only at rounding
    f, g = conformal_map_pair(_identity_curves()[name])
    schedule = default_heights(g)
    sheets = _ray_sheets(f, g, schedule[-1])
    levels = np.array([_levels(s, schedule) for s in sheets])
    oracle = np.array([[ray_level_eleven_pieces(s, eps) for eps in schedule]
                       for s in sheets])
    assert np.max(np.abs(levels / oracle - 1.0)) <= 1e-13
    v, v_oracle = levels.sum(axis=0), oracle.sum(axis=0)
    assert np.max(np.abs(v / v_oracle - 1.0)) <= 1e-13


def test_circle_levels_in_closed_form():
    # the unit circle's sheets have levels +-pi (1/2 - ln eps), which cancel
    f, g = PowerSeriesMap([0, 1]), LaurentMap(1.0)
    schedule = default_heights(g)
    inside, outside = (_levels(s, schedule)
                       for s in _ray_sheets(f, g, schedule[-1]))
    exact = np.pi * (0.5 - np.log(schedule))
    assert np.max(np.abs(np.divide(inside, exact) - 1.0)) <= 5e-14
    assert np.max(np.abs(np.divide(outside, -exact) - 1.0)) <= 5e-14
    _, samples, _ = truncated_ray_volume(f, g)
    assert max(abs(v) for _, v in samples) <= 1e-13


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_row_sums_match_fsum(data):
    # rows of large terms of both signs that cancel exactly, plus small
    # terms, shuffled, with condition numbers sum|x| / |sum x| up to 1e12:
    # the doubled-precision sum is within one ulp of the correctly rounded
    # one
    n = data.draw(st.integers(1, 40))
    scale = 10.0 ** data.draw(st.floats(0.0, 10.0))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        big = [scale * x for x in data.draw(
            st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))]
        small = data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        row = data.draw(st.permutations(big + [-x for x in big] + small))
        exact = math.fsum(row)
        assume(exact != 0.0
               and math.fsum(map(abs, row)) <= 1e12 * abs(exact))
        rows.append(row)
    for row, total in zip(rows, _row_sums(np.array(rows)).tolist()):
        assert abs(total - math.fsum(row)) <= math.ulp(math.fsum(row))


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "circle",
                                  "star", "balanced"])
def test_volume_samples_are_the_rounded_level_sums(name):
    # each V(eps) is the exact sum of its panels over both sheets, rounded
    # once: bit for bit math.fsum of the concatenated rows
    curves = _identity_curves()
    curve = curves[name] if name in curves else load_curve(name)
    f, g = conformal_map_pair(curve)
    schedule = default_heights(g)
    rows = np.concatenate([s.volume(schedule) for s in
                           _ray_sheets(f, g, schedule[-1])], axis=1)
    _, samples, _ = truncated_ray_volume(f, g)
    assert [v for _, v in samples] == [math.fsum(r) for r in rows.tolist()]


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "star",
                                  "balanced1", "balanced2", "balanced3"])
def test_identity_to_rounding(name):
    curves = _identity_curves()
    curve = (curves[name] if name in curves
             else balanced_curve(int(name.removeprefix("balanced")), 2))
    f, g = conformal_map_pair(curve)
    rep = renormalized_volume(f, g)
    assert abs(rep.identity_residual) <= 5e-13 * rep.action_total


def test_mesh_samples_approach_ray_samples(ellipse_maps):
    # the mesh flux converges to the ray samples as its rays double
    f, g = ellipse_maps
    _, samples, _ = truncated_ray_volume(f, g)
    gaps = []
    for n_ang in (256, 512):
        mi, mo = aligned_surface_meshes(f, g, n_ang=n_ang)
        gaps.append(max(abs(truncated_volume(mi, mo, eps) - v)
                        for eps, v in samples[:7]))
    assert gaps[1] < 0.5 * gaps[0]


@pytest.mark.parametrize("name", list(_identity_curves()))
def test_identity_to_eight_digits(name):
    f, g = conformal_map_pair(_identity_curves()[name])
    rep = renormalized_volume(f, g)
    assert abs(rep.identity_residual) <= 1e-8 * rep.action_total


def test_identity_on_the_order_2048_star():
    # the exterior map of z + 0.12 z^5 runs to order 2048, and its sheet's
    # integrand to about twice that in angle: on 2048 rays it aliases, and
    # the residual reads 1.2e-8 of the action
    curve = polynomial_curve(0.0, 0.0, 0.0, 0.12)
    f, g = conformal_map_pair(curve)
    assert g.order == 2048
    rep = renormalized_volume(f, g)
    assert abs(rep.identity_residual) <= 1e-11 * rep.action_total


@pytest.mark.parametrize("name", ["ellipse", "cubic", "star"])
@pytest.mark.parametrize("doubled", ["inside", "outside"])
def test_doubling_a_sheets_rays_moves_v_at_rounding(name, doubled,
                                                    monkeypatch):
    # each sheet takes angular_count(2 * order) rays of its own map: 256
    # on the fixtures, and 256 inside and 1024 outside on the star
    f, g = conformal_map_pair(_identity_curves()[name])
    ratio = 4 if name == "star" else 1
    v = volume(f, g)
    target = f if doubled == "inside" else g
    sheet, rays = volume_module._sheet, []

    def doubled_sheet(m, n):
        rays.append(n)
        return sheet(m, 2 * n if m is target else n)

    monkeypatch.setattr(volume_module, "_sheet", doubled_sheet)
    assert abs(volume(f, g) - v) <= 1e-13 * abs(v)
    assert rays == [256, ratio * 256]


@pytest.mark.parametrize("name", ["ellipse", "cubic", "star", "z+0.12z^5"])
def test_sheet_blocks_match_one_whole_table(name, monkeypatch):
    # each sheet's table is formed in blocks of about _BLOCK_POINTS points:
    # 32 rings a block on 256 rays, 8 on the star's 1024 and 2 on the 4096
    # rays of z + 0.12 z^5. The blocks change only the order in which the
    # rays' finite parts and the area are summed, so V moves at rounding
    # against one block of every ring
    curve = (polynomial_curve(0.0, 0.0, 0.0, 0.12)
             if name == "z+0.12z^5" else _identity_curves()[name])
    f, g = conformal_map_pair(curve)
    blocked = volume(f, g)
    monkeypatch.setattr(volume_module, "_BLOCK_POINTS", 10 ** 9)
    whole = volume(f, g)
    assert abs(blocked / whole - 1.0) <= 1e-14


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "star",
                                  "balanced1", "balanced2", "balanced3"])
def test_volume_is_the_oracles_neville_limit(name):
    # the finite part is the limit that the truncated ray volume's heights
    # extrapolate to
    curves = _identity_curves()
    curve = (curves[name] if name in curves
             else balanced_curve(int(name.removeprefix("balanced")), 2))
    f, g = conformal_map_pair(curve)
    assert abs(volume(f, g) / truncated_ray_volume(f, g)[0] - 1.0) <= 1e-13


@pytest.mark.parametrize("name", ["circle", "ellipse", "cubic", "wobble",
                                  "star"])
def test_each_sheets_log_eps_coefficient_is_pi(name):
    # (2 pi / n) sum kappa over a sheet's rays, the coefficient of -log eps
    # in its truncated integral, is +pi inside and -pi outside: so log eps
    # cancels between the sheets
    curves = _identity_curves()
    curve = curves[name] if name in curves else load_curve(name)
    for m, sign in zip(conformal_map_pair(curve), (1.0, -1.0)):
        n = angular_count(2 * m.order)
        rim = np.exp(2j * np.pi * np.arange(n) / n)[None, :]
        xi_tau, J_tau = _height_jacobian(m, rim, ring_jet(m, np.ones(1), n),
                                         np.zeros((1, 1)))
        kappa = J_tau[0] / (4.0 * xi_tau[0] ** 2)
        assert abs(2.0 * np.pi / n * kappa.sum() - sign * np.pi) <= 1e-13
