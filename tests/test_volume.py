import math

import numpy as np
import pytest

from oracles import (ball_volume_euclidean_sphere, hyperbolic_annulus_area,
                     mesh_flux_scalar, slab_volume)

from liouvol.epstein import _interior_frame_fields, geodesic_flow
from liouvol.errors import CapTopologyError, DomainError
from liouvol.meshing import aligned_surface_meshes, mesh_surface
from liouvol.mobius import H3Point
from liouvol.series import LaurentMap, PowerSeriesMap
from liouvol.volume import (_check_clip_loops, _inv_sq_simplex, mesh_flux,
                            renormalized_volume, richardson_extrapolate,
                            truncated_volume, volume)


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
    f = PowerSeriesMap([0, 1], hint_radius=8)
    r1, r2, t = SLAB
    n_ang, n_rad, n_wall = 256, 80, 48

    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    rr = np.linspace(r1, r2, n_rad)
    zeta = rr[:, None] * np.exp(1j * theta)[None, :]
    Z, xi, eh, ev = _interior_frame_fields(f, zeta.ravel())

    def flow_points(ring_zeta, times):
        pts = []
        for u in times:
            for z0 in ring_zeta:
                Z0, x0, e0, v0 = _interior_frame_fields(f, np.array([z0]))
                base, _, _ = geodesic_flow(
                    H3Point(complex(Z0[0]), float(x0[0])),
                    complex(e0[0]), float(v0[0]), -u)
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
    f = PowerSeriesMap([0, 1], hint_radius=8)
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
    f = PowerSeriesMap([0, 1], hint_radius=8)
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


def test_volume_samples_equal_per_level_truncated_volume(ellipse_maps):
    f, g = ellipse_maps
    mi, mo = aligned_surface_meshes(f, g, n_ang=256, per_octave=8,
                                    interior_rings=24)
    _, samples, _ = volume(f, g, meshes=(mi, mo))
    assert len(samples) == 7
    for eps, v in samples:
        assert abs(v - truncated_volume(mi, mo, eps)) <= 1e-12 * abs(v)


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
    f = PowerSeriesMap([0, 1], hint_radius=8)
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


def test_richardson_on_synthetic_sequence():
    eps = [0.1 * 0.5 ** k for k in range(5)]
    samples = [(e, 1.0 - 0.3 * e + 0.07 * e * e) for e in eps]
    v, err = richardson_extrapolate(samples, stages=2)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_volume_circle_baseline():
    f = PowerSeriesMap([0, 1], hint_radius=8)
    g = LaurentMap(1.0)
    v, samples, err = volume(f, g, n_ang=256, per_octave=8, interior_rings=24)
    assert abs(v) < 1e-6


def test_volume_ellipse_refinement_stable(ellipse_maps):
    f, g = ellipse_maps
    v1, _, _ = volume(f, g, n_ang=512, per_octave=8, interior_rings=32)
    v2, _, _ = volume(f, g, n_ang=1024, per_octave=10, interior_rings=64)
    assert abs(v1 - v2) / abs(v2) < 0.01


def test_volume_mobius_invariance(ellipse, ellipse_maps):
    from liouvol.curves import CurveSpec
    from liouvol.mapping import conformal_map_pair
    from liouvol.mobius import MobiusTransform

    f, g = ellipse_maps
    v_base, _, _ = volume(f, g, n_ang=512, per_octave=8, interior_rings=48)
    A = MobiusTransform(0, 1, 1, -2)   # z -> 1/(z - 2), image stays bounded
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    pts = A.eval_array(f.eval_unchecked(np.exp(1j * th)))
    moved = CurveSpec.from_polyline(pts, check=False)
    f2, g2 = conformal_map_pair(moved, order=128)
    v_moved, _, _ = volume(f2, g2, n_ang=512, per_octave=8, interior_rings=48)
    assert abs(v_moved - v_base) / abs(v_base) < 0.02


def test_identity_residual_shrinks_under_refinement(ellipse_maps):
    from liouvol.volume import renormalized_volume
    f, g = ellipse_maps
    coarse = renormalized_volume(f, g, n_ang=256, per_octave=6,
                                 interior_rings=16)
    fine = renormalized_volume(f, g, n_ang=1024, per_octave=10,
                               interior_rings=64)
    assert abs(fine.identity_residual) < abs(coarse.identity_residual)
    # fixed-resolution inequality direction, up to the numerical tolerance
    assert fine.action_total >= 4 * fine.V_R - 2e-3


def test_equipotential_family_tracks_identity(ellipse_maps):
    from liouvol.curves import CurveSpec
    from liouvol.mapping import exterior_map
    from liouvol.series import equipotential
    from liouvol.volume import renormalized_volume

    f, _ = ellipse_maps
    for n in (2, 4, 8, 16):
        fn = equipotential(f, n)
        gn, _ = exterior_map(CurveSpec.from_series(fn, check=False),
                             order=96)
        rep = renormalized_volume(fn, gn, n_ang=512, per_octave=8,
                                  interior_rings=48)
        tol = max(0.01 * abs(rep.action_total), 1e-3)
        assert abs(rep.identity_residual) <= tol


def test_renormalized_volume_circle():
    f = PowerSeriesMap([0, 1], hint_radius=8)
    g = LaurentMap(1.0)
    rep = renormalized_volume(f, g, n_ang=256, per_octave=8,
                              interior_rings=24)
    assert abs(rep.V_R) < 1e-6
    assert rep.V_R == rep.V - rep.mean_curvature_half
    assert abs(rep.identity_residual) < 1e-6


def test_identity_on_energetic_star_curve():
    # fivefold star with action ~30x the ellipse; the solvers auto-refine
    # the series order and the identity still holds at the 1% level
    from liouvol.curves import polynomial_curve
    from liouvol.mapping import conformal_map_pair
    from liouvol.volume import renormalized_volume

    curve = polynomial_curve(0.0, 0.0, 0.0, 0.08, hint_radius=1.8)
    f, g = conformal_map_pair(curve, order=128)
    assert g.order >= 256  # refinement kicked in
    rep = renormalized_volume(f, g)
    assert abs(rep.identity_residual) <= 0.01 * rep.action_total


def test_variation_check_trivial_field(ellipse_maps):
    from liouvol.volume import variation_check
    f, g = ellipse_maps
    out = variation_check(f, g, lambda w: np.zeros_like(w), 1e-3,
                          volume_opts=dict(n_ang=256, per_octave=6,
                                           interior_rings=16),
                          deform_opts=dict(order=64))
    assert out["rhs"] == 0
    assert abs(out["lhs"]) < 1e-6


def test_variation_check_circle_rhs_zero():
    from liouvol.volume import variation_check
    f = PowerSeriesMap([0, 1], hint_radius=8)
    g = LaurentMap(1.0)
    nu = lambda w: 0.05 / (np.abs(w) ** 2 + 1.0) + 0j
    out = variation_check(f, g, nu, 1e-3,
                          volume_opts=dict(n_ang=256, per_octave=6,
                                           interior_rings=16),
                          deform_opts=dict(order=64))
    assert out["rhs"] == 0
    assert abs(out["lhs"]) < 5e-3
