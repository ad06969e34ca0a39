import numpy as np
import pytest

from oracles import boundary_samples, curvatures, load_obj

import liouvol.epstein
from liouvol.cli import ArtifactWriter, RunConfig, cmd_surface
from liouvol.epstein import _frame_fields, schwarzian_norm
from liouvol.errors import DomainError
from liouvol.meshing import (_exterior_apex, aligned_surface_meshes,
                             mesh_surface, surface_separation)
from liouvol.series import LaurentMap, PowerSeriesMap


def test_identity_mesh_is_hemisphere():
    f = PowerSeriesMap([0, 1])
    mesh = mesh_surface(f, 64, 64)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-10


def test_exterior_identity_mesh_is_hemisphere():
    g = LaurentMap(1.0)
    mesh = mesh_surface(g, 64, 64)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_mesh_resolution_guard():
    f = PowerSeriesMap([0, 1])
    with pytest.raises(DomainError):
        mesh_surface(f, 4, 64)
    with pytest.raises(DomainError):
        mesh_surface(f, 16, 16, r_max=1.5)


def test_mesh_counts_and_watertightness():
    f = PowerSeriesMap([0, 1, 0.05])
    rn, an = 16, 32
    mesh = mesh_surface(f, rn, an)
    assert mesh.n_vertices == 1 + rn * an
    assert mesh.faces.shape[0] == an + 2 * (rn - 1) * an
    # watertight interior: each non-rim edge appears in exactly two faces
    edges = {}
    for tri in mesh.faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    rim = set(mesh.ring)
    for (a, b), count in edges.items():
        if a in rim and b in rim:
            assert count == 1
        else:
            assert count == 2


def test_faces_oriented_along_normals():
    f = PowerSeriesMap([0, 1, 0.08])
    mesh = mesh_surface(f, 24, 32)
    p = mesh.face_points()
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    mean_eta = mesh.eta[mesh.faces].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", cross, mean_eta) > 0)


def test_ring_heights_bracketed_by_distance(cubic_maps, cubic):
    f, _ = cubic_maps
    mesh = mesh_surface(f, 32, 64)
    gamma = boundary_samples(cubic, 8192)
    ring_src = mesh.source[mesh.ring]
    z = f.eval_unchecked(ring_src)
    d = np.min(np.abs(z[:, None] - gamma[None, :]), axis=1)
    xi = mesh.vertices[mesh.ring, 2]
    assert np.all(xi >= d / 5 - 1e-12)
    assert np.all(xi <= 4 * d + 1e-12)


def _writer(tmp_path, **flags):
    return ArtifactWriter(tmp_path, RunConfig("surface", "sheet", **flags))


def test_obj_roundtrip_bit_exact(tmp_path):
    f = PowerSeriesMap([0, 1, 0.05, 0.01j])
    mesh = mesh_surface(f, 12, 16)
    path = _writer(tmp_path).write_obj("sheet.obj", mesh, "roundtrip")
    verts, norms, faces = load_obj(path)
    assert np.array_equal(verts, mesh.vertices)
    assert np.array_equal(norms, mesh.eta)
    assert np.array_equal(faces, mesh.faces)


def test_vertex_csv_export(tmp_path):
    # surface writes each sheet's vertex table, which reads back to the
    # mesh's arrays bit for bit
    f = PowerSeriesMap([0, 1, 0.05])
    g = LaurentMap(1.0, 0.0, [0.05, 0.01j])
    writer = _writer(tmp_path, mesh="12x16")
    cmd_surface(writer.config, writer, f, g)
    for side, fmap in (("in", f), ("out", g)):
        mesh = mesh_surface(fmap, 12, 16)
        path = tmp_path / f"surface_{side}.csv"
        header = path.read_text().split("\n", 1)[0]
        assert header.startswith("z_re,z_im,Z_re,Z_im,xi")
        assert header.endswith("schwarzian_norm,k_plus,k_minus,H,mean_density")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table, np.column_stack(
            [mesh.source.real, mesh.source.imag, mesh.vertices, mesh.eta,
             mesh.curvature]))
    table = np.loadtxt(tmp_path / "surface_in.csv", delimiter=",", skiprows=1)
    for i in range(0, table.shape[0], 17):
        c = curvatures(f, complex(table[i, 0], table[i, 1]))
        expect = [c.schwarzian_norm, c.k_plus, c.k_minus, c.H, c.mean_density]
        assert np.allclose(table[i, 8:], expect, rtol=1e-12, atol=0)

    # exterior sheet: the apex row (omega = infinity) carries the limit norm
    # 1.5 |b_-1 / b1| and zero density
    apex = np.loadtxt(tmp_path / "surface_out.csv", delimiter=",",
                      skiprows=1)[0]
    assert apex[8] == pytest.approx(0.075, rel=1e-15)
    assert apex[12] == 0.0


@pytest.mark.parametrize("g", [LaurentMap(1.1, 0.2 - 0.1j, [0.05, 0.01j, 3e-3]),
                               LaurentMap(0.9j, -0.3)])
def test_exterior_apex_is_the_limit_of_far_frames(g):
    # the mean frame and Schwarzian norm over 64 angles at |w| = R differ
    # from the closed-form apex by c R^-2 with one c for all R: the closed
    # form is their limit, not a far sample of it
    apex = _exterior_apex(g)
    t_apex = mesh_surface(g, 8, 8).curvature[0, 0]
    assert t_apex == (1.5 * abs(g.bneg[0] / g.b1) if g.order else 0.0)
    frame_gap, norm_gap = [], []
    for R in (1e2, 1e3, 1e4, 1e5):
        w = R * np.exp(2j * np.pi * np.arange(64) / 64)
        Z, xi, eh, ev = _frame_fields(g, w)
        mean = np.array([Z.real.mean(), Z.imag.mean(), xi.mean(),
                         eh.real.mean(), eh.imag.mean(), ev.mean()])
        frame_gap.append(np.max(np.abs(mean - apex)) * R * R)
        norm_gap.append(abs(schwarzian_norm(g, w).mean() - t_apex) * R * R)
    for gap in (frame_gap, norm_gap):
        assert max(gap) <= 3.0 * abs(g.b1)
        assert max(gap) - min(gap) <= 1e-2 * max(gap) + 1e-9


def test_aligned_meshes_never_evaluate_the_schwarzian(ellipse_maps,
                                                       monkeypatch):
    # volume meshes carry geometry only; curvature waits for CSV export
    def fail(*args, **kwargs):
        raise AssertionError("schwarzian evaluated while meshing")

    monkeypatch.setattr(liouvol.epstein, "schwarzian_of", fail)
    f, g = ellipse_maps
    mi, mo = aligned_surface_meshes(f, g, n_ang=64, per_octave=4,
                                    interior_rings=8)
    assert mi.n_vertices == mo.n_vertices


def test_separation_circle_coincides():
    f = PowerSeriesMap([0, 1])
    g = LaurentMap(1.0)
    sep = surface_separation(mesh_surface(f, 48, 96, r_max=0.8),
                             mesh_surface(g, 48, 96, r_max=0.8))
    assert sep < 1e-12


def test_separation_ellipse_positive(ellipse_maps):
    f, g = ellipse_maps
    sep = surface_separation(mesh_surface(f, 64, 256, r_max=0.8),
                             mesh_surface(g, 64, 256, r_max=0.8))
    assert sep > 1e-4


def test_separation_shrinks_toward_rim(ellipse_maps):
    # the sheets limit onto the same curve, so deeper meshes come closer
    f, g = ellipse_maps
    seps = [surface_separation(mesh_surface(f, 48, 192, r_max=r),
                               mesh_surface(g, 48, 192, r_max=r))
            for r in (0.5, 0.7, 0.8)]
    assert seps[0] > seps[1] > seps[2] >= 0


def test_aligned_meshes_rims_close(ellipse_maps):
    f, g = ellipse_maps
    mi, mo = aligned_surface_meshes(f, g, n_ang=256, per_octave=6,
                                    interior_rings=12)
    rim_in = mi.vertices[mi.ring]
    rim_out = mo.vertices[mo.ring]
    # welded alignment: matching rim vertices sit near the same curve point
    assert np.max(np.linalg.norm(rim_in - rim_out, axis=1)) < 5e-3
    assert mi.ring_area is not None and mo.ring_area is not None
