"""Structured triangle meshes of the envelope surfaces, plus OBJ/CSV export.

Meshes are built over polar parameter grids (radial rings x angular rays).
Faces are oriented so their Euclidean cross-product normal agrees with the
frame normal eta. The outermost ring of each mesh limits onto the curve.
A mesh carries geometry only; the curvature columns of the CSV export are
computed from its map on first use.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .epstein import _frame_fields, curvature_columns
from .errors import DomainError
from .mapping import welding
from .series import LaurentMap, unit_scale

FLOAT_FMT = "%.17g"


@dataclass(eq=False)
class SurfaceMesh:
    vertices: np.ndarray            # (n, 3) columns x, y, xi
    faces: np.ndarray               # (m, 3) int, oriented along eta
    eta: np.ndarray                 # (n, 3)
    source: np.ndarray              # (n,) complex parameter points
    ring: np.ndarray                # ordered vertex ids of the outer ring
    ring_area: float                # spectrally accurate projected ring area
    fmap: object                    # series or Laurent map of the sheet

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def face_points(self):
        return self.vertices[self.faces]

    @cached_property
    def curvature(self):
        """(n, 5) columns schwarzian_norm, k_plus, k_minus, H, mean_density."""
        return curvature_columns(self.fmap, self.source)


def _orient_faces(vertices, faces, eta):
    p = vertices[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    mean_eta = eta[faces].mean(axis=1)
    flip = np.einsum("ij,ij->i", cross, mean_eta) < 0
    out = faces.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _grid_faces(n_rings, n_ang):
    """Fan around the center vertex 0 plus quad strips between consecutive
    rings; ring i holds the vertices 1 + i * n_ang + j, j < n_ang."""
    j = np.arange(n_ang)
    jp = (j + 1) % n_ang
    a = 1 + n_ang * np.arange(n_rings - 1)[:, None] + j
    b = a - j + jp
    c, d = a + n_ang, b + n_ang
    strips = np.stack([np.stack([a, b, d], -1), np.stack([a, d, c], -1)], 1)
    fan = np.stack([np.zeros(n_ang, int), 1 + j, 1 + jp], axis=1)
    return np.concatenate([fan, strips.reshape(-1, 3)])


def _spectral_ring_area(samples):
    """Signed area enclosed by a closed analytic curve sampled uniformly in
    its parameter: pi * sum k |c_k|^2 over Fourier coefficients."""
    n = samples.size
    c = np.fft.fft(samples) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    return float(np.pi * np.sum(k * np.abs(c) ** 2))


def _pack(fmap, params, n_rings, n_ang, ring_params):
    """Sheet over the flat ring-by-ring parameter grid ``params`` plus a
    center vertex: zeta = 0 for a series map, the apex at infinity
    for a Laurent map. The ring area is taken from the frame Z at the fine
    rim points ``ring_params``. The sheet is built on the map scaled exactly
    by c = unit_scale(fmap), so that the face orientation and the ring area,
    products of lengths, stay in the float range, and is scaled back."""
    exterior = isinstance(fmap, LaurentMap)
    c = unit_scale(fmap)
    unit = fmap.scaled(c)
    source = np.concatenate([[np.inf + 0j if exterior else 0j], params])
    Z, xi, eh, ev = _frame_fields(unit, params if exterior else source)
    verts = np.column_stack([Z.real, Z.imag, xi])
    eta = np.column_stack([eh.real, eh.imag, ev])
    if exterior:
        apex = _exterior_apex(unit)
        verts = np.vstack([apex[None, :3], verts])
        eta = np.vstack([apex[None, 3:], eta])
    faces = _orient_faces(verts, _grid_faces(n_rings, n_ang), eta)
    ring = np.arange(1 + (n_rings - 1) * n_ang, 1 + n_rings * n_ang)
    ring_area = _spectral_ring_area(_frame_fields(unit, ring_params)[0])
    return SurfaceMesh(verts / c, faces, eta, source, ring, ring_area / c / c,
                       fmap)


def _exterior_apex(g):
    """Limit frame of the exterior sheet at omega -> infinity: the point
    (b0, |b1|) with the downward normal."""
    return np.array([g.b0.real, g.b0.imag, abs(g.b1), 0.0, 0.0, -1.0])


def _fine_circle(r, n_ang):
    """Rim points for the ring area: four samples per angular ray."""
    n = 4 * n_ang
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def mesh_surface(fmap, radial_n=64, angular_n=64, r_max=1.0 - 2.0 ** -10):
    """Mesh one envelope surface on a radial x angular parameter grid.

    For a series map the grid lives on |zeta| <= r_max with a center vertex;
    for a Laurent map it lives on |omega| >= 1/r_max with an apex vertex at
    infinity. Resolution must be at least 8 x 8; r_max < 1.
    """
    if radial_n < 8 or angular_n < 8:
        raise DomainError("mesh resolution must be at least 8 x 8")
    if not (0.0 < r_max < 1.0):
        raise DomainError("r_max must lie in (0, 1)")
    theta = 2 * np.pi * np.arange(angular_n) / angular_n
    radii = r_max * (np.arange(1, radial_n + 1) / radial_n)
    if isinstance(fmap, LaurentMap):
        radii = 1.0 / radii
    params = radii[:, None] * np.exp(1j * theta)[None, :]
    return _pack(fmap, params.ravel(), radial_n, angular_n,
                 _fine_circle(radii[-1], angular_n))


def aligned_surface_meshes(f, g, n_ang=1024, r_max=1.0 - 2.0 ** -11,
                           per_octave=10, interior_rings=64):
    """Mesh pair for volume work: the exterior grid angles follow the
    boundary correspondence of (f, g) and its radii are chosen per ray so
    vertex heights match the interior mesh, which makes the discretization
    errors of the two sheets cancel in the flux integral."""
    theta = 2 * np.pi * np.arange(n_ang) / n_ang
    phi = np.mod(welding(f, g, theta), 2 * np.pi)

    d_min = 1.0 - r_max
    octaves = max(1, int(round(math.log2(0.1 / d_min))))
    depth = 0.1 * (d_min / 0.1) ** (np.arange(octaves * per_octave + 1)
                                    / (octaves * per_octave))
    radii = np.concatenate([np.linspace(0.08, 0.9, interior_rings),
                            1.0 - depth])
    radii = np.unique(radii)
    n_rings = radii.size

    zeta = radii[:, None] * np.exp(1j * theta)[None, :]
    mesh_in = _pack(f, zeta.ravel(), n_rings, n_ang,
                    _fine_circle(radii[-1], n_ang))

    # per-ray exterior radii: match |g'| (s - 1) to |f'| (1 - r) near the rim
    fp = np.abs(f.jet(np.exp(1j * theta), upto=1)[1])
    gp = np.abs(g.deriv_at(np.exp(1j * phi), 1))
    ratio = fp / gp
    r_grid = radii[:, None]
    ramp = np.clip((r_grid - 0.7) / 0.3, 0.0, 1.0)
    beta = 1.0 + (ratio[None, :] - 1.0) * ramp * ramp * (3 - 2 * ramp)
    s = 1.0 + (1.0 / r_grid - 1.0) * beta
    # strong derivative contrast can fold a ray in the blending zone
    s = np.minimum.accumulate(s, axis=0)
    omega = s * np.exp(1j * phi)[None, :]

    # fine rim points: s and the welded angle interpolated between rays
    theta_ext = np.concatenate([theta, [2 * np.pi]])
    phi_u = np.unwrap(phi)
    s_ring = s[-1, :]
    n_fine = 4 * n_ang
    theta_f = 2 * np.pi * np.arange(n_fine) / n_fine
    s_fine = np.interp(theta_f, theta_ext,
                       np.concatenate([s_ring, [s_ring[0]]]))
    phi_fine = np.interp(theta_f, theta_ext,
                         np.concatenate([phi_u, [phi_u[0] + 2 * np.pi]]))
    mesh_out = _pack(g, omega.ravel(), n_rings, n_ang,
                     s_fine * np.exp(1j * phi_fine))
    return mesh_in, mesh_out


# -- separation --------------------------------------------------------------

def _point_triangle_distance(points, tris):
    """Distance between paired points (n,3) and triangles (n,3,3)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, ac, bc = b - a, c - a, c - b
    dot = lambda u, v: np.einsum("ij,ij->i", u, v)
    ap, bp, cp = points - a, points - b, points - c
    d1, d2 = dot(ab, ap), dot(ac, ap)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    d5, d6 = dot(ab, cp), dot(ac, cp)

    nearest = a.copy()
    assigned = (d1 <= 0) & (d2 <= 0)

    m = (~assigned) & (d3 >= 0) & (d4 <= d3)
    nearest[m] = b[m]
    assigned |= m

    m = (~assigned) & (d6 >= 0) & (d5 <= d6)
    nearest[m] = c[m]
    assigned |= m

    vc = d1 * d4 - d3 * d2
    m = (~assigned) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    v = d1 / np.where(d1 - d3 == 0, 1.0, d1 - d3)
    nearest[m] = a[m] + v[m, None] * ab[m]
    assigned |= m

    vb = d5 * d2 - d1 * d6
    m = (~assigned) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    w = d2 / np.where(d2 - d6 == 0, 1.0, d2 - d6)
    nearest[m] = a[m] + w[m, None] * ac[m]
    assigned |= m

    va = d3 * d6 - d5 * d4
    m = (~assigned) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    den = (d4 - d3) + (d5 - d6)
    t = (d4 - d3) / np.where(den == 0, 1.0, den)
    nearest[m] = b[m] + t[m, None] * bc[m]
    assigned |= m

    inner = ~assigned
    if np.any(inner):
        den = np.where((va + vb + vc) == 0, 1.0, va + vb + vc)
        v_in = (vb / den)[inner]
        w_in = (vc / den)[inner]
        nearest[inner] = a[inner] + v_in[:, None] * ab[inner] \
            + w_in[:, None] * ac[inner]
    return np.linalg.norm(points - nearest, axis=1)


def _one_sided_separation(mesh_a, mesh_b, c):
    """Distances of mesh_a's vertices from mesh_b's triangles, both scaled
    by c."""
    from scipy.spatial import cKDTree

    tris = c * mesh_b.face_points()
    tree = cKDTree(tris.mean(axis=1))
    pts = c * mesh_a.vertices
    _, idx = tree.query(pts, k=min(12, len(tris)))
    idx = np.atleast_2d(idx)
    best = np.full(len(pts), np.inf)
    for col in range(idx.shape[1]):
        d = _point_triangle_distance(pts, tris[idx[:, col]])
        best = np.minimum(best, d)
    return best


def surface_separation(mesh_in, mesh_out):
    """Minimum Euclidean vertex-to-triangle distance between the meshes,
    measured on both scaled exactly by c = unit_scale(mesh_in.fmap), as the
    meshes were built: the distance forms fourth powers of lengths."""
    c = unit_scale(mesh_in.fmap)
    d1 = _one_sided_separation(mesh_in, mesh_out, c)
    d2 = _one_sided_separation(mesh_out, mesh_in, c)
    return float(min(d1.min(), d2.min())) / c


# -- export -------------------------------------------------------------------

def write_obj(path, vertices, faces, normals, comment=None):
    """OBJ export, y-up: file coordinates are (x, xi, y). Faces index the
    vertex normals too."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    for v in vertices:
        lines.append("v " + " ".join(
            FLOAT_FMT % c for c in (v[0], v[2], v[1])))
    for n in normals:
        lines.append("vn " + " ".join(
            FLOAT_FMT % c for c in (n[0], n[2], n[1])))
    for tri in faces:
        a, b, c = (int(x) + 1 for x in tri)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vertex_csv(path, mesh):
    cols = ["z_re", "z_im", "Z_re", "Z_im", "xi", "eta_x", "eta_y", "eta_up",
            "schwarzian_norm", "k_plus", "k_minus", "H", "mean_density"]
    rows = np.column_stack([
        mesh.source.real, mesh.source.imag,
        mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2],
        mesh.eta[:, 0], mesh.eta[:, 1], mesh.eta[:, 2],
        mesh.curvature,
    ])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")
