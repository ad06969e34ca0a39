"""Structured triangle meshes of the envelope surfaces, plus OBJ/CSV export.

Meshes are built over polar parameter grids (radial rings x angular rays).
Faces are oriented so their Euclidean cross-product normal agrees with the
frame normal eta. The outermost ring of each mesh limits onto the curve.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .epstein import (_curvature_fields, _exterior_frame_fields,
                      _interior_frame_fields, schwarzian_norm_exterior,
                      schwarzian_norm_interior)
from .errors import DomainError
from .mapping import welding
from .series import LaurentMap

FLOAT_FMT = "%.17g"


@dataclass(eq=False)
class SurfaceMesh:
    vertices: np.ndarray            # (n, 3) columns x, y, xi
    faces: np.ndarray               # (m, 3) int, oriented along eta
    eta: np.ndarray                 # (n, 3)
    source: np.ndarray              # (n,) complex parameter points
    theta_norm: np.ndarray          # (n,) Schwarzian norm
    k_plus: np.ndarray
    k_minus: np.ndarray
    mean_curv: np.ndarray
    mean_density: np.ndarray
    ring: np.ndarray                # ordered vertex ids of the outer ring
    kind: str                       # "interior" | "exterior"
    ring_area: float                # spectrally accurate projected ring area

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def heights(self):
        return self.vertices[:, 2]

    def face_points(self):
        return self.vertices[self.faces]


def _orient_faces(vertices, faces, eta):
    p = vertices[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    mean_eta = eta[faces].mean(axis=1)
    flip = np.einsum("ij,ij->i", cross, mean_eta) < 0
    out = faces.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _grid_faces(n_rings, n_ang, apex_index, first_ring_start):
    """Fan around the apex plus quad strips between consecutive rings."""
    faces = []
    j = np.arange(n_ang)
    jp = (j + 1) % n_ang
    ring0 = first_ring_start + j
    ring0p = first_ring_start + jp
    faces.append(np.stack([np.full(n_ang, apex_index), ring0, ring0p], axis=1))
    for i in range(n_rings - 1):
        a = first_ring_start + i * n_ang + j
        b = first_ring_start + i * n_ang + jp
        c = first_ring_start + (i + 1) * n_ang + j
        d = first_ring_start + (i + 1) * n_ang + jp
        faces.append(np.stack([a, b, d], axis=1))
        faces.append(np.stack([a, d, c], axis=1))
    return np.concatenate(faces, axis=0)


def _spectral_ring_area(samples):
    """Signed area enclosed by a closed analytic curve sampled uniformly in
    its parameter: pi * sum k |c_k|^2 over Fourier coefficients."""
    n = samples.size
    c = np.fft.fft(samples) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    return float(np.pi * np.sum(k * np.abs(c) ** 2))


def _pack_interior(f, zeta_flat, n_rings, n_ang, ring_area):
    Z, xi, eh, ev = _interior_frame_fields(f, zeta_flat)
    verts = np.column_stack([Z.real, Z.imag, xi])
    eta = np.column_stack([eh.real, eh.imag, ev])
    tn = schwarzian_norm_interior(f, zeta_flat)
    d1 = f.jet(zeta_flat, upto=1)[1]
    rho = 4.0 / ((1.0 - np.abs(zeta_flat) ** 2) ** 2 * np.abs(d1) ** 2)
    k_p, k_m, _, _, H, dens = _curvature_fields(tn, rho)
    faces = _grid_faces(n_rings, n_ang, 0, 1)
    faces = _orient_faces(verts, faces, eta)
    ring = np.arange(1 + (n_rings - 1) * n_ang, 1 + n_rings * n_ang)
    return SurfaceMesh(verts, faces, eta, zeta_flat, np.asarray(tn),
                       k_p, k_m, H, dens, ring, "interior",
                       ring_area=ring_area)


def _pack_exterior(g, omega_flat, apex, n_rings, n_ang, ring_area):
    Z, xi, eh, ev = _exterior_frame_fields(g, omega_flat)
    verts = np.vstack([apex[None, :3],
                       np.column_stack([Z.real, Z.imag, xi])])
    eta = np.vstack([apex[None, 3:6],
                     np.column_stack([eh.real, eh.imag, ev])])
    tn = schwarzian_norm_exterior(g, omega_flat)
    d1 = g.deriv_at(omega_flat, 1)
    rho = 4.0 / ((np.abs(omega_flat) ** 2 - 1.0) ** 2 * np.abs(d1) ** 2)
    k_p, k_m, _, _, H, dens = _curvature_fields(tn, rho)
    pad = lambda arr, v: np.concatenate([[v], np.asarray(arr)])
    src = np.concatenate([[np.inf + 0j], omega_flat])
    faces = _grid_faces(n_rings, n_ang, 0, 1)
    faces = _orient_faces(verts, faces, eta)
    ring = np.arange(1 + (n_rings - 1) * n_ang, 1 + n_rings * n_ang)
    apex_tn = float(apex[6])
    akp, akm, _, _, aH, _ = _curvature_fields(apex_tn, 0.0)
    return SurfaceMesh(verts, faces, eta, src,
                       pad(tn, apex_tn), pad(k_p, akp), pad(k_m, akm),
                       pad(H, aH), pad(dens, 0.0),
                       ring, "exterior", ring_area=ring_area)


def _exterior_apex(g, radius=1e4, n_avg=64):
    """Limit frame at omega -> infinity by angular averaging at |omega| = radius;
    the oscillatory O(1/R) terms cancel in the mean."""
    chi = 2 * np.pi * np.arange(n_avg) / n_avg
    omega = radius * np.exp(1j * chi)
    Z, xi, eh, ev = _exterior_frame_fields(g, omega)
    tn = schwarzian_norm_exterior(g, omega)
    return np.array([Z.real.mean(), Z.imag.mean(), xi.mean(),
                     eh.real.mean(), eh.imag.mean(), ev.mean(),
                     tn.mean()])


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
        omega = (1.0 / radii)[:, None] * np.exp(1j * theta)[None, :]
        ring_samples = _ring_samples_exterior(fmap, 1.0 / r_max, angular_n)
        return _pack_exterior(fmap, omega.ravel(), _exterior_apex(fmap),
                              radial_n, angular_n,
                              ring_area=_spectral_ring_area(ring_samples))
    zeta = radii[:, None] * np.exp(1j * theta)[None, :]
    return _pack_interior(fmap, np.concatenate([[0j], zeta.ravel()]),
                          radial_n, angular_n,
                          ring_area=_spectral_ring_area(
                              _ring_samples_interior(fmap, r_max, angular_n)))


def _ring_samples_interior(f, r, n_ang, oversample=4):
    n = oversample * n_ang
    zeta = r * np.exp(2j * np.pi * np.arange(n) / n)
    Z, _, _, _ = _interior_frame_fields(f, zeta)
    return Z


def _ring_samples_exterior(g, s, n_ang, phi_of_theta=None, oversample=4):
    n = oversample * n_ang
    theta = 2 * np.pi * np.arange(n) / n
    phi = phi_of_theta(theta) if phi_of_theta is not None else theta
    Z, _, _, _ = _exterior_frame_fields(g, s * np.exp(1j * phi))
    return Z


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
    mesh_in = _pack_interior(
        f, np.concatenate([[0j], zeta.ravel()]), n_rings, n_ang,
        ring_area=_spectral_ring_area(_ring_samples_interior(f, radii[-1], n_ang)))

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

    def phi_of_theta(th):
        return np.interp(th, np.concatenate([theta, [2 * np.pi]]),
                         np.concatenate([np.unwrap(phi),
                                         [np.unwrap(phi)[0] + 2 * np.pi]]))

    s_ring = s[-1, :]
    n_fine = 4 * n_ang
    theta_f = 2 * np.pi * np.arange(n_fine) / n_fine
    s_fine = np.interp(theta_f, np.concatenate([theta, [2 * np.pi]]),
                       np.concatenate([s_ring, [s_ring[0]]]))
    Zr, _, _, _ = _exterior_frame_fields(
        g, s_fine * np.exp(1j * phi_of_theta(theta_f)))
    mesh_out = _pack_exterior(g, omega.ravel(), _exterior_apex(g),
                              n_rings, n_ang,
                              ring_area=_spectral_ring_area(Zr))
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


def _one_sided_separation(mesh_a, mesh_b, k=12):
    tris = mesh_b.face_points()
    tree = cKDTree(tris.mean(axis=1))
    pts = mesh_a.vertices
    _, idx = tree.query(pts, k=min(k, len(tris)))
    idx = np.atleast_2d(idx)
    best = np.full(len(pts), np.inf)
    for col in range(idx.shape[1]):
        d = _point_triangle_distance(pts, tris[idx[:, col]])
        best = np.minimum(best, d)
    return best


def surface_separation(mesh_in, mesh_out):
    """Minimum Euclidean vertex-to-triangle distance between the meshes."""
    d1 = _one_sided_separation(mesh_in, mesh_out)
    d2 = _one_sided_separation(mesh_out, mesh_in)
    return float(min(d1.min(), d2.min()))


# -- export -------------------------------------------------------------------

def write_obj(path, mesh, comment=None):
    """OBJ export, y-up: file coordinates are (x, xi, y)."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    v = mesh.vertices
    n = mesh.eta
    for i in range(v.shape[0]):
        lines.append("v " + " ".join(
            FLOAT_FMT % c for c in (v[i, 0], v[i, 2], v[i, 1])))
    for i in range(n.shape[0]):
        lines.append("vn " + " ".join(
            FLOAT_FMT % c for c in (n[i, 0], n[i, 2], n[i, 1])))
    for tri in mesh.faces:
        a, b, c = (int(x) + 1 for x in tri)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_obj(path):
    """Read back vertices, normals and faces written by write_obj."""
    verts, norms, faces = [], [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                x, up, y = (float(p) for p in parts[1:4])
                verts.append((x, y, up))
            elif parts[0] == "vn":
                x, up, y = (float(p) for p in parts[1:4])
                norms.append((x, y, up))
            elif parts[0] == "f":
                faces.append(tuple(int(p.split("/")[0]) - 1 for p in parts[1:4]))
    return (np.array(verts), np.array(norms), np.array(faces, dtype=int))


def write_vertex_csv(path, mesh):
    cols = ["z_re", "z_im", "Z_re", "Z_im", "xi", "eta_x", "eta_y", "eta_up",
            "schwarzian_norm", "k_plus", "k_minus", "H", "mean_density"]
    rows = np.column_stack([
        mesh.source.real, mesh.source.imag,
        mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2],
        mesh.eta[:, 0], mesh.eta[:, 1], mesh.eta[:, 2],
        mesh.theta_norm, mesh.k_plus, mesh.k_minus, mesh.mean_curv,
        mesh.mean_density,
    ])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")
