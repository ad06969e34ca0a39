"""Signed volume between the two envelope surfaces and the renormalized
volume of a Jordan curve.

The truncated volume at height eps is evaluated as the flux of the 2-form

    omega_eps = -dx ^ dy / (2 max(xi, eps)^2),

whose exterior derivative is the hyperbolic volume form above level eps
and zero below. Both sheets are integrated in their normal orientation,
the thin parameter slivers beyond the mesh rims (entirely below eps) are
accounted by the projected ring areas, and the overall sign is fixed so a
slab has positive volume and the circle gives zero.

The triangle integral of 1/(2 xi^2) is exact for linear height: it is the
second divided difference of -log at the three vertex heights.

Each sheet is tabulated once for a whole truncation schedule (face points,
projected areas, height ranges and whole-face fluxes). A level then sums
the whole-face fluxes of the faces above it and the areas of the rest
under one mask, and clips the faces straddling it in one array operation.
Clip loops are checked by mesh edge: every crossing, keyed by the edge it
lies on, must be shared by exactly two segments.
"""

from dataclasses import dataclass

import numpy as np

from .action import liouville_action
from .epstein import mean_curvature_total
from .errors import CapTopologyError, DomainError, NoConvergence
from .meshing import aligned_surface_meshes
from .quadrature import QuadratureGrid
from .series import schwarzian

ORIENT_SIGN = -1.0  # sheet normals point into the enclosed region
EPS_BASE = 0.1      # leading truncation height relative to the curve scale
EPS_COUNT = 7
RICHARDSON_STAGES = 2  # leading powers of eps eliminated from V(eps)


@dataclass(frozen=True)
class VolumeReport:
    epsilon_samples: tuple
    V: float
    mean_curvature_half: float
    V_R: float
    action_total: float | None
    identity_residual: float | None
    extrapolation_error: float


def _log_ratio_over_diff(x, y):
    """log(y/x) / (y - x), stable as y -> x."""
    u = (y - x) / x
    safe = np.where(u == 0.0, 1.0, u)
    out = np.log1p(safe) / (x * safe)
    return np.where(u == 0.0, 1.0 / x, out)


def _inv_sq_simplex(h1, h2, h3):
    """Integral of 1/h^2 over the unit simplex for linear h with vertex
    values (h1, h2, h3), all positive: the second divided difference of
    -log."""
    h = np.sort(np.stack([h1, h2, h3], axis=-1), axis=-1)
    a, b, c = h[..., 0], h[..., 1], h[..., 2]
    m = (a + b + c) / 3.0
    near = (c - a) < 1e-3 * m
    hab, hbc, hca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    mid_rule = (1.0 / hab ** 2 + 1.0 / hbc ** 2 + 1.0 / hca ** 2) / 6.0
    f_ab = -_log_ratio_over_diff(a, b)
    f_bc = -_log_ratio_over_diff(b, c)
    gap = np.where(c - a == 0.0, 1.0, c - a)
    dd = (f_bc - f_ab) / gap
    return np.where(near, mid_rule, dd)


def _projected_area(p):
    """Signed xy-projected area of triangles, shape (..., 3, 3)."""
    x, y = p[..., 0], p[..., 1]
    return 0.5 * ((x[..., 1] - x[..., 0]) * (y[..., 2] - y[..., 0])
                  - (x[..., 2] - x[..., 0]) * (y[..., 1] - y[..., 0]))


def _clip(points, ids, eps, n_vertices):
    """Exact clip of straddling triangles against xi >= eps, all at once.

    Each triangle is rotated, keeping its orientation, so that its odd
    vertex (the one alone on its side of the level) comes first; both edges
    leaving that vertex are then cut in one array operation. A lone vertex
    above keeps one sub-triangle, a lone vertex below leaves a quad that is
    split into two. Returns (sub-triangles above, (k, 3, 3); crossing
    points, (k, 2, 3); crossing keys, (k, 2)). A crossing is keyed by its
    mesh edge, lo * n_vertices + hi over the sorted vertex ids, or by the
    vertex (id * n_vertices + id) when that vertex lies exactly at eps.
    """
    up = points[..., 2] >= eps
    lone_up = up.sum(axis=1) == 1
    odd = np.where(lone_up, np.argmax(up, axis=1), np.argmin(up, axis=1))
    turn = (odd[:, None] + np.arange(3)) % 3
    q = np.take_along_axis(points, turn[..., None], axis=1)
    v = np.take_along_axis(ids, turn, axis=1)

    o, ends = q[:, :1], q[:, 1:]
    s = (eps - o[..., 2]) / (ends[..., 2] - o[..., 2])
    cuts = o + s[..., None] * (ends - o)
    cuts[..., 2] = eps

    c1, c2 = cuts[:, 0], cuts[:, 1]
    a, b = q[:, 1], q[:, 2]
    quad = ~lone_up
    tris = np.concatenate([
        np.stack([q[lone_up, 0], c1[lone_up], c2[lone_up]], axis=1),
        np.stack([c1[quad], a[quad], b[quad]], axis=1),
        np.stack([c1[quad], b[quad], c2[quad]], axis=1)])

    on_vertex = ends[..., 2] == eps
    lo = np.where(on_vertex, v[:, 1:], np.minimum(v[:, :1], v[:, 1:]))
    hi = np.where(on_vertex, v[:, 1:], np.maximum(v[:, :1], v[:, 1:]))
    return tris, cuts, lo.astype(np.int64) * n_vertices + hi


@dataclass(frozen=True, eq=False)
class _Sheet:
    """Level-independent arrays of one oriented triangle mesh: a level then
    sums them under masks and clips the faces that straddle it."""

    points: np.ndarray  # (m, 3, 3) face points
    ids: np.ndarray     # (m, 3) vertex ids
    n_vertices: int
    area: np.ndarray    # (m,) signed projected areas
    hmin: np.ndarray
    hmax: np.ndarray
    full: np.ndarray    # (m,) flux through each whole face

    @classmethod
    def of(cls, vertices, faces):
        p = vertices[faces]
        h = p[..., 2]
        if np.any(h <= 0):
            raise DomainError("mesh has nonpositive heights")
        area = _projected_area(p)
        full = -area * _inv_sq_simplex(h[:, 0], h[:, 1], h[:, 2])
        return cls(p, np.asarray(faces), vertices.shape[0], area,
                   h.min(axis=1), h.max(axis=1), full)

    def straddling(self, eps):
        return np.flatnonzero((self.hmin < eps) & (self.hmax > eps))

    def flux(self, eps):
        """Flux of omega_eps and the (k, 2) crossing keys at level eps.
        Faces above eps carry their whole flux; every other face carries
        its area below eps at the flat rate -1 / (2 eps^2), and the part of
        a straddling face above eps its exact flux."""
        above = self.hmin >= eps
        idx = self.straddling(eps)
        tris, _, keys = _clip(self.points[idx], self.ids[idx], eps,
                              self.n_vertices)
        a = _projected_area(tris)
        h = tris[..., 2]
        flux = float(np.sum(self.full[above]))
        flux += float(np.sum(-a * _inv_sq_simplex(h[:, 0], h[:, 1], h[:, 2])))
        below = float(np.sum(self.area[~above]) - np.sum(a))
        flux -= below / (2.0 * eps * eps)
        return flux, keys


def mesh_flux(vertices, faces, eps):
    """Flux of omega_eps through an oriented triangle soup.

    Returns (flux, crossing segments at the eps level), where each segment
    is the pair of keys of its two crossing points (see ``_clip``).
    """
    return _Sheet.of(vertices, faces).flux(eps)


def _check_clip_loops(segments):
    """Crossing segments must chain into closed loops: every crossing key
    occurs exactly twice. Returns the number of distinct crossings."""
    keys, counts = np.unique(np.asarray(segments, dtype=np.int64),
                             return_counts=True)
    dangling = int(np.count_nonzero(counts != 2))
    if dangling:
        raise CapTopologyError(
            f"clip curve has {dangling} unmatched endpoints; "
            "level curves are not closed loops")
    return keys.size


def _check_levels(mesh, eps_levels):
    heights = mesh.heights()
    top = float(heights.max())
    ring_h = float(heights[mesh.ring].max())
    for eps in eps_levels:
        if eps >= top:
            raise DomainError("truncation height above the whole surface")
        if eps <= ring_h:
            raise DomainError(
                f"truncation height {eps} must exceed the mesh rim height "
                f"{ring_h:.3e}; extend r_max or raise eps")


def _truncated_volumes(mesh_in, mesh_out, eps_levels):
    """Signed volumes between the sheets above each Euclidean height in
    ``eps_levels``, from one tabulation of each sheet.

    Both meshes must reach below every level (their outer rings sit under
    the truncation heights) while their tops rise above it.
    """
    for mesh in (mesh_in, mesh_out):
        _check_levels(mesh, eps_levels)
    sheets = (_Sheet.of(mesh_in.vertices, mesh_in.faces),
              _Sheet.of(mesh_out.vertices, mesh_out.faces))
    out = []
    for eps in eps_levels:
        total = 0.0
        for sheet in sheets:
            flux, segments = sheet.flux(eps)
            _check_clip_loops(segments)
            total += flux
        sliver = (mesh_in.ring_area - mesh_out.ring_area) / (2.0 * eps * eps)
        out.append(ORIENT_SIGN * (total + sliver))
    return out


def truncated_volume(mesh_in, mesh_out, eps):
    """Signed volume between the sheets above Euclidean height eps."""
    return _truncated_volumes(mesh_in, mesh_out, (eps,))[0]


def clip_mesh_above(mesh, eps):
    """Triangle soup of the mesh part above height eps (crossing triangles
    split exactly), plus the clip-loop crossing points. For OBJ inspection
    dumps."""
    sheet = _Sheet.of(mesh.vertices, mesh.faces)
    idx = sheet.straddling(eps)
    tris, cuts, _ = _clip(sheet.points[idx], sheet.ids[idx], eps,
                          sheet.n_vertices)
    verts = np.concatenate([sheet.points[sheet.hmin >= eps], tris]
                           ).reshape(-1, 3)
    faces = np.arange(verts.shape[0]).reshape(-1, 3)
    return verts, faces, cuts.reshape(-1, 3)


def cap_annulus(loop_in, loop_out):
    """Triangle strip spanning the flat region between two clip loops at a
    common height, ordered by angle about the shared centroid."""
    if len(loop_in) == 0 or len(loop_out) == 0:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=int)
    center = np.mean(np.vstack([loop_in, loop_out])[:, :2], axis=0)
    order = lambda loop: loop[np.argsort(np.arctan2(
        loop[:, 1] - center[1], loop[:, 0] - center[0]))]
    a, b = order(loop_in), order(loop_out)
    n = min(len(a), len(b))
    idx_a = np.linspace(0, len(a) - 1, n).astype(int)
    idx_b = np.linspace(0, len(b) - 1, n).astype(int)
    verts = np.vstack([a[idx_a], b[idx_b]])
    faces = []
    for j in range(n):
        jn = (j + 1) % n
        faces.append((j, n + j, n + jn))
        faces.append((j, n + jn, jn))
    return verts, np.array(faces, dtype=int)


def richardson_extrapolate(samples):
    """Eliminate the RICHARDSON_STAGES leading powers of eps from V(eps)
    samples on a halving schedule; returns (limit, error estimate)."""
    vals = [v for _, v in samples]
    if len(vals) < RICHARDSON_STAGES + 1:
        raise DomainError("not enough samples for the Richardson stages")
    table = [np.array(vals, dtype=float)]
    for j in range(1, RICHARDSON_STAGES + 1):
        prev = table[-1]
        factor = 2.0 ** j
        nxt = (factor * prev[1:] - prev[:-1]) / (factor - 1.0)
        if not np.all(np.isfinite(nxt)):
            raise NoConvergence("non-finite extrapolant")
        table.append(nxt)
    limit = float(table[-1][-1])
    err = abs(limit - float(table[-2][-1]))
    spread = max(vals) - min(vals)
    if err > max(10.0 * spread, 1.0) and spread > 0:
        raise NoConvergence(f"extrapolants diverge: step {err:.3e}")
    return limit, err


def volume(f, g, eps_schedule=None, n_ang=1024, per_octave=10,
           interior_rings=64, meshes=None):
    """Signed volume between the two envelope surfaces of the curve bounded
    by f and g, extrapolated from a geometric truncation schedule.

    The default schedule is 0.1 * 2^{-k}, k = 0..6, scaled by |g'(inf)| so
    curves of any size are truncated at comparable relative heights. The
    interior parametrization is recentered at its hyperbolic center before
    meshing; the mesh rim depth tracks the smallest truncation height, and
    two Richardson stages give the limit.
    Returns (V, samples, error_estimate)."""
    if eps_schedule is None:
        scale = abs(g.b1)
        eps_schedule = tuple(EPS_BASE * scale * 0.5 ** k
                             for k in range(EPS_COUNT))
    eps_schedule = tuple(eps_schedule)
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise DomainError("eps schedule must decrease")
    if meshes is None:
        from .mapping import recenter_interior
        f_mesh = recenter_interior(f)
        circle = np.exp(2j * np.pi * np.arange(512) / 512)
        dmax = max(float(np.max(np.abs(f_mesh.jet(circle, upto=1)[1]))),
                   float(np.max(np.abs(g.deriv_at(circle, 1)))))
        r_max = 1.0 - min(2.0 ** -9, eps_schedule[-1] / (5.0 * dmax))
        meshes = aligned_surface_meshes(f_mesh, g, n_ang=n_ang, r_max=r_max,
                                        per_octave=per_octave,
                                        interior_rings=interior_rings)
    mesh_in, mesh_out = meshes
    samples = tuple(zip(eps_schedule,
                        _truncated_volumes(mesh_in, mesh_out, eps_schedule)))
    v, err = richardson_extrapolate(samples)
    return v, samples, err


def renormalized_volume(f, g, with_action=True, **volume_opts):
    """VolumeReport with V, the mean-curvature correction, V_R, and the
    residual against the Liouville action (when requested)."""
    v, samples, err = volume(f, g, **volume_opts)
    mch = 0.5 * (mean_curvature_total(f) + mean_curvature_total(g))
    v_r = v - mch
    action_total = residual = None
    if with_action:
        action_total = liouville_action(f, g).total
        residual = action_total - 4.0 * v_r
    return VolumeReport(samples, v, mch, v_r, action_total, residual, err)


def variation_check(f, g, nu, dt, grid=None, volume_opts=None,
                    deform_opts=None):
    """Compare the centered difference of V_R along a Beltrami deformation
    against the boundary-integral derivative formula, integrated over
    ``grid`` (by default sized to g's order).

    Returns {"lhs": finite difference, "rhs": formula value}.
    """
    from .curves import CurveSpec
    from .flow import beltrami_step
    from .mapping import conformal_map_pair

    grid = grid or QuadratureGrid.for_order(g.order)
    volume_opts = volume_opts or {}
    deform_opts = deform_opts or {}

    ext = grid.exterior()
    nu_vals = nu(ext.nodes) if callable(nu) else np.asarray(nu)
    rhs = float(np.real(ext.integrate(nu_vals * schwarzian(g, ext.nodes))))

    base = CurveSpec.from_polyline(f.eval_unchecked(
        np.exp(2j * np.pi * np.arange(1024) / 1024)), check=False)

    def v_r_at(t):
        moved = beltrami_step(base, nu, t, exterior=g, **deform_opts)
        fm, gm = conformal_map_pair(moved)
        rep = renormalized_volume(fm, gm, with_action=False, **volume_opts)
        return rep.V_R

    lhs = (v_r_at(dt) - v_r_at(-dt)) / (2.0 * dt)
    return {"lhs": float(lhs), "rhs": rhs}
