"""Signed volume between the two envelope surfaces and the renormalized
volume of a Jordan curve.

The truncated volume at height eps is the flux of the primitive
-dx ^ dy / (2 max(xi, eps)^2) of the hyperbolic volume form above eps,
pulled back to the two parameter domains (|z| < 1 for f, |w| > 1 for g):

    V(eps) = sum_sheets int J / (2 max(xi, eps)^2) dA,

with xi the sheet's height and J the Jacobian of its projection z -> Z
(epstein._height_jacobian), whose sign carries the orientation. Each sheet's
int J dA is +-area(Omega), so the two must cancel: a check that the rays
resolve the maps.

Each sheet's integral runs along n = angular_count(2 * order) rays of its
own map (the trapezoid rule in angle; the integrand is nonlinear in the
3-jet, so its angular spectrum reaches about twice the order) in t = 1 - r
inside and t = 1 - 1/|w| outside, where the area element is (1 - t) dt or
(1 - t)^-3 dt and the center and the apex at infinity are ordinary
points. Gauss-Legendre panels along a ray have edges 0, 2^-K, ..., 1/2, 1,
with 2^-K |g'(inf)| at most the smallest height. Each sheet is tabulated
once for the whole schedule: the rays are uniform in angle, so the map's
3-jet on all of them at one radius is one length-n FFT per derivative
(series.ring_jet), and tau = s (1 - |z|^2), to which xi and J are
proportional at the rim, comes from t rather than from the rounded point.
The tabulation keeps per panel the Gauss sums of q / (2 xi^2) and of
q (q = J times the area element), which give a panel wholly above or below
a height, and the interpolants of xi and q. One pass covers every height:
a panel that straddles one is cut at the crossings of its interpolant of
xi, found by Newton steps kept inside the bracketing samples, and its
pieces take mapped Gauss nodes. V(eps) is a small difference of large sums
over the two sheets, so each level sums its panels in doubled precision
and rounds once (_row_sums). Neville extrapolation on the heights gives
eps -> 0.

The triangle-mesh flux of the same 2-form (mesh_flux, truncated_volume) stays
as an independent check: per triangle the integral of 1/(2 xi^2) is exact
for linear height (the second divided difference of -log at the vertex
heights), the parameter slivers beyond the mesh rims are counted by their
projected ring areas, and clip loops are checked by mesh edge, every
crossing shared by exactly two segments.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .action import liouville_action
from .epstein import _height_jacobian, mean_curvature_total
from .errors import (CapTopologyError, DivergenceSuspected, DomainError,
                     NoConvergence)
from .quadrature import angular_count
from .series import LaurentMap, ring_jet

ORIENT_SIGN = -1.0  # mesh sheet normals point into the enclosed region
EPS_BASE = 0.1      # leading truncation height relative to the curve scale
EPS_COUNT = 11      # heights of the default halving schedule
NEVILLE_STAGES = 5  # most powers of eps eliminated from V(eps)
GAUSS_NODES = 9     # Gauss-Legendre nodes per panel along a ray
NEWTON_TOL = 1e-15  # step or bracket width that ends a crossing's search; a
                    # cut off by d changes the piece sums by O(d^2)
NEWTON_CAP = 60     # most iterations per crossing, a safety cap: the bracket
                    # at least halves on every step Newton does not take
AREA_TOL = 1e-10    # relative mismatch of the two sheet areas
CAP_TIE = 1e-9      # angular gaps (rad) this close to the widest are tied
CAP_CUT = 1.0       # angle (rad) from which ties go counterclockwise

_X, _W = legendre.leggauss(GAUSS_NODES)
# node values -> Legendre coefficients of their interpolant
_TO_LEGENDRE = np.linalg.inv(legendre.legvander(_X, GAUSS_NODES - 1))
_SAMPLE_X = np.concatenate([[-1.0], _X, [1.0]])  # panel ends and nodes
# node values -> values of their interpolant at the panel ends
_ENDS = legendre.legvander([-1.0, 1.0], GAUSS_NODES - 1) @ _TO_LEGENDRE


@dataclass(frozen=True)
class VolumeReport:
    epsilon_samples: tuple
    V: float
    mean_curvature_half: float
    V_R: float
    action_total: float
    identity_residual: float
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


def _face_flux(p):
    """Flux of omega through each whole triangle of points p, (k, 3, 3)."""
    h = p[..., 2]
    return -_projected_area(p) * _inv_sq_simplex(h[:, 0], h[:, 1], h[:, 2])


def mesh_flux(vertices, faces, eps):
    """Flux of omega_eps through an oriented triangle soup: faces above eps
    carry their whole flux, every other face its area below eps at the flat
    rate -1 / (2 eps^2), and the part of a straddling face above eps its
    exact flux. Returns (flux, crossing segments at the eps level), each
    segment the pair of keys of its two crossing points (see ``_clip``).
    """
    p = vertices[faces]
    h = p[..., 2]
    if np.any(h <= 0):
        raise DomainError("mesh has nonpositive heights")
    hmin, hmax = h.min(axis=1), h.max(axis=1)
    above = hmin >= eps
    idx = np.flatnonzero((hmin < eps) & (hmax > eps))
    tris, _, keys = _clip(p[idx], np.asarray(faces)[idx], eps,
                          vertices.shape[0])
    flux = float(np.sum(_face_flux(p[above])))
    flux += float(np.sum(_face_flux(tris)))
    below = float(np.sum(_projected_area(p[~above]))
                  - np.sum(_projected_area(tris)))
    flux -= below / (2.0 * eps * eps)
    return flux, keys


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


def truncated_volume(mesh_in, mesh_out, eps):
    """Signed volume between the sheets above Euclidean height eps.

    Both meshes must reach below eps (their outer rings sit under the
    truncation height) while their tops rise above it.
    """
    for mesh in (mesh_in, mesh_out):
        heights = mesh.heights()
        if eps >= float(heights.max()):
            raise DomainError("truncation height above the whole surface")
        ring_h = float(heights[mesh.ring].max())
        if eps <= ring_h:
            raise DomainError(
                f"truncation height {eps} must exceed the mesh rim height "
                f"{ring_h:.3e}; extend r_max or raise eps")
    total = 0.0
    for mesh in (mesh_in, mesh_out):
        flux, segments = mesh_flux(mesh.vertices, mesh.faces, eps)
        _check_clip_loops(segments)
        total += flux
    sliver = (mesh_in.ring_area - mesh_out.ring_area) / (2.0 * eps * eps)
    return ORIENT_SIGN * (total + sliver)


def clip_mesh_above(mesh, eps):
    """Triangle soup of the mesh part above height eps (crossing triangles
    split exactly), plus the clip-loop crossing points. For OBJ inspection
    dumps."""
    p = mesh.face_points()
    h = p[..., 2]
    hmin, hmax = h.min(axis=1), h.max(axis=1)
    idx = np.flatnonzero((hmin < eps) & (hmax > eps))
    tris, cuts, _ = _clip(p[idx], mesh.faces[idx], eps, mesh.n_vertices)
    verts = np.concatenate([p[hmin >= eps], tris]).reshape(-1, 3)
    faces = np.arange(verts.shape[0]).reshape(-1, 3)
    return verts, faces, cuts.reshape(-1, 3)


def cap_annulus(loop_in, loop_out):
    """Triangle strip spanning the flat region between two clip loops at a
    common height, each ordered by angle about the shared centroid from a
    cut in the widest gap between both loops' vertices, so that rounding
    moves no vertex across it; of gaps tied with the widest (a symmetric
    curve has twins), the first counterclockwise from CAP_CUT."""
    if len(loop_in) == 0 or len(loop_out) == 0:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=int)
    center = np.mean(np.vstack([loop_in, loop_out])[:, :2], axis=0)
    angle = lambda loop: np.arctan2(loop[:, 1] - center[1],
                                    loop[:, 0] - center[0])
    both = np.sort(np.concatenate([angle(loop_in), angle(loop_out)]))
    gaps = np.diff(both, append=both[0] + 2.0 * np.pi)
    mids = (both + gaps / 2.0)[gaps >= gaps.max() - CAP_TIE]
    cut = mids[np.argmin((mids - CAP_CUT) % (2.0 * np.pi))]
    order = lambda loop: loop[np.argsort((angle(loop) - cut) % (2.0 * np.pi))]
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


def _crossings(coeffs, eps, lo, hi, lo_above):
    """The crossing of eps (one height, or one per bracket) inside each
    bracket (lo, hi) by the interpolant with Legendre coefficients coeffs
    (brackets, GAUSS_NODES); lo_above tells whether it lies above eps at lo.
    Newton from the bracket midpoint, each iterate narrowing its bracket,
    and the new midpoint wherever a step would leave it. A crossing is final
    once its step or its bracket is at most NEWTON_TOL, or at an iterate
    where the interpolant equals eps."""
    slope = legendre.legder(coeffs, axis=1)
    x, lo, hi = (lo + hi) / 2.0, lo.copy(), hi.copy()
    eps = np.broadcast_to(eps, x.shape)
    live = np.arange(x.size)  # the crossings still iterated
    for _ in range(NEWTON_CAP):
        xl, low, high = x[live], lo[live], hi[live]
        basis = legendre.legvander(xl, GAUSS_NODES - 1)
        r = np.einsum("kj,kj->k", basis, coeffs[live]) - eps[live]
        dr = np.einsum("kj,kj->k", basis[:, :-1], slope[live])
        on_lo_side = (r > 0) == lo_above[live]
        low, high = np.where(on_lo_side, xl, low), np.where(on_lo_side, high, xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = xl - r / dr
        nxt = np.where((nxt > low) & (nxt < high), nxt, (low + high) / 2.0)
        hit = r == 0.0
        x[live] = np.where(hit, xl, nxt)
        lo[live], hi[live] = low, high
        live = live[~(hit | (np.abs(nxt - xl) <= NEWTON_TOL)
                      | (high - low <= NEWTON_TOL))]
        if not live.size:
            break
    return x


@dataclass(frozen=True, eq=False)
class _RaySheet:
    """One sheet along every panel of every ray, as per-panel rows: the
    samples of xi at the panel ends and Gauss nodes in order along the ray,
    the Legendre coefficients of the interpolants of xi and of q = J times
    the area element, and the panel's Gauss sums of q / (2 xi^2) and of q."""

    samples: np.ndarray  # (panels, GAUSS_NODES + 2)
    xi_c: np.ndarray     # (panels, GAUSS_NODES)
    q_c: np.ndarray      # (panels, GAUSS_NODES)
    scale: np.ndarray    # (panels,) half width times 2 pi / n
    above: np.ndarray    # (panels,) scale sum W q / (2 xi^2)
    flat: np.ndarray     # (panels,) scale sum W q
    area: float          # int J dA, +-area(Omega)

    @property
    def xi(self):
        """xi at the Gauss nodes, (panels, GAUSS_NODES)."""
        return self.samples[:, 1:-1]

    @classmethod
    def of(cls, fmap, n, edges):
        half = np.diff(edges) / 2.0
        t = (edges[:-1] + half)[:, None] + half[:, None] * _X
        # tau = s (1 - |z|^2) from t to full precision; from the rounded z
        # it would carry 1e-16 / tau relative error at the rim
        if isinstance(fmap, LaurentMap):
            radius, element = 1.0 / (1.0 - t), (1.0 - t) ** -3
            tau = t * (2.0 - t) / (1.0 - t) ** 2
        else:
            radius, element, tau = 1.0 - t, 1.0 - t, t * (2.0 - t)
        z = radius[..., None] * np.exp(2j * np.pi * np.arange(n) / n)
        xi, J = _height_jacobian(fmap, z, ring_jet(fmap, radius, n),
                                 tau[..., None])
        # rows ray by ray: (n, panels per ray, GAUSS_NODES) -> (panels, ...)
        xi = np.moveaxis(xi, -1, 0).reshape(-1, GAUSS_NODES)
        q = np.moveaxis(J * element[..., None], -1, 0).reshape(-1, GAUSS_NODES)
        scale = np.tile(half * (2.0 * np.pi / n), n)
        ends = np.einsum("ek,pk->pe", _ENDS, xi)
        flat = scale * np.einsum("pk,k->p", q, _W)
        return cls(np.concatenate([ends[:, :1], xi, ends[:, 1:]], axis=1),
                   np.einsum("jk,pk->pj", _TO_LEGENDRE, xi),
                   np.einsum("jk,pk->pj", _TO_LEGENDRE, q), scale,
                   scale * np.einsum("pk,k->p", q / (2.0 * xi * xi), _W),
                   flat, math.fsum(flat.tolist()))

    def volume(self, heights):
        """int q / (2 max(xi, eps)^2) over each panel at each height eps, as
        a (heights, panels) array. A panel whose samples all lie above eps
        takes its sum `above`, and one whose samples all lie at or below eps
        `flat / (2 eps^2)`. Every other (height, panel) pair is cut at the
        crossing inside each bracketing pair of samples, found by
        safeguarded Newton on the interpolant of xi (_crossings), and each
        of its pieces takes mapped Gauss nodes on the interpolants of xi and
        q."""
        eps = np.asarray(heights, dtype=float)[:, None]
        low, high = self.samples.min(axis=1), self.samples.max(axis=1)
        out = np.where(low > eps, self.above, self.flat / (2.0 * eps * eps))
        h, p = np.nonzero((low <= eps) & (high > eps))
        eps = eps[h, 0]
        above = self.samples[p] > eps[:, None]
        pair, j = np.nonzero(above[:, 1:] != above[:, :-1])
        cuts = _crossings(self.xi_c[p[pair]], eps[pair], _SAMPLE_X[j],
                          _SAMPLE_X[j + 1], above[pair, j])
        # pieces of a pair run from -1 through its crossings, in order, to 1;
        # crossing k ends piece k + pair[k] and starts the next
        at = np.arange(cuts.size) + pair
        lo, hi = np.full(at.size + p.size, -1.0), np.ones(at.size + p.size)
        hi[at], lo[at + 1] = cuts, cuts
        owner = np.repeat(np.arange(p.size),
                          np.bincount(pair, minlength=p.size) + 1)
        half = (hi - lo) / 2.0
        basis = legendre.legvander((lo + half)[:, None] + half[:, None] * _X,
                                   GAUSS_NODES - 1)
        xi_x, q_x = (np.einsum("ikj,ij->ik", basis, c[p[owner]])
                     for c in (self.xi_c, self.q_c))
        piece = half * np.einsum(
            "ik,k->i", q_x / (2.0 * np.maximum(xi_x, eps[owner, None]) ** 2),
            _W)
        out[h, p] = self.scale[p] * np.bincount(owner, piece, minlength=p.size)
        return out


def _ray_sheets(f, g, eps_min):
    """Each sheet on angular_count(2 * order) rays of its own map, with
    panel edges down to 2^-K <= eps_min / |g'(inf)|. Their areas must cancel
    to AREA_TOL, or the rays are too few for the maps."""
    depth = max(1, math.ceil(math.log2(abs(g.b1) / eps_min)))
    edges = np.concatenate([[0.0], 0.5 ** np.arange(depth, -1, -1)])
    rays = [angular_count(2 * m.order) for m in (f, g)]
    sheets = tuple(_RaySheet.of(m, n, edges) for m, n in zip((f, g), rays))
    a_in, a_out = (sheet.area for sheet in sheets)
    if abs(a_in + a_out) > AREA_TOL * abs(a_in):
        raise DivergenceSuspected(
            f"sheet areas {a_in:.12e} and {a_out:.12e} do not cancel on "
            f"{rays[0]} and {rays[1]} rays")
    return sheets


def _row_sums(x):
    """Each row of x summed as if in doubled precision and rounded once:
    Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM J.
    Sci. Comput. 26, 2005) in pairwise order. TwoSum adds the columns in
    pairs until one is left, and the exact rounding errors of every
    addition are summed alongside and added last. The result lies within
    u |s| + gamma_{n-1}^2 sum |x| of a row's exact sum s."""
    err = np.zeros(x.shape[0])
    while x.shape[1] > 1:
        half = x.shape[1] // 2
        a, b = x[:, :half], x[:, half:2 * half]
        s = a + b
        b_virtual = s - a
        err += ((a - (s - b_virtual)) + (b - b_virtual)).sum(axis=1)
        x = np.concatenate([s, x[:, 2 * half:]], axis=1)
    return x[:, 0] + err


def richardson_extrapolate(samples):
    """Neville extrapolation of V(eps) samples to eps = 0 on their heights,
    through the last min(NEVILLE_STAGES, len - 1) + 1 samples; on a halving
    schedule this is the Richardson table. Returns (limit, error estimate),
    the estimate being the change from one stage fewer."""
    if len(samples) < 3:
        raise DomainError("extrapolation needs at least three samples")
    eps, vals = (np.array(col, dtype=float) for col in zip(
        *samples[-(min(NEVILLE_STAGES, len(samples) - 1) + 1):]))
    table = [vals]
    for j in range(1, eps.size):
        prev = table[-1]
        nxt = (eps[:-j] * prev[1:] - eps[j:] * prev[:-1]) / (eps[:-j] - eps[j:])
        if not np.all(np.isfinite(nxt)):
            raise NoConvergence("non-finite extrapolant")
        table.append(nxt)
    limit = float(table[-1][-1])
    err = abs(limit - float(table[-2][-1]))
    spread = max(vals) - min(vals)
    if err > max(10.0 * spread, 1.0) and spread > 0:
        raise NoConvergence(f"extrapolants diverge: step {err:.3e}")
    return limit, err


def volume(f, g, eps_schedule=None):
    """Signed volume between the two envelope surfaces of the curve bounded
    by f and g, extrapolated to eps = 0 from a decreasing truncation
    schedule, by default 0.1 |g'(inf)| 2^-k, k < EPS_COUNT, so curves of any
    size are truncated at comparable relative heights.
    Returns (V, samples, error_estimate)."""
    if eps_schedule is None:
        eps_schedule = (EPS_BASE * abs(g.b1) * 0.5 ** k
                        for k in range(EPS_COUNT))
    eps_schedule = tuple(eps_schedule)
    if (len(eps_schedule) < 3 or not all(e > 0 for e in eps_schedule)
            or any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:]))):
        raise DomainError("eps schedule must be three or more decreasing "
                          "positive heights")
    levels = np.concatenate([sheet.volume(eps_schedule) for sheet in
                             _ray_sheets(f, g, eps_schedule[-1])], axis=1)
    # each level is a small difference of large sums over both sheets: a
    # sum of its panels rounded once leaves only their own rounding
    samples = tuple(zip(eps_schedule, _row_sums(levels).tolist()))
    v, err = richardson_extrapolate(samples)
    return v, samples, err


def renormalized_volume(f, g, eps_schedule=None):
    """VolumeReport with V, the mean-curvature correction, V_R, and the
    residual against the Liouville action."""
    v, samples, err = volume(f, g, eps_schedule)
    mch = 0.5 * (mean_curvature_total(f) + mean_curvature_total(g))
    v_r = v - mch
    action_total = liouville_action(f, g).total
    residual = action_total - 4.0 * v_r
    return VolumeReport(samples, v, mch, v_r, action_total, residual, err)
