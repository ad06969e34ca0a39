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
(1 - t)^-3 dt and the center and the apex at infinity are ordinary points.
With q = J times the area element, a ray starts at the rim t = 0 as
xi ~ xi0 t and q ~ q0 t, and with kappa = q0 / (2 xi0^2)

    int_0^1 q / (2 max(xi, eps)^2) dt = -kappa log eps
        + kappa (log xi0 + 1/2) + int_0^1 (q / (2 xi^2) - kappa / t) dt + O(eps).

The sums (2 pi / n) sum_rays kappa are +pi inside and -pi outside, so
log eps cancels between the sheets and V = lim V(eps) is the sum over both
sheets of the finite parts, kappa (log xi0 + 1/2) plus the integral, whose
integrand is smooth at the rim. It takes 9-point Gauss-Legendre panels with
edges 0, 2^-PANEL_DEPTH, ..., 1/2, 1. The rays are uniform in angle, so the
map's 3-jet on all of them at one radius is one length-n FFT per derivative
(series.ring_jet); xi0 and q0 come from one more ring at the rim, where
_height_jacobian's xi / tau and J / tau are finite, and tau = s (1 - |z|^2)
comes from t rather than from the rounded point. The rim ring comes first,
for kappa, then the node rings in blocks of about _BLOCK_POINTS points,
each adding its share to the rays' finite parts and to int J dA: a block's
temporaries stay in cache, a whole table's would stream through memory.

The triangle-mesh flux of the same 2-form at one height (mesh_flux,
truncated_volume) stays as an independent check: per triangle the integral
of 1/(2 xi^2) is exact for linear height (the second divided difference of
-log at the vertex heights), the parameter slivers beyond the mesh rims are
counted by their projected ring areas, and clip loops are checked by mesh
edge, every crossing shared by exactly two segments; Neville extrapolation
(richardson_extrapolate) takes its heights to eps -> 0.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .action import liouville_action
from .epstein import _height_jacobian, mean_curvature_total
from .errors import (CapTopologyError, DivergenceSuspected, DomainError,
                     NonConvergence)
from .quadrature import angular_count
from .series import LaurentMap, ring_jet, unit_scale

ORIENT_SIGN = -1.0  # mesh sheet normals point into the enclosed region
NEVILLE_STAGES = 5  # most powers of eps eliminated from V(eps)
GAUSS_NODES = 9     # Gauss-Legendre nodes per panel along a ray
PANEL_DEPTH = 8     # ray panels have edges 0, 2^-PANEL_DEPTH, ..., 1/2, 1
AREA_TOL = 1e-10    # relative mismatch of the two sheet areas
# table points (rings x rays) per block of a sheet: the dozens of temporaries
# of _height_jacobian on one block stay in a core's L2 cache
_BLOCK_POINTS = 8192

_X, _W = legendre.leggauss(GAUSS_NODES)
_EDGES = np.concatenate([[0.0], 0.5 ** np.arange(PANEL_DEPTH, -1, -1)])
_HALF = np.diff(_EDGES) / 2.0
# the rim t = 0, then every panel's Gauss nodes in order along a ray
_T = np.concatenate([[0.0], ((_EDGES[:-1] + _HALF)[:, None]
                             + _HALF[:, None] * _X).ravel()])
_WEIGHTS = (_HALF[:, None] * _W).ravel()


@dataclass(frozen=True)
class VolumeReport:
    V: float
    mean_curvature_half: float
    V_R: float
    action_total: float
    identity_residual: float


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
    split into two. Returns (sub-triangles above, (k, 3, 3); crossing keys,
    (k, 2)). A crossing is keyed by its mesh edge, lo * n_vertices + hi over
    the sorted vertex ids, or by the vertex (id * n_vertices + id) when that
    vertex lies exactly at eps.
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
    return tris, lo.astype(np.int64) * n_vertices + hi


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
    tris, keys = _clip(p[idx], np.asarray(faces)[idx], eps,
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
        heights = mesh.vertices[:, 2]
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


def _sheet(fmap, n):
    """One sheet on n rays of its map: per ray the finite part
    kappa (log xi0 + 1/2) + sum w (q / (2 xi^2) - kappa / t) of its
    integral, and int J dA over the sheet, summed over blocks of rings.
    _height_jacobian gives xi / tau and J / tau; at the rim dtau/dt = 2 and
    the area element is 1, so there xi0 = 2 xi / tau and q0 = 2 J / tau."""
    if isinstance(fmap, LaurentMap):
        radius, element = 1.0 / (1.0 - _T), (1.0 - _T) ** -3
        tau = _T * (2.0 - _T) / (1.0 - _T) ** 2
    else:
        radius, element, tau = 1.0 - _T, 1.0 - _T, _T * (2.0 - _T)
    roots = np.exp(2j * np.pi * np.arange(n) / n)

    def quotients(rows):
        r = radius[rows]
        return _height_jacobian(fmap, r[:, None] * roots,
                                ring_jet(fmap, r, n), tau[rows, None])

    xi_tau, J_tau = quotients(slice(0, 1))
    xi0, q0 = 2.0 * xi_tau[0], 2.0 * J_tau[0]
    kappa = q0 / (2.0 * xi0 ** 2)
    parts, area = kappa * (np.log(xi0) + 0.5), 0.0
    step = max(1, _BLOCK_POINTS // n)
    for lo in range(1, _T.size, step):
        rows = slice(lo, lo + step)
        xi_tau, J_tau = quotients(rows)
        # q / (2 xi^2) = (q / tau) / (2 tau (xi / tau)^2)
        t, tb, w = _T[rows, None], tau[rows, None], _WEIGHTS[lo - 1:][:step]
        q_tau = J_tau * element[rows, None]
        parts = parts + w @ (q_tau / (2.0 * tb * xi_tau ** 2) - kappa / t)
        area += float(w @ (tb * q_tau).sum(axis=1))
    return parts, (2.0 * np.pi / n) * area


def richardson_extrapolate(samples):
    """Neville extrapolation of V(eps) samples to eps = 0 on their heights,
    through the last min(NEVILLE_STAGES, len - 1) + 1 samples; on a halving
    schedule this is the Richardson table. Returns (limit, error estimate),
    the estimate being the change from one stage fewer. volume() does not
    use it: the tests take the mesh flux and the truncated ray volume of
    tests/oracles.py to eps -> 0 with it, and bench/spans.py traces it."""
    if len(samples) < 3:
        raise DomainError("extrapolation needs at least three samples")
    eps, vals = (np.array(col, dtype=float) for col in zip(
        *samples[-(min(NEVILLE_STAGES, len(samples) - 1) + 1):]))
    table = [vals]
    for j in range(1, eps.size):
        prev = table[-1]
        nxt = (eps[:-j] * prev[1:] - eps[j:] * prev[:-1]) / (eps[:-j] - eps[j:])
        if not np.all(np.isfinite(nxt)):
            raise NonConvergence("non-finite extrapolant")
        table.append(nxt)
    limit = float(table[-1][-1])
    err = abs(limit - float(table[-2][-1]))
    spread = max(vals) - min(vals)
    if err > max(10.0 * spread, 1.0) and spread > 0:
        raise NonConvergence(f"extrapolants diverge: step {err:.3e}")
    return limit, err


def volume(f, g):
    """Signed volume between the two envelope surfaces of the curve bounded
    by f and g: the finite parts of both sheets' rays, each sheet on
    angular_count(2 * order) rays of its own map. Raises
    DivergenceSuspected if the sheets' areas do not cancel. The maps are
    first scaled exactly by c = unit_scale(g): V is dilation invariant, no
    height leaves the float range, and the kappa sums, +-pi to rounding,
    leave no kappa log c behind."""
    c = unit_scale(g)
    f, g = f.scaled(c), g.scaled(c)
    rays = [angular_count(2 * m.order) for m in (f, g)]
    (parts_in, a_in), (parts_out, a_out) = (
        _sheet(m, n) for m, n in zip((f, g), rays))
    if abs(a_in + a_out) > AREA_TOL * abs(a_in):
        raise DivergenceSuspected(
            f"sheet areas {a_in:.12e} and {a_out:.12e} do not cancel on "
            f"{rays[0]} and {rays[1]} rays")
    # V is a difference of two sheet sums up to 30 times larger
    return math.fsum(np.concatenate([
        (2.0 * np.pi / parts.size) * parts
        for parts in (parts_in, parts_out)]).tolist())


def renormalized_volume(f, g):
    """VolumeReport with V, the mean-curvature correction, V_R, and the
    residual against the Liouville action."""
    v = volume(f, g)
    mch = 0.5 * (mean_curvature_total(f) + mean_curvature_total(g))
    v_r = v - mch
    action_total = liouville_action(f, g).total
    residual = action_total - 4.0 * v_r
    return VolumeReport(v, mch, v_r, action_total, residual)
