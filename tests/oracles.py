"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths it is used to check:
Monte-Carlo integration instead of the product quadrature, coefficient
recurrences instead of grid evaluation, finite differences of the raw
embedding instead of the closed-form curvature formulas.

It also holds the code that only the tests call: the reference curves
and their sampling (boundary_samples; the library reads only a curve's
maps), the action as the Grunsky operator's Fredholm determinant, the
quaternion model of upper half-space, the Epstein construction of a
general conformal metric (the oracle for the frames (Z, xi, eta) of
epstein._frame_fields), the grid pairing of the action's first variation,
the inverted-curve route to the exterior map, the inverted pair (the
maps of 1/(gamma - f(0)) built from f and g), the flow's sup|nu| on
every ring, a curve JSON writer and an OBJ reader. The truncated ray
volume V(eps) on a schedule of heights, extrapolated to eps -> 0, is the
oracle for the finite-part ray volume of liouvol.volume.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from liouvol import flow
from liouvol.curves import CurveSpec
from liouvol.epstein import _frame_fields, _height_jacobian, curvature_columns
from liouvol.errors import DivergenceSuspected, DomainError, SingularDerivative
from liouvol.mapping import (FIT_TOL, _argument_inverse, _fit_exterior,
                             _Polar, _solve_polar)
from liouvol.quadrature import QuadratureGrid, angular_count
from liouvol.volume import (AREA_TOL, GAUSS_NODES, _W, _X,
                            richardson_extrapolate)
from liouvol.series import (LaurentMap, PowerSeriesMap, circle_samples,
                            ring_jet, schwarzian, schwarzian_of)


# -- Monte-Carlo disk/exterior integration -----------------------------------

def mc_disk_integral(func, n=10_000_000, seed=123):
    """Uniform-sampling integral over the unit disk; returns (value, sigma)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (int(n * 4 / math.pi * 1.05), 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    z = z[np.abs(z) < 1.0][:n]
    vals = func(z)
    mean = float(np.mean(vals))
    sigma = float(np.std(vals) / math.sqrt(vals.size))
    return math.pi * mean, math.pi * sigma


# -- coefficient-space Dirichlet energies -------------------------------------

def _series_divide(num, den, n_out):
    """Power-series quotient c with (den * c) = num, den[0] != 0."""
    c = np.zeros(n_out, dtype=complex)
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    for k in range(n_out):
        acc = num[k] if k < num.size else 0.0
        for j in range(1, min(k, den.size - 1) + 1):
            acc -= den[j] * c[k - j]
        c[k] = acc / den[0]
    return c


def dirichlet_interior_series(f, n_out=256):
    """int_D |f''/f'|^2 from coefficients: the quotient series c_k of
    f''/f' integrates to pi * sum |c_k|^2 / (k+1)."""
    a = np.asarray(f.coeffs, dtype=complex)
    k = np.arange(a.size)
    d1 = (k * a)[1:]
    d2 = (k * (k - 1) * a)[2:] if a.size > 2 else np.zeros(1, complex)
    c = _series_divide(d2, d1, n_out)
    kk = np.arange(n_out)
    return float(math.pi * np.sum(np.abs(c) ** 2 / (kk + 1)))


def dirichlet_exterior_series(g, n_out=256):
    """int_{|w|>1} |g''/g'|^2 from Laurent coefficients, via the expansion
    of g''/g' in powers of 1/w (starting at w^-3)."""
    b = np.asarray(g.bneg, dtype=complex)
    m = b.size
    # g'(w)  = b1 - sum k b_k w^{-k-1}   -> series in u = 1/w
    d1 = np.zeros(m + 2, dtype=complex)
    d1[0] = g.b1
    for k in range(1, m + 1):
        d1[k + 1] = -k * b[k - 1]
    # g''(w) = sum k(k+1) b_k w^{-k-2}
    d2 = np.zeros(m + 3, dtype=complex)
    for k in range(1, m + 1):
        d2[k + 2] = k * (k + 1) * b[k - 1]
    c = _series_divide(d2, d1, n_out)
    kk = np.arange(n_out)
    mask = kk >= 2
    return float(math.pi * np.sum(np.abs(c[mask]) ** 2 / (kk[mask] - 1)))


# -- finite-difference shape operator -----------------------------------------

def _christoffel_correction(X, N, xi):
    """Gamma(X, N) for the upper half-space metric delta/xi^2."""
    X3 = X[..., 2]
    N3 = N[..., 2]
    dot = np.einsum("...i,...i->...i", X, N).sum(axis=-1)
    out = -(X * N3[..., None] + N * X3[..., None]) / xi[..., None]
    out[..., 2] += dot / xi
    return out


def fd_shape_operator(frame_fields, param_points, h=1e-5):
    """Principal curvatures and mean curvature by central differences.

    ``frame_fields(zeta)`` must return (Z, xi, eta_h, eta_v) arrays; the
    derivative of the embedding and of the normal field are differenced,
    the ambient covariant derivative is corrected by the Christoffel terms
    of the hyperbolic metric, and the shape operator is I^{-1} II.
    Returns (k_low, k_high, H, area_form) where area_form is the
    hyperbolic area density with respect to the parametrization.
    """
    zeta = np.asarray(param_points, dtype=complex)

    def embed(z):
        Z, xi, eh, ev = frame_fields(z)
        pos = np.stack([Z.real, Z.imag, xi], axis=-1)
        normal = np.stack([eh.real * xi, eh.imag * xi, ev * xi], axis=-1)
        return pos, normal

    pos0, n0 = embed(zeta)
    xi0 = pos0[..., 2]

    derivs = []
    nderivs = []
    for step in (h, 1j * h):
        pp, npp = embed(zeta + step)
        pm, nmm = embed(zeta - step)
        derivs.append((pp - pm) / (2 * h))
        nderivs.append((npp - nmm) / (2 * h))

    metric = lambda u, v: np.einsum("...i,...i->...", u, v) / xi0 ** 2
    I = np.empty(zeta.shape + (2, 2))
    II = np.empty(zeta.shape + (2, 2))
    for a in range(2):
        cov_a = nderivs[a] + _christoffel_correction(derivs[a], n0, xi0)
        for b in range(2):
            I[..., a, b] = metric(derivs[a], derivs[b])
            II[..., a, b] = -metric(cov_a, derivs[b])
    shape = np.linalg.solve(I, II)
    tr = shape[..., 0, 0] + shape[..., 1, 1]
    det = shape[..., 0, 0] * shape[..., 1, 1] \
        - shape[..., 0, 1] * shape[..., 1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4 - det, 0.0))
    area = np.sqrt(np.maximum(np.linalg.det(I), 0.0))
    return tr / 2 - disc, tr / 2 + disc, tr / 2, area


# -- closed-form hyperbolic volumes -------------------------------------------

def ball_volume_euclidean_sphere(center_height, radius):
    """Hyperbolic volume enclosed by the Euclidean sphere at (0, h) with
    Euclidean radius r < h."""
    h, r = center_height, radius
    return 2 * math.pi * h * r / (h * h - r * r) \
        - math.pi * math.log((h + r) / (h - r))


def slab_volume(band_area, t):
    """Volume between a totally geodesic plane and its distance-t
    equidistant over a patch of hyperbolic area band_area."""
    return band_area * (t + math.sinh(t) * math.cosh(t)) / 2.0


def hyperbolic_annulus_area(r1, r2):
    """Hyperbolic area of {r1 <= |z| <= r2} in the unit-disk metric."""
    return 4 * math.pi * (1 / (1 - r2 ** 2) - 1 / (1 - r1 ** 2))


# -- scalar triangle-by-triangle flux -----------------------------------------

def _projected_area_scalar(a, b, c):
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def _clip_above_scalar(tri, eps):
    """Sutherland-Hodgman clip of one triangle against xi >= eps.

    Returns (polygon above as list of points, crossing points list).
    """
    out, crossings = [], []
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        hp, hq = p[2], q[2]
        if hp >= eps:
            out.append(p)
        if (hp - eps) * (hq - eps) < 0:
            s = (eps - hp) / (hq - hp)
            cut = p + s * (q - p)
            cut[2] = eps
            out.append(cut)
            crossings.append(cut)
    return out, crossings


def mesh_flux_scalar(vertices, faces, eps, inv_sq_simplex):
    """Flux of -dx^dy / (2 max(xi, eps)^2) through an oriented triangle
    soup, clipping the straddling triangles one at a time: each above-part
    polygon is fanned from its first vertex. Faces wholly above or below
    eps are summed under boolean masks.

    ``inv_sq_simplex(h1, h2, h3)`` is the exact integral of 1/h^2 over the
    unit simplex for linear h (checked on its own against closed forms).
    Returns (flux, crossing segments as pairs of 3-vectors).
    """
    p = np.asarray(vertices, dtype=float)[faces]
    h = p[..., 2]
    x, y = p[..., 0], p[..., 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    above = h.min(axis=1) >= eps
    below = (h.max(axis=1) <= eps) & ~above  # a flat face at eps is above
    flux = float(np.sum(-area[above] * inv_sq_simplex(
        h[above, 0], h[above, 1], h[above, 2])))
    flux += float(np.sum(-area[below])) / (2.0 * eps * eps)

    segments = []
    for idx in np.flatnonzero(~(above | below)):
        poly, crossings = _clip_above_scalar(p[idx], eps)
        area_above = 0.0
        for k in range(1, len(poly) - 1):
            a = _projected_area_scalar(poly[0], poly[k], poly[k + 1])
            area_above += a
            flux += -a * float(inv_sq_simplex(
                np.array(max(poly[0][2], eps)),
                np.array(max(poly[k][2], eps)),
                np.array(max(poly[k + 1][2], eps))))
        flux += -(float(area[idx]) - area_above) / (2.0 * eps * eps)
        if len(crossings) == 2:
            segments.append((crossings[0], crossings[1]))
    return flux, segments


# -- Grunsky integrals by Horner on every grid node ----------------------------

def grunsky_gap_horner(f, g, grid):
    """grunsky_gap's {"lhs", "rhs"} with both integrands evaluated by Horner
    at every node of the disk grid and of its exterior companion."""
    a = f.coeffs
    k = np.arange(a.size)
    p = ((k - 1) * a)[2:] if a.size > 2 else np.zeros(1, complex)
    z = grid.nodes
    num = np.polynomial.polynomial.polyval(z, p)
    den = np.polynomial.polynomial.polyval(z, a[1:])
    lhs = grid.integrate(np.abs(num / den) ** 2)

    ext = grid.exterior()
    w = ext.nodes
    # w g' - g has no leading term; evaluate it from coefficients
    core = np.full_like(w, -g.b0)
    if g.bneg.size:
        kk = np.arange(1, g.bneg.size + 1)
        u = 1.0 / w
        core = core + u * np.polynomial.polynomial.polyval(
            u, -(kk + 1) * g.bneg)
    lhs += ext.integrate(np.abs(core / (w * g(w))) ** 2)
    rhs = 2.0 * math.pi * math.log(abs(g.b1) / abs(f.coeffs[1]))
    return {"lhs": float(lhs), "rhs": float(rhs)}


# -- the area Cauchy transform and the first variation on the exterior grid --

def descent_field(g):
    """The flow's descent field nu = -conj(S(g)) (|w|^2 - 1)^2 on the
    exterior of g, pointwise: the field of flow.gradient_field for the grid
    oracles."""
    def nu(w):
        w = np.asarray(w, dtype=complex)
        return -np.conj(schwarzian(g, w)) * (np.abs(w) ** 2 - 1.0) ** 2
    return nu


def grid_transform(g, nu, z, grid, chunk=64):
    """The area Cauchy transform -(1/pi) int nu g'^2 / (g - z) over the
    exterior nodes of ``grid``, at the points z."""
    ext = grid.exterior()
    w = ext.nodes
    g1 = g.deriv_at(w, 1)
    density = ext.weights * nu(w) * g1 * g1
    gv = g(w)
    out = np.empty(z.size, dtype=complex)
    for lo in range(0, z.size, chunk):
        hi = min(lo + chunk, z.size)
        kernel = 1.0 / (gv[None, :] - z[lo:hi, None])
        out[lo:hi] = np.einsum("ij,j->i", kernel, density)
    return -out / math.pi


def first_variation_action(g, nu, grid=None):
    """Directional derivative of the action under an exterior Beltrami
    field nu: 4 Re int_D* nu * S(g), by default on the grid sized to g.
    S(g) is evaluated on the grid's rings by one FFT per radius."""
    grid = grid or QuadratureGrid.for_order(g.order)
    ext = grid.exterior()
    # the exterior nodes are rings r^-1 e^{2 pi i j/n}, radius-major
    radii = ext.nodes[::ext.angular_n].real
    sg = schwarzian_of(ring_jet(g, radii, ext.angular_n)).ravel()
    nu_vals = nu(ext.nodes) if callable(nu) else np.asarray(nu)
    return 4.0 * float(np.real(ext.integrate(nu_vals * sg)))


def grid_displacement(curve, g, nu, grid):
    """(z, F(z)) at grid.angular_n points z of ``curve``, F the grid
    transform of any Beltrami field nu on the exterior of g: a boundary
    velocity for beltrami_step's ``precomputed``."""
    z = boundary_samples(curve, grid.angular_n)
    return z, grid_transform(g, nu, z, grid)


def variation_check(f, g, nu, dt, grid=None):
    """Centered difference of V_R along the Beltrami deformation nu against
    the boundary-integral formula Re int nu S(g), integrated over ``grid``
    (by default sized to g's order). The curve moves by grid_displacement
    on the grid sized to g's order.

    Returns {"lhs": finite difference, "rhs": formula value}.
    """
    from liouvol.flow import beltrami_step
    from liouvol.mapping import conformal_map_pair
    from liouvol.series import schwarzian
    from liouvol.volume import renormalized_volume

    sized = QuadratureGrid.for_order(g.order)
    grid = grid or sized

    ext = grid.exterior()
    rhs = float(np.real(ext.integrate(nu(ext.nodes)
                                      * schwarzian(g, ext.nodes))))

    base = CurveSpec.from_polyline(ring_jet(f, 1.0, 1024, upto=0)[0])
    velocity = grid_displacement(base, g, nu, sized)

    def v_r_at(t):
        moved = beltrami_step(nu, t, precomputed=velocity)
        return renormalized_volume(*conformal_map_pair(moved)).V_R

    lhs = (v_r_at(dt) - v_r_at(-dt)) / (2.0 * dt)
    return {"lhs": float(lhs), "rhs": rhs}


# -- polyline simplicity by a per-segment sweep -------------------------------

def _segments_cross(p1, p2, q1, q2):
    """Whether the closed segments meet to 1e-12 of their lengths: a
    crossing, a touch at an end, or a collinear overlap of segments parallel
    to 1e-12."""
    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    def dot(a, b):
        return a.real * b.real + a.imag * b.imag

    eps = 1e-12
    d1, d2, r = p2 - p1, q2 - q1, q1 - p1
    den, len1 = cross(d1, d2), dot(d1, d1)
    if den * den > eps * eps * len1 * dot(d2, d2):
        t, u = cross(r, d2) / den, cross(r, d1) / den
        return -eps <= t <= 1 + eps and -eps <= u <= 1 + eps
    if len1 == 0 or abs(cross(r, d1)) > eps * len1:
        return False
    s0 = dot(r, d1) / len1
    s1 = s0 + dot(d2, d1) / len1
    return min(s0, s1) <= 1 + eps and max(s0, s1) >= -eps


def polyline_is_simple_sweep(points):
    """Segment sweep over the closed polyline, one segment at a time:
    sorted by min-x, an active list pruned by max-x, and y-boxes checked
    before the crossing test. Adjacent segments are never compared; any
    other two that meet, at an end or along a shared line, make the
    polyline not simple."""
    pts = np.asarray(points, dtype=complex)
    n = pts.size
    seg_a = pts
    seg_b = np.roll(pts, -1)
    pad = 2e-12 * np.abs(seg_b - seg_a)  # boxes of segments that may meet
    lo = np.minimum(seg_a.real, seg_b.real) - pad
    hi = np.maximum(seg_a.real, seg_b.real) + pad
    ylo = (np.minimum(seg_a.imag, seg_b.imag) - pad).tolist()
    yhi = (np.maximum(seg_a.imag, seg_b.imag) + pad).tolist()
    order = np.argsort(lo, kind="stable")
    active = []
    for idx in order:
        x = lo[idx]
        active = [j for j in active if hi[j] >= x]
        for j in active:
            if (j - idx) % n in (0, 1, n - 1):
                continue
            if yhi[idx] < ylo[j] or yhi[j] < ylo[idx]:
                continue
            if _segments_cross(seg_a[idx], seg_b[idx], seg_a[j], seg_b[j]):
                return False
        active.append(idx)
    return True


# -- the truncated ray volume V(eps), extrapolated to eps -> 0 ---------------

EPS_BASE = 0.1      # leading truncation height relative to the curve scale
EPS_COUNT = 11      # heights of the default halving schedule
NEWTON_TOL = 1e-15  # step or bracket width that ends a crossing's search; a
                    # cut off by d changes the piece sums by O(d^2)
NEWTON_CAP = 60     # most iterations per crossing, a safety cap: the bracket
                    # at least halves on every step Newton does not take

# node values -> Legendre coefficients of their interpolant
_TO_LEGENDRE = np.linalg.inv(legendre.legvander(_X, GAUSS_NODES - 1))
_SAMPLE_X = np.concatenate([[-1.0], _X, [1.0]])  # panel ends and nodes
# node values -> values of their interpolant at the panel ends
_ENDS = legendre.legvander([-1.0, 1.0], GAUSS_NODES - 1) @ _TO_LEGENDRE


def default_heights(g):
    """The halving schedule 0.1 |g'(inf)| 2^-k, k < EPS_COUNT, so curves of
    any size are truncated at comparable relative heights."""
    return [EPS_BASE * abs(g.b1) * 0.5 ** k for k in range(EPS_COUNT)]


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
        xi, J = (tau[..., None] * v for v in _height_jacobian(
            fmap, z, ring_jet(fmap, radius, n), tau[..., None]))
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


def truncated_ray_volume(f, g, heights=None):
    """V(eps) on the ray sheets at each of a decreasing schedule of heights
    (by default default_heights(g)), each level's panels over both sheets
    summed in doubled precision and rounded once, and Neville extrapolation
    to eps = 0. Returns (V, samples, error_estimate)."""
    heights = tuple(default_heights(g) if heights is None else heights)
    levels = np.concatenate([sheet.volume(heights) for sheet in
                             _ray_sheets(f, g, heights[-1])], axis=1)
    samples = tuple(zip(heights, _row_sums(levels).tolist()))
    v, err = richardson_extrapolate(samples)
    return v, samples, err


# -- the ray volume's level, every straddling panel cut at all its samples ----

def ray_level_eleven_pieces(sheet, eps):
    """One ray sheet's level, the integral of q / (2 max(xi, eps)^2), by the
    rule that cut a straddling panel at every sample: its two ends and nine
    Gauss nodes delimit eleven pieces, the right end of each bracketing pair
    of samples moved to the crossing inside it. Other panels take their
    Gauss sums, each piece mapped Gauss nodes on the interpolants of xi and
    q (by Clenshaw), and every node's term is summed exactly."""
    q = legendre.legval(_X, sheet.q_c.T)  # (panels, GAUSS_NODES)
    above = sheet.samples > eps
    cross = above[:, 1:] != above[:, :-1]
    split = cross.any(axis=1)
    whole = (sheet.scale[~split, None] * _W * q[~split]
             / (2.0 * np.maximum(sheet.xi[~split], eps) ** 2))

    k = np.flatnonzero(split)
    p, j = np.nonzero(cross[k])
    cuts = np.tile(_SAMPLE_X[1:], (k.size, 1))
    cuts[p, j] = _crossings(sheet.xi_c[k[p]], eps, _SAMPLE_X[j],
                            _SAMPLE_X[j + 1], above[k[p], j])
    ones = np.ones((k.size, 1))
    bounds = np.concatenate([-ones, cuts, ones], axis=1)
    half = np.diff(bounds, axis=1) / 2.0
    # nodes as (pieces, GAUSS_NODES, panels) so each panel's coefficients
    # broadcast over its own column
    x = np.moveaxis((bounds[:, :-1] + half)[..., None]
                    + half[..., None] * _X, 0, -1)
    xi_x = legendre.legval(x, sheet.xi_c[k].T, tensor=False)
    q_x = legendre.legval(x, sheet.q_c[k].T, tensor=False)
    pieces = (sheet.scale[k] * half.T[:, None, :] * _W[:, None] * q_x
              / (2.0 * np.maximum(xi_x, eps) ** 2))
    return math.fsum(np.concatenate([whole.ravel(), pieces.ravel()]).tolist())


# -- the exterior map by Theodorsen's fixed point on the polar radius ---------

def polar_exterior_map(curve, order=128, tol=FIT_TOL):
    """exterior_map of any curve through the interior problem of the
    inverted curve: the fixed point theta = phi + conj[log rho_inv(theta)]
    of the radius rho_inv(chi) = 1 / rho(-chi), rho the curve's polar
    radius about its anchor, composed with w -> 1/w. The map is fitted
    about 0, certified against rho itself, and the anchor is added last.
    A series curve's radius inverts arg(f - f(0)) by Newton at every
    evaluation. The oracle for the exterior equation of polylines and for
    the welding solve of series curves."""
    if curve.kind == "series":
        f = PowerSeriesMap(np.r_[0, curve.series.coeffs[1:]])
        invert = _argument_inverse(f)

        def rho(chi):
            return np.abs(f.eval_unchecked(np.exp(1j * invert(chi))))
    else:
        rho = curve.polar()

    problem = _Polar(lambda chi: 1.0 / rho(-np.asarray(chi, float)), 1.0)
    problem.distance = _Polar(rho, -1.0).distance

    def fit(boundary_inv, order):
        # g(e^{i phi}) = 1 / G(e^{-i phi}): reverse the sample order and
        # keep sample 0 at phi = 0
        return _fit_exterior(np.roll(1.0 / boundary_inv[::-1], 1), order)

    g, diag = _solve_polar(problem, order, tol, fit, "exterior")
    return LaurentMap(g.b1, g.b0 + curve.anchor(), g.bneg), diag


# -- the inverted pair: the inversion that swaps the two sheets -------------

def _above_floor(c, floor=1e-16):
    """c up to its last entry above floor times its largest."""
    mags = np.abs(c)
    return c[: int(np.flatnonzero(mags > floor * mags.max())[-1]) + 1]


def inverted_interior(f, g):
    """F(z) = 1/(g(1/z) - f(0)), the interior map of the inverted curve
    1/(gamma - f(0)): one FFT of its samples on the unit circle, g taken
    minus f(0) before it is evaluated, truncated at 1e-16 relative."""
    n = max(4096, 16 * g.order)
    g = LaurentMap(g.b1, g.b0 - f.coeffs[0], g.bneg)
    samples = 1.0 / g(np.exp(-2j * np.pi * np.arange(n) / n))
    return PowerSeriesMap(_above_floor(np.fft.fft(samples)[: n // 2] / n))


def inverted_exterior(f):
    """G(w) = 1/(f(1/w) - f(0)), the exterior map of the inverted curve
    1/(gamma - f(0)): one FFT of its samples on the unit circle, f taken
    minus f(0) before it is evaluated, truncated at 1e-16 relative."""
    n = max(4096, 16 * f.order)
    f = PowerSeriesMap(np.r_[0, f.coeffs[1:]])
    spec = np.fft.fft(1.0 / f.eval_unchecked(
        np.exp(-2j * np.pi * np.arange(n) / n))) / n
    # spec[1] = b1, spec[0] = b0, spec[n - k] = b_{-k}
    terms = _above_floor(np.r_[spec[1], spec[-1: -(n // 2): -1]])
    return LaurentMap(terms[0], spec[0], terms[1:])


# -- the action as a Fredholm determinant of the Grunsky operator -----------

def _grunsky_operator(m, n):
    """The n x n Grunsky operator B = (sqrt(kl) c_kl), k, l = 1..n, of m,
    from its difference quotient on a 2n x 2n torus grid of the unit circle
    (the derivative on the diagonal) and one 2-D FFT. For a LaurentMap g,
    log[(g(z) - g(zeta)) / (b1 (z - zeta))] = sum c_kl z^-k zeta^-l, with
    g evaluated without b0: the quotient does not depend on it, and a curve
    far from 0 would lose its digits to it. For a
    PowerSeriesMap f, with F = f - f(0) (the constant dropped from the
    coefficients) and a1 = f'(0),
    log[(F(u) - F(v)) / (a1 (u - v))] - log[F(u)/(a1 u)] - log[F(v)/(a1 v)]
    = sum c_kl u^k v^l: the exterior operator of 1/(gamma - f(0))."""
    size = 2 * n
    z = np.exp(2j * np.pi * np.arange(size) / size)
    exterior = isinstance(m, LaurentMap)
    if exterior:
        core = LaurentMap(m.b1, 0.0, m.bneg)
        lead, value, slope = m.b1, *core.jet(z, upto=1)
    else:
        core = PowerSeriesMap(np.r_[0, m.coeffs[1:]])
        lead, value, slope = m.coeffs[1], *core.jet(z, upto=1)
    value, slope = value / lead, slope / lead
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    log_q = (value[:, None] - value[None, :]) / diff
    np.fill_diagonal(log_q, slope)
    log_q = np.log(log_q)
    if exterior:
        c = np.fft.ifft2(log_q)  # c[k, l] multiplies z^-k zeta^-l
    else:
        star = np.log(value / z)
        log_q -= star[:, None] + star[None, :]
        c = np.fft.fft2(log_q) / size ** 2
    k = np.sqrt(np.arange(1, n + 1))
    return k[:, None] * c[1:n + 1, 1:n + 1] * k[None, :]


def grunsky_determinant_action(m, n=16, n_max=512):
    """S = -12 pi log det(I - B B*) = -12 pi sum_i log1p(-sigma_i^2), sigma_i
    the singular values of the Grunsky operator B of m (either map of the
    pair), at the first of n = 16, 32, ... whose value agrees with that at
    the half size to 1e-14 relative. An independent route to the action:
    no area integral, and for a series curve no map solve."""
    prev = None
    while n <= n_max:
        sigma = np.linalg.svd(_grunsky_operator(m, n), compute_uv=False)
        value = -12.0 * math.pi * math.fsum(np.log1p(-sigma ** 2))
        if prev is not None and abs(value - prev) <= 1e-14 * abs(value):
            return value
        prev, n = value, 2 * n
    raise DivergenceSuspected(f"Grunsky determinant still moving at n = "
                              f"{n // 2}: {prev!r}")


# -- sup|nu| of the flow's descent field on every ring ------------------------

def gradient_ring_maxima(g):
    """(max of |nu| on each of flow.RING_RADII's rings, max on the far-field
    ray) for the descent field of flow.gradient_field, with one ring FFT on
    every ring: the oracle for the rings gradient_field leaves out. The
    arithmetic is gradient_field's, so its sup is bit for bit the larger of
    the two."""
    samples = circle_samples(g, schwarzian_of)
    s = np.fft.fft(samples) / samples.size
    s[:4] = 0.0
    radii = flow.RING_RADII
    rings = np.fft.ifft(s * radii[:, None] ** np.arange(s.size), axis=1)
    ring = np.abs(rings * s.size) * ((radii ** -2 - 1.0) ** 2)[:, None]
    w = np.logspace(0.1, 4, 64) * np.exp(1j)
    far = np.abs(-np.conj(schwarzian(g, w)) * (np.abs(w) ** 2 - 1.0) ** 2)
    return ring.max(axis=1), far.max()


# -- reference curves and their equipotentials -------------------------------

def boundary_samples(curve, n=2048):
    """n points on ``curve``: a series curve at the n-th roots of unity, a
    polyline resampled linearly in its vertex index."""
    if curve.kind == "series":
        return ring_jet(curve.series, 1.0, n, upto=0)[0]
    pts = curve.points
    # resample by arclength-free parameter (vertex index), fine for
    # densely sampled inputs
    t = np.arange(pts.size + 1)
    closed = np.append(pts, pts[0])
    s = np.linspace(0, pts.size, n, endpoint=False)
    return np.interp(s, t, closed.real) + 1j * np.interp(s, t, closed.imag)


def circle_curve(radius=1.0, center=0.0):
    c = np.zeros(2, complex)
    c[0], c[1] = center, radius
    return CurveSpec.from_series(PowerSeriesMap(c))


def ellipse_curve(a=1.2, b=1.0, n=4096):
    tau = 2 * np.pi * np.arange(n) / n
    pts = a * np.cos(tau) + 1j * b * np.sin(tau)
    return CurveSpec.from_polyline(pts)


def polynomial_curve(*coeffs):
    """Curve traced by z + c2 z^2 + ... on the unit circle; coeffs start at z^2."""
    c = np.zeros(len(coeffs) + 2, complex)
    c[1] = 1.0
    c[2:] = coeffs
    return CurveSpec.from_series(PowerSeriesMap(c))


def balanced_curve(seed, stream):
    """The balanced starlike curve z + sum_k a_k z^k, k = 2..6, with
    k |a_k| = 0.2 / 5 and phases seeded by [seed, stream], built as
    bench/workloads.balanced builds it (stream 3 is the flow workload's)."""
    k = np.arange(2, 7)
    rng = np.random.default_rng([seed, stream])
    phases = np.exp(2j * np.pi * rng.random(k.size))
    coeffs = np.concatenate([[0.0, 1.0], phases * (0.2 / (k * k.size))])
    return CurveSpec.from_json({"series": [[c.real, c.imag] for c in coeffs]})


def curve_to_json(curve):
    """The curve JSON payload that CurveSpec.from_json reads back."""
    if curve.kind == "series":
        return {"series": [[c.real, c.imag] for c in curve.series.coeffs]}
    return {"points": [[p.real, p.imag] for p in curve.points]}


def equipotential(f, n):
    """Level-n approximating curve map: scale the domain by (n-1)/n and
    renormalize so the derivative at 0 is unchanged."""
    if n < 2:
        raise DomainError("equipotential level must be >= 2")
    k = np.arange(f.coeffs.size)
    factor = (n / (n - 1.0)) * ((n - 1.0) / n) ** k
    return PowerSeriesMap(f.coeffs * factor)


# -- the quaternion model of upper half-space --------------------------------
#
# Mobius transformations of the plane and their isometric action on
# upper half-space, via quaternion multiplication on Z + j*xi.

DET_TOL = 1e-12


@dataclass(frozen=True)
class MobiusTransform:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise DomainError("degenerate Mobius matrix")
        s = np.sqrt(complex(det))
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)) / s)
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise DomainError(f"could not normalize determinant: {det}")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t):
        return cls(1.0, t, 0.0, 1.0)

    @classmethod
    def scaling(cls, k):
        if k == 0:
            raise DomainError("zero scaling")
        s = np.sqrt(complex(k))
        return cls(s, 0.0, 0.0, 1.0 / s)

    def __call__(self, z):
        if z == math.inf or z == complex(math.inf, 0):
            return math.inf if self.c == 0 else self.a / self.c
        num = self.a * z + self.b
        den = self.c * z + self.d
        if den == 0:
            return math.inf
        return num / den

    def eval_array(self, z):
        z = np.asarray(z, dtype=complex)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def deriv(self, z):
        den = self.c * z + self.d
        if np.any(np.abs(den) == 0):
            raise SingularDerivative("evaluation at the pole")
        return 1.0 / den ** 2

    def deriv2(self, z):
        den = self.c * z + self.d
        return -2.0 * self.c / den ** 3

    def compose(self, other):
        """self after other (matrix product)."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


@dataclass(frozen=True)
class H3Point:
    """Upper half-space point (Z, xi), xi > 0."""

    z: complex
    xi: float

    def __post_init__(self):
        if not self.xi > 0:
            raise DomainError("height must be strictly positive")
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "xi", float(self.xi))


def h3_distance(p, q):
    """Hyperbolic distance in the upper half-space model."""
    num = abs(p.z - q.z) ** 2 + (p.xi - q.xi) ** 2
    return math.acosh(1.0 + num / (2.0 * p.xi * q.xi))


# Quaternions as (w, x, y, z); complex a+bi embeds as (a, b, 0, 0) and the
# vertical unit as (0, 0, 1, 0).

def _quat(c, j=0.0):
    return np.array([c.real, c.imag, j, 0.0])


def _quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_inv(q):
    n2 = float(np.dot(q, q))
    if n2 == 0:
        raise DomainError("inverting zero quaternion")
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    return conj / n2


def mobius_on_h3(mob, p):
    """Isometric extension of a Mobius map: P -> (aP+b)(cP+d)^{-1} on quaternions."""
    P = _quat(complex(p.z), p.xi)
    num = _quat_mul(_quat(complex(mob.a)), P) + _quat(complex(mob.b))
    den = _quat_mul(_quat(complex(mob.c)), P) + _quat(complex(mob.d))
    res = _quat_mul(num, _quat_inv(den))
    if abs(res[3]) > 1e-9 * max(1.0, float(np.max(np.abs(res)))):
        raise DomainError("quaternion action left the upper half-space slice")
    return H3Point(complex(res[0], res[1]), res[2])


def osculating_mobius(f, z0):
    """Unique Mobius map sharing the 2-jet (value, f', f'') of f at z0."""
    w0, w1, w2 = f.jet(z0, upto=2)
    w0, w1, w2 = complex(w0), complex(w1), complex(w2)
    if abs(w1) < 1e-14:
        raise SingularDerivative("f'(z0) too small for an osculating map")
    alpha = np.sqrt(w1)
    beta = -w2 / (2.0 * w1 * alpha)
    core = MobiusTransform(alpha, 0.0, beta, 1.0 / alpha)
    shift = MobiusTransform.translation(w0)
    recenter = MobiusTransform.translation(-z0)
    return shift.compose(core).compose(recenter)


# -- Epstein envelopes of a general conformal metric -------------------------

UNIT_TOL = 5e-12
IMMERSION_TOL = 1e-8  # |t - 1| that flags the immersion boundary


@dataclass(frozen=True)
class MetricJet:
    """log-density phi and its first z-bar derivative at a point."""

    phi: float
    phi_zbar: complex


@dataclass(frozen=True)
class EpsteinFrame:
    base: H3Point
    eta_h: complex      # horizontal component of the Euclidean unit normal
    eta_v: float        # vertical component
    source: complex     # boundary parameter point the frame sits over

    def __post_init__(self):
        n = abs(self.eta_h) ** 2 + self.eta_v ** 2
        if abs(n - 1.0) > UNIT_TOL:
            raise DomainError(f"normal is not unit: |eta|^2 = {n}")


@dataclass(frozen=True)
class CurvatureData:
    k_plus: float
    k_minus: float
    khat_plus: float
    khat_minus: float
    H: float
    schwarzian_norm: float
    mean_density: float
    immersion_boundary: bool = False


def epstein_point(jet, z):
    """Envelope frame of a general conformal metric from its 1-jet at z."""
    em = math.exp(-jet.phi / 2.0)
    if not em > 0:
        raise DomainError("metric density must be finite and positive")
    psi = jet.phi_zbar * em
    denom = 1.0 + abs(psi) ** 2
    xi = 2.0 * em / denom
    Z = z + xi * psi
    eta_h = 2.0 * psi / denom
    eta_v = (1.0 - abs(psi) ** 2) / denom
    return EpsteinFrame(H3Point(Z, xi), eta_h, eta_v, complex(z))


def poincare_jet(f, zeta):
    """1-jet of the hyperbolic metric of f(D) at z = f(zeta), pulled through f."""
    z0, d1, d2 = f.jet(zeta, upto=2)
    if abs(d1) < 1e-14:
        raise SingularDerivative("f' vanishes at the requested point")
    r2 = abs(zeta) ** 2
    if r2 >= 1.0:
        raise DomainError("poincare_jet needs |zeta| < 1")
    em = 0.5 * abs(d1) * (1.0 - r2)          # e^{-phi/2}
    phi = -2.0 * math.log(em)
    psi = (abs(d1) / np.conj(d1)) * (
        -np.conj(d2 / d1) * (1.0 - r2) / 2.0 + zeta)
    return MetricJet(phi, psi / em)


def epstein_poincare(fmap, zeta):
    """Envelope frame of the hyperbolic metric of the image domain.

    Accepts an interior series map (|zeta| < 1) or a Laurent exterior map
    (|zeta| > 1); the frame depends only on the 2-jet of the map at zeta.
    """
    if isinstance(fmap, LaurentMap):
        if abs(zeta) <= 1.0:
            raise DomainError("exterior frame needs |zeta| > 1")
    else:
        if abs(zeta) >= 1.0:
            raise DomainError("interior frame needs |zeta| < 1")
        d1 = fmap.jet(zeta, upto=1)[1]
        if abs(d1) < 1e-14:
            raise SingularDerivative("f' vanishes at the requested point")
    Z, xi, eh, ev = _frame_fields(fmap, zeta)
    return EpsteinFrame(H3Point(complex(Z), float(xi)),
                        complex(eh), float(ev), complex(zeta))


def geodesic_flow(point, eta_h, eta_v, time):
    """Unit-speed geodesic flow of a frame in upper half-space.

    Returns the transported (H3Point, eta_h, eta_v) after the given time
    along the direction eta.
    """
    xi = point.xi
    if abs(eta_h) < 1e-13:
        sign = 1.0 if eta_v >= 0 else -1.0
        return H3Point(point.z, xi * math.exp(sign * time)), eta_h, eta_v
    e_dir = eta_h / abs(eta_h)
    sigma0 = math.atanh(max(-1 + 1e-16, min(1 - 1e-16, -eta_v)))
    radius = xi * math.cosh(sigma0)
    center = point.z - radius * math.tanh(sigma0) * e_dir
    sigma = sigma0 + time
    z_new = center + radius * math.tanh(sigma) * e_dir
    xi_new = radius / math.cosh(sigma)
    eta_h_new = e_dir / math.cosh(sigma)
    eta_v_new = -math.tanh(sigma)
    return H3Point(z_new, xi_new), eta_h_new, eta_v_new


def geodesic_shift(frame, t):
    """Frame of the metric scaled by e^{2t}: flow time -t along the normal."""
    base, eh, ev = geodesic_flow(frame.base, frame.eta_h, frame.eta_v, -t)
    return EpsteinFrame(base, eh, ev, frame.source)


def curvatures(f, zeta):
    """Principal curvatures, curvatures at infinity, mean curvature and the
    mean-curvature density of the interior-side surface at parameter zeta."""
    zeta_c = complex(zeta)
    if abs(zeta_c) >= 1.0:
        raise DomainError("curvatures expects |zeta| < 1")
    t, k_p, k_m, H, dens = curvature_columns(f, [zeta_c])[0].tolist()
    return CurvatureData(k_p, k_m, 1.0 + 2.0 * t, 1.0 - 2.0 * t, H, t, dens,
                         immersion_boundary=abs(t - 1.0) < IMMERSION_TOL)


# -- OBJ reader --------------------------------------------------------------

def load_obj(path):
    """Read back vertices, normals and faces written by
    ArtifactWriter.write_obj."""
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
