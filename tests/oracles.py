"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths it is used to check:
Monte-Carlo integration instead of the product quadrature, coefficient
recurrences instead of grid evaluation, finite differences of the raw
embedding instead of the closed-form curvature formulas.
"""

import math

import numpy as np


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

    ``frame_fields(zeta)`` must return (Z, xi, eta_h, eta_v, ...) arrays; the
    derivative of the embedding and of the normal field are differenced,
    the ambient covariant derivative is corrected by the Christoffel terms
    of the hyperbolic metric, and the shape operator is I^{-1} II.
    Returns (k_low, k_high, H, area_form) where area_form is the
    hyperbolic area density with respect to the parametrization.
    """
    zeta = np.asarray(param_points, dtype=complex)

    def embed(z):
        Z, xi, eh, ev = frame_fields(z)[:4]
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


# -- the area Cauchy transform on the exterior grid ----------------------------

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


def grid_displacement(curve, g, nu, grid):
    """(z, F(z)) at grid.angular_n points z of ``curve``, F the grid
    transform of any Beltrami field nu on the exterior of g: a boundary
    velocity for beltrami_step's ``precomputed``."""
    z = curve.boundary(grid.angular_n)
    return z, grid_transform(g, nu, z, grid)


def variation_check(f, g, nu, dt, grid=None, deform_opts=None):
    """Centered difference of V_R along the Beltrami deformation nu against
    the boundary-integral formula Re int nu S(g), integrated over ``grid``
    (by default sized to g's order). The curve moves by grid_displacement
    on the grid sized to g's order.

    Returns {"lhs": finite difference, "rhs": formula value}.
    """
    from liouvol.curves import CurveSpec
    from liouvol.flow import beltrami_step
    from liouvol.mapping import conformal_map_pair
    from liouvol.quadrature import QuadratureGrid
    from liouvol.series import ring_jet, schwarzian
    from liouvol.volume import renormalized_volume

    sized = QuadratureGrid.for_order(g.order)
    grid = grid or sized
    deform_opts = deform_opts or {}

    ext = grid.exterior()
    rhs = float(np.real(ext.integrate(nu(ext.nodes)
                                      * schwarzian(g, ext.nodes))))

    base = CurveSpec.from_polyline(ring_jet(f, 1.0, 1024, upto=0)[0],
                                   check=False)
    velocity = grid_displacement(base, g, nu, sized)

    def v_r_at(t):
        moved = beltrami_step(base, nu, t, precomputed=velocity,
                              **deform_opts)
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


# -- the ray volume's level, every straddling panel cut at all its samples ----

def ray_level_eleven_pieces(sheet, eps):
    """One ray sheet's level, the integral of q / (2 max(xi, eps)^2), by the
    rule that cut a straddling panel at every sample: its two ends and nine
    Gauss nodes delimit eleven pieces, the right end of each bracketing pair
    of samples moved to the crossing inside it. Other panels take their
    Gauss sums, each piece mapped Gauss nodes on the interpolants of xi and
    q (by Clenshaw), and every node's term is summed exactly."""
    from numpy.polynomial import legendre

    from liouvol.volume import GAUSS_NODES, _SAMPLE_X, _W, _X, _crossings

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
