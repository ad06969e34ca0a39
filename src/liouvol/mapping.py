"""Numerical conformal maps onto curve interiors/exteriors.

The interior solver runs the classical boundary-correspondence iteration
for star-shaped curves: with the map written as z*exp(h(z)), the boundary
angle function theta(phi) satisfies theta - phi = conj[log rho(theta)],
where conj is FFT-based harmonic conjugation. The exterior map is obtained
by solving the interior problem of the inverted curve and composing with
w -> 1/w, which keeps infinity fixed and the leading coefficient positive.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .curves import CurveSpec
from .errors import CorrespondenceError, DomainError, NonConvergence
from .series import LaurentMap, PowerSeriesMap

logger = logging.getLogger(__name__)

MAX_ITER = 500
MAX_ORDER = 2048
FIT_TOL = 1e-10
TAIL_TARGET = 1e-12
RECENTER_TAIL = 1e-16   # relative coefficient floor of a recentered map


def conjugate_periodic(u):
    """Harmonic conjugate on the circle: e^{ik phi} -> -i sign(k) e^{ik phi}."""
    n = u.size
    spec = np.fft.fft(u)
    k = np.fft.fftfreq(n, d=1.0 / n)
    spec *= -1j * np.sign(k)
    return np.real(np.fft.ifft(spec))


def _solve_correspondence(rho, n, tol=1e-13, max_iter=MAX_ITER):
    """Fixed point of theta = phi + conj[log rho(theta)] on an n-point grid."""
    phi = 2 * np.pi * np.arange(n) / n
    theta = phi.copy()
    relax = 1.0
    prev_delta = np.inf
    for it in range(1, max_iter + 1):
        target = phi + conjugate_periodic(np.log(rho(theta)))
        delta = float(np.max(np.abs(target - theta)))
        theta = theta + relax * (target - theta)
        if delta < tol:
            return theta, it, delta
        if delta > prev_delta and relax > 0.25:
            relax *= 0.5  # damp oscillation for fatter curves
        prev_delta = delta
    raise NonConvergence(max_iter, prev_delta,
                         "boundary correspondence did not converge")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    correspondence_residual: float
    negative_energy: float      # spurious Fourier mass (series residual)
    boundary_mismatch: float    # max distance of map boundary to the curve


def _series_from_boundary(boundary_vals, order):
    """Power coefficients from uniform boundary samples; returns the
    truncated series and the l_inf mass on negative frequencies."""
    n = boundary_vals.size
    spec = np.fft.fft(boundary_vals) / n
    neg = float(np.max(np.abs(spec[n // 2:][::-1][: n // 4])))
    coeffs = spec[: order + 1].copy()
    return coeffs, neg


def _boundary_mismatch_polar(samples, anchor, rho):
    rel = samples - anchor
    return float(np.max(np.abs(np.abs(rel) - rho(np.angle(rel)))))


def interior_map(curve, order=128, tol=FIT_TOL, n_grid=None, auto_refine=True):
    """Conformal map of the unit disk onto the inside of ``curve``.

    Normalization: f(anchor preimage) -- i.e. f(0) -- is the curve anchor,
    and f'(0) > 0. Returns (PowerSeriesMap, SolveDiagnostics).
    """
    if curve.kind == "series":
        f = curve.series
        diag = SolveDiagnostics(0, 0.0, 0.0, 0.0)
        return f, diag
    return _interior_from_polar(curve.polar(), curve.anchor(), order, tol,
                                n_grid, auto_refine)


def _interior_from_polar(rho, anchor, order, tol, n_grid=None,
                         auto_refine=True):
    order = int(order)
    while True:
        n = n_grid or max(1024, 8 * order)
        theta, iters, corr = _solve_correspondence(rho, n)
        boundary = rho(theta) * np.exp(1j * theta)
        coeffs, neg = _series_from_boundary(boundary, order)
        f0 = coeffs[0]
        coeffs[0] = 0.0
        # rotate so the linear coefficient is positive real
        alpha = np.angle(coeffs[1])
        k = np.arange(coeffs.size)
        coeffs = coeffs * np.exp(-1j * k * alpha)
        coeffs[1] = abs(coeffs[1])
        hint = _decay_radius(coeffs)
        f = PowerSeriesMap(coeffs + 0j, hint)
        tail = f.tail_profile()
        scale = float(np.max(np.abs(coeffs)))
        if not auto_refine or order >= MAX_ORDER \
                or tail <= TAIL_TARGET * max(1.0, scale):
            break
        order = min(MAX_ORDER, order * 2)
        logger.debug("interior solve: doubling order to %d (tail %.2e)",
                     order, tail)
    f = PowerSeriesMap(f.coeffs + np.concatenate([[anchor], np.zeros(f.order, complex)]),
                       f.hint_radius)
    probe = f.eval_unchecked(np.exp(2j * np.pi * np.arange(4096) / 4096))
    mismatch = _boundary_mismatch_polar(probe, anchor, rho)
    mismatch = max(mismatch, abs(f0), neg)
    if mismatch > max(tol, 50 * corr):
        raise NonConvergence(iters, mismatch, "interior fit residual too large")
    return f, SolveDiagnostics(iters, corr, 0.0, mismatch)


def _decay_radius(coeffs):
    mags = np.abs(coeffs)
    idx = np.nonzero(mags > 1e-14 * max(1.0, mags.max()))[0]
    if idx.size < 4:
        return 8.0
    k0, k1 = idx[max(1, idx.size // 2)], idx[-1]
    if k1 <= k0 or mags[k1] >= mags[k0]:
        return 1.0 + 1e-6
    q = (mags[k1] / mags[k0]) ** (1.0 / (k1 - k0))
    return float(max(1.0 + 1e-6, min(8.0, 1.0 / q)))


def exterior_map(curve, order=128, tol=FIT_TOL, n_grid=None):
    """Conformal map of |w| > 1 onto the outside of ``curve``.

    Normalization: g(inf) = inf with g'(inf) real positive. Solved through
    the interior problem of the inverted curve. Returns
    (LaurentMap, SolveDiagnostics).
    """
    anchor = curve.anchor()
    rho = curve.polar()

    def rho_inv(chi):
        return 1.0 / rho(-np.asarray(chi, float))

    order = int(order)
    while True:
        n = n_grid or max(1024, 8 * order)
        theta, iters, corr = _solve_correspondence(rho_inv, n)
        boundary_inv = rho_inv(theta) * np.exp(1j * theta)
        # g(e^{i phi}) = 1 / G(e^{-i phi}): reverse the sample order
        boundary = 1.0 / boundary_inv[::-1]
        boundary = np.roll(boundary, 1)  # keep sample 0 at phi = 0
        spec = np.fft.fft(boundary) / n
        b1, b0 = spec[1], spec[0]
        bneg = spec[-1: -(order + 1): -1].copy()
        junk = float(np.max(np.abs(spec[2: n // 4])))
        g = LaurentMap(b1, b0 + anchor, bneg)
        g = g.rotated(np.angle(g.b1))
        g = LaurentMap(abs(g.b1), g.b0, g.bneg)
        tail = float(np.max(np.abs(g.bneg[3 * g.bneg.size // 4:])))
        scale = float(max(abs(g.b1), np.max(np.abs(g.bneg)) if g.bneg.size else 0.0))
        if tail <= TAIL_TARGET * max(1.0, scale) or order >= MAX_ORDER:
            break
        order = min(MAX_ORDER, order * 2)
        logger.debug("exterior solve: doubling order to %d (tail %.2e)",
                     order, tail)
    probe = g(np.exp(2j * np.pi * np.arange(4096) / 4096))
    mismatch = _boundary_mismatch_polar(probe, anchor, rho)
    mismatch = max(mismatch, junk)
    if mismatch > max(tol, 50 * corr):
        raise NonConvergence(iters, mismatch, "exterior fit residual too large")
    return g, SolveDiagnostics(iters, corr, junk, mismatch)


def conformal_map_pair(curve, order=128, tol=FIT_TOL):
    """Interior and exterior maps of the same curve."""
    f, _ = interior_map(curve, order=order, tol=tol)
    g, _ = exterior_map(curve, order=order, tol=tol)
    return f, g


def recenter_interior(f, tol=1e-3, max_iter=60):
    """Reparametrize the disk so |f'(0)| is maximal (the hyperbolic center
    of the parametrization). Removes the sampling distortion a far-off
    anchor point introduces; the image curve is unchanged to the precision
    of the series (its coefficients are kept down to 1e-16 relative, and
    never fewer than f's).

    Returns f itself when the anchor is already within ``tol`` of optimal.
    """
    s = 0.0 + 0.0j
    for _ in range(max_iter):
        _, d1, d2 = f.jet(s, upto=2)
        step = np.conj(d2 / d1) * (1.0 - abs(s) ** 2) / 2.0
        s_new = s + 0.5 * (step - s)
        if abs(s_new) > 0.95:
            s_new *= 0.95 / abs(s_new)
        if abs(s_new - s) < 1e-14:
            s = s_new
            break
        s = s_new
    if abs(s) < tol:
        return f
    n = max(1024, 8 * (f.order + 1))
    theta = np.exp(2j * np.pi * np.arange(n) / n)
    boundary = f.eval_unchecked((theta + s) / (1.0 + np.conj(s) * theta))
    spec = np.fft.fft(boundary) / n
    # f composed with a disk automorphism is an infinite series: keep every
    # coefficient above the relative tail floor
    mags = np.abs(spec[: n // 2])
    above = np.flatnonzero(mags > RECENTER_TAIL * mags.max())
    coeffs = spec[: max(f.order, int(above[-1])) + 1].copy()
    alpha = np.angle(coeffs[1])
    k = np.arange(coeffs.size)
    coeffs = coeffs * np.exp(-1j * k * alpha)
    coeffs[1] = abs(coeffs[1])
    return PowerSeriesMap(coeffs, _decay_radius(coeffs))


def welding(f, g, theta, tol=1e-8):
    """Boundary correspondence angle arg(g^{-1}(f(e^{i theta}))).

    Accepts a scalar or an array of angles; the returned angles are
    unwrapped to be increasing along with theta.
    """
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    targets = f.eval_unchecked(np.exp(1j * theta_arr))
    anchor = complex(f.coeffs[0])

    n = 4096
    grid = 2 * np.pi * np.arange(n) / n
    gb = g(np.exp(1j * grid))
    ang = np.unwrap(np.angle(gb - anchor))
    if ang[-1] < ang[0]:
        raise DomainError("exterior boundary runs clockwise")
    ang_ext = np.concatenate([ang, [ang[0] + 2 * np.pi]])
    grid_ext = np.concatenate([grid, [2 * np.pi]])

    t_ang = np.angle(targets - anchor)
    t_ang = np.mod(t_ang - ang_ext[0], 2 * np.pi) + ang_ext[0]
    phi = np.interp(t_ang, ang_ext, grid_ext)

    # Newton refinement of the squared distance |g(e^{i phi}) - target|^2
    for _ in range(60):
        e = np.exp(1j * phi)
        gv, g1, g2 = g.jet(e, upto=2)
        diff = gv - targets
        de = 1j * e
        d1 = g1 * de                       # d g / d phi
        d2 = g2 * de * de + g1 * (1j * de)  # second derivative in phi
        grad = 2 * np.real(np.conj(diff) * d1)
        hess = 2 * np.real(np.conj(d1) * d1 + np.conj(diff) * d2)
        hess = np.where(np.abs(hess) < 1e-14, 1e-14, hess)
        step = grad / hess
        phi = phi - step
        if np.max(np.abs(step)) < 1e-14:
            break

    dist = np.abs(g(np.exp(1j * phi)) - targets)
    if np.max(dist) > tol:
        raise CorrespondenceError(
            f"welding mismatch {np.max(dist):.3e} exceeds {tol:.1e}")

    phi = np.mod(phi, 2 * np.pi)
    if theta_arr.size > 1:
        phi = np.unwrap(phi)
        phi += np.round((theta_arr[0] - phi[0]) / (2 * np.pi)) * 2 * np.pi
    out = phi if np.ndim(theta) else float(phi[0])
    return out
