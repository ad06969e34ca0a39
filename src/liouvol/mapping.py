"""Numerical conformal maps onto curve interiors/exteriors.

One rule: every map is solved and certified about the curve's anchor,
which is added last. Every correspondence problem, fit, certificate and
argument inversion works on the curve minus its anchor (f(0), or a
polyline's centroid); interior_map and exterior_map add curve.anchor()
once, after the solve, so a curve far from the origin loses no digits.

The solver runs Theodorsen's boundary-correspondence iteration for
star-shaped curves: with the map z exp(h(z)) inside, or w exp(H(w))
outside, the boundary angle theta(phi) satisfies
theta = phi +- conj[log rho(theta)] (+ inside), rho the polar radius and
conj FFT-based harmonic conjugation. A polyline is solved on its polar
radius on both sides (_Polar), a series curve's exterior on the welding
of f - f(0) (_Welding): g(e^{i psi}) = f(e^{i t(psi)}), by one jet and one
Newton step per iteration, so its polar radius is never built. One loop
(_solve_polar) runs the iteration, order doubling and the certification;
each problem supplies its iteration and its distance to the curve, each
side its fit.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CorrespondenceError, DomainError, NonConvergence
from .series import LaurentMap, PowerSeriesMap, ring_jet

logger = logging.getLogger(__name__)

MAX_ITER = 500
CORRESPONDENCE_TOL = 1e-13  # sup change of theta that ends the iteration
START_ORDER = 128  # first order of every solve; _solve_polar doubles it
MAX_ORDER = 2048
FIT_TOL = 1e-10
TAIL_TARGET = 1e-12
RECENTER_TAIL = 1e-16   # relative coefficient floor of a recentered map
RECENTER_TOL = 1e-3     # |center| below which recentering is skipped
RECENTER_ITER = 60


def conjugate_periodic(u):
    """Harmonic conjugate on the circle: e^{ik phi} -> -i sign(k) e^{ik phi}."""
    n = u.size
    spec = np.fft.fft(u)
    k = np.fft.fftfreq(n, d=1.0 / n)
    spec *= -1j * np.sign(k)
    return np.real(np.fft.ifft(spec))


def _solve_correspondence(problem, n, start=None):
    """Iterate theta <- theta + relax * change on an n-point grid phi, with
    (change, error) = problem.step(theta, phi), from ``start`` (by default
    problem.start(phi)) until the sup of the error is below
    CORRESPONDENCE_TOL. relax halves, down to 1/4, whenever the error
    grows."""
    phi = 2 * np.pi * np.arange(n) / n
    theta = problem.start(phi) if start is None else start
    relax = 1.0
    prev_delta = np.inf
    for it in range(1, MAX_ITER + 1):
        change, error = problem.step(theta, phi)
        delta = float(np.max(np.abs(error)))
        theta = theta + relax * change
        if delta < CORRESPONDENCE_TOL:
            return theta, it, delta
        if delta > prev_delta and relax > 0.25:
            relax *= 0.5  # damp oscillation for fatter curves
        prev_delta = delta
    raise NonConvergence("boundary correspondence did not converge")


class _Polar:
    """Theodorsen's fixed point theta = phi + sign conj[log rho(theta)] of a
    curve with polar radius rho about 0, from theta = phi: sign +1 for the
    interior map, -1 for the exterior map. Its boundary samples at phi are
    rho(theta) e^{i theta}."""

    def __init__(self, rho, sign):
        self.rho, self.sign = rho, sign

    def start(self, phi):
        return phi.copy()

    def step(self, theta, phi):
        conj = conjugate_periodic(np.log(self.rho(theta)))
        change = phi + self.sign * conj - theta
        return change, change

    def boundary(self, theta):
        return self.rho(theta) * np.exp(1j * theta)

    def distance(self, fmap, theta):
        """Largest distance of fmap's boundary from the curve, measured
        radially at 4096 uniform angles."""
        rel = ring_jet(fmap, 1.0, 4096, upto=0)[0]
        return float(np.max(np.abs(np.abs(rel) - self.rho(np.angle(rel)))))


class _Welding:
    """The welding t(psi) of a series curve f with f(0) = 0, with
    g(e^{i psi}) = f(e^{i t(psi)}) on the exterior map g: it solves
    X(t) = psi - conj[R(t)], where f(e^{it}) = e^{R + iX}. This is the
    exterior equation theta = psi - conj[log rho(theta)] of _Polar read in
    f's parameter, so the curve's polar radius is never inverted. Each step
    takes one jet of f at e^{it} and one Newton step of X(t) = target at
    every point; the error is target - X(t). The start is the lookup guess
    of arg f = psi; when that guess is psi itself to rounding (a circle
    about 0), the start is the uniform grid, and its jet a ring FFT. Its
    boundary samples at psi are g(e^{i psi})."""

    def __init__(self, f):
        self.f = f
        self.last = None

    def start(self, psi):
        # unwrapped, with t(0) near 0, so that t - psi is periodic: a
        # doubled grid's warm start resamples it
        t = np.unwrap(_argument_guess(self.f)(psi)[0])
        t -= 2 * np.pi * np.round(t[0] / (2 * np.pi))
        return psi.copy() if np.max(np.abs(t - psi)) <= 1e-12 else t

    def step(self, t, psi):
        e = np.exp(1j * t)
        w, d1 = (ring_jet(self.f, 1.0, t.size, upto=1)
                 if np.array_equal(t, psi) else self.f.jet(e, upto=1))
        ratio = _argument_ratio(e, w, d1)
        target = psi - conjugate_periodic(np.log(np.abs(w)))
        error = -np.angle(w * np.exp(-1j * target))
        self.last = t, w, ratio
        return error / ratio.real, error

    def boundary(self, t):
        # the last step's values, carried to t to first order: the step is
        # below the iteration's tolerance, so the rest is below rounding
        t_last, w, ratio = self.last
        return w * (1 + 1j * ratio * (t - t_last))

    def distance(self, g, t):
        """max |g(e^{i psi}) - f(e^{i t(psi)})| over P = 4096 ceil(n/4096)
        uniform psi, with the welding t of n points resampled to them.
        f(e^{it}) is on the curve for every real t, so this bounds g's
        distance from the curve however inaccurate t is."""
        p = 4096 * -(-t.size // 4096)
        t = t if p == t.size else _resample(t, p)
        return float(np.max(np.abs(ring_jet(g, 1.0, p, upto=0)[0]
                                    - self.f.eval_unchecked(np.exp(1j * t)))))


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    correspondence_residual: float
    negative_energy: float      # spurious Fourier mass (series residual)
    boundary_mismatch: float    # max distance of map boundary to the curve


def interior_map(curve, order=START_ORDER, tol=FIT_TOL, auto_refine=True):
    """Conformal map of the unit disk onto the inside of ``curve``.

    Normalization: f(0) is the curve anchor, added after the solve, and
    f'(0) > 0. Returns (PowerSeriesMap, SolveDiagnostics).
    """
    if curve.kind == "series":
        return curve.series, SolveDiagnostics(0, 0.0, 0.0, 0.0)
    f, diag = _interior_from_polar(curve.polar(), order, tol, auto_refine)
    return _with_constant(f, curve.anchor()), diag


def _with_constant(f, c):
    """The series f with its constant term replaced by c."""
    return PowerSeriesMap(np.r_[c, f.coeffs[1:]])


def _interior_from_polar(rho, order, tol, auto_refine=True):
    def fit(boundary, order):
        # z exp(h(z)) fixes 0: the constant and negative frequencies of
        # its boundary samples are spurious
        n = boundary.size
        spec = np.fft.fft(boundary) / n
        spurious = float(max(abs(spec[0]),
                             np.max(np.abs(spec[n // 2:][::-1][: n // 4]))))
        coeffs = spec[: order + 1].copy()
        coeffs[0] = 0.0
        # rotate so the linear coefficient is positive real
        alpha = np.angle(coeffs[1])
        coeffs = coeffs * np.exp(-1j * np.arange(coeffs.size) * alpha)
        coeffs[1] = abs(coeffs[1])
        tail = float(np.max(np.abs(coeffs[3 * coeffs.size // 4:])))
        scale = float(np.max(np.abs(coeffs)))
        return PowerSeriesMap(coeffs), spurious, tail, scale

    return _solve_polar(_Polar(rho, 1.0), order, tol, fit, "interior",
                        auto_refine)


def exterior_map(curve):
    """Conformal map of |w| > 1 onto the outside of ``curve``.

    Normalization: g(inf) = inf with g'(inf) real positive. A series curve
    is solved on the welding of f - f(0), a polyline on its polar radius
    about its anchor; g minus the anchor is certified at FIT_TOL, and the
    anchor is added to b0 last. Returns (LaurentMap, SolveDiagnostics).
    """
    if curve.kind == "series":
        problem = _Welding(_with_constant(curve.series, 0.0))
    else:
        problem = _Polar(curve.polar(), -1.0)
    g, diag = _solve_polar(problem, START_ORDER, FIT_TOL, _fit_exterior,
                           "exterior")
    return LaurentMap(g.b1, g.b0 + curve.anchor(), g.bneg), diag


def _fit_exterior(samples, order):
    """The LaurentMap of order ``order`` from samples of g at the n uniform
    angles, rotated so g'(inf) > 0, with its spurious mass (the largest
    positive frequency above 1), tail and scale."""
    n = samples.size
    spec = np.fft.fft(samples) / n
    spurious = float(np.max(np.abs(spec[2: n // 4])))
    g = LaurentMap(spec[1], spec[0], spec[-1: -(order + 1): -1].copy())
    g = g.rotated(np.angle(g.b1))
    g = LaurentMap(abs(g.b1), g.b0, g.bneg)
    tail = float(np.max(np.abs(g.bneg[3 * g.bneg.size // 4:])))
    scale = float(max(abs(g.b1), np.max(np.abs(g.bneg))))
    return g, spurious, tail, scale


def _resample(theta, n):
    """theta on a finer n-point grid: its periodic part theta - phi
    interpolated by zero-padding its spectrum, the Nyquist term split."""
    m = theta.size
    spec = np.fft.rfft(theta - 2 * np.pi * np.arange(m) / m)
    spec[-1] *= 0.5
    return (np.fft.irfft(spec, n) * (n / m)
            + 2 * np.pi * np.arange(n) / n)


def _solve_polar(problem, order, tol, fit, side, auto_refine=True):
    """(map, SolveDiagnostics) of one side of a curve about 0.
    _solve_correspondence solves ``problem`` (a _Polar or a _Welding), and
    ``fit(problem.boundary(theta), order)`` turns its boundary samples into
    (map, largest Fourier coefficient the map cannot carry, tail, scale);
    the order doubles while tail > TAIL_TARGET * max(1, scale). The map's
    distance to the curve, ``problem.distance(map, theta)``, raised to that
    spurious mass, must stay within max(tol, 50 * correspondence residual)
    times max(1, scale): tol is a distance on a curve of unit size.
    A doubled order on a finer grid starts its iteration from the previous
    solution; on the same grid it keeps it."""
    order, theta = int(order), None
    while True:
        n = max(1024, 8 * order)
        if theta is None or theta.size != n:
            start = None if theta is None else _resample(theta, n)
            theta, iters, corr = _solve_correspondence(problem, n, start)
        fmap, spurious, tail, scale = fit(problem.boundary(theta), order)
        if not auto_refine or order >= MAX_ORDER \
                or tail <= TAIL_TARGET * max(1.0, scale):
            break
        order = min(MAX_ORDER, order * 2)
        logger.debug("%s solve: doubling order to %d (tail %.2e)",
                     side, order, tail)
    distance = max(problem.distance(fmap, theta), spurious)
    if distance > max(tol, 50 * corr) * max(1.0, scale):
        raise NonConvergence(f"{side} fit residual too large")
    return fmap, SolveDiagnostics(iters, corr, spurious, distance)


def conformal_map_pair(curve):
    """Interior and exterior maps of the same curve, from START_ORDER."""
    f, _ = interior_map(curve)
    g, _ = exterior_map(curve)
    return f, g


def recenter_interior(f):
    """Reparametrize the disk so |f'(0)| is maximal (the hyperbolic center
    of the parametrization). Removes the sampling distortion a far-off
    anchor point introduces; the image curve is unchanged to the precision
    of the series (its coefficients are kept down to 1e-16 relative, and
    never fewer than f's).

    Returns f itself when the anchor is already within RECENTER_TOL of
    optimal.
    """
    s = 0.0 + 0.0j
    for _ in range(RECENTER_ITER):
        _, d1, d2 = f.jet(s, upto=2)
        step = np.conj(d2 / d1) * (1.0 - abs(s) ** 2) / 2.0
        s_new = s + 0.5 * (step - s)
        if abs(s_new) > 0.95:
            s_new *= 0.95 / abs(s_new)
        if abs(s_new - s) < 1e-14:
            s = s_new
            break
        s = s_new
    if abs(s) < RECENTER_TOL:
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
    return PowerSeriesMap(coeffs)


def welding(f, g, theta):
    """Boundary correspondence angle arg(g^{-1}(f(e^{i theta}))): the angle
    at which g's boundary has the argument of f(e^{i theta}) about f(0).
    Both maps are taken minus f(0) before either is evaluated.

    Accepts a scalar or an array of angles; the returned angles are
    unwrapped to be increasing along with theta. Raises
    CorrespondenceError when g(e^{i phi}) misses f(e^{i theta}) by more
    than 1e-8.
    """
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    anchor = complex(f.coeffs[0])
    f = _with_constant(f, 0.0)
    g = LaurentMap(g.b1, g.b0 - anchor, g.bneg)
    targets = f.eval_unchecked(np.exp(1j * theta_arr))
    phi = _argument_inverse(g)(np.angle(targets))

    dist = np.abs(g(np.exp(1j * phi)) - targets)
    if np.max(dist) > 1e-8:
        raise CorrespondenceError(
            f"welding mismatch {np.max(dist):.3e} exceeds 1.0e-08")

    phi = np.mod(phi, 2 * np.pi)
    if theta_arr.size > 1:
        phi = np.unwrap(phi)
        phi += np.round((theta_arr[0] - phi[0]) / (2 * np.pi)) * 2 * np.pi
    out = phi if np.ndim(theta) else float(phi[0])
    return out


def _argument_guess(m):
    """chi -> (theta, chi') with arg m(e^{i theta}) close to chi, for a
    series or a Laurent map m whose boundary winds counterclockwise about 0:
    a linear lookup in a table of one ring FFT at 4096 angles. chi' is chi
    shifted by a multiple of 2 pi into the table's range, so that theta
    lies in [0, 2 pi]."""
    n = 4096
    grid = 2 * np.pi * np.arange(n) / n
    ang = np.unwrap(np.angle(ring_jet(m, 1.0, n, upto=0)[0]))
    if ang[-1] < ang[0]:
        raise DomainError("map boundary runs clockwise")
    # monotone lookup table
    ang_ext = np.concatenate([ang, [ang[0] + 2 * np.pi]])
    grid_ext = np.concatenate([grid, [2 * np.pi]])

    def guess(chi):
        chi = np.asarray(chi, float)
        target = np.mod(chi - ang_ext[0], 2 * np.pi) + ang_ext[0]
        return np.interp(target, ang_ext, grid_ext), target
    return guess


def _argument_ratio(e, w, d1):
    """e m'(e) / w for w = m(e) at e = e^{i theta}. Its real part is
    d arg m/d theta, which must be positive: a map whose boundary is star
    shaped about 0."""
    ratio = e * d1 / w
    if np.any(ratio.real <= 0):
        raise DomainError("map boundary is not star shaped about its anchor")
    return ratio


def _argument_inverse(m):
    """chi -> theta solving arg m(e^{i theta}) = chi by Newton, vectorized
    over chi, from the lookup of _argument_guess, which is built once and
    shared by every inversion; each Newton step takes m and m' from one
    Horner pass."""
    guess = _argument_guess(m)

    def invert(chi):
        theta, target = guess(chi)
        for _ in range(40):
            e = np.exp(1j * theta)
            w, d1 = m.jet(e, upto=1)
            step = (np.angle(w * np.exp(-1j * target))
                    / _argument_ratio(e, w, d1).real)
            theta = theta - step
            if np.max(np.abs(step)) < 1e-14:
                break
        return theta
    return invert
