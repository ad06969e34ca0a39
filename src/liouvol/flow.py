"""Gradient descent of the Liouville action in the Weil-Petersson metric.

The descent direction at a curve with exterior map g is the harmonic
Beltrami field nu = -4 conj(S(g)) / rho on |w| > 1 (rho the hyperbolic
density), whose sup norm is at most 6 for univalent g. One step moves the
curve to first order along the field transported to the image domain,
solving d-bar F = nu_* by a Cauchy transform, then refits the moved
boundary to an interior series. Steps are accepted only when the action
decreases, so discretization error cannot fake convergence. The step keeps
no memory: each starts at min(cap, NEWTON_STEP) and halves on rejection.
The state is the map pair (f, g) alone: the roundness is read from g.

The field is carried by the coefficients s_k of S(g) = sum s_k w^-k from
one FFT of circle samples: its norms are coefficient sums and ring FFTs,
and its Cauchy transform (displacement_field, the only one in the
library) is a contour integral over the curve (Stokes on the explicit
d-bar primitive of nu), so the flow needs no area grid. Such harmonic
fields span the Weil-Petersson tangent space; a step along any other
field takes its boundary velocity from the caller (beltrami_step's
``precomputed``). The contour sum reduces with einsum rather than a BLAS
product: a threaded gemv would wake a thread pool that spins between
steps and would make the summation order depend on the core count.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .action import liouville_action
from .curves import CurveSpec
from .errors import (DeformationError, DomainError, NonConvergence,
                     RefitError, Stalled)
from .mapping import conformal_map_pair, interior_map
from .quadrature import angular_count
from .series import (LaurentMap, PowerSeriesMap, circle_samples,
                     coefficient_sum, ring_jet, ring_values, schwarzian,
                     schwarzian_of)

logger = logging.getLogger(__name__)

REFIT_TOL = 1e-6   # boundary residual a refit series must certify
REFIT_ORDER = 128  # a refit of n boundary points has order min(this, n // 3)
# |1/w| of the rings on which sup|nu| is sampled, graded toward |w| = 1
RING_RADII = 1.0 - 0.5 ** np.arange(0.125, 12.0001, 0.125)
STEP_CAP = 0.02        # largest t * sup|nu| a flow step tries
# S is a Kahler potential of the WP metric, so near the circle S is about
# |nu|_WP^2 / 4 and S(t) about S (1 - 2t)^2 along a step: 1/2 is Newton's step
NEWTON_STEP = 0.5
T_MIN = 1e-8           # step size below which the flow has stalled
ACTION_FLOOR = 1e-9    # action at which the flow has converged
CONTOUR_CHUNK = 256    # rows per block of the contour sum


@dataclass(frozen=True)
class BeltramiField:
    """The descent field nu = -conj(S(g)) (|w|^2 - 1)^2 on |w| > 1 of an
    exterior map g, by the coefficients of S(g), with its norms."""

    exterior: LaurentMap
    coeffs: np.ndarray  # s_k of S(exterior) = sum_{k>=4} s_k w^-k
    sup_norm: float
    wp_norm_sq: float


@dataclass(frozen=True)
class FlowState:
    action: float
    grad_wp_norm_sq: float
    step_size: float
    roundness: float
    f: PowerSeriesMap   # the step's map pair: the given one at step 0
    g: LaurentMap


@functools.lru_cache(maxsize=4)
def _ring_powers(n):
    """RING_RADII[:, None] ** k for k < n, built once per sample count."""
    table = RING_RADII[:, None] ** np.arange(n)
    table.flags.writeable = False
    return table


def gradient_field(g):
    """Negative Weil-Petersson gradient direction for the exterior map g.

    One sampling of S(g) on the circle gives its coefficients s_k (kept as
    ``coeffs``), the squared WP norm 4 int |S|^2 (|w|^2 - 1)^2 as a
    coefficient sum, and sup|nu| as the larger of ring FFT samples and a
    far-field probe along a ray. A ring's samples lie between their RMS
    W (sum |s_k|^2 r^2k)^(1/2) (Parseval) and W sum |s_k| r^k, with W the
    ring's weight (|w|^2 - 1)^2, so only the rings whose upper bound reaches
    the largest lower bound or the probe are transformed: the sup is that
    of every ring, bit for bit.
    """
    samples = circle_samples(g, schwarzian_of)
    s = np.fft.fft(samples) / samples.size
    s[:4] = 0.0  # S(g) = O(w^-4): these are rounding noise
    powers, weight = _ring_powers(s.size), (RING_RADII ** -2 - 1.0) ** 2
    probe = np.logspace(0.1, 4, 64) * np.exp(1j)  # a ray toward infinity
    # |S(g) W| rounds as |nu| does, bit for bit; |S(g)| W would not
    far = np.abs(schwarzian(g, probe) * (np.abs(probe) ** 2 - 1.0) ** 2).max()
    a = np.abs(s)
    upper = weight * np.einsum("jk,k->j", powers, a)
    lower = weight * np.sqrt(np.einsum("jk,jk,k->j", powers, powers, a * a))
    # the 1e-9 slack is far above the rounding of the bounds and the FFT
    keep = upper * (1 + 1e-9) >= max(far, lower.max()) * (1 - 1e-9)
    rings = np.fft.ifft(s * powers[keep], axis=1) * s.size
    ring = np.abs(rings) * weight[keep, None]
    sup = float(max(ring.max(initial=0.0), far))
    wp = 4.0 * coefficient_sum(g, samples, 2)
    return BeltramiField(g, s, sup, wp)


def displacement_field(field):
    """Boundary velocity of the deformation along a descent field from
    gradient_field: the Cauchy transform F of the transported field, on the
    curve zeta = g(w) of the field's exterior map g at the
    n = angular_count(2 * order of g) uniform points w_j. Returns
    (zeta_j, F(zeta_j)).

    X = 2 sum conj(s_k) w^(k-1) / ((k-1)(k-2)(k-3)), from the field's
    coefficients s_k, is the d-bar primitive of nu on |w| = 1, and Stokes
    turns the area transform into
    F(z0) = q(z0) + (1/2 pi i) oint (q - q(z0)) / (zeta - z0) dzeta with
    q = g' X. The trapezoid rule takes dq/dzeta on the diagonal. X, X' and
    the 2-jet of g at the w_j are ring FFTs.
    """
    s, g = field.coeffs, field.exterior
    n = angular_count(2 * g.order)
    k = np.arange(4, s.size)
    x = np.zeros(s.size - 1, dtype=complex)  # coefficients of X by power
    x[3:] = 2.0 * np.conj(s[4:]) / ((k - 1.0) * (k - 2.0) * (k - 3.0))
    big_x = ring_values(x, 1.0, n)
    dx = ring_values(np.arange(1, x.size) * x[1:], 1.0, n)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    zeta, g1, g2 = ring_jet(g, 1.0, n, upto=2)
    q = g1 * big_x
    dq = (g2 * big_x + g1 * dx) / g1  # dq/dzeta
    zeta_t = 1j * w * g1              # dzeta/dtheta
    total = np.empty(n, dtype=complex)
    for lo in range(0, n, CONTOUR_CHUNK):
        rows = np.arange(lo, min(lo + CONTOUR_CHUNK, n))
        diag = (rows - lo, rows)
        dz = zeta[None, :] - zeta[rows, None]
        dz[diag] = 1.0
        ratio = (q[None, :] - q[rows, None]) / dz
        ratio[diag] = dq[rows]
        total[rows] = np.einsum("ij,j->i", ratio, zeta_t)
    # the trapezoid weight 2 pi / n over 2 pi i
    return zeta, q + total / (1j * n)


def beltrami_step(nu, t, precomputed=None):
    """First-order quasiconformal move along t * nu, t != 0, of the curve
    that carries the boundary velocity: displacement_field(nu), or
    ``precomputed`` (boundary points, velocity) for a field without
    coefficients. The moved boundary is refit to an interior series; raises
    DeformationError if the moved polyline or the refit is not star shaped
    about its anchor, RefitError if the fit cannot certify its residual.
    """
    sup = getattr(nu, "sup_norm", None)
    if sup is not None and abs(t) * sup >= 0.1:
        raise DomainError("step too large for the first-order regime: "
                          f"|t| * sup|nu| = {abs(t) * sup:.3f} >= 0.1")
    if t == 0:
        raise DomainError("a step needs t != 0")
    if precomputed is None:
        z, fdot = displacement_field(nu)
    else:
        z, fdot = precomputed
    moved = z + t * fdot
    try:
        poly = CurveSpec.from_polyline(moved)
        f_new, _ = interior_map(poly, order=min(REFIT_ORDER, moved.size // 3),
                                tol=REFIT_TOL, auto_refine=False)
        return CurveSpec.from_series(f_new)
    except DomainError as exc:
        raise DeformationError(f"deformed curve refused: {exc}") from exc
    except NonConvergence as exc:
        raise RefitError(f"series refit failed: {exc}") from exc


def roundness_deficit(g):
    """Isoperimetric deficit L^2/(4 pi A) - 1 of the curve of the exterior
    map g; zero exactly on circles. With g scaled to b1 = 1, the area is
    pi (1 - sum k |b_-k|^2) (the area theorem) and the length 2 pi mean|g'|
    over the circle samples, whose jet gradient_field(g) has cached."""
    speed = np.abs(circle_samples(g, lambda jet: jet[1] / g.b1))
    k = np.arange(1, g.order + 1)
    area = 1.0 - float(np.sum(k * np.abs(g.bneg / g.b1) ** 2))
    return float(np.mean(speed)) ** 2 / area - 1.0


def run_flow(f, g, max_steps=50):
    """Backtracking gradient descent toward the circle from the solved pair
    (f, g): the accepted FlowStates, each at its step's index, the first
    holding f and g. Only the trial curves are solved. The action is
    nonincreasing along the list; each step's first trial is
    min(cap, NEWTON_STEP), halved on every rejection."""
    action = liouville_action(f, g).total
    field = gradient_field(g)
    states = [FlowState(action, field.wp_norm_sq, 0.0, roundness_deficit(g),
                        f, g)]
    for step in range(1, max_steps + 1):
        if action < ACTION_FLOOR or field.sup_norm < 1e-12:
            logger.info("flow converged at step %d (action %.3e)", step - 1,
                        action)
            break
        t = min(0.999 * STEP_CAP / field.sup_norm, NEWTON_STEP)
        pre = displacement_field(field)
        while t >= T_MIN:
            try:
                cand = beltrami_step(field, t, precomputed=pre)
                fc, gc = conformal_map_pair(cand)
                cand_action = liouville_action(fc, gc).total
            except (DeformationError, RefitError, NonConvergence):
                logger.debug("step %d: rejecting t=%.3e", step, t)
                t *= 0.5
                continue
            if cand_action < action:
                break
            t *= 0.5
        else:
            raise Stalled(f"no decreasing step at step {step} "
                          f"(t floor {T_MIN:.1e})")
        f, g, action = fc, gc, cand_action
        field = gradient_field(g)
        states.append(FlowState(action, field.wp_norm_sq, t,
                                roundness_deficit(g), f, g))
        logger.debug("step %d: action %.6e, |nu|_wp^2 %.3e, t %.3e",
                     step, action, field.wp_norm_sq, t)
    return states


def wp_path_length(states):
    """Weil-Petersson length of the flow path, from the decrease of the
    action: sum_k (S_{k-1} - S_k) / ((|nu_{k-1}|_WP + |nu_k|_WP) / 2), since
    dS = -|nu|_WP dL along the gradient, plus sqrt(S_end), the length left
    to the circle where |nu|_WP^2 = 4 S. It does not depend on the step
    sizes; along the exact gradient it lies within
    [sqrt(S_0), sqrt(S_0 / r_min)], r_min from gradient_ratio_min."""
    norms = [math.sqrt(s.grad_wp_norm_sq) for s in states]
    return math.fsum([(prev.action - s.action) / ((a + b) / 2.0)
                      for prev, s, a, b in zip(states, states[1:],
                                               norms, norms[1:])]
                     + [math.sqrt(max(states[-1].action, 0.0))])


def gradient_ratio_min(states):
    """r_min = min_k |nu_k|_WP^2 / (4 S_k) over the states with
    S_k > ACTION_FLOOR, or None if there are none. S is a Kahler potential
    of the WP metric, so the ratio tends to 1 at the circle; a gradient path
    on which it stays within [r_min, 1] has WP length within
    [sqrt(S_0), sqrt(S_0 / r_min)]."""
    return min((s.grad_wp_norm_sq / (4.0 * s.action) for s in states
                if s.action > ACTION_FLOOR), default=None)

