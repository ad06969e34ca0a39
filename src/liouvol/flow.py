"""Gradient descent of the Liouville action in the Weil-Petersson metric.

The descent direction at a curve with exterior map g is the harmonic
Beltrami field nu = -4 conj(S(g)) / rho on |w| > 1 (rho the hyperbolic
density), whose sup norm is at most 6 for univalent g. One step moves the
curve to first order along the field transported to the image domain,
solving d-bar F = nu_* by a Cauchy transform, then refits the moved
boundary to an interior series. Steps are accepted only when the action
decreases, so discretization error cannot fake convergence.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .action import liouville_action
from .curves import CurveSpec, polyline_is_simple
from .errors import (DeformationError, DomainError, NonConvergence,
                     RefitError, Stalled)
from .mapping import conformal_map_pair, exterior_map, interior_map
from .quadrature import QuadratureGrid
from .series import schwarzian

logger = logging.getLogger(__name__)

NEHARI_BOUND = 6.0


@dataclass(frozen=True)
class BeltramiField:
    """Beltrami coefficient field on |w| > 1 with norm metadata."""

    evaluate: callable
    sup_norm: float
    wp_norm_sq: float
    exterior: object = None  # LaurentMap the field was derived from, if any
    on_grid: np.ndarray = None  # values at the exterior grid nodes, if kept

    def __call__(self, w):
        return self.evaluate(w)


@dataclass(frozen=True)
class FlowState:
    step: int
    curve: CurveSpec
    action: float
    grad_wp_norm_sq: float
    step_size: float
    roundness: float


@dataclass(frozen=True)
class DistanceBoundParams:
    c: float
    K: float

    def __post_init__(self):
        if not (self.c > 0 and self.K > 0):
            raise DomainError("distance bound constants must be positive")


def gradient_field(g, grid=None):
    """Negative Weil-Petersson gradient direction for the exterior map g,
    with its values on the exterior nodes of ``grid`` kept as ``on_grid``."""
    grid = grid or QuadratureGrid.disk()

    def nu(w):
        w = np.asarray(w, dtype=complex)
        return -np.conj(schwarzian(g, w)) * (np.abs(w) ** 2 - 1.0) ** 2

    ext = grid.exterior()
    s = schwarzian(g, ext.nodes)
    weight = (np.abs(ext.nodes) ** 2 - 1.0) ** 2
    on_grid = -np.conj(s) * weight
    far = np.abs(nu(np.logspace(0.1, 4, 64) * np.exp(1j)))
    sup = float(max(np.abs(on_grid).max(), far.max()))
    wp = 4.0 * float(ext.integrate(np.abs(s) ** 2 * weight))
    return BeltramiField(nu, sup, wp, exterior=g, on_grid=on_grid)


def displacement_field(curve, nu, exterior=None, grid=None, n_boundary=None,
                       chunk=64):
    """Boundary velocity of the deformation: solves d-bar F = transported nu
    by the Cauchy transform, pulled back to the exterior parameter disk.

    Boundary samples default to the grid's angular nodes so the quadrature
    error near the rim stays smooth along the boundary and does not alias
    into the series refit. Returns (boundary points z_j, F(z_j))."""
    if exterior is None:
        exterior, _ = exterior_map(curve)
    grid = grid or QuadratureGrid.disk()
    n_boundary = n_boundary or grid.angular_n
    ext = grid.exterior()
    w = ext.nodes
    nu_vals = nu(w) if callable(nu) else np.asarray(nu)
    g1 = exterior.deriv_at(w, 1)
    gv = exterior(w)
    density = ext.weights * nu_vals * g1 * g1

    z = curve.boundary(n_boundary)
    out = np.empty(z.size, dtype=complex)
    for lo in range(0, z.size, chunk):
        hi = min(lo + chunk, z.size)
        out[lo:hi] = density @ (1.0 / (gv[:, None] - z[None, lo:hi]))
    return z, -out / math.pi


def beltrami_step(curve, nu, t, exterior=None, grid=None, n_boundary=None,
                  order=128, refit_tol=1e-6, precomputed=None):
    """First-order quasiconformal move of the curve along t * nu.

    The moved boundary is refit to an interior series; raises
    DeformationError if the moved curve self-intersects and RefitError if
    the series fit cannot certify its residual.
    """
    sup = getattr(nu, "sup_norm", None)
    if sup is not None and abs(t) * sup >= 0.1:
        raise DomainError("step too large for the first-order regime: "
                          f"|t| * sup|nu| = {abs(t) * sup:.3f} >= 0.1")
    if t == 0:
        return curve
    if precomputed is None:
        z, fdot = displacement_field(curve, nu, exterior=exterior, grid=grid,
                                     n_boundary=n_boundary)
    else:
        z, fdot = precomputed
    moved = z + t * fdot
    if not polyline_is_simple(moved):
        raise DeformationError("deformed curve self-intersects")
    poly = CurveSpec.from_polyline(moved, check=False)
    try:
        f_new, diag = interior_map(poly, order=min(order, moved.size // 3),
                                   tol=refit_tol, auto_refine=False)
    except NonConvergence as exc:
        raise RefitError(f"series refit failed: {exc}") from exc
    if diag.boundary_mismatch > refit_tol:
        raise RefitError(
            f"series refit residual {diag.boundary_mismatch:.3e} > {refit_tol}")
    return CurveSpec.from_series(f_new, check=False)


def roundness_deficit(curve, n=4096):
    """Isoperimetric deficit L^2/(4 pi A) - 1; zero exactly on circles."""
    z = curve.boundary(n)
    dz = np.roll(z, -1) - z
    length = float(np.sum(np.abs(dz)))
    area = 0.5 * float(np.sum(z.real * np.roll(z.imag, -1)
                              - np.roll(z.real, -1) * z.imag))
    return length ** 2 / (4.0 * math.pi * abs(area)) - 1.0


def run_flow(curve, max_steps=50, grid=None, order=128, step_cap=0.02,
             t_min=1e-8, action_threshold=1e-9, n_boundary=None):
    """Backtracking gradient descent from ``curve`` toward the circle.

    Returns the list of accepted FlowStates (the initial state included).
    The action is nonincreasing along the list by construction.
    """
    grid = grid or QuadratureGrid.disk()
    f, g = conformal_map_pair(curve, order=order)
    action = liouville_action(f, g).total
    field = gradient_field(g, grid)
    states = [FlowState(0, curve, action, field.wp_norm_sq, 0.0,
                        roundness_deficit(curve))]
    t_prev = None
    for step in range(1, max_steps + 1):
        if action < action_threshold or field.sup_norm < 1e-12:
            logger.info("flow converged at step %d (action %.3e)", step - 1,
                        action)
            break
        t_cap = 0.999 * step_cap / field.sup_norm
        t = t_cap if t_prev is None else min(t_cap, 2.0 * t_prev)
        pre = displacement_field(curve, field.on_grid, exterior=g, grid=grid,
                                 n_boundary=n_boundary)
        accepted = False
        while t >= t_min:
            try:
                cand = beltrami_step(curve, field, t, exterior=g, grid=grid,
                                     order=order, precomputed=pre)
                fc, gc = conformal_map_pair(cand, order=order, tol=1e-8)
                cand_action = liouville_action(fc, gc).total
            except (DeformationError, RefitError, NonConvergence):
                logger.debug("step %d: rejecting t=%.3e", step, t)
                t *= 0.5
                continue
            if cand_action < action:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise Stalled(f"no decreasing step at step {step} "
                          f"(t floor {t_min:.1e})")
        curve, f, g, action = cand, fc, gc, cand_action
        field = gradient_field(g, grid)
        t_prev = t
        states.append(FlowState(step, curve, action, field.wp_norm_sq, t,
                                roundness_deficit(curve)))
        logger.debug("step %d: action %.6e, |nu|_wp^2 %.3e, t %.3e",
                     step, action, field.wp_norm_sq, t)
    return states


def distance_bound(action_value, params):
    """Upper bound on the Weil-Petersson distance to the circle implied by
    the action: dist <= action/c + K*c.

    The underlying inequality holds for c below a universal threshold
    (2 * delta * sqrt(4 pi / 3) with delta in (0,1) not computed here);
    the constants are caller-supplied.
    """
    if action_value < 0:
        raise DomainError("action must be nonnegative")
    return action_value / params.c + params.K * params.c
