"""Universal Liouville action of a Jordan curve and related integrals.

For conformal maps f of the disk onto the bounded side and g of the
exterior disk onto the unbounded side (g(inf) = inf), the action is

    S(curve) = int_D |f''/f'|^2 + int_D* |g''/g'|^2
               + 4 pi log |f'(0) / g'(inf)|.

It vanishes exactly on circles, is Mobius invariant, and is nonnegative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureGrid
from .series import area_norm, nonlinearity_of, ring_values


@dataclass(frozen=True)
class ActionReport:
    interior_term: float
    exterior_term: float
    log_term: float
    total: float
    error_estimate: float


def liouville_action(f, g):
    """ActionReport for the curve bounded by f (inside) and g (outside).

    Both Dirichlet integrals are coefficient sums (series.area_norm); the
    error estimate adds their changes against half sampling.
    """
    if not f.is_normalized_map():
        raise DomainError("maps must have nonzero derivative normalization")
    interior, err_in = area_norm(f, nonlinearity_of)
    exterior, err_out = area_norm(g, nonlinearity_of)
    log_term = 4.0 * math.pi * math.log(abs(f.coeffs[1]) / abs(g.b1))
    total = interior + exterior + log_term
    return ActionReport(interior, exterior, log_term, total, err_in + err_out)


def grunsky_gap(f, g, grid=None):
    """Both sides of the area inequality linking f and g.

    lhs = int_D |f'/f - 1/z|^2 + int_D* |g'/g - 1/z|^2,
    rhs = 2 pi log |g'(inf) / f'(0)|, f and g taken about f(0); lhs <= rhs,
    with equality when the two image domains fill the plane up to measure
    zero. Both integrals take the rule of the disk grid, by default sized to
    the longer of the two series, and evaluate on its rings by one FFT per
    radius.
    """
    grid = grid or QuadratureGrid.for_order(max(f.order, g.order))
    if grid.domain != "disk":
        raise ValueError("grunsky_gap expects a disk grid")
    # the grid's nodes are rings r_i e^{2 pi i j/n}, radius-major
    radii = grid.nodes[::grid.angular_n].real

    def on_rings(c):
        return ring_values(c, radii, grid.angular_n).ravel()

    # f'/f - 1/z = (z f' - f)/(z f) = p(z)/q(z) for f - f(0), a_0 unread
    a = f.coeffs
    k = np.arange(a.size)
    p = ((k - 1) * a)[2:]
    lhs = grid.integrate(np.abs(on_rings(p) / on_rings(a[1:])) ** 2)

    # outside, at u = 1/w: g'/g - 1/w = u^2 core(u)/G(u) with
    # core(u) = w g' - g = -b0 - sum_k (k+1) b_{-k} u^k and G(u) = u g(1/u);
    # |u^2|^2 cancels the inversion Jacobian, so the disk rule takes
    # |core/G|^2 on the (conjugation-symmetric) rings
    b0 = g.b0 - f.coeffs[0]
    kk = np.arange(1, g.bneg.size + 1)
    core = np.concatenate([[-b0], -(kk + 1) * g.bneg])
    G = np.concatenate([[g.b1, b0], g.bneg])
    lhs += grid.integrate(np.abs(on_rings(core) / on_rings(G)) ** 2)

    rhs = 2.0 * math.pi * math.log(abs(g.b1) / abs(f.coeffs[1]))
    return {"lhs": float(lhs), "rhs": float(rhs)}
