"""Horosphere-envelope surfaces of conformal metrics in upper half-space.

For a metric e^phi |dz|^2 the envelope point over z is

    xi = 2 e^{-phi/2} / (1 + |psi|^2),   Z = z + xi psi,
    psi = phi_zbar e^{-phi/2},

with Euclidean unit normal eta = (2 psi, 1 - |psi|^2)/(1 + |psi|^2).
For the hyperbolic metric of a domain these quantities reduce to closed
forms in the uniformizing map and its first two derivatives (three for the
Jacobian of the sheet's projection, _height_jacobian), and the curvature
data reduces to the norm of the Schwarzian derivative.
"""

import numpy as np

from .series import LaurentMap, area_norm, schwarzian, schwarzian_of


def _frame_fields(fmap, z):
    """Vectorized (Z, xi, eta_h, eta_v) over an array of parameter points
    of one sheet, |z| < 1 for a series map and |z| > 1 for a Laurent map,
    from the map's 2-jet (f, a, b) at z.

    With s = +1 inside and -1 outside, tau = s (1 - |z|^2) > 0,
    beta = conj(b/a), chi = s z - beta tau / 2 and D = 1 + |chi|^2:
    Z = f + a tau chi / D, xi = |a| tau / D and the unit normal is
    (2 u chi, 1 - |chi|^2) / D with u = a/|a| (chi is psi/u of the formula
    above).
    """
    z = np.asarray(z, dtype=complex)
    s = -1.0 if isinstance(fmap, LaurentMap) else 1.0
    f, a, b = fmap.jet(z, upto=2)
    tau = s * (1.0 - np.abs(z) ** 2)
    chi = s * z - np.conj(b / a) * tau / 2.0
    chi2 = np.abs(chi) ** 2
    D = 1.0 + chi2
    return (f + a * tau * chi / D, np.abs(a) * tau / D,
            2.0 * (a / np.abs(a)) * chi / D, (1.0 - chi2) / D)


def _height_jacobian(fmap, z, jet, tau):
    """(xi / tau, J / tau) over rows of parameter points of one sheet, each
    row on one circle |z| = const: the height xi of _frame_fields and the
    Jacobian J = |Z_z|^2 - |Z_zbar|^2 of the sheet's projection z -> Z, whose
    sign carries the orientation, each divided by tau = s (1 - |z|^2). Both
    quotients are finite at the rim tau = 0. ``jet`` is the map's 3-jet
    (f, a, b, c) at z and ``tau`` one value per row (shape
    z.shape[:-1] + (1,)), to full precision: from the rounded z it would
    carry about 1e-16 / tau relative error.

    With chi, D as in _frame_fields, beta is antiholomorphic with
    beta_zbar = conj(c/a) - beta^2. Both terms of J tend to |a|^2 / D^2 at
    the rim |z| = 1, where J vanishes like tau, and their difference would
    lose about 1e-16 / tau relative. With |z|^2 = 1 - s tau,
    Z_z D^2 / a = D |chi|^2 + tau alpha, Z_zbar D^2 / a = tau beta2 - D z^2
    and |chi|^2 - |z|^2 = tau gap with
    gap = |beta|^2 tau / 4 - s Re(conj(z) beta), so for tau < 1 J is summed
    from terms that each carry the factor tau, which J / tau leaves out. Far
    outside (tau >= 1) the difference is the better form, formed on those
    rows only and divided by tau.
    """
    s = -1.0 if isinstance(fmap, LaurentMap) else 1.0
    _, a, b, c = jet
    r2 = np.abs(z) ** 2
    beta = np.conj(b / a)
    chi = s * z - beta * tau / 2.0
    chi2 = np.abs(chi) ** 2
    D = 1.0 + chi2
    chi_z = s * (1.0 + beta * np.conj(z) / 2.0)
    chi_zb = (s * beta * z - (np.conj(c / a) - beta ** 2) * tau) / 2.0
    D_z = chi_z * np.conj(chi) + chi * np.conj(chi_zb)
    alpha = D * (np.conj(beta) * chi + 2.0 * chi_z) - chi * D_z
    beta2 = D * (s * beta * z / 2.0 + chi_zb) - chi * np.conj(D_z)
    gap = np.abs(beta) ** 2 * tau / 4.0 - s * (np.conj(z) * beta).real
    J = (D * D * (chi2 + r2) * gap
         + 2.0 * D * (chi2 * alpha.real + (np.conj(z) ** 2 * beta2).real)
         + tau * (np.abs(alpha) ** 2 - np.abs(beta2) ** 2))
    far = tau[..., 0] >= 1.0
    Df, zf, tf = D[far], z[far], tau[far]
    J[far] = (np.abs(Df * chi2[far] + tf * alpha[far]) ** 2
              - np.abs(tf * beta2[far] - Df * zf * zf) ** 2) / tf
    return np.abs(a) / D, np.abs(a) ** 2 * J / D ** 4


def schwarzian_norm(fmap, z):
    """Norm of the Schwarzian quadratic differential against the hyperbolic
    metric of the parameter domain, inside or outside the unit circle:
    |S(f)| (1-|z|^2)^2 / 4."""
    z = np.asarray(z, dtype=complex)
    return np.abs(schwarzian(fmap, z)) * (1.0 - np.abs(z) ** 2) ** 2 / 4.0


def curvature_columns(fmap, source):
    """(n, 5) columns schwarzian_norm, k_plus, k_minus, H, mean_density of
    an envelope sheet at its parameter points ``source``.

    A Laurent sheet's apex (the point at infinity, source[0]) takes the
    limit norm 1.5 |b_-1 / b1| and zero density.
    """
    source = np.asarray(source, dtype=complex)
    laurent = isinstance(fmap, LaurentMap)
    z = source[1:] if laurent else source
    t = schwarzian_norm(fmap, z)
    d1 = fmap.jet(z, upto=1)[1]
    rho = 4.0 / ((1.0 - np.abs(z) ** 2) ** 2 * np.abs(d1) ** 2)
    if laurent:
        apex = 1.5 * abs(fmap.bneg[0] / fmap.b1) if fmap.order else 0.0
        t = np.concatenate([[apex], t])
        rho = np.concatenate([[0.0], rho])
    with np.errstate(divide="ignore"):
        k_p = -t / (t + 1.0)
        k_m = np.where(t == 1.0, -np.inf, -t / (t - 1.0))
    H = np.where(t == 1.0, np.inf, t * t / (1.0 - t * t))
    return np.column_stack([t, k_p, k_m, H, t * t * rho])


def mean_curvature_total(fmap):
    """Total mean curvature of one envelope surface.

    Equals the hyperbolic-norm square of the Schwarzian integrated over the
    parameter domain: int |S|^2 (1-|z|^2)^2 / 4 (interior) and the mirrored
    expression for a Laurent exterior map.
    """
    return area_norm(fmap, schwarzian_of, p=2)[0] / 4.0
