"""Horosphere-envelope surfaces of conformal metrics in upper half-space.

For a metric e^phi |dz|^2 the envelope point over z is

    xi = 2 e^{-phi/2} / (1 + |psi|^2),   Z = z + xi psi,
    psi = phi_zbar e^{-phi/2},

with Euclidean unit normal eta = (2 psi, 1 - |psi|^2)/(1 + |psi|^2).
For the hyperbolic metric of a domain these quantities reduce to closed
forms in the uniformizing map and its first two derivatives (three for the
Jacobian of the sheet's projection), and the curvature data reduces to the
norm of the Schwarzian derivative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularDerivative
from .mobius import H3Point
from .series import LaurentMap, area_norm, schwarzian, schwarzian_of

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


def _frame_fields(fmap, z, jet=None, tau=None):
    """Vectorized (Z, xi, eta_h, eta_v, J) over an array of parameter points
    of one sheet: |z| < 1 for a series map, |z| > 1 for a Laurent map.
    ``jet`` is the map's jet at z, by default fmap.jet(z, upto=2); from a
    2-jet the frame comes without the Jacobian, and J is None. ``tau`` is
    s (1 - |z|^2), by default from z, where its rounding is about 1e-16
    absolute and so 1e-16 / tau relative; a caller that knows it exactly
    passes it.

    With the map's 3-jet (f, a, b, c), s = +1 inside and -1 outside,
    tau = s (1 - |z|^2) > 0, beta = conj(b/a), chi = s z - beta tau / 2 and
    D = 1 + |chi|^2: Z = f + a tau chi / D, xi = |a| tau / D and the unit
    normal is (2 u chi, 1 - |chi|^2) / D with u = a/|a| (chi is psi/u of
    epstein_point). J = |Z_z|^2 - |Z_zbar|^2 is the Jacobian of z -> Z;
    beta is antiholomorphic, with beta_zbar = conj(c/a) - beta^2.

    Both terms of J tend to |a|^2 / D^2 at the rim |z| = 1, where J
    vanishes like tau, and their difference would lose about 1e-16 / tau
    relative. With |z|^2 = 1 - s tau, Z_z D^2 / a = D |chi|^2 + tau alpha,
    Z_zbar D^2 / a = tau beta2 - D z^2 and |chi|^2 - |z|^2 = tau gap with
    gap = |beta|^2 tau / 4 - s Re(conj(z) beta), so for tau < 1 J is summed
    from terms that each carry the factor tau. Far outside (tau >= 1) the
    difference is the better form.
    """
    z = np.asarray(z, dtype=complex)
    s = -1.0 if isinstance(fmap, LaurentMap) else 1.0
    f, a, b, *c = fmap.jet(z, upto=2) if jet is None else jet
    r2 = np.abs(z) ** 2
    tau = s * (1.0 - r2) if tau is None else tau
    beta = np.conj(b / a)
    chi = s * z - beta * tau / 2.0
    chi2 = np.abs(chi) ** 2
    D = 1.0 + chi2
    P = a * tau * chi
    frame = (f + P / D, np.abs(a) * tau / D, 2.0 * (a / np.abs(a)) * chi / D,
             (1.0 - chi2) / D)
    if not c:
        return frame + (None,)
    chi_z = s * (1.0 + beta * np.conj(z) / 2.0)
    chi_zb = (s * beta * z - (np.conj(c[0] / a) - beta ** 2) * tau) / 2.0
    D_z = chi_z * np.conj(chi) + chi * np.conj(chi_zb)
    alpha = D * (np.conj(beta) * chi + 2.0 * chi_z) - chi * D_z
    beta2 = D * (s * beta * z / 2.0 + chi_zb) - chi * np.conj(D_z)
    gap = np.abs(beta) ** 2 * tau / 4.0 - s * (np.conj(z) * beta).real
    near = tau * (D * D * (chi2 + r2) * gap
                  + 2.0 * D * (chi2 * alpha.real
                               + (np.conj(z) ** 2 * beta2).real)
                  + tau * (np.abs(alpha) ** 2 - np.abs(beta2) ** 2))
    far = (np.abs(D * chi2 + tau * alpha) ** 2
           - np.abs(tau * beta2 - D * z * z) ** 2)
    return frame + (np.abs(a) ** 2 * np.where(tau < 1.0, near, far) / D ** 4,)


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
    Z, xi, eh, ev, _ = _frame_fields(fmap, zeta)
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
    d1 = fmap.deriv_at(z, 1) if laurent else fmap.jet(z, upto=1)[1]
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


def curvatures(f, zeta):
    """Principal curvatures, curvatures at infinity, mean curvature and the
    mean-curvature density of the interior-side surface at parameter zeta."""
    zeta_c = complex(zeta)
    if abs(zeta_c) >= 1.0:
        raise DomainError("curvatures expects |zeta| < 1")
    t, k_p, k_m, H, dens = curvature_columns(f, [zeta_c])[0].tolist()
    return CurvatureData(k_p, k_m, 1.0 + 2.0 * t, 1.0 - 2.0 * t, H, t, dens,
                         immersion_boundary=abs(t - 1.0) < IMMERSION_TOL)


def mean_curvature_total(fmap):
    """Total mean curvature of one envelope surface.

    Equals the hyperbolic-norm square of the Schwarzian integrated over the
    parameter domain: int |S|^2 (1-|z|^2)^2 / 4 (interior) and the mirrored
    expression for a Laurent exterior map.
    """
    return area_norm(fmap, schwarzian_of, p=2)[0] / 4.0
