import math

import numpy as np
import pytest

from oracles import (H3Point, MetricJet, MobiusTransform, curvatures,
                     epstein_point, epstein_poincare, fd_shape_operator,
                     geodesic_shift, mc_disk_integral, mobius_on_h3,
                     osculating_mobius, poincare_jet)

from liouvol.epstein import (_frame_fields, _height_jacobian,
                             mean_curvature_total, schwarzian_norm)
from liouvol.series import LaurentMap, PowerSeriesMap, schwarzian


def flat_jet(t):
    return MetricJet(2.0 * t, 0.0)


def sphere_jet(z):
    return MetricJet(math.log(4) - 2 * math.log(1 + abs(z) ** 2),
                     -2 * z / (1 + abs(z) ** 2))


def disk_jet(z):
    r2 = abs(z) ** 2
    return MetricJet(math.log(4) - 2 * math.log(1 - r2), 2 * z / (1 - r2))


def test_flat_metric_horoplane():
    t = 0.35
    for z in (0.0, 1 - 2j, 0.3j):
        fr = epstein_point(flat_jet(t), z)
        assert abs(fr.base.z - z) < 1e-14
        assert abs(fr.base.xi - 2 * math.exp(-t)) < 1e-14
        assert fr.eta_h == 0 and fr.eta_v == 1.0


def test_spherical_metric_single_point():
    for z in (0.0, 0.7, -2 + 1j, 5j):
        fr = epstein_point(sphere_jet(z), z)
        assert abs(fr.base.z) < 1e-13
        assert abs(fr.base.xi - 1.0) < 1e-13


def test_disk_metric_geodesic_plane():
    for r, th in ((0.2, 0.0), (0.6, 1.1), (0.95, -2.0)):
        z = r * np.exp(1j * th)
        fr = epstein_point(disk_jet(z), z)
        assert abs(fr.base.z - 2 * r / (1 + r ** 2) * np.exp(1j * th)) < 1e-13
        assert abs(fr.base.xi - (1 - r ** 2) / (1 + r ** 2)) < 1e-13
        # frame normal equals the position vector on the unit hemisphere
        assert abs(fr.eta_h - fr.base.z) < 1e-13
        assert abs(fr.eta_v - fr.base.xi) < 1e-13


def test_poincare_frame_matches_general_formula():
    f = PowerSeriesMap([0, 1, 0.08, 0.02j])
    for zeta in (0.0, 0.5 + 0.3j, -0.7j):
        fr1 = epstein_poincare(f, zeta)
        fr2 = epstein_point(poincare_jet(f, zeta), complex(f(zeta)))
        assert abs(fr1.base.z - fr2.base.z) < 1e-10
        assert abs(fr1.base.xi - fr2.base.xi) < 1e-10
        assert abs(fr1.eta_h - fr2.eta_h) < 1e-10


def test_poincare_identity_at_zero_is_j():
    fr = epstein_poincare(PowerSeriesMap([0, 1]), 0.0)
    assert fr.base.z == 0 and abs(fr.base.xi - 1.0) < 1e-15


def test_poincare_height_at_zero_formula():
    f = PowerSeriesMap([0, 0.8, 0.1, -0.03])
    fr = epstein_poincare(f, 0.0)
    d1, d2 = f.coeffs[1], 2 * f.coeffs[2]
    expected = abs(d1) / (1 + abs(d2 / (2 * d1)) ** 2)
    assert abs(fr.base.xi - expected) < 1e-14


def test_poincare_osculating_consistency():
    f = PowerSeriesMap([0.2, 1, 0.06, 0.01j])
    fr = epstein_poincare(f, 0.0)
    M = osculating_mobius(f, 0.0)
    p = mobius_on_h3(M, H3Point(0.0, 1.0))
    assert abs(p.z - fr.base.z) < 1e-9
    assert abs(p.xi - fr.base.xi) < 1e-9


def test_naturality_under_mobius():
    f = PowerSeriesMap([0, 1, 0.05, 0.01])
    A = MobiusTransform(1, 0.3 - 0.2j, 0, 1).compose(
        MobiusTransform.scaling(1.5))
    for zeta in (0.1, 0.4 - 0.2j):
        fr = epstein_poincare(f, zeta)
        moved = mobius_on_h3(A, fr.base)
        # frame of A o f at zeta, from its chain-rule 2-jet
        w0, w1, w2 = f.jet(zeta, upto=2)
        Z, xi, eh, ev = _frame_fields(
            _JetProxy(A(w0), A.deriv(w0) * w1, A.deriv2(w0) * w1 ** 2
                      + A.deriv(w0) * w2), np.array([zeta], complex))
        assert abs(moved.z - Z[0]) < 1e-9
        assert abs(moved.xi - xi[0]) < 1e-9


class _JetProxy:
    """Minimal jet interface around fixed derivative values at one point."""

    def __init__(self, w0, w1, w2):
        self._jet = (w0, w1, w2)

    def jet(self, zeta, upto=2):
        shape = np.shape(zeta)
        mk = lambda v: np.full(shape, v, dtype=complex)
        return tuple(mk(w) for w in self._jet[: upto + 1])


class _DiskAutomorphism:
    """f(z) = (z - p) / (1 - conj(p) z) by its exact 3-jet: it maps both
    |z| < 1 and |z| > 1 onto themselves."""

    def __init__(self, p):
        self.p = p

    def jet(self, z, upto=2):
        p, q = self.p, 1.0 - np.conj(self.p) * z
        k = 1.0 - abs(self.p) ** 2
        return ((z - p) / q, k / q ** 2, 2.0 * np.conj(p) * k / q ** 3,
                6.0 * np.conj(p) ** 2 * k / q ** 4)[: upto + 1]


class _OutsideAutomorphism(_DiskAutomorphism, LaurentMap):
    """The same map on the exterior sheet."""


def _automorphism_sheet(fmap, s, tau, n=16):
    """Points z with s (1 - |z|^2) = tau (a column), and the exact height
    and Jacobian there: the sheet of a disk automorphism is the unit
    hemisphere, Z = 2 f / (1 + |f|^2), so xi = tau_f / (2 - s tau_f) and
    J = 4 s tau_f / (2 - s tau_f)^3 |f'|^2 with tau_f = s (1 - |f|^2) =
    tau |f'|."""
    z = np.sqrt(1.0 - s * tau) * np.exp(2j * np.pi * np.arange(n) / n)
    d1 = (1.0 - abs(fmap.p) ** 2) / np.abs(1.0 - np.conj(fmap.p) * z) ** 2
    tau_f = tau * d1
    return (z, tau_f / (2.0 - s * tau_f),
            4.0 * s * tau_f / (2.0 - s * tau_f) ** 3 * d1 ** 2)


@pytest.mark.parametrize("fmap, s", [(_DiskAutomorphism(0.3 - 0.4j), 1.0),
                                     (_OutsideAutomorphism(0.3 - 0.4j), -1.0)])
def test_frame_jacobian_at_the_rim(fmap, s):
    # from the exact tau J keeps its digits as tau -> 0, where
    # |Z_z|^2 - |Z_zbar|^2 loses 1e-16 / tau
    tau = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, 0.99] + (
        [1.0, 3.0] if s < 0 else []))[:, None]
    z, xi_exact, J_exact = _automorphism_sheet(fmap, s, tau)
    xi, J = (tau * v for v in _height_jacobian(fmap, z, fmap.jet(z, upto=3),
                                               tau))
    assert np.max(np.abs(xi / xi_exact - 1.0)) <= 1e-13
    assert np.max(np.abs(J / J_exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("fmap, s", [(_DiskAutomorphism(0.3 - 0.4j), 1.0),
                                     (_OutsideAutomorphism(0.3 - 0.4j), -1.0)])
def test_frame_quotients_on_the_rim(fmap, s):
    # at tau = 0 the quotients are the limits of the automorphism sheet's
    # xi / tau = |f'| / (2 - s tau_f) and J / tau = 4 s |f'|^3 / (2 - s tau_f)^3
    z = np.exp(2j * np.pi * np.arange(16) / 16)[None, :]
    d1 = (1.0 - abs(fmap.p) ** 2) / np.abs(1.0 - np.conj(fmap.p) * z) ** 2
    xi_tau, J_tau = _height_jacobian(fmap, z, fmap.jet(z, upto=3),
                                     np.zeros((1, 1)))
    assert np.max(np.abs(xi_tau / (d1 / 2.0) - 1.0)) <= 1e-13
    assert np.max(np.abs(J_tau / (s * d1 ** 3 / 2.0) - 1.0)) <= 1e-13


def test_frame_jacobian_on_interleaved_near_and_far_rows():
    # rows with tau >= 1 take the far form in place, next to rows of the
    # near form, in the (panels, nodes, rays) layout of the ray sheets
    fmap = _OutsideAutomorphism(0.3 - 0.4j)
    tau = np.array([3.0, 1e-9, 1.0, 0.5, 0.999, 40.0])[:, None]
    z, _, J_exact = _automorphism_sheet(fmap, -1.0, tau)
    z, J_exact = z.reshape(3, 2, -1), J_exact.reshape(3, 2, -1)
    tau = tau.reshape(3, 2, 1)
    J = tau * _height_jacobian(fmap, z, fmap.jet(z, upto=3), tau)[1]
    assert np.max(np.abs(J / J_exact - 1.0)) <= 1e-13


def test_geodesic_shift_flat():
    t0, s = 0.4, 0.75
    fr = epstein_point(flat_jet(t0), 1.0 + 1.0j)
    sh = geodesic_shift(fr, s)
    assert abs(sh.base.xi - 2 * math.exp(-(t0 + s))) < 1e-13
    assert abs(sh.base.z - fr.base.z) < 1e-13


def test_geodesic_shift_zero_is_identity():
    f = PowerSeriesMap([0, 1, 0.05])
    fr = epstein_poincare(f, 0.3 + 0.2j)
    sh = geodesic_shift(fr, 0.0)
    assert abs(sh.base.z - fr.base.z) < 1e-15
    assert abs(sh.base.xi - fr.base.xi) < 1e-15


def test_geodesic_shift_matches_scaled_metric():
    z = 0.4 - 0.1j
    jet = disk_jet(z)
    s = 0.3
    shifted = geodesic_shift(epstein_point(jet, z), s)
    scaled = epstein_point(MetricJet(jet.phi + 2 * s, jet.phi_zbar), z)
    assert abs(shifted.base.z - scaled.base.z) < 1e-9
    assert abs(shifted.base.xi - scaled.base.xi) < 1e-9


def test_geodesic_shift_gauss_limit():
    # the base point returns to the source as the metric is scaled up
    f = PowerSeriesMap([0, 1, 0.08, 0.02])
    for zeta in (0.3, 0.5 - 0.4j):
        fr = epstein_poincare(f, zeta)
        far = geodesic_shift(fr, 10.0)
        assert abs(far.base.z - f(zeta)) < 1e-3


def test_curvatures_identity_plane():
    f = PowerSeriesMap([0, 1])
    c = curvatures(f, 0.3 + 0.1j)
    assert c.k_plus == 0 and c.k_minus == 0
    assert c.khat_plus == 1 and c.khat_minus == 1
    assert c.H == 0
    assert c.mean_density == 0


def test_curvatures_quadratic_at_zero():
    a = 0.05
    f = PowerSeriesMap([0, 1, a])
    c = curvatures(f, 0.0)
    t = 6 * a ** 2 / 4  # |S(f)(0)| / 4
    assert c.schwarzian_norm == pytest.approx(t, abs=1e-15)
    assert c.k_plus == pytest.approx(-t / (t + 1))
    assert c.k_minus == pytest.approx(-t / (t - 1))
    assert c.khat_plus == pytest.approx(1 + 2 * t)
    assert c.khat_minus == pytest.approx(1 - 2 * t)
    assert c.H == pytest.approx(t * t / (1 - t * t))
    assert not c.immersion_boundary


def test_curvatures_match_fd_shape_operator(rng, ellipse_maps):
    f, _ = ellipse_maps
    pts = 0.75 * (rng.uniform(0.1, 1, 20)
                  * np.exp(2j * np.pi * rng.uniform(size=20)))
    k_lo, k_hi, H, _ = fd_shape_operator(
        lambda z: _frame_fields(f, z), pts)
    for i, zeta in enumerate(pts):
        c = curvatures(f, zeta)
        expect = sorted([c.k_plus, c.k_minus])
        assert k_lo[i] == pytest.approx(expect[0], abs=2e-4)
        assert k_hi[i] == pytest.approx(expect[1], abs=2e-4)
        assert H[i] == pytest.approx(c.H, abs=2e-4)


def test_mean_curvature_total_circle_zero():
    assert mean_curvature_total(PowerSeriesMap([0, 1])) == 0


def test_mean_curvature_total_monte_carlo():
    f = PowerSeriesMap([0, 1, 0.1])
    val = mean_curvature_total(f)
    mc, sigma = mc_disk_integral(
        lambda z: np.abs(schwarzian(f, z)) ** 2
        * (1 - np.abs(z) ** 2) ** 2 / 4.0, n=2_000_000)
    assert abs(val - mc) < 3 * sigma


def test_mean_curvature_total_mobius_invariance():
    f = PowerSeriesMap([0, 1, 0.1])
    base = mean_curvature_total(f)
    # A(z) = z / (1 - 0.2 z), keeps the image bounded; represent A o f as a
    # long series through composition on boundary samples
    A = MobiusTransform(1, 0, -0.2, 1)
    n = 2048
    th = np.exp(2j * np.pi * np.arange(n) / n) * 0.99
    vals = A.eval_array(f.eval_unchecked(th))
    coeffs = (np.fft.fft(vals) / n)[:160] / 0.99 ** np.arange(160)
    comp = PowerSeriesMap(coeffs)
    assert abs(mean_curvature_total(comp) - base) < 1e-5


def test_asymptotic_conformality_diagnostic(ellipse_maps):
    f, _ = ellipse_maps
    sups = []
    for r in (0.9, 0.99, 0.999):
        th = r * np.exp(2j * np.pi * np.arange(256) / 256)
        sups.append(float(np.max(schwarzian_norm(f, th))))
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 1e-3
