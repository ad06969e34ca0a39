import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from oracles import MobiusTransform, equipotential, polynomial_curve

import liouvol.curves as curves_module
import liouvol.flow as flow_module
import liouvol.mapping as mapping_module
import liouvol.series as series_module
from liouvol.errors import DomainError, SingularDerivative
from liouvol.flow import (displacement_field, gradient_field,
                          roundness_deficit)
from liouvol.mapping import conformal_map_pair, exterior_map, welding
from liouvol.series import (LaurentMap, PowerSeriesMap, area_norm,
                            circle_samples, nonlinearity, ring_jet,
                            ring_values, schwarzian)


def test_eval_identity():
    f = PowerSeriesMap([0, 1])
    assert f(0.5 + 0.1j) == 0.5 + 0.1j


def test_eval_quadratic_at_one():
    f = PowerSeriesMap([0, 1, 0.1])
    assert abs(f(1.0) - 1.1) < 1e-15


def test_eval_outside_radius_raises():
    # the map is its coefficients: its domain is the closed unit disk, to
    # the 1e-12 that LaurentMap allows inside |w| = 1
    f = PowerSeriesMap([0, 1])
    assert f(1 + 1e-13) == 1 + 1e-13
    for z in (1 + 1e-9, 2.0):
        with pytest.raises(DomainError):
            f(z)


def test_laurent_joukowski():
    g = LaurentMap(1.1, 0.0, [0.1])
    assert abs(g(2.0) - 2.25) < 1e-15
    with pytest.raises(DomainError):
        g(0.5)


def test_laurent_derivatives_match_fd():
    g = LaurentMap(1.3, 0.2 - 0.1j, [0.05, 0.01j, -0.002])
    w = 1.7 + 0.4j
    h = 1e-5
    fd1 = (g(w + h) - g(w - h)) / (2 * h)
    fd2 = (g(w + h) - 2 * g(w) + g(w - h)) / h ** 2
    assert abs(g.deriv_at(w, 1) - fd1) < 1e-9
    assert abs(g.deriv_at(w, 2) - fd2) < 1e-5


def _laurent_closed_form(g, w, m):
    """(g^(m)(w), the sum of the moduli of its terms), term by term in
    extended precision: b1 w + b0 + sum_k b_-k w^-k,
    b1 - sum_k k b_-k w^(-k-1), sum_k k(k+1) b_-k w^(-k-2) and
    -sum_k k(k+1)(k+2) b_-k w^(-k-3) for m = 0 to 3."""
    k = np.arange(1, g.order + 1)
    fall = np.prod([k + i for i in range(m)], axis=0)
    u = 1 / np.asarray(w, dtype=np.clongdouble)
    terms = ((-1) ** m * fall * g.bneg.astype(np.clongdouble)
             * u[..., None] ** (k + m))
    head = (g.b1 * np.asarray(w) + g.b0, g.b1, 0.0, 0.0)[m]
    return head + terms.sum(axis=-1), abs(head) + np.abs(terms).sum(axis=-1)


def test_deriv_at_matches_the_closed_forms(rng):
    # deriv_at is the last entry of the Horner jet: against the term-by-term
    # derivatives it replaces, at arrays and scalars, with and without
    # negative powers
    k = np.arange(1, 25)
    bneg = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) / k ** 2
    w = (1.0 + 2.0 * rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    w[0] = np.exp(0.3j)
    for g in (LaurentMap(1.3 - 0.2j, 0.1j, bneg), LaurentMap(0.8, 0.2j)):
        for m in (1, 2, 3):
            value = g.deriv_at(w, m)
            ref, scale = _laurent_closed_form(g, w, m)
            assert np.max(np.abs(value - ref) / np.maximum(scale, 1e-300)) \
                <= 1e-15
            first = g.deriv_at(complex(w[0]), m)
            assert np.ndim(first) == 0
            assert abs(first - ref[0]) <= 1e-15 * max(scale[0], 1e-300)
    with pytest.raises(ValueError):
        g.deriv_at(w, 4)


def test_nonlinearity_identity_is_zero():
    f = PowerSeriesMap([0, 1])
    for z in (0.0, 0.3 + 0.2j, -0.8):
        assert nonlinearity(f, z) == 0


def test_nonlinearity_quadratic_closed_form():
    a = 0.1
    f = PowerSeriesMap([0, 1, a])
    for z in (0.0, 0.25, 0.4 - 0.3j):
        assert abs(nonlinearity(f, z) - 2 * a / (1 + 2 * a * z)) < 1e-14


def test_nonlinearity_translation_invariant():
    f = PowerSeriesMap([0, 1, 0.07, 0.01])
    shifted = PowerSeriesMap(f.coeffs + np.array([2.5 - 1j, 0, 0, 0]))
    z = 0.3 + 0.1j
    assert abs(nonlinearity(f, z) - nonlinearity(shifted, z)) < 1e-15


def test_nonlinearity_singular_derivative():
    f = PowerSeriesMap([0, 1, -0.5])  # f'(1) = 0
    with pytest.raises(SingularDerivative):
        nonlinearity(f, 1.0)


def test_schwarzian_mobius_is_zero(rng):
    # polynomial truncation of z/(1 - c z), a Mobius map
    c = 0.2 - 0.1j
    n = 60
    coeffs = np.concatenate([[0], c ** np.arange(n)])
    f = PowerSeriesMap(coeffs)
    for z in rng.uniform(-0.5, 0.5, 5) + 1j * rng.uniform(-0.5, 0.5, 5):
        assert abs(schwarzian(f, z)) < 1e-12


def test_schwarzian_quadratic_at_zero():
    a = 0.05
    f = PowerSeriesMap([0, 1, a])
    assert abs(schwarzian(f, 0.0) - (-6 * a ** 2)) < 1e-15


def test_schwarzian_postcomposition_invariance(rng):
    # |S(A o f) - S(f)| below 1e-9 over random Mobius maps and points
    f = PowerSeriesMap([0, 1, 0.08, -0.01, 0.002j])
    worst = 0.0
    for _ in range(100):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) < 0.1:
            continue
        A = MobiusTransform(a, b, c, d)
        z = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        fz, f1, f2, f3 = f.jet(z)
        if abs(A.c * fz + A.d) < 0.3:
            continue  # keep the pole away from the jet
        # chain rule jets of A o f
        a1 = A.deriv(fz) * f1
        a2 = A.deriv2(fz) * f1 ** 2 + A.deriv(fz) * f2
        a3 = (6 * A.c ** 2 / (A.c * fz + A.d) ** 4) * f1 ** 3 \
            + 3 * A.deriv2(fz) * f1 * f2 + A.deriv(fz) * f3
        s_comp = a3 / a1 - 1.5 * (a2 / a1) ** 2
        worst = max(worst, abs(s_comp - schwarzian(f, z)))
    assert worst < 1e-9


def test_equipotential_identity_fixed():
    f = PowerSeriesMap([0, 1])
    for n in (2, 5, 17):
        fn = equipotential(f, n)
        assert np.allclose(fn.coeffs, f.coeffs)


def test_equipotential_quadratic_level_two():
    a = 0.3
    f = PowerSeriesMap([0, 1, a])
    f2 = equipotential(f, 2)
    # matches 2 f(z/2) coefficientwise
    assert np.allclose(f2.coeffs, [0, 1, a / 2])
    z = 0.37 - 0.21j
    assert abs(f2(z) - 2 * f.eval_unchecked(z / 2)) < 1e-15


def test_equipotential_coefficient_decay_exact():
    f = PowerSeriesMap([0, 1, 0.2, 0.1, 0.05])
    n = 4
    fn = equipotential(f, n)
    k = np.arange(5)
    expected = np.abs(f.coeffs) * (n / (n - 1)) * ((n - 1) / n) ** k
    assert np.allclose(np.abs(fn.coeffs), expected, rtol=0, atol=1e-16)


def test_equipotential_converges_to_map():
    f = PowerSeriesMap([0, 1, 0.1, -0.05j])
    z = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 32))
    gaps = [np.max(np.abs(equipotential(f, n).eval_unchecked(z)
                          - f.eval_unchecked(z)))
            for n in (2, 8, 32, 128)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_area_norm_of_monomials(k, p):
    # int_D |z^k|^2 (1-|z|^2)^p = pi B(k+1, p+1); w^{-m} outside maps to
    # v^{m-p-2} inside under v = 1/w
    exact = math.pi * math.factorial(k) * math.factorial(p) \
        / math.factorial(k + p + 1)
    # both maps are the identity, so the jet's value is the point itself
    inside, err_in = area_norm(PowerSeriesMap([0, 1]),
                               lambda jet: jet[0] ** k, p)
    outside, err_out = area_norm(LaurentMap(1.0),
                                 lambda jet: jet[0] ** -(k + p + 2), p)
    assert inside == pytest.approx(exact, rel=1e-14)
    assert outside == pytest.approx(exact, rel=1e-14)
    assert err_in < 1e-15 and err_out < 1e-15


@pytest.mark.parametrize("upto", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 7, 64])
def test_jet_matches_separate_evaluation(rng, order, upto):
    # the one-pass jets against the term-by-term derivatives and polyval of
    # polyder
    def close(values, refs):
        for v, r in zip(values, refs):
            assert np.max(np.abs(v - r)) <= 1e-13 * np.max(np.abs(r))

    k = np.arange(1, order + 1)
    bneg = (rng.normal(size=order) + 1j * rng.normal(size=order)) / k ** 2
    g = LaurentMap(1.3 - 0.2j, 0.1j, bneg)
    a = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) \
        / (np.arange(order + 1) + 1.0) ** 2
    f = PowerSeriesMap(a)
    phase = np.exp(2j * np.pi * rng.random(50))
    w = (1.0 + 2.0 * rng.random(50)) * phase
    z = 1.2 * rng.random(50) * phase
    cases = ((g, w, [_laurent_closed_form(g, w, j)[0]
                     for j in range(upto + 1)]),
             (f, z, [npoly.polyval(z, npoly.polyder(a, j)) if j <= order
                     else np.zeros_like(z) for j in range(upto + 1)]))
    for m, pts, refs in cases:
        jet = m.jet(pts, upto=upto)
        assert len(jet) == upto + 1
        close(jet, refs)
        # a scalar argument gives scalars
        first = m.jet(complex(pts[0]), upto=upto)
        assert all(np.ndim(v) == 0 for v in first)
        close(first, [r[0] for r in refs])
    # the exterior value is formed exactly as __call__ forms it
    assert np.array_equal(g.jet(w, upto=upto)[0], g(w))


def _derivative_scale(powers, coeffs, r, m):
    """sum_p |d^m/dz^m c_p z^p| at |z| = r for the powers p of a (Laurent)
    polynomial: the size of its m-th derivative's terms."""
    fall = np.prod([powers - i for i in range(m)], axis=0)
    keep = fall != 0
    return np.sum(np.abs(fall[keep] * coeffs[keep])
                  * r[..., None] ** (powers[keep] - m), axis=-1)


@pytest.mark.parametrize("order, n", [(0, 8), (7, 8), (8, 8), (20, 8),
                                      (64, 256), (300, 256)])
def test_ring_jet_matches_jet(rng, order, n):
    # one FFT per radius against Horner at the same points, relative to the
    # size of each derivative's terms; order >= n folds terms onto k mod n,
    # and the radii reach 0 and 1 inside, 1 and 1000 outside
    k = np.arange(order + 1)
    a = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) \
        / (k + 1.0) ** 2
    f = PowerSeriesMap(a)
    g = LaurentMap(1.3 - 0.2j, 0.1j, a[1:])
    inside = np.array([[0.0, 1e-3, 0.5], [0.9, 0.999, 1.0]])
    outside = np.array([1.0, 1.001, 2.0, 1e3])
    laurent = np.concatenate([[1, 0], -k[1:]]), np.concatenate(
        [[g.b1, g.b0], g.bneg])
    for m, radii, (powers, coeffs) in ((f, inside, (k, a)),
                                       (g, outside, laurent)):
        ring = ring_jet(m, radii, n)
        ref = m.jet(radii[..., None] * np.exp(2j * np.pi * np.arange(n) / n))
        assert len(ring) == 4
        for d, (v, r) in enumerate(zip(ring, ref)):
            assert v.shape == radii.shape + (n,)
            scale = _derivative_scale(powers, coeffs, radii, d)[..., None]
            assert np.all(np.abs(v - r) <= 1e-13 * scale)
    with pytest.raises(DomainError):
        ring_jet(g, [0.5], n)


@pytest.mark.parametrize("order, n", [(0, 8), (7, 8), (8, 8), (20, 8),
                                      (300, 256)])
def test_ring_values_match_horner(rng, order, n):
    # order >= n folds the terms onto k mod n
    c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
    radii = np.array([[0.0, 1e-3, 0.5], [0.9, 0.999, 1.0]])
    ring = ring_values(c, radii, n)
    ref = npoly.polyval(radii[..., None]
                        * np.exp(2j * np.pi * np.arange(n) / n), c)
    assert ring.shape == radii.shape + (n,)
    scale = _derivative_scale(np.arange(order + 1), c, radii, 0)[..., None]
    assert np.all(np.abs(ring - ref) <= 1e-13 * scale)


def _roots(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _close(values, ref, rel=1e-13):
    """Agreement to rel of the largest reference value."""
    assert np.max(np.abs(values - ref)) <= rel * np.max(np.abs(ref))


def _sampled(n):
    """Every (n // 256)-th of n indices."""
    return np.arange(0, n, max(1, n // 256))


def _long_jet(m, n, inverse=False):
    """The 3-jet of m at the n-th roots of unity z_j, or at 1/z_j, for the
    indices j = _sampled(n), by Horner in long double. In double precision
    Horner at the rounded z_j is off by about |m^(d+1)| 1e-16, 1e-13 of the
    third derivative at order 2048; the ring FFT sums at the exact roots."""
    z = np.exp(2j * (4 * np.arctan(np.longdouble(1)))
               * _sampled(n).astype(np.longdouble) / n)
    z = 1 / z if inverse else z
    if isinstance(m, PowerSeriesMap):
        return [npoly.polyval(z, npoly.polyder(m.coeffs, d))
                if d <= m.order else np.zeros(z.size) for d in range(4)]
    # d^d/dw^d w^-k = (-k)(-k-1)...(-k-d+1) u^(k+d), u = 1/w
    u, k = 1 / z, np.arange(1, m.order + 1)
    heads = (m.b1 * z + m.b0, m.b1, 0.0, 0.0)
    return [heads[d] + u ** d * npoly.polyval(u, np.concatenate(
        [[0.0], np.prod([-(k + i) for i in range(d)], axis=0) * m.bneg]))
            for d in range(4)]


@pytest.mark.parametrize("order", [0, 5, 128, 2048, 3000])
def test_uniform_angle_evaluations_match_horner(rng, order):
    # every evaluation at n uniform angles is a ring FFT; against Horner at
    # the same points (256 of them per ring, in long double): circle_samples
    # (each jet component, at z_j inside and 1/z_j outside), the 2048
    # samples of f - f(0) that CurveSpec.validate takes, and the value rings
    # of 1024 (the variation oracle), 4096 (the solve probe, the polar lookup
    # table and the welding table) and 256 points. Order 3000 runs past every
    # fixed count, so its terms fold onto k mod n.
    k = np.arange(order + 1)
    c = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) \
        / (k + 1.0) ** 4
    f = PowerSeriesMap(c)
    g = LaurentMap(1.3 - 0.2j, c[0], c[1:])
    n = max(1024, 8 * 2 ** math.ceil(math.log2(order + 1)))
    for m in (f, g):
        ref = _long_jet(m, n, inverse=m is g)
        for d in range(4):
            samples = circle_samples(m, lambda jet, d=d: jet[d])
            _close(samples[_sampled(n)], ref[d])
    core = np.r_[0, c[1:]]
    _close(ring_values(core, 1.0, 2048)[_sampled(2048)],
           _long_jet(PowerSeriesMap(core), 2048)[0])
    for n in (256, 1024, 4096):
        for m in (f, g):
            _close(ring_jet(m, 1.0, n, upto=0)[0][_sampled(n)],
                   _long_jet(m, n)[0])


def _horner_ring_jet(m, radii, n, upto=3):
    return m.jet(np.asarray(radii, dtype=float)[..., None] * _roots(n),
                 upto=upto)


def _horner_ring_values(c, radii, n):
    return npoly.polyval(np.asarray(radii, dtype=float)[..., None]
                         * _roots(n), c)


@pytest.mark.parametrize("name", ["cubic", "star"])
def test_solver_and_flow_sites_match_horner(name, monkeypatch):
    # the exterior solve (polar lookup table, fit probe), welding, the
    # flow's contour path and the roundness deficit, first on ring FFTs and
    # then with every ring evaluation of their modules replaced by Horner
    # at the same points: the outputs agree to rounding
    curve = (polynomial_curve(0.0, 0.05) if name == "cubic" else
             polynomial_curve(0.0, 0.0, 0.0, 0.08))
    theta = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)

    def outputs():
        f, g = conformal_map_pair(curve)
        _, diag = exterior_map(curve)
        z, fdot = displacement_field(gradient_field(g))
        return {"g": np.concatenate([[g.b1, g.b0], g.bneg]),
                "mismatch": diag.boundary_mismatch, "z": z, "fdot": fdot,
                "welding": welding(f, g, theta),
                "roundness": roundness_deficit(g)}

    ring = outputs()
    for module in (series_module, curves_module, mapping_module,
                   flow_module):
        if hasattr(module, "ring_jet"):
            monkeypatch.setattr(module, "ring_jet", _horner_ring_jet)
        if hasattr(module, "ring_values"):
            monkeypatch.setattr(module, "ring_values", _horner_ring_values)
    horner = outputs()
    for key in ("g", "z", "fdot", "welding"):
        _close(ring[key], horner[key])
    assert abs(ring["mismatch"] - horner["mismatch"]) <= 1e-13
    assert abs(ring["roundness"] - horner["roundness"]) <= 1e-13
