import numpy as np
import pytest

from oracles import (H3Point, MobiusTransform, balanced_curve, h3_distance,
                     inverted_exterior, inverted_interior, mobius_on_h3,
                     osculating_mobius, polynomial_curve)

from liouvol.cli import load_curve
from liouvol.curves import CurveSpec
from liouvol.errors import DomainError
from liouvol.mapping import conformal_map_pair
from liouvol.series import PowerSeriesMap
from liouvol.volume import renormalized_volume


def test_determinant_normalized():
    A = MobiusTransform(2, 0, 0, 2)
    assert abs(A.a * A.d - A.b * A.c - 1) < 1e-12


def test_degenerate_matrix_rejected():
    with pytest.raises(DomainError):
        MobiusTransform(1, 2, 2, 4)


def test_compose_matches_matrix_product(rng):
    for _ in range(20):
        m = rng.normal(size=8) + 1j * rng.normal(size=8)
        try:
            A = MobiusTransform(*m[:4])
            B = MobiusTransform(*m[4:])
        except DomainError:
            continue
        z = complex(rng.normal(), rng.normal())
        assert abs(A.compose(B)(z) - A(B(z))) < 1e-9


def test_inverse():
    A = MobiusTransform(1.2, 0.3j, -0.1, 0.9)
    z = 0.7 - 0.2j
    assert abs(A.inverse()(A(z)) - z) < 1e-12


def test_h3_identity_action():
    p = H3Point(0.3 + 0.4j, 1.7)
    q = mobius_on_h3(MobiusTransform.identity(), p)
    assert abs(q.z - p.z) < 1e-15 and abs(q.xi - p.xi) < 1e-15


def test_h3_translation():
    p = H3Point(0.5j, 0.8)
    q = mobius_on_h3(MobiusTransform.translation(2 - 1j), p)
    assert abs(q.z - (2 - 0.5j)) < 1e-14
    assert abs(q.xi - 0.8) < 1e-14


def test_h3_dilation():
    q = mobius_on_h3(MobiusTransform.scaling(2.0), H3Point(0, 1))
    assert abs(q.z) < 1e-14 and abs(q.xi - 2.0) < 1e-14


def test_h3_distance_symmetric_and_positive():
    p = H3Point(0.1, 0.5)
    q = H3Point(1 - 1j, 2.5)
    assert h3_distance(p, q) == pytest.approx(h3_distance(q, p))
    assert h3_distance(p, q) > 0
    assert h3_distance(p, p) == 0


def test_h3_action_is_isometry(rng):
    worst = 0.0
    for _ in range(50):
        m = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            A = MobiusTransform(*m)
        except DomainError:
            continue
        p = H3Point(complex(rng.normal(), rng.normal()),
                    float(rng.uniform(0.2, 3)))
        q = H3Point(complex(rng.normal(), rng.normal()),
                    float(rng.uniform(0.2, 3)))
        d0 = h3_distance(p, q)
        d1 = h3_distance(mobius_on_h3(A, p), mobius_on_h3(A, q))
        worst = max(worst, abs(d0 - d1))
    assert worst < 1e-9


def test_osculating_of_mobius_is_itself(rng):
    A = MobiusTransform(1.1, 0.2, -0.15, 0.95)
    # truncate A to a long series around 0 to feed the jet interface
    n = 80
    c = -A.c / A.d
    # A(z) = (a z + b)/(c z + d): series via geometric expansion
    k = np.arange(n)
    geo = (c ** 0) * 0  # placeholder, build numerically
    z = np.exp(2j * np.pi * np.arange(256) / 256) * 0.5
    vals = A.eval_array(z)
    coeffs = np.fft.fft(vals) / 256
    ser = PowerSeriesMap(np.concatenate([coeffs[:64] / 0.5 ** np.arange(64)]))
    M = osculating_mobius(ser, 0.0)
    for zz in (0.3, -0.2 + 0.1j):
        assert abs(M(zz) - A(zz)) < 1e-8


def test_osculating_quadratic_closed_form():
    a = 0.07
    f = PowerSeriesMap([0, 1, a])
    M = osculating_mobius(f, 0.0)
    # alpha^2 = 1 and 2 alpha beta = -2a, so M(z) = z / (1 - a z) jet-wise
    for z in (0.1, 0.2 - 0.05j):
        assert abs(M(z) - z / (1 - a * z)) < 1e-12


def test_osculating_jet_match_random_polynomials(rng):
    for _ in range(10):
        coeffs = np.concatenate([[0, 1], 0.1 * (rng.normal(size=3)
                                                + 1j * rng.normal(size=3))])
        f = PowerSeriesMap(coeffs)
        z0 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        M = osculating_mobius(f, z0)
        w0, w1, w2 = f.jet(z0, upto=2)
        h = 1e-5
        m0 = M(z0)
        m1 = (M(z0 + h) - M(z0 - h)) / (2 * h)
        m2 = (M(z0 + h) - 2 * M(z0) + M(z0 - h)) / h ** 2
        assert abs(m0 - w0) < 1e-9
        assert abs(m1 - w1) < 1e-9
        assert abs(m2 - w2) < 1e-4



def _inversion_curve(name):
    """A fixture, the fivefold star z + 0.08 z^5 or a balanced starlike
    curve ("balanced<seed>")."""
    if name == "star":
        return polynomial_curve(0.0, 0.0, 0.0, 0.08)
    if name.startswith("balanced"):
        return balanced_curve(int(name[-1]), 2)
    return load_curve(name)


@pytest.mark.parametrize("name", ["ellipse", "cubic", "wobble", "star",
                                  "balanced1", "balanced2", "balanced3"])
def test_the_inversion_that_swaps_the_sheets_keeps_action_and_volume(name):
    # z -> 1/(z - f(0)) carries the curve to gamma' and its exterior to the
    # inside of gamma': S, V and V_R are the same for the inverted pair
    # (F, G) and for the maps of gamma' re-solved from F. The ellipse is a
    # polyline, whose maps carry its spline's floor
    s_tol, v_tol = (1e-10, 1e-10) if name == "ellipse" else (1e-13, 1e-12)
    f, g = conformal_map_pair(_inversion_curve(name))
    ref = renormalized_volume(f, g)
    f_inv = inverted_interior(f, g)
    for pair in ((f_inv, inverted_exterior(f)),
                 conformal_map_pair(CurveSpec.from_series(f_inv))):
        report = renormalized_volume(*pair)
        assert (abs(report.action_total - ref.action_total)
                <= s_tol * abs(ref.action_total))
        assert abs(report.V - ref.V) <= v_tol * abs(ref.V)
        assert abs(report.V_R - ref.V_R) <= v_tol * abs(ref.V_R)
