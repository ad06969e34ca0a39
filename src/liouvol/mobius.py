"""Mobius transformations of the plane and their isometric action on
upper half-space, via quaternion multiplication on Z + j*xi."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularDerivative

DET_TOL = 1e-12


@dataclass(frozen=True)
class MobiusTransform:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise DomainError("degenerate Mobius matrix")
        s = np.sqrt(complex(det))
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)) / s)
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise DomainError(f"could not normalize determinant: {det}")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t):
        return cls(1.0, t, 0.0, 1.0)

    @classmethod
    def scaling(cls, k):
        if k == 0:
            raise DomainError("zero scaling")
        s = np.sqrt(complex(k))
        return cls(s, 0.0, 0.0, 1.0 / s)

    def __call__(self, z):
        if z == math.inf or z == complex(math.inf, 0):
            return math.inf if self.c == 0 else self.a / self.c
        num = self.a * z + self.b
        den = self.c * z + self.d
        if den == 0:
            return math.inf
        return num / den

    def eval_array(self, z):
        z = np.asarray(z, dtype=complex)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def deriv(self, z):
        den = self.c * z + self.d
        if np.any(np.abs(den) == 0):
            raise SingularDerivative("evaluation at the pole")
        return 1.0 / den ** 2

    def deriv2(self, z):
        den = self.c * z + self.d
        return -2.0 * self.c / den ** 3

    def compose(self, other):
        """self after other (matrix product)."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


@dataclass(frozen=True)
class H3Point:
    """Upper half-space point (Z, xi), xi > 0."""

    z: complex
    xi: float

    def __post_init__(self):
        if not self.xi > 0:
            raise DomainError("height must be strictly positive")
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "xi", float(self.xi))


def h3_distance(p, q):
    """Hyperbolic distance in the upper half-space model."""
    num = abs(p.z - q.z) ** 2 + (p.xi - q.xi) ** 2
    return math.acosh(1.0 + num / (2.0 * p.xi * q.xi))


# Quaternions as (w, x, y, z); complex a+bi embeds as (a, b, 0, 0) and the
# vertical unit as (0, 0, 1, 0).

def _quat(c, j=0.0):
    return np.array([c.real, c.imag, j, 0.0])


def _quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def _quat_inv(q):
    n2 = float(np.dot(q, q))
    if n2 == 0:
        raise DomainError("inverting zero quaternion")
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    return conj / n2


def mobius_on_h3(mob, p):
    """Isometric extension of a Mobius map: P -> (aP+b)(cP+d)^{-1} on quaternions."""
    P = _quat(complex(p.z), p.xi)
    num = _quat_mul(_quat(complex(mob.a)), P) + _quat(complex(mob.b))
    den = _quat_mul(_quat(complex(mob.c)), P) + _quat(complex(mob.d))
    res = _quat_mul(num, _quat_inv(den))
    if abs(res[3]) > 1e-9 * max(1.0, float(np.max(np.abs(res)))):
        raise DomainError("quaternion action left the upper half-space slice")
    return H3Point(complex(res[0], res[1]), res[2])


def osculating_mobius(f, z0):
    """Unique Mobius map sharing the 2-jet (value, f', f'') of f at z0."""
    w0, w1, w2 = f.jet(z0, upto=2)
    w0, w1, w2 = complex(w0), complex(w1), complex(w2)
    if abs(w1) < 1e-14:
        raise SingularDerivative("f'(z0) too small for an osculating map")
    alpha = np.sqrt(w1)
    beta = -w2 / (2.0 * w1 * alpha)
    core = MobiusTransform(alpha, 0.0, beta, 1.0 / alpha)
    shift = MobiusTransform.translation(w0)
    recenter = MobiusTransform.translation(-z0)
    return shift.compose(core).compose(recenter)
