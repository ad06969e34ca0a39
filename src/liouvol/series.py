"""Truncated power/Laurent series representing conformal maps.

PowerSeriesMap holds f(z) = sum_k a_k z^k on a disk of radius > 1,
LaurentMap holds g(w) = b1 w + b0 + sum_k b_{-k} w^{-k} on |w| > 1.
Differentiation is exact on coefficients. Evaluation is Horner at
scattered points, where a value, a jet (the value with its first
derivatives) or one derivative takes one pass of one kernel
(_taylor_horner), and FFT on rings: at the points r e^{2 pi i j/n}, uniform
in angle, a jet is one length-n FFT per radius and derivative (ring_jet),
and a value one FFT (ring_values). Every evaluation of a map at n uniform
angles takes the ring path. Integrals of |analytic|^2 against a radial
weight over the parameter domain are coefficient sums from one FFT of
boundary samples (area_norm).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularDerivative

DERIVATIVE_FLOOR = 1e-14
# points per Horner block in _taylor_horner: a few accumulator rows of this
# many complex values stay in cache while every coefficient passes over them
_HORNER_BLOCK = 8192


def _as_coeffs(c):
    a = np.asarray(c, dtype=complex).ravel()
    if a.size == 0:
        raise DomainError("empty coefficient list")
    return a


def _taylor_horner(c, x, upto):
    """p^(m)(x)/m! for m = 0..upto, p(x) = sum_k c[k] x^k, from one Horner
    pass that updates the upto + 1 accumulators in place, over blocks of
    points small enough to stay in cache. A scalar x gives scalars."""
    x = np.asarray(x, dtype=complex)
    flat = x.ravel()
    acc = np.zeros((upto + 1, flat.size), dtype=complex)
    for lo in range(0, flat.size, _HORNER_BLOCK):
        xb = flat[lo:lo + _HORNER_BLOCK]
        d = list(acc[:, lo:lo + _HORNER_BLOCK])  # row views, updated in place
        for ck in c[::-1]:
            for m in range(upto, 0, -1):
                d[m] *= xb
                d[m] += d[m - 1]
            d[0] *= xb
            d[0] += ck
    return tuple(a.reshape(x.shape)[()] for a in acc)


@dataclass(frozen=True, eq=False)
class PowerSeriesMap:
    """f(z) = a_0 + a_1 z + ... + a_N z^N on the closed unit disk: the map
    is its coefficients. Calling it outside |z| <= 1 raises DomainError, as
    a LaurentMap does inside |w| < 1; eval_unchecked and jet do not check.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self):
        return self.coeffs.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1 + 1e-12):
            raise DomainError("PowerSeriesMap is defined on |z| <= 1")
        return _taylor_horner(self.coeffs, z, 0)[0]

    def eval_unchecked(self, z):
        return _taylor_horner(self.coeffs, z, 0)[0]

    def jet(self, z, upto=3):
        """Values (f, f', f'', f''') at z, truncated to ``upto`` derivatives."""
        d = _taylor_horner(self.coeffs, z, upto)
        return tuple(dm * math.factorial(m) if m > 1 else dm
                     for m, dm in enumerate(d))

    def is_normalized_map(self):
        return self.coeffs.size >= 2 and self.coeffs[1] != 0

    def scaled(self, c):
        """The map c f."""
        return PowerSeriesMap(c * self.coeffs)


@dataclass(frozen=True, eq=False)
class LaurentMap:
    """g(w) = b1 w + b0 + sum_{k=1..M} bneg[k-1] w^{-k} for |w| >= 1."""

    b1: complex
    b0: complex = 0.0
    bneg: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    def __post_init__(self):
        if self.b1 == 0:
            raise DomainError("leading Laurent coefficient must be nonzero")
        object.__setattr__(self, "b1", complex(self.b1))
        object.__setattr__(self, "b0", complex(self.b0))
        object.__setattr__(
            self, "bneg", np.asarray(self.bneg, dtype=complex).ravel())

    @property
    def order(self):
        return self.bneg.size

    def __call__(self, w):
        return self.jet(w, upto=0)[0]

    def deriv_at(self, w, m=1):
        """m-th derivative (m = 1, 2 or 3), the last entry of the jet."""
        if m not in (1, 2, 3):
            raise ValueError("m must be 1, 2 or 3")
        return self.jet(w, upto=m)[m]

    def jet(self, w, upto=3):
        """Values (g, g', g'', g''') at w, truncated to ``upto`` derivatives:
        one Horner pass in u = 1/w gives h(u) = sum_k b_{-k} u^k and its
        derivatives, and the chain rule gives g' = b1 - u^2 h',
        g'' = 2u^3 h' + u^4 h'' and g''' = -(6u^4 h' + 6u^5 h'' + u^6 h''')."""
        w = np.asarray(w, dtype=complex)
        if np.any(np.abs(w) < 1 - 1e-12):
            raise DomainError("LaurentMap is defined on |w| >= 1")
        u = 1.0 / w
        # h = u p with p(u) = sum_k b_{-k} u^(k-1): d[m] = h^(m)/m! is
        # e[m-1] + u e[m] for e[m] = p^(m)/m!
        e = _taylor_horner(self.bneg, u, upto)
        d = [u * e[0]] + [e[m - 1] + u * e[m] for m in range(1, upto + 1)]
        return self._chain(w, u, d)

    def _chain(self, w, u, d):
        """(g, g', ...) at w = 1/u from d[m] = h^(m)(u)/m!, m < len(d)."""
        out = [self.b1 * w + self.b0 + d[0]]
        if len(d) > 1:
            u2 = u * u
            out.append(self.b1 - u2 * d[1])
        if len(d) > 2:
            out.append(2.0 * u2 * u * (d[1] + u * d[2]))
        if len(d) > 3:
            out.append(-6.0 * u2 * u2 * (d[1] + u * (2.0 * d[2] + u * d[3])))
        return tuple(out)

    def scaled(self, c):
        """The map c g."""
        return LaurentMap(c * self.b1, c * self.b0, c * self.bneg)

    def rotated(self, alpha):
        """Precompose with w -> w e^{-i alpha} (coefficient of w^k gets e^{-ik alpha})."""
        k = np.arange(1, self.bneg.size + 1)
        return LaurentMap(
            self.b1 * np.exp(-1j * alpha),
            self.b0,
            self.bneg * np.exp(1j * k * alpha),
        )


def unit_scale(m):
    """The power of two c that brings |c m'| at 0, or at infinity for a
    LaurentMap, within [2^-1/2, 2^1/2]. m.scaled(c) is exact, so lengths
    taken from it are m's times c to the bit, and their squares and fourth
    powers stay in the float range for any size of curve."""
    lead = m.b1 if isinstance(m, LaurentMap) else m.coeffs[1]
    return 2.0 ** -round(math.log2(abs(lead)))


def _fold_fft(terms, n, sign):
    """sum_k terms[..., k] e^{sign 2 pi i j k/n} for j < n along the last
    axis: the terms folded onto k mod n, then one length-n DFT."""
    size = terms.shape[-1]
    if size > n:
        pad = np.zeros(terms.shape[:-1] + (-size % n,), dtype=complex)
        terms = np.concatenate([terms, pad], axis=-1)
        terms = terms.reshape(terms.shape[:-1] + (-1, n)).sum(axis=-2)
    # a shorter row is zero-padded to n by the FFT itself
    return (np.fft.ifft(terms, n, norm="forward") if sign > 0
            else np.fft.fft(terms, n))


def _ring_taylor(c, radii, n, sign, upto):
    """p^(m)(x)/m! for m = 0..upto, p(x) = sum_k c[k] x^k, at the points
    x = r e^{sign 2 pi i j/n}, j < n, of every radius r: arrays of shape
    radii.shape + (n,). At one radius p^(m)(x)/m! is
    sum_k C(k, m) c[k] r^(k-m) e^{sign 2 pi i j (k-m)/n}, one length-n DFT of
    these terms folded onto (k - m) mod n."""
    powers = np.asarray(radii, dtype=float)[..., None] ** np.arange(c.size)
    out = []
    for m in range(upto + 1):
        k = np.arange(m, c.size)
        comb = np.prod([k - i for i in range(m)], axis=0) / math.factorial(m)
        out.append(_fold_fft(powers[..., :k.size] * (comb * c[m:]), n, sign))
    return out


def ring_values(c, radii, n):
    """p(x) = sum_k c[k] x^k at the points x = r e^{2 pi i j/n}, j < n, of
    every radius r in radii, as an array of shape radii.shape + (n,): one
    length-n FFT per radius, the value alone of _ring_taylor."""
    return _ring_taylor(np.asarray(c, dtype=complex), radii, n, 1, 0)[0]


def ring_jet(m, radii, n, upto=3):
    """The jet m.jet(z, upto) at the points z = r e^{2 pi i j/n}, j < n, of
    every radius r in radii, as arrays of shape radii.shape + (n,), from
    one length-n FFT per radius and derivative: O(n log n) per radius where
    Horner costs O(n order)."""
    radii = np.asarray(radii, dtype=float)
    if isinstance(m, LaurentMap):
        if np.any(radii < 1 - 1e-12):
            raise DomainError("LaurentMap is defined on |w| >= 1")
        w = radii[..., None] * np.exp(2j * np.pi * np.arange(n) / n)
        # h(u) = sum_k b_{-k} u^k at u = 1/w = r^-1 e^{-2 pi i j/n}
        h = np.concatenate([[0.0], m.bneg])
        return m._chain(w, 1.0 / w,
                        _ring_taylor(h, 1.0 / radii, n, -1, upto))
    d = _ring_taylor(m.coeffs, radii, n, 1, upto)
    return tuple(dm * math.factorial(k) if k > 1 else dm
                 for k, dm in enumerate(d))


def nonlinearity_of(jet):
    """f''/f' from a jet (f, f', f'', ...) of the map; refuses |f'| at or
    below DERIVATIVE_FLOOR times its largest value over the jet's points."""
    size = np.abs(jet[1])
    if np.any(size <= DERIVATIVE_FLOOR * np.max(size)):
        raise SingularDerivative(f"|f'| below {DERIVATIVE_FLOOR} of its max")
    return jet[2] / jet[1]


def schwarzian_of(jet):
    """f'''/f' - (3/2)(f''/f')^2 from a jet (f, f', f'', f''') of the map."""
    nl = nonlinearity_of(jet)
    return jet[3] / jet[1] - 1.5 * nl * nl


def nonlinearity(m, z):
    """f''/f' at scattered points z, from exact series differentiation."""
    return nonlinearity_of(m.jet(z, upto=2))


def schwarzian(m, z):
    """The Schwarzian derivative at scattered points z, from exact series
    differentiation."""
    return schwarzian_of(m.jet(z, upto=3))


@functools.lru_cache(maxsize=4)
def _circle_jet(m):
    """The read-only 3-jet of circle_samples, kept for the last few maps
    (which hash by identity and are never edited): one ring_jet per map."""
    n = max(1024, 8 * 2 ** math.ceil(math.log2(m.order + 1)))
    jet = ring_jet(m, 1.0, n)
    for a in jet:
        a.flags.writeable = False
    return jet


def circle_samples(m, h):
    """h of the 3-jet of m at the n-th roots of unity z_j, or at 1/z_j for
    a LaurentMap, with n = max(1024, 8 * 2^ceil(log2(order + 1))). The jet
    takes one ring FFT per derivative (ring_jet) once per map, and h maps it
    pointwise to the samples, as nonlinearity_of and schwarzian_of do."""
    samples = h(_circle_jet(m))
    if isinstance(m, LaurentMap):
        samples = np.roll(samples[::-1], 1)  # 1/z_j = z_{-j mod n}
    return samples


def coefficient_sum(m, samples, p=0):
    """int |h|^2 (+-(1 - |z|^2))^p over the parameter domain of m, from the
    samples of h that circle_samples returns (or every other one of them).

    The FFT gives the coefficients c_k of h in z (inside) or 1/w (outside);
    the disk sum is pi p! sum_k |c_k|^2 k!/(k+p+1)!. Outside, inversion
    turns the integrand into that of the coefficients c_{k+p+2}.
    """
    c = np.fft.fft(samples) / len(samples)
    if isinstance(m, LaurentMap):
        c = c[p + 2:]
    k = np.arange(c.size, dtype=float)
    denom = np.prod([k + j for j in range(1, p + 2)], axis=0)
    return float(math.pi * math.factorial(p) * np.sum(np.abs(c) ** 2 / denom))


def area_norm(m, h, p=0):
    """(value, error) of the integral of |h|^2 (+-(1 - |z|^2))^p over
    |z| < 1 for a PowerSeriesMap, or over |w| > 1 for a LaurentMap, with h
    a function of the map's jet as circle_samples takes it.

    The error is the change against the sum from every other sample.
    """
    samples = circle_samples(m, h)
    value = coefficient_sum(m, samples, p)
    return value, abs(value - coefficient_sum(m, samples[::2], p))
