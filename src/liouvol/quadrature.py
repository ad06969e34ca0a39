"""Product quadrature on the unit disk and, by inversion, on its exterior.

Radial direction: Gauss-Legendre panels on a geometric subdivision
accumulating at r = 1 (ratio 0.5), which resolves boundary layers of
integrands that vary fast near the rim. Angular direction: uniform nodes
(trapezoid rule, spectrally accurate for periodic integrands).

Exterior integrals are disk integrals of F(1/conj(v)) |v|^{-4}.
"""

import math
from dataclasses import dataclass

import numpy as np


def angular_count(order):
    """Uniform angular nodes that resolve a series of the given order in
    angle: max(256, 2^ceil(log2 order))."""
    return max(256, 2 ** math.ceil(math.log2(max(order, 1))))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    nodes: np.ndarray      # complex disk nodes v
    weights: np.ndarray    # positive, sum = pi
    angular_n: int
    domain: str = "disk"   # "disk" | "exterior"

    @classmethod
    def disk(cls, radial_levels=20, nodes_per_level=8, angular_n=256):
        if angular_n & (angular_n - 1):
            raise ValueError("angular node count must be a power of two")
        edges = [0.0] + [1.0 - 0.5 ** k for k in range(1, radial_levels)] + [1.0]
        x, w = np.polynomial.legendre.leggauss(nodes_per_level)
        r_nodes, r_weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            r_nodes.append(mid + half * x)
            r_weights.append(half * w)
        r = np.concatenate(r_nodes)
        wr = np.concatenate(r_weights)
        theta = 2.0 * np.pi * np.arange(angular_n) / angular_n
        v = r[:, None] * np.exp(1j * theta)[None, :]
        wts = (wr * r)[:, None] * (2.0 * np.pi / angular_n)
        return cls(v.ravel(), np.broadcast_to(wts, v.shape).ravel().copy(),
                   angular_n, "disk")

    @classmethod
    def for_order(cls, order):
        """Default disk grid with angular_count(order) angular nodes."""
        return cls.disk(angular_n=angular_count(order))

    def exterior(self):
        """Companion grid on |w| > 1: nodes 1/conj(v), weights carry the
        inversion Jacobian so that sum(w_i F(node_i)) integrates over the
        exterior."""
        if self.domain != "disk":
            raise ValueError("exterior() expects a disk grid")
        w = 1.0 / np.conj(self.nodes)
        jac = np.abs(self.nodes) ** -4
        return QuadratureGrid(w, self.weights * jac, self.angular_n,
                              "exterior")

    def integrate(self, values):
        values = np.asarray(values)
        return complex(np.sum(values * self.weights)) if np.iscomplexobj(values) \
            else float(np.sum(values * self.weights))
