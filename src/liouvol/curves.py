"""Curve inputs: analytic interior-series curves and sampled polylines.

A curve is an input that only the map solvers read. Both variants have an
interior anchor point: f(0) for series curves and the vertex centroid for
polylines. Every curve built (from_series, from_polyline) is star shaped
about it, as both map solvers need, and that one test also makes the curve
simple. A polyline exposes its polar radius about the anchor to the
correspondence solver; a series curve is solved in its own parameter.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import PowerSeriesMap, ring_values


def _star_steps(rel):
    """The argument steps angle(rel[j+1] / rel[j]) of the closed polygon rel
    about 0. Raises DomainError unless every step has the sign of their sum
    and lies within (-pi, pi), and the sum is +-2 pi: the polygon then winds
    once about 0 through disjoint angular sectors, so it is star shaped
    about 0, and simple, in either orientation."""
    steps = np.angle(np.roll(rel, -1) / rel)
    total = np.sum(steps)
    turn = steps * np.sign(total)
    if not (abs(abs(total) - 2 * np.pi) <= 1e-9
            and np.all((turn > 0) & (turn < np.pi))):
        raise DomainError("curve is not star shaped about its anchor")
    return steps


def _json_pairs(payload, key):
    """payload[key], a list of [re, im] pairs of finite numbers, as complex."""
    try:
        c = np.array([complex(re, im) for re, im in payload[key]], complex)
        if np.all(np.isfinite(c)):
            return c
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"curve JSON '{key}' must hold [re, im] pairs of "
                      "finite numbers")


@dataclass(frozen=True, eq=False)
class CurveSpec:
    """A Jordan curve, given either by an interior conformal series or by an
    ordered closed polyline."""

    kind: str
    series: PowerSeriesMap | None = None
    points: np.ndarray | None = None

    @classmethod
    def from_series(cls, f):
        if not isinstance(f, PowerSeriesMap):
            f = PowerSeriesMap(f)
        if not f.is_normalized_map():
            raise DomainError("interior series needs a nonzero linear term")
        return cls("series", series=f).validate()

    @classmethod
    def from_polyline(cls, points):
        pts = np.asarray(points, dtype=complex).ravel()
        # a closing copy of the first point, to the rounding of coordinates
        # of the curve's size
        if pts.size and abs(pts[0] - pts[-1]) <= 1e-14 * np.max(np.abs(pts)):
            pts = pts[:-1]
        if pts.size < 8:
            raise DomainError("polyline needs at least 8 points")
        return cls("polyline", points=pts).validate()

    @classmethod
    def from_json(cls, payload):
        if not (isinstance(payload, dict)
                and payload.keys() & {"series", "points"}):
            raise DomainError("curve JSON needs a 'series' or 'points' entry")
        if "series" in payload:
            return cls.from_series(_json_pairs(payload, "series"))
        return cls.from_polyline(_json_pairs(payload, "points"))

    # -- geometry ----------------------------------------------------------

    def anchor(self):
        if self.kind == "series":
            return complex(self.series.coeffs[0])
        return complex(np.mean(self.points))

    def polar(self):
        """Radius function chi -> rho(chi) of a polyline about its anchor,
        its spline built once per curve for both of its map solves.

        Requires the polyline to be star shaped about the anchor; raises
        DomainError otherwise, and for a series curve.
        """
        if self.kind == "series":
            raise DomainError("the polar radius is built for polylines only")
        return self._polar_radius

    @functools.cached_property
    def _polar_radius(self):
        rel = self.points - self.anchor()
        if np.sum(_star_steps(rel)) < 0:  # enforce counterclockwise
            rel = rel[::-1]
        chi = np.unwrap(np.angle(rel))
        from scipy.interpolate import CubicSpline

        r = np.abs(rel)
        chi_ext = np.concatenate([chi, [chi[0] + 2 * np.pi]])
        r_ext = np.concatenate([r, [r[0]]])
        spline = CubicSpline(chi_ext, r_ext, bc_type="periodic")
        chi0 = chi[0]
        def rho(c):
            return spline(np.mod(np.asarray(c, float) - chi0, 2 * np.pi) + chi0)
        return rho

    def validate(self):
        """The one admissibility test: the polyline's vertices, or 2048
        samples of a series curve, taken minus the anchor, are star shaped
        about 0, as both map solvers need."""
        rel = (self.points - self.anchor() if self.kind == "polyline"
               else ring_values(np.r_[0, self.series.coeffs[1:]], 1.0, 2048))
        _star_steps(rel)
        return self

