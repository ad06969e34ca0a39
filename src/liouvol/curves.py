"""Curve inputs: analytic interior-series curves and sampled polylines.

Both variants have an interior anchor point: f(0) for series curves and
the vertex centroid for polylines. A polyline exposes its polar radius
function about the anchor, which is what the boundary-correspondence
solver consumes; a series curve is solved in its own parameter instead.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import PowerSeriesMap, ring_jet


# pairs of segments tested at a time by polyline_is_simple
_PAIR_BLOCK = 1 << 16
# two segments meet when they come within this fraction of their lengths
MEET_TOL = 1e-12


def _cross(a, b):
    return a.real * b.imag - a.imag * b.real


def _dot(a, b):
    return a.real * b.real + a.imag * b.imag


def _segments_intersect(p1, p2, q1, q2):
    """Whether the closed segments p1p2 and q1q2 meet, elementwise over
    arrays of end points, to MEET_TOL of their lengths: a crossing, a touch
    at an end, or, for segments parallel to MEET_TOL, a collinear
    overlap."""
    eps = MEET_TOL
    d1, d2, r = p2 - p1, q2 - q1, q1 - p1
    den, len1 = _cross(d1, d2), _dot(d1, d1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t, u = _cross(r, d2) / den, _cross(r, d1) / den
        # q's ends along p1p2, for parallel segments
        s0 = _dot(r, d1) / len1
        s1 = s0 + _dot(d2, d1) / len1
    meet = (-eps <= t) & (t <= 1 + eps) & (-eps <= u) & (u <= 1 + eps)
    overlap = ((np.abs(_cross(r, d1)) <= eps * len1)
               & (np.minimum(s0, s1) <= 1 + eps)
               & (np.maximum(s0, s1) >= -eps))
    return np.where(den * den <= eps * eps * len1 * _dot(d2, d2), overlap,
                    meet)


def polyline_is_simple(points):
    """Segment sweep over the closed polyline: with the segments sorted by
    min-x, each is paired with every later one whose min-x is within its
    max-x; pairs of adjacent segments or of disjoint y-ranges are dropped,
    and the rest go to the crossing test in blocks of _PAIR_BLOCK pairs.
    The ranges are widened by twice MEET_TOL of each segment's length, so
    no pair that meets is dropped."""
    seg_a = np.asarray(points, dtype=complex)
    seg_b = np.roll(seg_a, -1)
    n = seg_a.size
    pad = 2.0 * MEET_TOL * np.abs(seg_b - seg_a)
    order = np.argsort(np.minimum(seg_a.real, seg_b.real) - pad, kind="stable")
    seg_a, seg_b, pad = seg_a[order], seg_b[order], pad[order]
    lo = np.minimum(seg_a.real, seg_b.real) - pad
    hi = np.maximum(seg_a.real, seg_b.real) + pad
    ylo = np.minimum(seg_a.imag, seg_b.imag) - pad
    yhi = np.maximum(seg_a.imag, seg_b.imag) + pad
    # segment j pairs with the later ones i < stop[j] in sorted order
    stop = np.searchsorted(lo, hi, side="right")
    counts = stop - np.arange(n) - 1
    ends = np.cumsum(counts)
    j0 = 0
    while j0 < n:
        # the segments whose pairs fit in one block (at least one segment)
        j1 = max(int(np.searchsorted(ends, ends[j0] - counts[j0]
                                     + _PAIR_BLOCK, side="right")), j0 + 1)
        c = counts[j0:j1]
        j = np.repeat(np.arange(j0, j1), c)
        i = j + 1 + np.arange(j.size) - np.repeat(np.cumsum(c) - c, c)
        apart = (order[j] - order[i]) % n
        keep = ((apart > 1) & (apart < n - 1)
                & ~((yhi[i] < ylo[j]) | (yhi[j] < ylo[i])))
        i, j = i[keep], j[keep]
        if np.any(_segments_intersect(seg_a[i], seg_b[i], seg_a[j], seg_b[j])):
            return False
        j0 = j1
    return True


def _winding_turns(samples):
    """Turning number of the tangent along a closed sampled curve."""
    d = np.roll(samples, -1) - samples
    ang = np.angle(d)
    dd = np.diff(ang, append=ang[0])
    dd = (dd + np.pi) % (2 * np.pi) - np.pi
    return float(np.sum(dd) / (2 * np.pi))


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
    def from_series(cls, f, check=True):
        if not isinstance(f, PowerSeriesMap):
            f = PowerSeriesMap(f)
        if not f.is_normalized_map():
            raise DomainError("interior series needs a nonzero linear term")
        curve = cls("series", series=f)
        if check:
            curve.validate()
        return curve

    @classmethod
    def from_polyline(cls, points, check=True):
        pts = np.asarray(points, dtype=complex).ravel()
        # a closing copy of the first point, to the rounding of coordinates
        # of the curve's size
        if pts.size and abs(pts[0] - pts[-1]) <= 1e-14 * np.max(np.abs(pts)):
            pts = pts[:-1]
        if pts.size < 8:
            raise DomainError("polyline needs at least 8 points")
        curve = cls("polyline", points=pts)
        if check:
            curve.validate()
        return curve

    @classmethod
    def from_json(cls, payload):
        if isinstance(payload, (str, bytes)):
            try:
                payload = json.loads(payload)
            except ValueError as exc:
                raise DomainError(f"cannot parse curve JSON: {exc}") from exc
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

    def boundary(self, n=2048):
        if self.kind == "series":
            return ring_jet(self.series, 1.0, n, upto=0)[0]
        pts = self.points
        # resample by arclength-free parameter (vertex index), fine for
        # densely sampled inputs
        t = np.arange(pts.size + 1)
        closed = np.append(pts, pts[0])
        s = np.linspace(0, pts.size, n, endpoint=False)
        return np.interp(s, t, closed.real) + 1j * np.interp(s, t, closed.imag)

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
        chi = np.unwrap(np.angle(rel))
        if chi[-1] < chi[0]:  # enforce counterclockwise
            rel = rel[::-1]
            chi = np.unwrap(np.angle(rel))
        if np.any(np.diff(chi) <= 0):
            raise DomainError("polyline is not star shaped about its centroid")
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
        samples = self.boundary(2048)
        if not polyline_is_simple(samples if self.kind == "series" else self.points):
            raise DomainError("curve is not simple")
        turns = _winding_turns(samples)
        if abs(abs(turns) - 1.0) > 1e-6:
            raise DomainError(f"boundary turning number {turns}, expected +-1")
        return self


def _argument_guess(m, a):
    """chi -> (theta, chi') with arg(m(e^{i theta}) - a) close to chi, for
    a series or a Laurent map m whose boundary winds counterclockwise
    about a: a linear lookup in a table of one ring FFT at 4096 angles. chi'
    is chi shifted by a multiple of 2 pi into the table's range, so that
    theta lies in [0, 2 pi]."""
    n = 4096
    grid = 2 * np.pi * np.arange(n) / n
    vals = ring_jet(m, 1.0, n, upto=0)[0] - a
    ang = np.unwrap(np.angle(vals))
    if ang[-1] < ang[0]:
        raise DomainError("map boundary runs clockwise")
    # monotone lookup table
    ang_ext = np.concatenate([ang, [ang[0] + 2 * np.pi]])
    grid_ext = np.concatenate([grid, [2 * np.pi]])

    def guess(chi):
        chi = np.asarray(chi, float)
        target = np.mod(chi - ang_ext[0], 2 * np.pi) + ang_ext[0]
        return np.interp(target, ang_ext, grid_ext), target
    return guess


def _argument_ratio(e, w, d1):
    """e m'(e) / w for w = m(e) - a at e = e^{i theta}. Its real part is
    d arg(m - a)/d theta, which must be positive: a map whose boundary is
    star shaped about a."""
    ratio = e * d1 / w
    if np.any(ratio.real <= 0):
        raise DomainError("map boundary is not star shaped about its anchor")
    return ratio


def _argument_inverse(m, a):
    """chi -> theta solving arg(m(e^{i theta}) - a) = chi by Newton,
    vectorized over chi, from the lookup of _argument_guess, which is built
    once and shared by every inversion; each Newton step takes m and m'
    from one Horner pass."""
    guess = _argument_guess(m, a)

    def invert(chi):
        theta, target = guess(chi)
        for _ in range(40):
            e = np.exp(1j * theta)
            w, d1 = m.jet(e, upto=1)
            w = w - a
            step = (np.angle(w * np.exp(-1j * target))
                    / _argument_ratio(e, w, d1).real)
            theta = theta - step
            if np.max(np.abs(step)) < 1e-14:
                break
        return theta
    return invert
