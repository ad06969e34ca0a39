"""Curve inputs: analytic interior-series curves and sampled polylines.

Both variants expose a polar radius function about an interior anchor
point, which is what the boundary-correspondence solvers consume. The
anchor is f(0) for series curves and the vertex centroid for polylines.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import PowerSeriesMap


def _segments_intersect(p1, p2, q1, q2):
    d1, d2 = p2 - p1, q2 - q1
    den = d1.real * d2.imag - d1.imag * d2.real
    if den == 0:
        return False
    r = q1 - p1
    t = (r.real * d2.imag - r.imag * d2.real) / den
    u = (r.real * d1.imag - r.imag * d1.real) / den
    eps = 1e-12
    return eps < t < 1 - eps and eps < u < 1 - eps


def polyline_is_simple(points):
    """Segment sweep over the closed polyline (sorted by min-x, pruned by
    bounding boxes)."""
    pts = np.asarray(points, dtype=complex)
    n = pts.size
    seg_a = pts
    seg_b = np.roll(pts, -1)
    lo = np.minimum(seg_a.real, seg_b.real)
    hi = np.maximum(seg_a.real, seg_b.real)
    order = np.argsort(lo, kind="stable")
    active = []
    for idx in order:
        x = lo[idx]
        active = [j for j in active if hi[j] >= x]
        for j in active:
            if (j - idx) % n in (0, 1, n - 1):
                continue
            ylo_i = min(seg_a[idx].imag, seg_b[idx].imag)
            yhi_i = max(seg_a[idx].imag, seg_b[idx].imag)
            ylo_j = min(seg_a[j].imag, seg_b[j].imag)
            yhi_j = max(seg_a[j].imag, seg_b[j].imag)
            if yhi_i < ylo_j or yhi_j < ylo_i:
                continue
            if _segments_intersect(seg_a[idx], seg_b[idx], seg_a[j], seg_b[j]):
                return False
        active.append(idx)
    return True


def _winding_turns(samples):
    """Turning number of the tangent along a closed sampled curve."""
    d = np.roll(samples, -1) - samples
    ang = np.angle(d)
    dd = np.diff(ang, append=ang[0])
    dd = (dd + np.pi) % (2 * np.pi) - np.pi
    return float(np.sum(dd) / (2 * np.pi))


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
        if pts.size < 8:
            raise DomainError("polyline needs at least 8 points")
        if abs(pts[0] - pts[-1]) < 1e-15:
            pts = pts[:-1]
        curve = cls("polyline", points=pts)
        if check:
            curve.validate()
        return curve

    @classmethod
    def from_json(cls, payload):
        if isinstance(payload, (str, bytes)):
            payload = json.loads(payload)
        if "series" in payload:
            c = np.array([complex(re, im) for re, im in payload["series"]])
            return cls.from_series(PowerSeriesMap(c))
        if "points" in payload:
            p = np.array([complex(x, y) for x, y in payload["points"]])
            return cls.from_polyline(p)
        raise DomainError("curve JSON needs a 'series' or 'points' entry")

    def to_json(self):
        if self.kind == "series":
            return {"series": [[c.real, c.imag] for c in self.series.coeffs]}
        return {"points": [[p.real, p.imag] for p in self.points]}

    # -- geometry ----------------------------------------------------------

    def anchor(self):
        if self.kind == "series":
            return complex(self.series.coeffs[0])
        return complex(np.mean(self.points))

    def boundary(self, n=2048):
        if self.kind == "series":
            theta = 2 * np.pi * np.arange(n) / n
            return self.series.eval_unchecked(np.exp(1j * theta))
        pts = self.points
        # resample by arclength-free parameter (vertex index), fine for
        # densely sampled inputs
        t = np.arange(pts.size + 1)
        closed = np.append(pts, pts[0])
        s = np.linspace(0, pts.size, n, endpoint=False)
        return np.interp(s, t, closed.real) + 1j * np.interp(s, t, closed.imag)

    def polar(self):
        """Radius function chi -> rho(chi) about the anchor.

        Requires the curve to be star shaped about the anchor; raises
        DomainError otherwise.
        """
        a = self.anchor()
        if self.kind == "series":
            f = self.series
            invert = _argument_inverse(f, a)
            def rho(chi):
                theta = invert(np.asarray(chi, float))
                return np.abs(f.eval_unchecked(np.exp(1j * theta)) - a)
            return rho
        rel = self.points - a
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


def _argument_inverse(f, a):
    """chi -> theta solving arg(f(e^{i theta}) - a) = chi by Newton,
    vectorized over chi. The lookup table for the initial guess and f' are
    built once and shared by every inversion."""
    n = 4096
    grid = 2 * np.pi * np.arange(n) / n
    vals = f.eval_unchecked(np.exp(1j * grid)) - a
    ang = np.unwrap(np.angle(vals))
    if ang[-1] < ang[0]:
        raise DomainError("series boundary is clockwise")
    # monotone lookup table for the initial guess
    ang_ext = np.concatenate([ang, [ang[0] + 2 * np.pi]])
    grid_ext = np.concatenate([grid, [2 * np.pi]])
    df = f.deriv()

    def invert(chi):
        chi = np.asarray(chi, float)
        target = np.mod(chi - ang_ext[0], 2 * np.pi) + ang_ext[0]
        theta = np.interp(target, ang_ext, grid_ext)
        for _ in range(40):
            e = np.exp(1j * theta)
            w = f.eval_unchecked(e) - a
            d1 = df.eval_unchecked(e)
            arg_err = np.angle(w * np.exp(-1j * target))
            slope = np.real(e * d1 / w)   # d(arg)/d(theta)
            if np.any(slope <= 0):
                raise DomainError("series curve is not star shaped about f(0)")
            step = arg_err / slope
            theta = theta - step
            if np.max(np.abs(step)) < 1e-14:
                break
        return theta
    return invert


# -- reference shapes -------------------------------------------------------

def circle_curve(radius=1.0, center=0.0):
    c = np.zeros(2, complex)
    c[0], c[1] = center, radius
    return CurveSpec.from_series(PowerSeriesMap(c, hint_radius=8.0), check=False)


def ellipse_curve(a=1.2, b=1.0, n=4096):
    tau = 2 * np.pi * np.arange(n) / n
    pts = a * np.cos(tau) + 1j * b * np.sin(tau)
    return CurveSpec.from_polyline(pts, check=False)


def polynomial_curve(*coeffs, hint_radius=2.0):
    """Curve traced by z + c2 z^2 + ... on the unit circle; coeffs start at z^2."""
    c = np.zeros(len(coeffs) + 2, complex)
    c[1] = 1.0
    c[2:] = coeffs
    return CurveSpec.from_series(PowerSeriesMap(c, hint_radius=hint_radius))
