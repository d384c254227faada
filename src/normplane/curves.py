"""Convex curves and their natural parameterization.

A curve is either the unit sphere of a norm or a sampled convex polygon
with an ambient norm attached.  The natural parameterization is
anticlockwise, unit speed in the ambient norm, periodic with period the
self-circumference, and anchored so parameter zero sits at the chosen
basepoint.

Polygonal curves are handled exactly: breakpoints are the vertices,
segments are linear, and side derivatives come straight from edge
directions.  Smooth and piecewise-arc spheres go through an angle table
plus exact local arc stepping, because finite differences taken against
an interpolation table would drown in table noise long before reaching
the tolerances the detectors need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import PreconditionError, SpecError
from .norms import Norm, SphereStructure, cross2, norm_from_spec

TWO_PI = 2.0 * math.pi

__all__ = [
    "ConvexCurve",
    "NaturalParam",
    "SideDerivatives",
    "ExtremeSet",
    "unit_sphere",
    "sampled_curve",
    "curve_from_spec",
    "curve_to_spec",
    "build_natural_param",
    "side_derivative",
    "extreme_points",
    "line_crossings",
]


@dataclass(frozen=True, eq=False)
class ConvexCurve:
    """A closed convex curve in the plane."""

    kind: str  # "sphere" or "sampled"
    ambient: Norm
    norm: Norm | None = None
    points: np.ndarray | None = None
    smooth: np.ndarray | None = None

    def structure(self):
        if self.kind == "sphere":
            return self.norm.structure()
        pts = self.points
        n = len(pts)
        idx = np.where(~self.smooth)[0]
        tin, tout = [], []
        for k in idx:
            ein = pts[k] - pts[k - 1]
            eout = pts[(k + 1) % n] - pts[k]
            tin.append(ein / self.ambient.value(ein))
            tout.append(eout / self.ambient.value(eout))
        corners = pts[idx] if len(idx) else np.zeros((0, 2))
        tin = np.asarray(tin).reshape(-1, 2)
        tout = np.asarray(tout).reshape(-1, 2)
        return SphereStructure("polygonal", corners, tin, tout, vertices=pts)

    @property
    def is_polygonal(self):
        if self.kind == "sampled":
            return True
        return self.norm.structure().kind == "polygonal"


def unit_sphere(norm):
    """The unit sphere of a norm, as a curve with that norm ambient."""
    return ConvexCurve("sphere", ambient=norm, norm=norm)


def sampled_curve(points, smooth=None, ambient=None):
    """A convex polygon given by sample points in anticlockwise order.

    smooth flags mark which vertices stand for smooth points of an ideal
    curve; unflagged vertices are treated as genuine corners.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise SpecError("curve.points", "need at least 3 point pairs")
    if not np.all(np.isfinite(pts)):
        bad = int(np.argwhere(~np.isfinite(pts).all(axis=1))[0, 0])
        raise SpecError(f"curve.points[{bad}]", "point is not finite")
    if np.hypot(*(pts[0] - pts[-1])) <= 1e-12:
        pts = pts[:-1]
    n = len(pts)
    nxt = np.roll(pts, -1, axis=0)
    seg = nxt - pts
    if np.any(np.hypot(seg[:, 0], seg[:, 1]) <= 1e-12):
        bad = int(np.argmin(np.hypot(seg[:, 0], seg[:, 1])))
        raise SpecError(f"curve.points[{bad}]", "consecutive points coincide")
    turns = cross2(seg, np.roll(seg, -1, axis=0))
    if np.any(turns < -1e-10):
        bad = int(np.argmin(turns))
        raise SpecError(f"curve.points[{bad}]", "points must be in convex anticlockwise position")
    if cross2(pts, nxt).sum() <= 0:
        raise SpecError("curve.points", "points must run anticlockwise")
    if smooth is None:
        flags = np.ones(n, dtype=bool)
    else:
        flags = np.asarray(smooth, dtype=bool)
        if flags.shape != (n,):
            raise SpecError("curve.smooth", f"need exactly {n} flags")
    if ambient is None:
        raise SpecError("curve.ambient", "missing ambient norm")
    return ConvexCurve("sampled", ambient=ambient, points=pts, smooth=flags)


def curve_from_spec(obj, path="curve"):
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    for key in ("points", "ambient"):
        if key not in obj:
            raise SpecError(f"{path}.{key}", "missing required field")
    ambient = norm_from_spec(obj["ambient"], path=f"{path}.ambient")
    return sampled_curve(obj["points"], obj.get("smooth"), ambient)


def curve_to_spec(curve):
    return {
        "points": [[float(a), float(b)] for a, b in curve.points],
        "smooth": [bool(s) for s in curve.smooth],
        "ambient": curve.ambient.to_spec(),
    }


@dataclass(frozen=True, eq=False)
class SideDerivatives:
    left: np.ndarray
    right: np.ndarray
    gap: float
    reliable: bool
    exact: bool
    disagreement: float


@dataclass(frozen=True, eq=False)
class ExtremeSet:
    points: np.ndarray  # (1,2) or (2,2), segment endpoints by traversal order
    is_segment: bool


_FD_STEPS = (1e-3, 1e-4, 1e-5)


class NaturalParam:
    """Arc-length parameterization of a convex curve in its ambient norm."""

    def __init__(self, curve, basepoint=None, resolution=16384):
        self.curve = curve
        self.ambient = curve.ambient
        self._struct = curve.structure()
        self._polygonal = curve.kind == "sampled" or self._struct.kind == "polygonal"
        if self._polygonal:
            self._build_polygon(basepoint)
        else:
            self._build_table(basepoint, resolution)

    # -- polygon machinery -------------------------------------------------

    def _build_polygon(self, basepoint):
        if self.curve.kind == "sampled":
            verts = self.curve.points
        else:
            verts = self._struct.vertices
        if basepoint is None:
            basepoint = verts[0].copy()
        else:
            basepoint = np.asarray(basepoint, dtype=float)
        ei, frac = self._project_polygon(verts, basepoint)
        cycle = [verts[(ei + k) % len(verts)] for k in range(1, len(verts) + 1)]
        if frac <= 1e-12:
            start = verts[ei]
            cycle = [start] + cycle
        elif frac >= 1 - 1e-12:
            cycle = [cycle[0]] + cycle[1:] + [cycle[0]]
        else:
            bp = verts[ei] + frac * (verts[(ei + 1) % len(verts)] - verts[ei])
            cycle = [bp] + cycle + [bp]
        self.knots_p = np.asarray(cycle)
        seg = np.diff(self.knots_p, axis=0)
        self._seg_len = np.asarray(self.ambient.value(seg))
        self._seg_dir = seg / self._seg_len[:, None]
        self.knots_t = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self.period = float(self.knots_t[-1])
        self.basepoint = self.knots_p[0].copy()
        self._index_corners(self.knots_p[:-1], self.knots_t[:-1])

    @staticmethod
    def _project_polygon(verts, point):
        nxt = np.roll(verts, -1, axis=0)
        d = nxt - verts
        dd = (d ** 2).sum(axis=1)
        w = point[None, :] - verts
        s = np.clip((w * d).sum(axis=1) / dd, 0.0, 1.0)
        proj = verts + s[:, None] * d
        err = np.hypot(*(proj - point[None, :]).T)
        best = int(np.argmin(err))
        if err[best] > 1e-7:
            raise PreconditionError("basepoint does not lie on the curve")
        return best, float(s[best])

    def _index_corners(self, pts, ts):
        corners = self._struct.corners
        cts, cin, cout = [], [], []
        for k in range(len(corners)):
            d = np.hypot(*(pts - corners[k][None, :]).T)
            j = int(np.argmin(d))
            if d[j] <= 1e-9:
                cts.append(float(ts[j]))
                cin.append(self._struct.corner_in[k])
                cout.append(self._struct.corner_out[k])
        order = np.argsort(cts) if cts else []
        self.corner_ts = np.asarray([cts[i] for i in order], dtype=float)
        self._corner_in = np.asarray([cin[i] for i in order], dtype=float).reshape(-1, 2)
        self._corner_out = np.asarray([cout[i] for i in order], dtype=float).reshape(-1, 2)

    # -- smooth / piecewise-arc machinery ----------------------------------

    def _build_table(self, basepoint, resolution):
        norm = self.curve.norm
        if basepoint is None:
            basepoint = norm.unit_point(0.0)
        else:
            basepoint = np.asarray(basepoint, dtype=float)
            if abs(float(norm.value(basepoint)) - 1.0) > 1e-6:
                raise PreconditionError("basepoint does not lie on the unit sphere")
        phi_b = math.atan2(basepoint[1], basepoint[0])
        corners = self._struct.corners
        corner_phis = np.arctan2(corners[:, 1], corners[:, 0]) if len(corners) else np.zeros(0)
        rel_corners = np.sort(np.mod(corner_phis - phi_b, TWO_PI))
        rel = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
        rel = np.unique(np.concatenate([rel, rel_corners, [0.0]]))
        # drop grid points that crowd a corner so corners stay exact knots
        for c in rel_corners:
            near = (np.abs(rel - c) < 1e-12) & (rel != c)
            rel = rel[~near]
        self._rel = np.concatenate([rel, [TWO_PI]])
        self._phi_b = phi_b
        phis = phi_b + self._rel
        pts = norm.unit_point(phis)
        pts[0] = basepoint
        pts[-1] = basepoint
        self.knots_p = pts
        seg = np.asarray(self.ambient.value(np.diff(pts, axis=0)))
        self.knots_t = np.concatenate([[0.0], np.cumsum(seg)])
        self._seg_len = seg
        self.period = float(self.knots_t[-1])
        self.basepoint = basepoint
        idx = np.searchsorted(rel, rel_corners)
        keep = [i for i, c in zip(idx, rel_corners) if i < len(rel) and rel[i] == c]
        order_by_rel = np.argsort(np.mod(corner_phis - phi_b, TWO_PI))
        self.corner_ts = self.knots_t[np.asarray(keep, dtype=int)] if keep else np.zeros(0)
        self._corner_in = self._struct.corner_in[order_by_rel] if len(corners) else np.zeros((0, 2))
        self._corner_out = self._struct.corner_out[order_by_rel] if len(corners) else np.zeros((0, 2))
        self._corner_phis_abs = corner_phis
        with np.errstate(divide="ignore", invalid="ignore"):
            speeds = seg / np.diff(self._rel)
        good = speeds[np.isfinite(speeds) & (speeds > 0)]
        self._speed_floor = float(good.min()) * 0.8 if len(good) else 0.1

    # -- shared interface --------------------------------------------------

    def point_at(self, t):
        """Curve point at parameter t (any shape; values taken mod period)."""
        t = np.asarray(t, dtype=float)
        single = t.ndim == 0
        tm = np.mod(t.reshape(-1), self.period)
        i = np.clip(np.searchsorted(self.knots_t, tm, side="right") - 1, 0, len(self._seg_len) - 1)
        u = (tm - self.knots_t[i]) / self._seg_len[i]
        p = self.knots_p[i] * (1 - u)[:, None] + self.knots_p[i + 1] * u[:, None]
        if not self._polygonal:
            p = p / np.asarray(self.ambient.value(p))[:, None]
        p = p.reshape(t.shape + (2,)) if not single else p[0]
        return p

    def locate(self, point):
        """Parameter of a point lying on the curve."""
        point = np.asarray(point, dtype=float)
        if self._polygonal:
            ei, frac = self._project_polygon(self.knots_p[:-1], point)
            return float((self.knots_t[ei] + frac * self._seg_len[ei]) % self.period)
        if abs(float(self.ambient.value(point)) - 1.0) > 1e-6:
            raise PreconditionError("point does not lie on the unit sphere")
        rel = (math.atan2(point[1], point[0]) - self._phi_b) % TWO_PI
        i = int(np.clip(np.searchsorted(self._rel, rel, side="right") - 1, 0, len(self._seg_len) - 1))
        return float((self.knots_t[i] + self.ambient.value(point - self.knots_p[i])) % self.period)

    def antipode_t(self, t):
        return (t + self.period / 2.0) % self.period

    def corner_params(self):
        return self.corner_ts.copy()

    # exact local stepping: curve points at signed arc displacements

    def shift_point(self, anchor, deltas):
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        if self._polygonal:
            ta = self.locate(anchor)
            return self.point_at(ta + deltas)
        phi0 = math.atan2(anchor[1], anchor[0])
        phis = self._advance(phi0, deltas)
        return self.curve.norm.unit_point(phis)

    def _window_grid(self, phi0, psi):
        grid = phi0 + np.linspace(-psi, psi, 4097)
        extra = [np.asarray([phi0])]
        for k in (-2, -1, 0, 1, 2):
            cand = self._corner_phis_abs + k * TWO_PI
            sel = cand[(cand > phi0 - psi) & (cand < phi0 + psi)]
            if len(sel):
                extra.append(sel)
        grid = np.unique(np.concatenate([grid] + extra))
        keep = np.concatenate([[True], np.diff(grid) > 1e-13])
        grid = grid[keep]
        i0 = int(np.argmin(np.abs(grid - phi0)))
        return grid, i0

    def _advance(self, phi0, deltas):
        dmax = float(np.abs(deltas).max())
        if dmax == 0.0:
            return np.full(len(deltas), phi0)
        norm = self.curve.norm
        psi = min(dmax / self._speed_floor * 1.3 + 1e-9, 3.0)
        for _ in range(8):
            grid, i0 = self._window_grid(phi0, psi)
            pts = norm.unit_point(grid)
            seg = np.asarray(self.ambient.value(np.diff(pts, axis=0)))
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            cum = cum - cum[i0]
            if cum[-1] >= dmax * 1.02 and -cum[0] >= dmax * 1.02:
                break
            psi = min(psi * 2.0, 3.1)
        j = np.clip(np.searchsorted(cum, deltas, side="right") - 1, 0, len(grid) - 2)
        slope = (cum[j + 1] - cum[j]) / (grid[j + 1] - grid[j])
        phi = grid[j] + (deltas - cum[j]) / slope
        for _ in range(2):
            frac = np.linspace(0.0, 1.0, 17)
            sub = grid[j][:, None] + (phi - grid[j])[:, None] * frac[None, :]
            sp = norm.unit_point(sub)
            small = np.asarray(self.ambient.value(np.diff(sp, axis=1))).sum(axis=1)
            phi = phi - (small - (deltas - cum[j])) / slope
        return phi

    # side derivatives

    def side_derivative_info(self, t):
        tm = float(np.mod(t, self.period))
        k = self._corner_at(tm)
        if k is not None:
            left = self._corner_in[k].copy()
            right = self._corner_out[k].copy()
            gap = float(self.ambient.value(left - right))
            return SideDerivatives(left, right, gap, True, True, 0.0)
        if self._polygonal:
            return self._poly_side(tm)
        return self._fd_side(tm)

    def _corner_at(self, tm):
        if len(self.corner_ts) == 0:
            return None
        d = np.abs(self.corner_ts - tm)
        d = np.minimum(d, self.period - d)
        k = int(np.argmin(d))
        if d[k] <= 1e-9 * max(1.0, self.period):
            return k
        return None

    def _poly_side(self, tm):
        i = int(np.clip(np.searchsorted(self.knots_t, tm, side="right") - 1, 0, len(self._seg_len) - 1))
        u = tm - self.knots_t[i]
        nseg = len(self._seg_len)
        at_knot = None
        if u <= 1e-9 * max(1.0, self.period):
            at_knot = i
        elif self._seg_len[i] - u <= 1e-9 * max(1.0, self.period):
            at_knot = (i + 1) % nseg
        if at_knot is None:
            d = self._seg_dir[i].copy()
            return SideDerivatives(d, d.copy(), 0.0, True, True, 0.0)
        left = self._seg_dir[at_knot - 1]
        right = self._seg_dir[at_knot]
        if self.curve.kind == "sampled" and self._is_smooth_vertex(at_knot):
            # sampled stand-in for a smooth point: use the through chord
            chord = left * self._seg_len[at_knot - 1] + right * self._seg_len[at_knot]
            d = chord / self.ambient.value(chord)
            return SideDerivatives(d.copy(), d.copy(), 0.0, True, True, 0.0)
        gap = float(self.ambient.value(left - right))
        return SideDerivatives(left.copy(), right.copy(), gap, True, True, 0.0)

    def _is_smooth_vertex(self, knot_idx):
        p = self.knots_p[knot_idx]
        pts = self.curve.points
        d = np.hypot(*(pts - p[None, :]).T)
        j = int(np.argmin(d))
        return d[j] <= 1e-9 and bool(self.curve.smooth[j])

    def _fd_side(self, tm):
        anchor = self.point_at(tm)
        hs = np.asarray(_FD_STEPS)
        deltas = np.concatenate([hs, -hs])
        pts = self.shift_point(anchor, deltas)
        dr = (pts[:3] - anchor[None, :]) / hs[:, None]
        dl = (anchor[None, :] - pts[3:]) / hs[:, None]

        def rich(d):
            e1 = (10.0 * d[1] - d[0]) / 9.0
            e2 = (10.0 * d[2] - d[1]) / 9.0
            return e2, float(self.ambient.value(e1 - e2))

        right, dis_r = rich(dr)
        left, dis_l = rich(dl)
        dis = max(dis_l, dis_r)
        gap = float(self.ambient.value(left - right))
        return SideDerivatives(left, right, gap, dis <= 1e-4, False, dis)

    # independent arc measurement, used as an oracle by the test suite

    def arc_length_between(self, pa, pb):
        """Anticlockwise arc length from point pa to point pb, measured afresh."""
        if self._polygonal:
            ta, tb = self.locate(pa), self.locate(pb)
            return float((tb - ta) % self.period)
        phi_a = math.atan2(pa[1], pa[0])
        phi_b = math.atan2(pb[1], pb[0])
        span = (phi_b - phi_a) % TWO_PI
        if span == 0.0:
            return 0.0
        cuts = [0.0, span]
        for k in (-1, 0, 1):
            cand = self._corner_phis_abs + k * TWO_PI - phi_a
            cuts.extend(cand[(cand > 0) & (cand < span)])
        cuts = np.unique(np.asarray(cuts))
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += self._arc_piece(phi_a + lo, phi_a + hi)
        return float(total)

    def _arc_piece(self, lo, hi, rel_tol=1e-12):
        norm = self.curve.norm

        def chord_sum(k):
            phis = np.linspace(lo, hi, k + 1)
            pts = norm.unit_point(phis)
            return float(np.asarray(self.ambient.value(np.diff(pts, axis=0))).sum())

        k = 16
        prev = chord_sum(k)
        while k < 2 ** 16:
            k *= 2
            cur = chord_sum(k)
            if abs(cur - prev) <= rel_tol * abs(cur) + 1e-15:
                return (4.0 * cur - prev) / 3.0
            prev = cur
        return (4.0 * cur - prev) / 3.0


def build_natural_param(curve, basepoint=None, resolution=16384):
    """Natural parameterization of a curve, anchored at basepoint."""
    if isinstance(curve, Norm):
        curve = unit_sphere(curve)
    return NaturalParam(curve, basepoint=basepoint, resolution=resolution)


def side_derivative(param, t, side):
    """One-sided derivative of the parameterization at t, ambient-unit."""
    info = param.side_derivative_info(t)
    if side == "left":
        return info.left
    if side == "right":
        return info.right
    raise ValueError("side must be 'left' or 'right'")


def _as_param(obj):
    """The natural parameterization of a norm's sphere or a curve, or obj itself."""
    if isinstance(obj, NaturalParam):
        return obj
    return build_natural_param(obj)


_DIRS = {"E": np.array([1.0, 0.0]), "N": np.array([0.0, 1.0]),
         "W": np.array([-1.0, 0.0]), "S": np.array([0.0, -1.0])}


def _polygon_vertices(curve):
    if curve.kind == "sampled":
        return curve.points
    return curve.norm.structure().vertices


def extreme_points(curve):
    """Extreme sets of the curve in the four axis directions.

    Returns a dict keyed by "E", "N", "W", "S".  Each entry is a single
    point or the two endpoints of an extreme edge, ordered by traversal.
    """
    out = {}
    if curve.is_polygonal:
        verts = _polygon_vertices(curve)
        for name, d in _DIRS.items():
            vals = verts @ d
            m = vals.max()
            sel = verts[vals >= m - 1e-9]
            if len(sel) == 1:
                out[name] = ExtremeSet(sel.copy(), False)
            else:
                perp = sel @ np.array([-d[1], d[0]])
                order = np.argsort(perp)  # anticlockwise traversal ascends the perp coordinate
                out[name] = ExtremeSet(sel[[order[0], order[-1]]], True)
        return out
    # spheres that are not polygons are strictly convex here: one support point each
    _, pts = curve.norm.support(np.stack(list(_DIRS.values())))
    for name, p in zip(_DIRS, pts):
        out[name] = ExtremeSet(p[None, :], False)
    return out


def line_crossings(curve, axis, val):
    """Components of the curve's intersection with an axis-parallel line.

    axis 0 means the vertical line x = val, axis 1 the horizontal line
    y = val.  Each component is (p_lo, p_hi, is_segment) with p_lo equal
    to p_hi for point components, sorted by the free coordinate.
    """
    if curve.is_polygonal:
        return _polygon_crossings(_polygon_vertices(curve), axis, val)
    return _sphere_crossings(curve.norm, axis, val)


def _polygon_crossings(verts, axis, val):
    n = len(verts)
    scale = max(1.0, float(np.abs(verts).max()))
    tol = 1e-10 * scale
    other = 1 - axis
    segs = []
    singles = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        sa = a[axis] - val
        sb = b[axis] - val
        if abs(sa) <= tol and abs(sb) <= tol:
            segs.append((a.copy(), b.copy()))
        elif abs(sa) <= tol:
            singles.append(a.copy())
        elif abs(sb) <= tol:
            pass  # picked up as the next edge's start
        elif sa * sb < 0:
            u = sa / (sa - sb)
            singles.append(a + u * (b - a))
    comps = []
    for a, b in segs:
        lo, hi = (a, b) if a[other] <= b[other] else (b, a)
        comps.append((lo, hi, True))
    for p in singles:
        on_seg = any(lo[other] - tol <= p[other] <= hi[other] + tol for lo, hi, _ in comps)
        dup = any(abs(p[other] - q[0][other]) <= tol for q in comps if not q[2])
        if not on_seg and not dup:
            comps.append((p, p.copy(), False))
    comps.sort(key=lambda c: c[0][other])
    return comps


def _sphere_crossings(norm, axis, val):
    d = np.zeros(2)
    d[axis] = 1.0
    _, (p_hi, p_lo) = norm.support(np.stack([d, -d]))
    phi_hi = math.atan2(p_hi[1], p_hi[0])
    phi_lo = math.atan2(p_lo[1], p_lo[0])
    tol = 1e-11 * max(1.0, abs(p_hi[axis]), abs(p_lo[axis]))
    if val > p_hi[axis] + tol or val < p_lo[axis] - tol:
        return []
    if abs(val - p_hi[axis]) <= tol:
        return [(p_hi, p_hi.copy(), False)]
    if abs(val - p_lo[axis]) <= tol:
        return [(p_lo, p_lo.copy(), False)]

    def cross_on(a, b):
        # coordinate along the chain is monotone between the two extremes
        def f(phi):
            return float(norm.unit_point(phi)[axis]) - val
        span = (b - a) % TWO_PI
        root = brentq(f, a, a + span, xtol=1e-14)
        return norm.unit_point(root)

    c1 = cross_on(phi_lo, phi_hi)
    c2 = cross_on(phi_hi, phi_lo + TWO_PI)
    other = 1 - axis
    comps = [(c1, c1.copy(), False), (c2, c2.copy(), False)]
    comps.sort(key=lambda c: c[0][other])
    return comps
