"""Convex curves and their natural parameterization.

A curve is either the unit sphere of a norm or a sampled convex polygon
with an ambient norm attached.  The natural parameterization is
anticlockwise, unit speed in the ambient norm, periodic with period the
self-circumference, and starts at a fixed point: a polygon's first
vertex in angle order, a sampled curve's first point, or the point at
polar angle 0 on any other sphere.

Polygonal curves are handled exactly: breakpoints are the vertices,
segments are linear, and side derivatives come straight from edge
directions.  Smooth and piecewise-arc spheres go through an angle table
plus local arc stepping, because finite differences taken against an
interpolation table would drown in table noise long before reaching the
tolerances the detectors need.  A step seeds its angle from the table and
takes Newton steps on a chord sum fine enough for finite differences;
`NaturalParam.shift_point` states its accuracy.

Every library function that takes a plane accepts a norm, a curve or a
NaturalParam, and reaches its param through `build_natural_param`, the
one accessor.  A curve computes its arc-length table once, and every
param of it reads that table; a norm stands for its one cached unit
sphere, so a norm has one table.  The norm and its sphere refer to each
other, a cycle the garbage collector frees.  Functions that need a unit
sphere refuse other curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SpecError
from .norms import Norm, SphereStructure, _computed_once, _corner_tangents, cross2, norm_from_spec

TWO_PI = 2.0 * math.pi
# farthest a point may lie from a curve, in the ambient norm, and still be on it: |norm(p) - 1|
# on a unit sphere, the ambient length of p's offset from its nearest edge on a polygon
ON_CURVE_TOL = 1e-6
# knots of a full turn of a sphere table that is not a polygon, corners aside
_TABLE_KNOTS = 16384

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
    "target_params",
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

    @_computed_once
    def structure(self):
        """The sphere's SphereStructure, or a sampled curve's: its vertices and unflagged corners."""
        if self.kind == "sphere":
            return self.norm.structure()
        idx = np.flatnonzero(~self.smooth)
        tin, tout = _corner_tangents(self.points, idx, self.ambient.value)
        return SphereStructure("polygonal", self.points[idx], tin, tout, vertices=self.points)

    @property
    def is_polygonal(self):
        return self.structure().kind == "polygonal"

    @_computed_once
    def _edges(self):
        """A polygonal curve's vertices indexed for `_nearest_edge`."""
        return _polygon_edges(self.structure().vertices)

    @_computed_once
    def _table(self):
        """The arc-length table NaturalParam reads, as its attributes by name.

        It holds arrays and numbers only, no reference to the curve or
        its norm, so caching it on the curve makes no reference cycle.
        """
        return _polygon_table(self) if self.is_polygonal else _sphere_table(self)

    @_computed_once
    def _extremes(self):
        """The dict `extreme_points` returns a copy of."""
        if self.is_polygonal:
            verts = self.structure().vertices
            sets = {}
            for name, d in _DIRS.items():
                vals = verts @ d
                sel = verts[vals >= vals.max() - 1e-9]
                if len(sel) > 1:
                    perp = sel @ np.array([-d[1], d[0]])
                    order = np.argsort(perp)  # anticlockwise traversal ascends the perp coordinate
                    sel = sel[[order[0], order[-1]]]
                sets[name] = sel
        else:
            # spheres that are not polygons are strictly convex here: one support point each
            pts = self.norm.support(np.array(list(_DIRS.values())))[1]
            sets = {name: pts[k:k + 1] for k, name in enumerate(_DIRS)}
        return {name: ExtremeSet(p, len(p) == 2, float(np.max(p @ _DIRS[name])))
                for name, p in sets.items()}


def unit_sphere(norm):
    """The unit sphere of a norm, as a curve with that norm ambient."""
    return ConvexCurve("sphere", ambient=norm, norm=norm)


def sampled_curve(points, smooth=None, ambient=None):
    """A convex polygon given by sample points in anticlockwise order.

    smooth flags mark which vertices stand for smooth points of an ideal
    curve; unflagged vertices are treated as genuine corners.
    """
    try:
        pts = np.array(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError("curve.points", "expected an array of point pairs") from exc
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
        try:
            flags = np.asarray(smooth, dtype=bool)
        except (TypeError, ValueError) as exc:
            raise SpecError("curve.smooth", "expected a list of flags") from exc
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
    exact: bool
    disagreement: float


@dataclass(frozen=True, eq=False)
class ExtremeSet:
    """A curve's extreme set in an axis direction d, with its support value max(points @ d)."""

    points: np.ndarray  # (1,2) or (2,2), segment endpoints by traversal order
    is_segment: bool
    value: float


_FD_STEPS = (1e-3, 1e-4, 1e-5)
_SUB_STEPS = np.linspace(0.0, 1.0, 65)  # 64 sub-chords: 1e-3 steps err 5e-9 relative (16: 6e-8)
_NEWTON_STEPS = 2  # from the table's 1e-8 rad seed, one reaches 1e-11 on 1e-3 steps, two rounding


def _one_sided(f0, ahead, behind):
    """Right and left derivatives of f at zero, each as a pair (fine, coarse).

    ahead and behind stack f's samples at +_FD_STEPS and -_FD_STEPS on
    axis 0, and f0 is f(0).  fine and coarse extrapolate the difference
    quotients of the last and of the first two steps to step zero; both
    remove the first-order error term, and their difference measures how
    far the extrapolation disagrees with itself.
    """
    hs = np.reshape(_FD_STEPS, (-1,) + (1,) * np.ndim(f0))
    return tuple(((10.0 * d[2] - d[1]) / 9.0, (10.0 * d[1] - d[0]) / 9.0)
                 for d in ((ahead - f0) / hs, (f0 - behind) / hs))


class NaturalParam:
    """Arc-length parameterization of a convex curve in its ambient norm.

    Parameter zero sits at a fixed point: a polygon's first vertex in
    angle order (a sampled curve's first point), and the point at polar
    angle 0 on any other sphere.  A param is a view of its curve's
    table (the knots, the period and the corners), which the curve
    computes once, on the first read of any of them through any of its
    params; so a param that is never read evaluates no norm.
    """

    def __init__(self, curve):
        self.curve = curve
        self.ambient = curve.ambient

    def __getattr__(self, name):
        # only reached for an attribute not yet set: copy the curve's table in once, then read it
        fields = self.__dict__
        if name.startswith("__") or "period" in fields:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        fields.update(self.curve._table())
        return getattr(self, name)

    def point_at(self, t):
        """Curve point at parameter t (any shape; values taken mod period).

        The hot path, so t is unchecked: a t that is not finite gives NaN.
        """
        t = np.asarray(t, dtype=float)
        # np.mod(t, period) bit for bit: fmod's remainder, which is exact, plus the
        # period when negative; adding 0.0 turns fmod's -0.0 into 0.0 as np.mod does
        tm = np.fmod(t.reshape(-1), self.period)
        np.add(tm, self.period, out=tm, where=tm < 0.0)
        tm += 0.0
        i = np.searchsorted(self.knots_t, tm, side="right")
        i -= 1
        np.minimum(i, len(self._seg_len) - 1, out=i)  # at t = L; i >= 0 as tm >= 0
        u = self.knots_t[i]
        np.subtract(tm, u, out=u)
        u /= self._seg_len[i]
        p = np.take(self.knots_p, i, axis=0)
        p *= (1.0 - u)[:, None]
        p += np.take(self.knots_p, i + 1, axis=0) * u[:, None]
        if not self._polygonal:
            p /= np.asarray(self.ambient.value(p))[:, None]
        return p[0] if t.ndim == 0 else p.reshape(t.shape + (2,))

    def locate(self, point):
        """Parameter of a point lying on the curve."""
        point = np.asarray(point, dtype=float)
        if self._polygonal:
            ei, frac, off = _polygon_offset(self.curve._edges(), point, self.ambient)
            if not off <= ON_CURVE_TOL:
                raise PreconditionError("point does not lie on the curve")
            return float((self.knots_t[ei] + frac * self._seg_len[ei]) % self.period)
        if not abs(float(self.ambient.value(point)) - 1.0) <= ON_CURVE_TOL:
            raise PreconditionError("point does not lie on the unit sphere")
        rel = math.atan2(point[1], point[0]) % TWO_PI
        i = int(np.clip(np.searchsorted(self._rel, rel, side="right") - 1, 0, len(self._seg_len) - 1))
        return float((self.knots_t[i] + self.ambient.value(point - self.knots_p[i])) % self.period)

    def antipode_t(self, t):
        """t + L/2; on a mirrored sphere table (_sphere_table), gamma(t + L/2) = -gamma(t) at knots."""
        return (t + self.period / 2.0) % self.period

    def corner_params(self):
        return self.corner_ts.copy()

    # local stepping: curve points at signed arc displacements

    def shift_point(self, anchor, deltas):
        """Curve points at signed arc lengths `deltas` from the curve point anchor.

        Polygons step exactly along their edges.  On other spheres the
        arc-length table seeds each polar angle, and _NEWTON_STEPS Newton
        steps with the secant slope solve arc(anchor's angle, angle) =
        delta, where arc is the chord sum over 64 equal angle steps
        (_SUB_STEPS) and every table knot in between, corners among them.
        On the corpus spheres the arc from the anchor to each returned
        point, measured by a fine chord sum, is within 1e-8 |delta| + 1e-14
        of delta for |delta| <= 1e-3 and within 5e-8 for |delta| <= 0.6;
        next to l1_5's axis points and their images on l1_5_push, where the
        curvature is unbounded, within 1e-6 |delta| + 1e-14 and 5e-7.
        An anchor or a delta that is not finite raises PreconditionError.
        """
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(anchor))):
            raise PreconditionError("shift_point needs a finite anchor and finite deltas")
        if self._polygonal:
            return self.point_at(self.locate(anchor) + deltas)
        r0 = math.atan2(anchor[1], anchor[0]) % TWO_PI
        t = np.interp(r0, self._rel, self.knots_t) + deltas
        turns = np.floor(t / self.period)
        span = np.interp(t - turns * self.period, self.knots_t, self._rel) + turns * TWO_PI - r0
        for _ in range(_NEWTON_STEPS):
            arc = self._chord_arc(r0, span)
            span = span * np.divide(deltas, arc, out=np.zeros_like(arc), where=arc != 0.0)
        return self.curve.norm.unit_point(r0 + span)

    def _chord_arc(self, r0, span):
        """Signed arc length from table angle r0 to each r0 + span, as a chord sum."""
        lo, hi = r0 + np.minimum(span, 0.0), r0 + np.maximum(span, 0.0)
        # the table knots between the lowest and highest angle, unwrapped
        n = len(self._rel) - 1
        first, stop = (int(math.floor(x / TWO_PI)) * n + int(np.searchsorted(self._rel[:-1], x % TWO_PI))
                       for x in (lo.min(), hi.max()))
        m = np.arange(first, stop)
        knots = self._rel[m % n] + TWO_PI * (m // n)
        grid = np.concatenate([r0 + span[:, None] * _SUB_STEPS,
                               np.clip(knots, lo[:, None], hi[:, None])], axis=1)
        grid.sort(axis=1)
        pts = self.curve.norm.unit_point(grid)
        return np.copysign(np.asarray(self.ambient.value(np.diff(pts, axis=1))).sum(axis=1), span)

    # side derivatives

    def side_derivative_info(self, t):
        if not math.isfinite(t):
            raise PreconditionError("side derivatives need a finite parameter, got %r" % (t,))
        tm = float(np.mod(t, self.period))
        k = self._corner_at(tm)
        if k is not None:
            left = self._corner_in[k].copy()
            right = self._corner_out[k].copy()
            gap = float(self.ambient.value(left - right))
            return SideDerivatives(left, right, gap, True, 0.0)
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
            return SideDerivatives(d, d.copy(), 0.0, True, 0.0)
        left = self._seg_dir[at_knot - 1]
        right = self._seg_dir[at_knot]
        if self.curve.kind == "sampled" and self.curve.smooth[at_knot]:
            # sampled stand-in for a smooth point: use the through chord
            chord = left * self._seg_len[at_knot - 1] + right * self._seg_len[at_knot]
            d = chord / self.ambient.value(chord)
            return SideDerivatives(d.copy(), d.copy(), 0.0, True, 0.0)
        gap = float(self.ambient.value(left - right))
        return SideDerivatives(left.copy(), right.copy(), gap, True, 0.0)

    def side_slopes(self, anchor, f):
        """_one_sided's right and left derivatives of f along the curve at the point anchor.

        f maps curve points, stacked on leading axes, to values; it is
        applied to the anchor and to the points ahead and behind, which
        one shift_point call gives at +_FD_STEPS and -_FD_STEPS.
        """
        n = len(_FD_STEPS)
        pts = self.shift_point(anchor, np.concatenate([_FD_STEPS, np.negative(_FD_STEPS)]))
        return _one_sided(f(anchor), f(pts[:n]), f(pts[n:]))

    def _fd_side(self, tm):
        (right, coarse_r), (left, coarse_l) = self.side_slopes(self.point_at(tm), lambda p: p)
        dis = max(float(self.ambient.value(coarse_l - left)),
                  float(self.ambient.value(coarse_r - right)))
        gap = float(self.ambient.value(left - right))
        return SideDerivatives(left, right, gap, False, dis)


def _polygon_table(curve):
    """A polygonal curve's table: the knots are the closed vertex cycle."""
    struct = curve.structure()
    verts = struct.vertices
    knots_p = np.concatenate([verts, verts[:1]])
    seg = np.diff(knots_p, axis=0)
    seg_len = np.asarray(curve.ambient.value(seg))
    knots_t = np.concatenate([[0.0], np.cumsum(seg_len)])
    # a corner's knot is its vertex index: every vertex of a polygon sphere, the
    # unflagged points of a sampled curve, in the order structure() lists them
    idx = np.flatnonzero(~curve.smooth) if curve.kind == "sampled" else np.arange(len(verts))
    return {"_polygonal": True, "knots_p": knots_p, "knots_t": knots_t,
            "period": float(knots_t[-1]), "_seg_len": seg_len, "_seg_dir": seg / seg_len[:, None],
            "corner_ts": knots_t[idx], "_corner_in": struct.corner_in, "_corner_out": struct.corner_out}


def _sphere_table(curve):
    """The table of a sphere that is not a polygon, by polar angle (`_rel`).

    A sphere is centrally symmetric: the half turn from angle 0 is
    measured, then mirrored.
    """
    struct = curve.structure()
    corners = struct.corners
    rel_corners = np.mod(np.arctan2(corners[:, 1], corners[:, 0]), TWO_PI)
    order_by_rel = np.argsort(rel_corners)
    # sorted by angle, the second half of the corners are the first half's antipodes
    half_corners = rel_corners[order_by_rel[:len(corners) // 2]]
    rel = np.linspace(0.0, math.pi, _TABLE_KNOTS // 2, endpoint=False)
    rel = np.unique(np.concatenate([rel, half_corners]))
    # drop grid points that crowd a corner so corners stay exact knots
    for c in half_corners:
        near = (np.abs(rel - c) < 1e-12) & (rel != c)
        rel = rel[~near]
    h = len(rel)
    pts = curve.norm.unit_point(rel)
    knots_p = np.concatenate([pts, -pts, pts[:1]])
    seg = np.asarray(curve.ambient.value(np.diff(knots_p[:h + 1], axis=0)))
    half_t = np.concatenate([[0.0], np.cumsum(seg)])
    knots_t = np.concatenate([half_t, half_t[1:] + half_t[-1]])
    idx = np.searchsorted(rel, half_corners)
    return {"_polygonal": False, "_rel": np.concatenate([rel, rel + math.pi, [TWO_PI]]),
            "knots_p": knots_p, "knots_t": knots_t, "period": 2.0 * float(half_t[-1]),
            "_seg_len": np.concatenate([seg, seg]), "corner_ts": knots_t[np.concatenate([idx, idx + h])],
            "_corner_in": struct.corner_in[order_by_rel], "_corner_out": struct.corner_out[order_by_rel]}


def build_natural_param(obj):
    """The natural parameterization of a curve or of a norm's unit sphere; a param itself.

    This is the one way from a norm, a curve or a param to its param.  A
    param is a view of its curve's table, which the curve computes once,
    so every param of one curve reads the same knots.  A norm keeps one
    unit sphere (`_unit_sphere`), so it has one table too; the sphere
    refers back to the norm, a cycle the garbage collector frees with
    both.  A plane built as `build_natural_param(unit_sphere(norm))` has
    no cycle and goes with its last reference.
    """
    if isinstance(obj, NaturalParam):
        return obj
    if isinstance(obj, Norm):
        obj = _unit_sphere(obj)
    return NaturalParam(obj)


@_computed_once
def _unit_sphere(norm):
    """A norm's one unit sphere, kept in the norm's instance dict."""
    return unit_sphere(norm)


def target_params(param, uniform):
    """A uniform net of `uniform` parameters merged with the corner parameters.

    Parameters closer than 1e-9, cyclically, are kept once.
    """
    L = param.period
    ts = np.arange(int(uniform)) * (L / int(uniform))
    ts = np.sort(np.concatenate([ts, param.corner_params()]) % L)
    keep = np.concatenate([[True], np.diff(ts) > 1e-9])
    ts = ts[keep]
    if len(ts) > 1 and ts[0] + L - ts[-1] <= 1e-9:
        ts = ts[:-1]
    return ts


@dataclass(frozen=True, eq=False)
class _PolygonEdges:
    """A convex polygon's vertices and their polar angles about an interior point."""

    verts: np.ndarray
    center: np.ndarray
    angles: np.ndarray  # ascending, from angles[0] to less than one turn beyond
    tol: float  # farther than this from every edge is off the polygon


_EDGE_WINDOW = 2  # edges scored on either side of the one a point's angle falls on


def _polygon_edges(verts):
    """_PolygonEdges of anticlockwise vertices: polar angles about their mean."""
    verts = np.array(verts, dtype=float)
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    angles = ang[0] + np.mod(ang - ang[0], TWO_PI)
    return _PolygonEdges(verts, center, angles, 1e-12 * max(1.0, float(np.abs(verts).max())))


def _score_edges(verts, idx, point):
    """(index i, fraction along, Euclidean distance) of the nearest edge
    verts[i] -> verts[i + 1] among idx, the first of ties in idx's order."""
    a = verts[idx]
    d = verts[(idx + 1) % len(verts)] - a
    dd = (d ** 2).sum(axis=1)
    w = point[None, :] - a
    s = np.clip((w * d).sum(axis=1) / dd, 0.0, 1.0)
    proj = a + s[:, None] * d
    err = np.hypot(*(proj - point[None, :]).T)
    best = int(np.argmin(err))
    return int(idx[best]), float(s[best]), float(err[best])


def _nearest_edge(edges, point):
    """(index i, fraction along, Euclidean distance) of the nearest edge verts[i] -> verts[i + 1].

    A point on the polygon lies on the edge its polar angle about
    edges.center falls on, found by binary search in edges.angles, or
    within rounding of it on a neighbour.  That edge and _EDGE_WINDOW
    edges on either side are scored in ascending index order, so ties
    break as over all edges.  Only a point farther than edges.tol from
    all of them, a point off the polygon, has every edge scored.
    """
    verts = edges.verts
    n = len(verts)
    phi = math.atan2(point[1] - edges.center[1], point[0] - edges.center[0])
    phi = edges.angles[0] + (phi - edges.angles[0]) % TWO_PI
    k = int(np.searchsorted(edges.angles, phi, side="right")) - 1
    idx = np.sort((k + np.arange(-_EDGE_WINDOW, _EDGE_WINDOW + 1)) % n)
    found = _score_edges(verts, idx, point)
    if found[2] <= edges.tol:
        return found
    return _score_edges(verts, np.arange(n), point)


def _polygon_offset(edges, point, ambient):
    """_nearest_edge, with the offset measured in the ambient norm beyond rounding (edges.tol)."""
    i, s, err = _nearest_edge(edges, point)
    if err > edges.tol:
        a, b = edges.verts[i], edges.verts[(i + 1) % len(edges.verts)]
        err = float(ambient.value(a + s * (b - a) - point))
    return i, s, err


def _on_curve_residual(curve, pts):
    """Largest ambient-norm distance of pts from the curve (see ON_CURVE_TOL)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if curve.kind == "sphere":
        return float(np.max(np.abs(curve.norm.value(pts) - 1.0)))
    edges = curve._edges()
    return float(np.max([_polygon_offset(edges, p, curve.ambient)[2] for p in pts]))  # NaN wins


def _sphere_param(obj, what):
    """build_natural_param of a norm, its sphere or their param; refuses other curves."""
    param = build_natural_param(obj)
    if param.curve.kind != "sphere":
        raise PreconditionError("%s needs the unit sphere of a norm" % what)
    return param


_DIRS = {"E": np.array([1.0, 0.0]), "N": np.array([0.0, 1.0]),
         "W": np.array([-1.0, 0.0]), "S": np.array([0.0, -1.0])}


def extreme_points(curve):
    """Extreme sets of the curve in the four axis directions.

    Returns a dict keyed by "E", "N", "W", "S".  Each entry is a single
    point or the two endpoints of an extreme edge, ordered by traversal,
    with its support value.  The sets are computed once per curve and
    their arrays are read-only.
    """
    return dict(curve._extremes())


def line_crossings(curve, axis, val):
    """Components of the curve's intersection with an axis-parallel line.

    axis 0 means the vertical line x = val, axis 1 the horizontal line
    y = val.  Each component is (p_lo, p_hi, is_segment) with p_lo equal
    to p_hi for point components, sorted by the free coordinate.

    Polygons are cut edge by edge: an edge whose ends lie on opposite
    sides of the line meets it at a + u (b - a) with u = s_a / (s_a - s_b),
    where s is the signed offset of a vertex from the line, and each run
    of consecutive edges lying on the line is one segment component.
    Sampled curves have no norm of their own, so this pass serves every
    polygon, polygonal norms included.  Other spheres are cut in closed
    form by `Norm.exits` (see `_sphere_crossings`).
    """
    if curve.is_polygonal:
        return _polygon_crossings(curve.structure().vertices, axis, val)
    return _sphere_crossings(curve, axis, val)


def _polygon_crossings(verts, axis, val):
    n = len(verts)
    scale = max(1.0, float(np.abs(verts).max()))
    tol = 1e-10 * scale
    other = 1 - axis
    # signed offsets of the vertices from the line, the first one repeated:
    # edge i runs from offset s[i] to s[i + 1]
    s = verts[:, axis] - val
    s = np.append(s, s[0])
    on = np.abs(s) <= tol
    seg = on[:-1] & on[1:]
    comps = []
    if seg.any():
        # each circular run of edges on the line, from its first vertex to its last
        starts = np.flatnonzero(seg & ~np.roll(seg, 1))
        ends = np.flatnonzero(seg & ~np.roll(seg, -1))
        if ends[0] < starts[0]:
            ends = np.roll(ends, -1)  # the first run wraps round the last vertex
        for i, k in zip(starts, ends):
            a, b = verts[i].copy(), verts[(k + 1) % n].copy()
            comps.append((a, b, True) if a[other] <= b[other] else (b, a, True))
    # a vertex on the line starts an edge that leaves it, or an edge crosses;
    # an edge that ends on the line leaves that vertex to the next edge
    hit = np.flatnonzero(~on[1:] & (on[:-1] | (s[:-1] * s[1:] < 0)))
    nxt = (hit + 1) % n
    u = s[hit] / (s[hit] - s[hit + 1])
    cut = verts[hit] + u[:, None] * (verts[nxt] - verts[hit])
    for p in np.where(on[hit, None], verts[hit], cut):
        on_seg = any(lo[other] - tol <= p[other] <= hi[other] + tol for lo, hi, _ in comps)
        dup = any(abs(p[other] - q[0][other]) <= tol for q in comps if not q[2])
        if not on_seg and not dup:
            comps.append((p, p.copy(), False))
    comps.sort(key=lambda c: c[0][other])
    return comps


def _sphere_crossings(curve, axis, val):
    """Crossings of a sphere that is not a polygon with an axis line.

    A value within 1e-11 (relative) of the axis extremes touches the
    sphere at that extreme only, and one beyond them misses it.  Any
    other value gives two points, where `Norm.exits` puts the ends of
    the chord along the free axis: (1 - |val|^p)^(1/p) on a p-norm, the
    roots of one quadratic per circle on l2 and disk intersections, and
    the same on the base line inv(M) a + s inv(M) b for a pushforward,
    where p-norms other than l2 take a convex Newton search.  The line
    goes to `exits` as floats, and `exits` answers for one line in float
    arithmetic: about 1 to 4 us a call on l2 and disk intersections and
    8 us on a pushed p-norm on a 2-core x86-64 machine.
    """
    ext = curve._extremes()
    top, bottom = ext["EN"[axis]], ext["WS"[axis]]
    hi, lo = top.value, -bottom.value  # the sphere's extent along the axis
    tol = 1e-11 * max(1.0, abs(hi), abs(lo))
    if val > hi + tol or val < lo - tol:
        return []
    for end, at in ((top, hi), (bottom, lo)):
        if abs(val - at) <= tol:
            p = end.points[0]
            return [(p.copy(), p.copy(), False)]
    a, b = ((val, 0.0), (0.0, 1.0)) if axis == 0 else ((0.0, val), (1.0, 0.0))
    comps = []
    for s in curve.norm.exits(a, b):
        p = np.array((val, s) if axis == 0 else (s, val))
        comps.append((p, p.copy(), False))
    return comps
