"""Sphere maps and the constructive toolkit around them.

A SphereMap carries a candidate isometry between two convex curves in
either of two explicit forms: a 2x2 matrix restricted to the source
curve, or a monotone parameter table read through the natural
parameterizations.  The verification harness measures distortion and
antipode defects by sampling, and fits linear or affine extensions from
basis images.  The remaining tools implement the constructions used to
pin maps down: axis-aligned chord triples, the zig-zag iteration toward
a doubly extreme point, staircase sequences, equilateral triples with a
net certificate, and sampled non-differentiability sets.

Coordinates are ambient plane coordinates throughout; no map is ever
re-normalized silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    _DIRS,
    ON_CURVE_TOL,
    NaturalParam,
    _on_curve_residual,
    _sphere_param,
    build_natural_param,
    extreme_points,
    line_crossings,
)
from .errors import PreconditionError, SpecError
from .norms import cross2

_ADJACENT = {"E": ("N", "S"), "N": ("W", "E"), "W": ("S", "N"), "S": ("E", "W")}


# -- sphere maps ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SphereMap:
    """Candidate isometry between two convex curves.

    form "linear" holds a 2x2 matrix applied to source points.  form
    "param_table" holds strictly monotone knots (t_i, s_i) matching
    source parameters to target parameters, interpolated piecewise
    linearly and periodically; orientation is +1 when s increases with
    t and -1 when it decreases.
    """

    source: NaturalParam
    target: NaturalParam
    form: str
    matrix: np.ndarray | None = None
    table_t: np.ndarray | None = None
    table_s: np.ndarray | None = None  # unwrapped, strictly monotone
    orientation: int = 1


def _linear_map(source, target, matrix):
    M = np.asarray(matrix, dtype=float).reshape(2, 2)
    if not np.all(np.isfinite(M)):
        raise PreconditionError("map matrix must be finite")
    if abs(float(np.linalg.det(M))) <= 1e-12:
        raise PreconditionError("map matrix is singular")
    return SphereMap(build_natural_param(source), build_natural_param(target), "linear", matrix=M)


def linear_map(source, target, matrix):
    """Build a linear-form map whose images of 256 evenly spaced source
    points lie within ON_CURVE_TOL (1e-6) of the target curve."""
    m = _linear_map(source, target, matrix)
    ts = np.linspace(0.0, m.source.period, 256, endpoint=False)
    err = _on_curve_residual(m.target.curve, m.source.point_at(ts) @ m.matrix.T)
    if not err <= ON_CURVE_TOL:
        raise PreconditionError(
            "matrix does not carry the source curve onto the target curve "
            "(residual %.3g > %g)" % (err, ON_CURVE_TOL))
    return m


def table_map(source, target, pairs):
    """Build a param-table map from (t, s) knot pairs.

    Knots must be finite and strictly increasing in t over one source
    period.  The s values may wrap once around the target period; their
    cyclic order must be strictly monotone, which fixes the orientation.
    """
    src = build_natural_param(source)
    tgt = build_natural_param(target)
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
        raise PreconditionError("need at least two (t, s) pairs")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("table pairs must be finite")
    t, s = arr[:, 0].copy(), arr[:, 1].copy()
    if np.any(np.diff(t) <= 0) or t[-1] - t[0] >= src.period:
        raise PreconditionError("table t values must be strictly increasing over one period")
    Ly = tgt.period
    ds = np.diff(np.mod(s, Ly))
    for orient in (1, -1):
        step = np.where(orient * ds <= 0, ds + orient * Ly, ds)
        if np.all(orient * step > 0) and abs(step.sum()) < Ly:
            s_unwrapped = np.mod(s[0], Ly) + np.concatenate([[0.0], np.cumsum(step)])
            return SphereMap(src, tgt, "param_table", table_t=t,
                            table_s=s_unwrapped, orientation=orient)
    raise PreconditionError("table s values are not cyclically monotone")


def map_from_spec(obj, source, target, path="map"):
    """A SphereMap from its JSON form; a bad field raises SpecError at its path.

    A linear map's matrix must be a finite 2x2 array and a param table's
    pairs a finite array.  Linear maps load without a landing check:
    whether the matrix carries the source curve onto the target is what
    the harness measures.
    """
    if not isinstance(obj, dict) or "form" not in obj:
        raise SpecError(path, "expected a map object with a 'form' field")
    form = obj["form"]
    key = "matrix" if form == "linear" else "pairs" if form == "param_table" else None
    if key is None:
        raise SpecError(path + ".form", "unknown map form %r" % (form,))
    field = "%s.%s" % (path, key)
    if key not in obj:
        raise SpecError(field, "missing required field")
    try:
        arr = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(field, "expected an array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise SpecError(field, "values must be finite")
    if form == "linear" and arr.shape != (2, 2):
        raise SpecError(field, "need a 2x2 matrix")
    try:
        if form == "linear":
            return _linear_map(source, target, arr)
        return table_map(source, target, arr)
    except PreconditionError as exc:
        raise SpecError(path, str(exc)) from exc


def map_to_spec(m):
    if m.form == "linear":
        return {"form": "linear", "matrix": [[float(v) for v in row] for row in m.matrix]}
    Ly = m.target.period
    pairs = [[float(t), float(s % Ly)] for t, s in zip(m.table_t, m.table_s)]
    return {"form": "param_table", "pairs": pairs}


def map_param(m, ts):
    """Image points of source parameters under the map."""
    ts = np.asarray(ts, dtype=float)
    if m.form == "linear":
        return m.source.point_at(ts) @ m.matrix.T
    Lx = m.source.period
    t_ext = np.append(m.table_t, m.table_t[0] + Lx)
    s_ext = np.append(m.table_s, m.table_s[0] + m.orientation * m.target.period)
    tq = m.table_t[0] + np.mod(ts - m.table_t[0], Lx)
    return m.target.point_at(np.interp(tq, t_ext, s_ext))


def _image(m, ts, pts):
    """map_param(m, ts) given pts, the source points of ts, which a linear map reuses."""
    return pts @ m.matrix.T if m.form == "linear" else map_param(m, ts)


def map_point(m, pts):
    """Image of explicit source curve points."""
    pts = np.asarray(pts, dtype=float)
    if m.form == "linear":
        return pts @ m.matrix.T
    single = pts.ndim == 1
    ts = np.array([m.source.locate(p) for p in np.atleast_2d(pts)])
    out = map_param(m, ts)
    return out[0] if single else out


# -- verification harness ------------------------------------------------


def _sample_params(m, samples, rng):
    L = m.source.period
    parts = [np.linspace(0.0, L, max(8, int(samples)), endpoint=False)]
    if m.form == "param_table":
        # table knots and interval midpoints stress the interpolation
        k = m.table_t
        gaps = np.diff(np.append(k, k[0] + L))
        parts.extend([k, (k + gaps / 2.0) % L])
    parts.append(rng.uniform(0.0, L, size=max(8, int(samples) // 4)))
    return np.concatenate(parts) % L


def distortion_profile(m, samples=256, seed=0):
    """Per-pair distortions |dist_Y(tau u, tau v) - dist_X(u, v)|.

    Pairs cover random partners plus near-coincident and near-antipodal
    configurations, where distortion of a wrong map is easiest to miss.
    """
    rng = np.random.default_rng(seed)
    ts = _sample_params(m, samples, rng)
    L = m.source.period
    jitter = 1e-3 * L * rng.standard_normal(ts.size)
    ta = np.concatenate([ts, ts, ts, ts])
    tb = np.concatenate([
        rng.permutation(ts),
        np.roll(ts, 1),
        (ts + 1e-6 * L) % L,
        (ts + 0.5 * L + jitter) % L,
    ])
    u = m.source.point_at(ta)
    v = m.source.point_at(tb)
    du = m.source.ambient.value(u - v)
    dv = m.target.ambient.value(_image(m, ta, u) - _image(m, tb, v))
    return np.abs(dv - du)


def check_isometry(m):
    """Max distortion over the default sampled pair profile."""
    return float(np.max(distortion_profile(m)))


def check_antipodes(m, samples=256):
    """Max over sampled x of the target-norm size of tau(-x) + tau(x)."""
    src = m.source
    ts = np.linspace(0.0, src.period, max(8, int(samples)), endpoint=False)
    if src.curve.kind != "sphere":
        # antipodes only make sense on centrally symmetric curves
        probe = src.point_at(ts[:: max(1, len(ts) // 32)])
        if _on_curve_residual(src.curve, -probe) > 1e-8:
            raise PreconditionError("source curve is not centrally symmetric")
    # -gamma(t) = gamma(t + L/2) on a centrally symmetric curve (see antipode_t)
    tx = map_param(m, ts)
    tmx = map_param(m, src.antipode_t(ts))
    return float(np.max(m.target.ambient.value(tx + tmx)))


def fit_linear(m, basis, samples=256):
    """Linear extension from two basis images; returns (matrix, residual).

    The matrix is pinned by T x = tau(x) on the two basis points; the
    residual is the max target-norm error of T against the map over a
    sampled sweep of the source curve.
    """
    x, xb = (np.asarray(b, dtype=float) for b in basis)
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(xb).max()))
    if not abs(cross2(x, xb)) > 1e-12 * scale * scale:
        raise PreconditionError("basis vectors are linearly dependent or not finite")
    imgs = map_point(m, np.stack([x, xb]))
    T = imgs.T @ np.linalg.inv(np.column_stack([x, xb]))
    ts = _sample_params(m, samples, np.random.default_rng(0))
    u = m.source.point_at(ts)
    res = float(np.max(m.target.ambient.value(_image(m, ts, u) - u @ T.T)))
    return T, res


def fit_affine(m, anchors, samples=256):
    """Affine extension through three anchor images; returns (T, b, residual)."""
    P = np.asarray(anchors, dtype=float).reshape(3, 2)
    scale = max(1.0, float(np.abs(P).max()))
    if not abs(cross2(P[1] - P[0], P[2] - P[0])) > 1e-12 * scale * scale:
        raise PreconditionError("anchor points are collinear or not finite")
    Q = map_point(m, P)
    coef = np.linalg.solve(np.column_stack([P, np.ones(3)]), Q)
    T, b = coef[:2].T, coef[2]
    ts = _sample_params(m, samples, np.random.default_rng(0))
    u = m.source.point_at(ts)
    res = float(np.max(m.target.ambient.value(_image(m, ts, u) - (u @ T.T + b))))
    return T, b, res


def rigidity_verdict(norm):
    """Whether maps of this sphere are forced linear by its corner count.

    Spheres with at least four corners pin every sphere isometry to a
    linear map; a single antipodal corner pair, or none at all, leaves
    nonlinear maps unruled and the verdict undetermined.
    """
    n_corners = len(norm.structure().corners)
    return "linear" if n_corners >= 4 else "undetermined"


def two_corner_undetermined(norm):
    """True when the sphere has exactly one antipodal corner pair.

    Such spheres sit in the gap of the rigidity argument: the corner
    pair fixes one basis direction but nothing pins the second, so
    verification reports carry this flag instead of asserting linearity.
    """
    return len(norm.structure().corners) == 2


# -- equilateral triples -------------------------------------------------


@dataclass(frozen=True, eq=False)
class EquilateralResult:
    status: str  # "found", "certified_absent", "undetermined"
    triples: tuple
    distances: tuple  # realized min pairwise distance per triple
    target_distance: float
    margin: float
    net_spacing: float
    fine_spacing: float
    best_bound: float | None  # valid upper bound on any net triple when absent


def _farthest(norm, pts, ts, param):
    """Offset along the net, and distance, of each net point's farthest net point.

    Distance from a point rises towards its antipode and falls back, so
    the farthest net point is a net neighbour of the antipode.
    """
    m = len(pts)
    rows = np.arange(m)
    a = np.searchsorted(ts, param.antipode_t(ts))
    cand = np.stack([(a - 1) % m, a % m])
    d = np.stack([norm.value(pts - pts[c]) for c in cand])
    pick = np.argmax(d, axis=0)
    return (cand[pick, rows] - rows) % m, d[pick, rows]


def _bisect(norm, pts, good, bad, thresh):
    """Per row i, bisect offsets until good and bad are adjacent.

    Offset good is at distance >= thresh from point i and offset bad is
    not; the returned good offsets are the ends of the rows' runs.
    """
    m = len(pts)
    rows = np.arange(m)
    while True:
        open_ = np.abs(good - bad) > 1
        if not open_.any():
            return good
        mid = (good + bad) // 2
        far = norm.value(pts - pts[(rows + mid) % m]) >= thresh
        good = np.where(open_ & far, mid, good)
        bad = np.where(open_ & ~far, mid, bad)


def _arcs(norm, pts, farthest, thresh):
    """(start index, member count) of each net point's run of partners at >= thresh."""
    peak, dmax = farthest
    m = len(pts)
    first = _bisect(norm, pts, peak, np.zeros(m, dtype=int), thresh)
    last = _bisect(norm, pts, peak, np.full(m, m), thresh)
    count = np.where(dmax >= thresh, last - first + 1, 0)
    return (np.arange(m) + first) % m, count


def _in_triangle(norm, pts, arcs, thresh):
    """Whether each net point is a corner of some net triangle with sides >= thresh."""
    start, count = arcs
    end = (start + count - 1) % len(pts)
    return (count >= 2) & (norm.value(pts[start] - pts[end]) >= thresh)


def _common_partners(arcs, rows):
    """(i, j, k) with i < j, j and k in i's run and k in j's run, k the least.

    Pairs come in row-major order.  The least index of two circular runs'
    intersection is 0 or the start of one of them.
    """
    start, count = arcs
    m = len(start)
    for i in np.flatnonzero(rows):
        js = (start[i] + np.arange(count[i])) % m
        js = np.sort(js[js > i])
        ks = np.stack([np.zeros_like(js), np.full_like(js, start[i]), start[js]], axis=1)
        both = (((ks - start[i]) % m < count[i])
                & ((ks - start[js][:, None]) % m < count[js][:, None]))
        k = np.where(both, ks, m).min(axis=1)
        for j, kk in zip(js[k < m], k[k < m]):
            yield int(i), int(j), int(kk)


_FINE_SPACING = 1e-4  # certified absence holds on every net this fine or finer


def equilateral_triples(obj, target_distance, margin):
    """Search a sphere net for pairwise-far triples, or certify absence.

    A triple counts when all three pairwise distances reach
    target_distance - margin.  Absence is certified through the net:
    moving a point along the curve by arc length d moves it by at most d
    in the ambient norm, so a net of spacing h cannot miss a curve
    triple by more than h per pairwise distance.  When the best net
    triple stays below target - margin - 4*_FINE_SPACING - h, no triple
    survives on any net of spacing _FINE_SPACING or finer.  Witness
    triples are re-verified by direct evaluation before being returned.

    The net search keeps O(n) memory and O(n log n) distances per net.
    Along the curve, the distance from a net point x_i does not decrease
    from x_i to -x_i and does not increase back to x_i (the monotonicity
    lemma of normed planes).  So its partners at distance >= thresh form
    one circular run of net indices around its farthest net point, a net
    neighbour of the antipode, and bisection outwards from there finds
    both run ends.  The monotonicity is not strict: a flat stretch, such
    as a facing edge of linf or hexagonal at distance exactly 2, lies
    inside the run or outside it as a whole, and a tie between the two
    neighbours of the antipode picks a point of the same run either way.
    The offset from x_i runs from 1 to n - 1, so a run never contains x_i
    and may wrap through index 0.

    If some triangle contains x_i, then (x_i, s_i, e_i) is one, where s_i
    and e_i are the first and last point of x_i's run.  For a triangle
    (i, j, k), with j met before k going round from i, the run of x_k
    holds i and j but not k, so it holds the stretch from i to j, on
    which s_i lies; so (i, s_i, k) is a triangle, and the mirrored
    argument with s_i in place of j puts e_i in the run of s_i.  A run
    with fewer than 2 members therefore holds no triangle, and one
    distance per row decides whether any triangle exists, at thresh and
    at the certificate's level alike.  Witnesses come from the rows that
    pass: pairs i < j in row-major order, j in i's run, and k the least
    index in both runs.
    """
    target_distance, margin = float(target_distance), float(margin)
    if not (math.isfinite(target_distance) and math.isfinite(margin)):
        raise PreconditionError("target distance and margin must be finite")
    param = _sphere_param(obj, "equilateral_triples")
    norm = param.ambient
    L = param.period
    thresh = target_distance - margin
    n = 1024
    h = L / n
    for _ in range(5):  # a 1024-point net and up to 4 doublings
        ts = np.unique(np.concatenate([
            np.linspace(0.0, L, n, endpoint=False), param.corner_params()]) % L)
        pts = param.point_at(ts)
        h = L / n  # merged corners only refine the net further
        farthest = _farthest(norm, pts, ts, param)
        arcs = _arcs(norm, pts, farthest, thresh)
        rows = _in_triangle(norm, pts, arcs, thresh)
        if rows.any():
            triples, dists = [], []
            for i, j, k in _common_partners(arcs, rows):
                key = tuple(sorted((i, j, k)))
                tri = pts[list(key)]
                realized = float(min(
                    norm.value(tri[0] - tri[1]),
                    norm.value(tri[0] - tri[2]),
                    norm.value(tri[1] - tri[2])))
                if realized >= thresh:
                    # np.allclose's test, against every kept triple at once
                    kept = np.reshape(triples, (-1, 3, 2))
                    close = np.abs(tri - kept) <= 1e-8 + 1e-5 * np.abs(kept)
                    if not close.all(axis=(1, 2)).any():
                        triples.append(tri)
                        dists.append(realized)
                if len(triples) >= 8:
                    break
            if triples:
                return EquilateralResult("found", tuple(triples), tuple(dists),
                                         target_distance, margin, h, _FINE_SPACING, None)
        cert = thresh - 4.0 * _FINE_SPACING - h
        if not _in_triangle(norm, pts, _arcs(norm, pts, farthest, cert), cert).any():
            return EquilateralResult("certified_absent", (), (), target_distance, margin,
                                     h, _FINE_SPACING, cert + h)
        n *= 2
    return EquilateralResult("undetermined", (), (), target_distance, margin,
                             h, _FINE_SPACING, None)


# -- chord triples -------------------------------------------------------


def require_distinct_extremes(curve):
    """Raise unless four strictly separated extreme witnesses exist.

    The construction fails exactly when a direction's extreme is
    attained at a single point that also attains a neighbouring
    direction's extreme; extreme edges always leave room to pick
    witnesses apart.  Such curves carry a doubly extreme point and are
    the domain of the zigzag iteration instead.
    """
    ext = extreme_points(build_natural_param(curve).curve)
    for name, es in ext.items():
        if es.is_segment:
            continue
        p = es.points[0]
        for nb in _ADJACENT[name]:
            if float(p @ _DIRS[nb]) >= ext[nb].value - 1e-9:
                raise PreconditionError(
                    "point (%.6g, %.6g) is extreme in two directions; "
                    "the chord construction does not apply, use zigzag"
                    % (p[0], p[1]))
    return ext


_ITP_K1 = 0.2   # truncation 0.2 w^2 on a bracket of width w: ITP's 0.2 / (b - a) on [0, 1]
_ITP_N0 = 4     # steps the search may fall behind bisection
_ITP_ULPS = 4   # least truncation, in units in the last place of the bracket's upper end


def _last_flatter(gap, g0):
    """The float s in [0, 1) with gap(s) > 0 and gap(next float) <= 0.

    gap(0) = g0 is taken as positive and gap(1) as -inf, as a chord
    triple's walk has them; a bracket end whose value is not finite, or
    g0 when it is not positive, is bisected.  Between finite ends each
    step takes ITP's point (Oliveira and Takahashi, ACM TOMS 47(1), 2020):
    the regula falsi point, moved towards the midpoint by
    max(_ITP_K1 w^2, _ITP_ULPS ulps) so that it lands past the flip and
    both ends close in, then kept within a radius of the midpoint that
    leaves the bracket at most _ITP_N0 halvings behind bisection.  Once
    that slack is spent, and below 2^-53, the steps are halvings, down to
    adjacent floats.  With one flip in [0, 1] the result is the one
    halving alone finds.
    """
    lo, hi = 0.0, 1.0
    g_lo = g0 if g0 > 0.0 else math.inf
    g_hi = -math.inf
    j = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        w = hi - lo
        s = mid
        # the projection radius eps 2^(n_max - j) - w/2, eps = 2^-54, n_max = 53 + _ITP_N0
        r = 2.0 ** (_ITP_N0 - 1 - j) - 0.5 * w
        if r > 0.0 and math.isfinite(g_lo) and math.isfinite(g_hi):
            xf = (g_lo * hi - g_hi * lo) / (g_lo - g_hi)
            sigma = math.copysign(1.0, mid - xf)
            delta = max(_ITP_K1 * w * w, _ITP_ULPS * math.ulp(hi))
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            s = xt if abs(xt - mid) <= r else mid - sigma * r
            if not lo < s < hi:
                s = mid
        g = gap(s)
        if g > 0.0:
            lo, g_lo = s, g
        else:
            hi, g_hi = s, g
        j += 1


def chord_triple(curve, x):
    """Chord u - v = t*x together with the corner point w of its bounding box.

    Returns (u, v, w, t) with all three points on the curve, w sharing
    its first coordinate with u and its second with v, and t nonzero.
    Axis directions x use a single horizontal or vertical chord and the
    degenerate corner w = u (horizontal) or w = v (vertical).

    Any other x is first turned into the upper half plane.  Then w walks
    the lower arc from the bottom extreme towards the side x leans to:
    to the right extreme when x1 > 0, to the left one when x1 < 0.  u is
    the top crossing of the vertical line through w, and v the crossing
    of the horizontal line through w farthest on the other side.  At walk
    fraction s the box's signed gap is g(s) = rho*height - |w1 - v1|,
    with rho = |x1 / x2| and height = u2 - w2, and g = -inf where the
    height is not positive; g > 0 says the box is flatter than x.  At the
    start of the walk w = v and g > 0; at its end w = u and g = -inf.
    `_last_flatter` finds the flip of g by a bracketing ITP search, which
    takes about 15 boxes where halving alone takes 55, and finishes
    with halving down to adjacent floats; the box at the flip's flatter
    side has its diagonal u - v parallel to x.  t is read from x's
    dominant coordinate, so it keeps its accuracy near the axes.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    nx = float(np.abs(x).max())
    if not 0.0 < nx < math.inf:
        raise PreconditionError("direction must be finite and nonzero")
    param = build_natural_param(curve)
    curve = param.curve
    ext = require_distinct_extremes(curve)

    sgn = 1.0
    if x[1] < 0.0 or (x[1] == 0.0 and x[0] < 0.0):
        x = -x
        sgn = -1.0
    k = int(abs(x[1]) > abs(x[0]))  # the dominant coordinate

    if abs(x[1 - k]) <= 1e-12 * nx:
        # a chord along axis k: horizontal at mid height with w = u, or vertical at mid width with w = v
        mid = (ext["NE"[k]].value - ext["SW"[k]].value) / 2.0
        comps = line_crossings(curve, 1 - k, mid)
        v = comps[0][0]
        u = comps[-1][1]
        t = float((u[k] - v[k]) / x[k])
        return u, v, (v if k else u).copy(), sgn * t

    right = x[0] > 0.0
    # an extreme set's points run in traversal order: [0] is its first end and [-1] its last
    if right:  # anticlockwise from the bottom to the right extreme
        t0 = param.locate(ext["S"].points[0])
        t1 = param.locate(ext["E"].points[-1])
        span = (t1 - t0) % param.period
    else:      # clockwise from the bottom to the left extreme
        t0 = param.locate(ext["S"].points[-1])
        t1 = param.locate(ext["W"].points[0])
        span = -((t0 - t1) % param.period)
    rho = abs(float(x[0] / x[1]))

    def box(s):
        w = param.point_at(t0 + s * span)
        vert = line_crossings(curve, 0, float(w[0]))
        horz = line_crossings(curve, 1, float(w[1]))
        u = vert[-1][1]   # uppermost point over w
        v = horz[0][0] if right else horz[-1][1]
        return u, v, w

    def gap(s):
        u, v, w = box(s)
        height = float(u[1] - w[1])
        if height <= 0.0:
            return -math.inf
        return rho * height - abs(float(w[0] - v[0]))

    lo = _last_flatter(gap, gap(0.0))
    u, v, w = box(lo)
    t = float((u[k] - v[k]) / x[k])
    return u, v, w, sgn * t


# -- zigzag iteration ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ZigzagResult:
    points: np.ndarray  # iterates, starting point included
    verdict: str        # "converged", "fixed", "not_converged"
    iterations: int
    final_gap: float


def _segment_candidates(comp, c):
    lo, hi, is_seg = comp
    if not is_seg:
        return [lo]
    free = 1 if abs(hi[0] - lo[0]) <= abs(hi[1] - lo[1]) else 0
    mid = lo.copy()
    mid[free] = min(max(float(c[free]), float(lo[free])), float(hi[free]))
    return [lo, hi, mid]


def zigzag(curve, c, a):
    """Iterate toward a doubly extreme point by coordinate-sharing steps.

    Each step moves to the candidate point sharing a coordinate with the
    current iterate that lies closest to c in the curve's ambient norm,
    preferring the vertical line on ties.  The iteration starts from a
    and stops once the ambient gap to c is at most 1e-6 (10000 steps at
    most); a first step that cannot move reports the starting point as fixed.
    """
    c = np.asarray(c, dtype=float).reshape(2)
    a = np.asarray(a, dtype=float).reshape(2)
    curve = build_natural_param(curve).curve
    ext = extreme_points(curve)
    hit = sum(1 for name, d in _DIRS.items()
              if float(c @ d) >= ext[name].value - 1e-9)
    if hit < 2:
        raise PreconditionError("c must be extreme in two directions")
    if not _on_curve_residual(curve, [a, c]) <= ON_CURVE_TOL:
        raise PreconditionError("c and a must lie on the curve")
    ambient = curve.ambient

    pts = [a.copy()]
    cur = a.copy()
    gap = float(ambient.value(cur - c))
    if gap <= 1e-12:
        return ZigzagResult(np.array(pts), "fixed", 0, gap)
    verdict = "not_converged"
    steps = 0
    for n in range(10000):
        best, best_d, best_vert = None, math.inf, False
        for axis in (0, 1):
            for comp in line_crossings(curve, axis, float(cur[axis])):
                for q in _segment_candidates(comp, c):
                    d = float(ambient.value(q - c))
                    vert = axis == 0
                    if d < best_d - 1e-12 or (abs(d - best_d) <= 1e-12
                                              and vert and not best_vert):
                        best, best_d, best_vert = np.asarray(q, dtype=float), d, vert
        steps = n + 1
        if best is None or float(ambient.value(best - cur)) <= 1e-12:
            verdict = "fixed" if n == 0 else "not_converged"
            break
        cur = best.copy()
        pts.append(cur)
        gap = best_d
        if gap <= 1e-6:
            verdict = "converged"
            break
    return ZigzagResult(np.array(pts), verdict, steps, float(gap))


# -- staircase sequences -------------------------------------------------


def staircase(curve, a, n_min, n_max):
    """Alternating horizontal/vertical partner points, indexed by step.

    Forward steps take the horizontal partner first, backward steps the
    vertical partner first.  At an extreme point the partner line only
    touches the curve, so the sequence sticks there.  When a step leaves
    two partner choices (the point sits at the end of a flat edge on the
    partner line), the one with the larger natural parameter is taken.
    """
    n_min, n_max = int(n_min), int(n_max)
    if n_min > 0 or n_max < 0:
        raise PreconditionError("need n_min <= 0 <= n_max")
    a = np.asarray(a, dtype=float).reshape(2)
    param = build_natural_param(curve)
    if not _on_curve_residual(param.curve, a) <= ON_CURVE_TOL:
        raise PreconditionError("a must lie on the curve")
    out = {0: a.copy()}

    def partner(p, axis):
        cands = []
        for lo, hi, is_seg in line_crossings(param.curve, axis, float(p[axis])):
            for q in (lo, hi):
                if float(np.abs(q - p).max()) > 1e-9 and not any(
                        float(np.abs(q - r).max()) <= 1e-12 for r in cands):
                    cands.append(q)
        if not cands:
            return p.copy()
        if len(cands) == 1:
            return np.asarray(cands[0], dtype=float).copy()
        return np.asarray(max(cands, key=param.locate), dtype=float).copy()

    cur = a.copy()
    for n in range(1, n_max + 1):
        cur = partner(cur, 1 if n % 2 == 1 else 0)
        out[n] = cur
    cur = a.copy()
    for n in range(-1, n_min - 1, -1):
        cur = partner(cur, 0 if (-n) % 2 == 1 else 1)
        out[n] = cur
    return out


# -- sampled non-differentiability sets ----------------------------------


@dataclass(frozen=True, eq=False)
class NonDiffSample:
    base: np.ndarray
    params: np.ndarray
    points: np.ndarray
    gaps: np.ndarray
    flagged: np.ndarray


def nondiff_set(curve, a, sample_resolution=360):
    """Sampled set of points b whose distance profile kinks while sliding
    through a.

    For each sampled b the one-sided slopes of t -> ||gamma_a(t) - b||
    at t = 0 are estimated by Richardson extrapolation over the steps
    1e-3, 1e-4 and 1e-5; b is flagged when they disagree by more than
    1e-3.  The base point itself is part of the sample and is
    always flagged: its profile is |t| to leading order.
    """
    a = np.asarray(a, dtype=float).reshape(2)
    param = build_natural_param(curve)
    if not _on_curve_residual(param.curve, a) <= ON_CURVE_TOL:
        raise PreconditionError("a must lie on the curve")
    norm = param.ambient
    k = max(8, int(sample_resolution))
    ta = param.locate(a)
    ts = (ta + param.period * np.arange(k) / k) % param.period
    bs = param.point_at(ts)

    (r_fine, _), (l_fine, _) = param.side_slopes(a, lambda p: norm.value(p[..., None, :] - bs))
    gaps = np.abs(r_fine - l_fine)
    flagged = gaps > 1e-3
    return NonDiffSample(a.copy(), ts, bs, gaps, flagged)
