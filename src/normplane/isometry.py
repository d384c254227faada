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
from scipy.optimize import brentq

from .curves import (
    _DIRS,
    ConvexCurve,
    NaturalParam,
    _as_param,
    extreme_points,
    line_crossings,
    unit_sphere,
)
from .errors import PreconditionError, SpecError
from .norms import Pushforward, cross2

_ADJACENT = {"E": ("N", "S"), "N": ("W", "E"), "W": ("S", "N"), "S": ("E", "W")}


def _as_curve(obj):
    # accept a curve, a natural parameterization of one, or a norm
    if isinstance(obj, NaturalParam):
        return obj.curve
    if isinstance(obj, ConvexCurve):
        return obj
    return unit_sphere(obj)


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


def _on_curve_residual(param, pts):
    pts = np.atleast_2d(pts)
    errs = []
    for p in pts:
        try:
            q = param.point_at(param.locate(p))
        except PreconditionError:
            return math.inf
        errs.append(float(param.ambient.value(q - p)))
    return max(errs)


def linear_map(source, target, matrix, tol=1e-6, samples=256):
    """Build a linear-form map, checking that it lands on the target curve."""
    src = _as_param(source)
    tgt = _as_param(target)
    M = np.asarray(matrix, dtype=float).reshape(2, 2)
    if abs(float(np.linalg.det(M))) <= 1e-12:
        raise PreconditionError("map matrix is singular")
    ts = np.linspace(0.0, src.period, samples, endpoint=False)
    img = src.point_at(ts) @ M.T
    if tgt.curve.kind == "sphere":
        err = float(np.max(np.abs(tgt.ambient.value(img) - 1.0)))
    else:
        err = _on_curve_residual(tgt, img)
    if err > tol:
        raise PreconditionError(
            "matrix does not carry the source curve onto the target curve "
            "(residual %.3g > %.3g)" % (err, tol))
    return SphereMap(src, tgt, "linear", matrix=M)


def table_map(source, target, pairs):
    """Build a param-table map from (t, s) knot pairs.

    Knots must be strictly increasing in t over one source period.  The
    s values may wrap once around the target period; their cyclic order
    must be strictly monotone, which fixes the orientation flag.
    """
    src = _as_param(source)
    tgt = _as_param(target)
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
        raise PreconditionError("need at least two (t, s) pairs")
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
    if not isinstance(obj, dict) or "form" not in obj:
        raise SpecError(path, "expected an object with a 'form' field")
    form = obj["form"]
    try:
        if form == "linear":
            if "matrix" not in obj:
                raise SpecError(path + ".matrix", "missing")
            return linear_map(source, target, np.asarray(obj["matrix"], dtype=float))
        if form == "param_table":
            if "pairs" not in obj:
                raise SpecError(path + ".pairs", "missing")
            return table_map(source, target, obj["pairs"])
    except PreconditionError as exc:
        raise SpecError(path, str(exc)) from exc
    raise SpecError(path + ".form", "unknown form %r" % (form,))


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
    dv = m.target.ambient.value(map_param(m, ta) - map_param(m, tb))
    return np.abs(dv - du)


def check_isometry(m, samples=256, seed=0):
    """Max distortion over the sampled pair profile."""
    return float(np.max(distortion_profile(m, samples=samples, seed=seed)))


def check_antipodes(m, samples=256):
    """Max over sampled x of the target-norm size of tau(-x) + tau(x)."""
    src = m.source
    ts = np.linspace(0.0, src.period, max(8, int(samples)), endpoint=False)
    x = src.point_at(ts)
    if src.curve.kind != "sphere":
        # antipodes only make sense on centrally symmetric curves
        probe = x[:: max(1, len(x) // 32)]
        if _on_curve_residual(src, -probe) > 1e-8:
            raise PreconditionError("source curve is not centrally symmetric")
    tx = map_point(m, x)
    tmx = map_point(m, -x)
    return float(np.max(m.target.ambient.value(tx + tmx)))


def fit_linear(m, basis, samples=256):
    """Linear extension from two basis images; returns (matrix, residual).

    The matrix is pinned by T x = tau(x) on the two basis points; the
    residual is the max target-norm error of T against the map over a
    sampled sweep of the source curve.
    """
    x, xb = (np.asarray(b, dtype=float) for b in basis)
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(xb).max()))
    if abs(cross2(x, xb)) <= 1e-12 * scale * scale:
        raise PreconditionError("basis vectors are linearly dependent")
    imgs = map_point(m, np.stack([x, xb]))
    T = imgs.T @ np.linalg.inv(np.column_stack([x, xb]))
    ts = _sample_params(m, samples, np.random.default_rng(0))
    u = m.source.point_at(ts)
    res = float(np.max(m.target.ambient.value(map_param(m, ts) - u @ T.T)))
    return T, res


def fit_affine(m, anchors, samples=256):
    """Affine extension through three anchor images; returns (T, b, residual)."""
    P = np.asarray(anchors, dtype=float).reshape(3, 2)
    scale = max(1.0, float(np.abs(P).max()))
    if abs(cross2(P[1] - P[0], P[2] - P[0])) <= 1e-12 * scale * scale:
        raise PreconditionError("anchor points are collinear")
    Q = map_point(m, P)
    coef = np.linalg.solve(np.column_stack([P, np.ones(3)]), Q)
    T, b = coef[:2].T, coef[2]
    ts = _sample_params(m, samples, np.random.default_rng(0))
    u = m.source.point_at(ts)
    res = float(np.max(m.target.ambient.value(map_param(m, ts) - (u @ T.T + b))))
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


def _pairwise(norm, pts, block=2048):
    n = len(pts)
    D = np.empty((n, n))
    for i0 in range(0, n, block):
        D[i0:i0 + block] = norm.value(pts[i0:i0 + block, None, :] - pts[None, :, :])
    return D


def _triangle_edges(A):
    Af = A.astype(np.float32)
    return (Af @ Af) * A


def equilateral_triples(norm, target_distance, margin, fine_spacing=1e-4,
                        resolution=1024, max_refine=4):
    """Search a sphere net for pairwise-far triples, or certify absence.

    A triple counts when all three pairwise distances reach
    target_distance - margin.  Absence is certified through the net:
    moving a point along the curve by arc length d moves it by at most d
    in the ambient norm, so a net of spacing h cannot miss a curve
    triple by more than h per pairwise distance.  When the best net
    triple stays below target - margin - 4*fine_spacing - h, no triple
    survives on any net of spacing fine_spacing or finer.  Witness
    triples are re-verified by direct evaluation before being returned.
    """
    param = _as_param(unit_sphere(norm))
    L = param.period
    thresh = float(target_distance) - float(margin)
    n = int(resolution)
    h = L / n
    for _ in range(max_refine + 1):
        ts = np.unique(np.concatenate([
            np.linspace(0.0, L, n, endpoint=False), param.corner_params()]) % L)
        pts = param.point_at(ts)
        h = L / n  # merged corners only refine the net further
        D = _pairwise(norm, pts)
        A = D >= thresh
        np.fill_diagonal(A, False)
        common = _triangle_edges(A)
        if common.any():
            triples, dists = [], []
            ii, jj = np.nonzero(np.triu(common, 1))
            for i, j in zip(ii, jj):
                k = int(np.nonzero(A[i] & A[j])[0][0])
                key = tuple(sorted((int(i), int(j), k)))
                tri = pts[list(key)]
                realized = float(min(
                    norm.value(tri[0] - tri[1]),
                    norm.value(tri[0] - tri[2]),
                    norm.value(tri[1] - tri[2])))
                if realized >= thresh and not any(
                        np.allclose(tri, t) for t in triples):
                    triples.append(tri)
                    dists.append(realized)
                if len(triples) >= 8:
                    break
            if triples:
                return EquilateralResult("found", tuple(triples), tuple(dists),
                                         float(target_distance), float(margin),
                                         h, float(fine_spacing), None)
        cert = thresh - 4.0 * float(fine_spacing) - h
        Ac = D >= cert
        np.fill_diagonal(Ac, False)
        if not _triangle_edges(Ac).any():
            return EquilateralResult("certified_absent", (), (),
                                     float(target_distance), float(margin),
                                     h, float(fine_spacing), cert + h)
        n *= 2
    return EquilateralResult("undetermined", (), (), float(target_distance),
                             float(margin), h, float(fine_spacing), None)


# -- chord triples -------------------------------------------------------


def _extreme_values(ext):
    vals = {}
    for name, d in _DIRS.items():
        vals[name] = float(np.max(ext[name].points @ d))
    return vals


def require_distinct_extremes(curve):
    """Raise unless four strictly separated extreme witnesses exist.

    The construction fails exactly when a direction's extreme is
    attained at a single point that also attains a neighbouring
    direction's extreme; extreme edges always leave room to pick
    witnesses apart.  Such curves carry a doubly extreme point and are
    the domain of the zigzag iteration instead.
    """
    ext = extreme_points(_as_curve(curve))
    vals = _extreme_values(ext)
    for name, es in ext.items():
        if es.is_segment:
            continue
        p = es.points[0]
        for nb in _ADJACENT[name]:
            if float(p @ _DIRS[nb]) >= vals[nb] - 1e-9:
                raise PreconditionError(
                    "point (%.6g, %.6g) is extreme in two directions; "
                    "the chord construction does not apply, use zigzag"
                    % (p[0], p[1]))
    return ext


def _reflected_curve(curve):
    # mirror through the vertical axis, keeping anticlockwise orientation
    M = np.array([[-1.0, 0.0], [0.0, 1.0]])
    if curve.kind == "sphere":
        return unit_sphere(Pushforward(curve.norm, M))
    pts = (curve.points @ M.T)[::-1]
    smooth = curve.smooth[::-1]
    return ConvexCurve("sampled", Pushforward(curve.ambient, M),
                       points=np.ascontiguousarray(pts),
                       smooth=np.ascontiguousarray(smooth))


def _arc_endpoint(es, take):
    # take is "low" for the leftmost/undermost end, "high" for the other
    if not es.is_segment:
        return es.points[0]
    return es.points[0] if take == "first" else es.points[1]


def chord_triple(curve, x):
    """Chord u - v = t*x together with the corner point w of its bounding box.

    Returns (u, v, w, t) with all three points on the curve, w sharing
    its first coordinate with u and its second with v, and t nonzero.
    Axis directions x use a single horizontal or vertical chord and the
    degenerate corner w = u (horizontal) or w = v (vertical).  All other
    directions are found by walking a boundary arc and root-finding the
    box aspect ratio against x1/x2.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    nx = float(np.abs(x).max())
    if nx <= 0.0:
        raise PreconditionError("direction must be nonzero")
    curve = _as_curve(curve)
    ext = require_distinct_extremes(curve)
    vals = _extreme_values(ext)

    sgn = 1.0
    if x[1] < 0.0 or (x[1] == 0.0 and x[0] < 0.0):
        x = -x
        sgn = -1.0

    if abs(x[1]) <= 1e-12 * nx:
        # horizontal chord at mid height; w = u
        ymid = (vals["N"] - vals["S"]) / 2.0
        comps = line_crossings(curve, 1, ymid)
        v = comps[0][0]
        u = comps[-1][1]
        t = float((u[0] - v[0]) / x[0])
        return u, v, u.copy(), sgn * t
    if abs(x[0]) <= 1e-12 * nx:
        # vertical chord at mid width; w = v
        xmid = (vals["E"] - vals["W"]) / 2.0
        comps = line_crossings(curve, 0, xmid)
        v = comps[0][0]
        u = comps[-1][1]
        t = float((u[1] - v[1]) / x[1])
        return u, v, v.copy(), sgn * t
    if x[0] < 0.0:
        M = np.array([[-1.0, 0.0], [0.0, 1.0]])
        u, v, w, t = chord_triple(_reflected_curve(curve), M @ x)
        return M @ u, M @ v, M @ w, sgn * t

    # x points into the open first quadrant: walk the lower-right arc
    param = _as_param(curve)
    w0 = _arc_endpoint(ext["S"], "first")   # undermost, leftmost on a flat bottom
    w1 = _arc_endpoint(ext["E"], "second")  # rightmost, top of a flat side
    t0 = param.locate(w0)
    span = (param.locate(w1) - t0) % param.period
    rho = float(x[0] / x[1])

    def box(s):
        w = param.point_at(t0 + s * span)
        vert = line_crossings(curve, 0, float(w[0]))
        horz = line_crossings(curve, 1, float(w[1]))
        u = vert[-1][1]   # uppermost point over w
        v = horz[0][0]    # leftmost point beside w
        return u, v, w

    def ratio_gap(s):
        u, v, w = box(s)
        den = float(u[1] - w[1])
        if den <= 0.0:
            return math.inf
        return float(w[0] - v[0]) / den - rho

    lo, hi = _bracket_ratio(ratio_gap)
    root = brentq(ratio_gap, lo, hi, xtol=1e-15)
    u, v, w = box(root)
    t = float((u[1] - v[1]) / x[1])
    return u, v, w, sgn * t


def _bracket_ratio(fn):
    # the gap runs from -x1/x2 near s=0 to +inf near s=1, but not monotonely
    grid = np.linspace(1e-3, 1.0 - 1e-3, 129)
    vs = [fn(s) for s in grid]
    for i in range(len(grid) - 1):
        if vs[i] <= 0.0 <= vs[i + 1] or vs[i] >= 0.0 >= vs[i + 1]:
            return float(grid[i]), float(grid[i + 1])
    lo, flo = float(grid[0]), vs[0]
    for s in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        if flo <= 0.0:
            break
        v = fn(s)
        if v <= 0.0 <= flo:
            return float(s), lo
        lo, flo = float(s), v
    hi, fhi = float(grid[-1]), vs[-1]
    for s in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        if not math.isinf(fhi) and fhi >= 0.0:
            break
        v = fn(1.0 - s)
        if not math.isinf(v) and flo <= 0.0 <= v:
            return hi, float(1.0 - s)
        hi, fhi = float(1.0 - s), v
    if flo <= 0.0 <= fhi:
        return lo, hi
    raise RuntimeError("no bracket for the chord box ratio; curve looks degenerate")


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


def zigzag(curve, c, a, max_iter=10000, tol=1e-6):
    """Iterate toward a doubly extreme point by coordinate-sharing steps.

    Each step moves to the candidate point sharing a coordinate with the
    current iterate that lies closest to c in the curve's ambient norm,
    preferring the vertical line on ties.  The iteration starts from a
    and stops once the ambient gap to c is at most tol; a first step
    that cannot move reports the starting point as fixed.
    """
    c = np.asarray(c, dtype=float).reshape(2)
    a = np.asarray(a, dtype=float).reshape(2)
    param = _as_param(curve)
    curve = param.curve
    ext = extreme_points(curve)
    vals = _extreme_values(ext)
    hit = sum(1 for name, d in _DIRS.items()
              if float(c @ d) >= vals[name] - 1e-9)
    if hit < 2:
        raise PreconditionError("c must be extreme in two directions")
    if _on_curve_residual(param, a) > 1e-6 or _on_curve_residual(param, c) > 1e-6:
        raise PreconditionError("c and a must lie on the curve")
    ambient = curve.ambient

    pts = [a.copy()]
    cur = a.copy()
    gap = float(ambient.value(cur - c))
    if gap <= 1e-12:
        return ZigzagResult(np.array(pts), "fixed", 0, gap)
    verdict = "not_converged"
    steps = 0
    for n in range(int(max_iter)):
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
        if gap <= tol:
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
    param = _as_param(curve)
    if _on_curve_residual(param, a) > 1e-6:
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


def nondiff_set(curve, a, sample_resolution=360, threshold=1e-3):
    """Sampled set of points b whose distance profile kinks while sliding
    through a.

    For each sampled b the one-sided slopes of t -> ||gamma_a(t) - b||
    at t = 0 are estimated by step-halving extrapolation; b is flagged
    when they disagree by more than threshold.  The base point itself is
    part of the sample and is always flagged: its profile is |t| to
    leading order.
    """
    a = np.asarray(a, dtype=float).reshape(2)
    param = _as_param(curve)
    if _on_curve_residual(param, a) > 1e-6:
        raise PreconditionError("a must lie on the curve")
    norm = param.ambient
    k = max(8, int(sample_resolution))
    ta = param.locate(a)
    ts = (ta + param.period * np.arange(k) / k) % param.period
    bs = param.point_at(ts)

    hs = np.array([1e-3, 1e-4, 1e-5])
    deltas = np.concatenate([-hs, hs])
    slide = param.shift_point(a, deltas)  # (6, 2)
    G = norm.value(slide[:, None, :] - bs[None, :, :])  # (6, k)
    G0 = norm.value(a - bs)
    right = (G[3:6] - G0) / hs[:, None]
    left = (G0 - G[0:3]) / hs[:, None]
    # step-halving pairs; keep the finer extrapolation
    r_fine = (10.0 * right[2] - right[1]) / 9.0
    l_fine = (10.0 * left[2] - left[1]) / 9.0
    gaps = np.abs(r_fine - l_fine)
    flagged = gaps > threshold
    return NonDiffSample(a.copy(), ts, bs, gaps, flagged)
