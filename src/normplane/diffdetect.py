"""Corner detection from metric data, cross-checked against derivatives.

Two independent characterizations of non-smooth sphere points live
here.  The local one searches for chords that stay notably shorter
than 2 between an eps-neighborhood of a point and one of its antipode;
the far-field one watches one-sided slopes of the distance to a fixed
third point while sliding along the sphere.  A derivative oracle built
on the natural parameterization arbitrates between them.

The metric classifiers touch the sphere only through a distance
callable, an antipode pairing, and a ball sampler that yields curve
points near a given one.  No coordinates or derivatives leak in, so an
agreement with the oracle genuinely says the corner set is determined
by the metric alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ON_CURVE_TOL, _sphere_param, build_natural_param
from .errors import PreconditionError

__all__ = [
    "CornerBasis",
    "EPS_GRID",
    "DELTA_GRID",
    "FarFieldResult",
    "MetricTestResult",
    "MetricView",
    "NDEntry",
    "NDReport",
    "build_metric_view",
    "chord_partner",
    "corner_basis",
    "extended_eps_levels",
    "far_field_profile",
    "far_field_test",
    "far_slope_reference",
    "metric_nd_test",
    "nd_classify_metric",
    "nd_oracle",
    "report_to_dict",
]

EPS_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
DELTA_GRID = tuple(float(d) for d in np.geomspace(0.05, 1.0, 7))

# ball sampler contract: points returned for radius r form an (r/100)-net
# of the arc they cover, so grid chords miss true ones by at most 2*(r/100)
_SAMPLER_STEPS = np.arange(-105, 106)
_NOISE_FACTOR = 2.0 / 100.0


def nd_oracle(obj, t, threshold=1e-3):
    """Differentiability status at parameter t: smooth, corner or unreliable.

    corner means the side derivative gap exceeds threshold in the
    ambient norm, smooth means it is below threshold/100; the band in
    between, and any point where the finite-difference extrapolation
    disagrees with itself by more than threshold/10, is unreliable.
    Exact side derivatives (structure corners, polygon edges) are never
    unreliable.
    """
    return _oracle_status(build_natural_param(obj).side_derivative_info(t), threshold)


def _oracle_status(info, threshold):
    """nd_oracle's status from the side derivatives it was computed from."""
    if not info.exact and info.disagreement > threshold / 10.0:
        return "unreliable"
    if info.gap > threshold:
        return "corner"
    if info.gap < threshold / 100.0:
        return "smooth"
    return "unreliable"


@dataclass(frozen=True, eq=False)
class CornerBasis:
    """Side-derivative basis at a corner x, with the certified delta.

    y is the right derivative, z the left one after a sign flip that
    makes x = -lam*y + mu*z with lam, mu > 0.  z_coords holds the
    coordinates (z1, z2) of z in the basis {x, y}; both are positive,
    and delta_cert = z1 / (2 z2) is the chord-deficiency rate the
    metric test below certifies.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    z_coords: tuple
    delta_cert: float


def corner_basis(obj, x):
    """Corner basis and certified delta at a corner point x of the curve."""
    param = build_natural_param(obj)
    x = np.asarray(x, dtype=float)
    info = param.side_derivative_info(param.locate(x))
    if _oracle_status(info, 1e-3) != "corner":
        raise PreconditionError("corner_basis requires a corner point")
    y = info.right.copy()
    z = info.left.copy()
    a, b = np.linalg.solve(np.column_stack([y, z]), x)
    if b < 0:
        z, b = -z, -b
    lam, mu = -a, b
    if lam <= 0 or mu <= 0:
        raise AssertionError("corner basis normalization failed")  # impossible at a true corner
    z1, z2 = 1.0 / mu, lam / mu
    return CornerBasis(x=x, y=y, z=z, z_coords=(float(z1), float(z2)), delta_cert=float(z1 / (2.0 * z2)))


# metric-only access package


@dataclass(frozen=True, eq=False)
class MetricView:
    """Metric access to a sphere: a symmetric net plus local refinement.

    sample is a base net of curve points in circular curve order whose
    antipodes are exactly in the net.  dist broadcasts the ambient
    distance over leading axes.  antipode_map sends an array of curve
    points to their antipodes; it is an isometry of the plane that maps
    the sphere onto itself.  ball_sampler(center, radius) returns curve
    points in curve order covering an arc of the given radius around a
    given curve point at spacing radius/100; given an array of radii it
    returns one row of points per radius, shape radius.shape + (points, 2).
    The sampler commutes with the antipode map bit for bit:
    ball_sampler(antipode_map(c), r) == antipode_map(ball_sampler(c, r)).
    spacing records the base net's arc step.  Order along the sphere is a
    property of the metric space, so the metric classifiers may use it.
    """

    sample: np.ndarray
    dist: object
    antipode_map: object
    ball_sampler: object
    spacing: float


def build_metric_view(obj, base_spacing=None):
    """Metric view of a curve, dense enough for the default eps grid."""
    param = build_natural_param(obj)
    ambient = param.ambient
    if base_spacing is None:
        base_spacing = min(EPS_GRID) / 4.0
    n = int(math.ceil(param.period / base_spacing))
    n += n % 2  # an even net whose second half is the first negated: exactly antipode-closed
    half = param.point_at(np.arange(n // 2) * (param.period / n))
    sample = np.concatenate([half, -half])

    def dist(a, b):
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return np.asarray(ambient.value(d.reshape(-1, 2))).reshape(d.shape[:-1])

    def antipode_map(p):
        return -np.asarray(p, dtype=float)

    located = [None, None]  # the last center's upper-half representative and its parameter

    def ball_sampler(center, radius):
        # sample around the representative of +-center with y > 0, or y == 0 and x > 0,
        # and negate the rows for the other sign: antipode-equivariant bit for bit
        center = np.asarray(center, dtype=float)
        sign = 1.0 if center[1] > 0.0 or (center[1] == 0.0 and center[0] > 0.0) else -1.0
        rep = sign * center
        if located[0] != rep.tobytes():
            located[:] = rep.tobytes(), param.locate(rep)
        radius = np.asarray(radius, dtype=float)[..., None]
        rows = param.point_at(located[1] + (radius / 100.0) * _SAMPLER_STEPS)
        return rows if sign > 0.0 else -rows

    return MetricView(sample=sample, dist=dist, antipode_map=antipode_map,
                      ball_sampler=ball_sampler, spacing=param.period / n)


def _arc_ends(d, eps, circular):
    """Run ends at every eps level, as (idx, ends).

    ends[k, j] is true iff point idx[j] is the first or last point of a
    run with 1e-12 < d <= eps[k].  d holds distances to a center along
    points in curve order.  A circular d is one net, shape (n,), measured
    once for all levels: only its points with d <= max(eps) are
    candidates, idx lists them, and a run may wrap from the last point to
    the first.  A linear d has one row of points per level, shape
    (levels, n); every point is a candidate and a run ends at the array
    ends.
    """
    eps = np.asarray(eps, dtype=float)[:, None]

    def inside(a):
        return (a > 1e-12) & (a <= eps)

    if circular:
        idx = np.flatnonzero(d <= eps.max())
        return idx, inside(d[idx]) & ~(inside(d[idx - 1]) & inside(d[(idx + 1) % len(d)]))
    # each row's booleans once, shifted: a point is interior when both neighbours are in
    rows = inside(d)
    interior = np.zeros_like(rows)
    interior[..., 1:-1] = rows[..., :-2] & rows[..., 2:]
    return np.arange(d.shape[-1]), rows & ~interior


def _check_eps(levels):
    if any(float(e) >= 1.0 for e in levels):
        raise PreconditionError("eps levels must be below 1, or the arcs around x and -x meet")


def _level_chords(dist, sample, x, antipode_map, batches, ball_sampler):
    """(eps, chord, u, v) per level: the shortest chord between the eps-arcs of x and -x.

    For fixed u the distance to v does not decrease as v runs along the
    sphere from u to -u (the monotonicity lemma of normed planes).  For
    eps < 1 the two arcs are disjoint, so the shortest chord joins an end
    of one arc to an end of the other, and only run ends are compared:
    circular runs of the net, linear runs of the ball sampler's points.
    Rounding at d == eps can split a run, and the center point itself is
    left out, so every run end is kept.  Only the arc around x is
    sampled and measured: the antipode map is an isometry that carries
    the sphere, the net and the sampler's points around x onto those
    around -x, so the run ends around -x are the antipodes V of the run
    ends U around x.  The net is measured once.  batches is a sequence of
    level sequences; per batch the sampler is called once with all its
    radii and its points are measured once.  The chords of a level are
    computed only when the caller asks for that level.
    """
    d_net = dist(sample, x)
    for levels in batches:
        if len(levels) == 0:
            continue
        radii = np.asarray(levels, dtype=float)
        ball = ball_sampler(x, radii)
        net_idx, net_ends = _arc_ends(d_net, radii, circular=True)
        _, ball_ends = _arc_ends(dist(ball, x), radii, circular=False)
        net = sample[net_idx]
        for k, eps in enumerate(levels):
            U = np.concatenate([net[net_ends[k]], ball[k][ball_ends[k]]])
            if len(U) == 0:
                raise PreconditionError("sample too coarse for eps = %g" % eps)
            V = np.asarray(antipode_map(U), dtype=float)
            chords = dist(U[:, None, :], V[None, :, :])
            i, j = np.unravel_index(int(np.argmin(chords)), chords.shape)
            yield float(eps), float(chords[i, j]), U[i], V[j]


@dataclass(frozen=True, eq=False)
class MetricTestResult:
    passed: bool
    transcript: tuple  # (eps, u, v, chord, hit) per grid level

    def __bool__(self):
        return self.passed


def metric_nd_test(dist, antipode_map, sample, x, delta, eps_grid=EPS_GRID, *, ball_sampler):
    """Short-chord test at x: witnesses u near x, v near -x at every eps.

    Passes iff for every eps in the grid there are points u != x and
    v != -x, from the sample or the ball sampler's points around x and
    -x, with max(dist(u, x), dist(v, -x)) <= eps and dist(u, v) <=
    2 - delta*eps.  The shortest such chord is found exactly by
    comparing the ends of the in-ball runs, which needs every eps below
    1; all point identity checks go through dist, keeping the access
    honestly metric-only.
    """
    _check_eps(eps_grid)
    x = np.asarray(x, dtype=float)
    transcript = []
    passed = True
    for eps, best, u, v in _level_chords(dist, sample, x, antipode_map, (eps_grid,), ball_sampler):
        hit = best <= 2.0 - delta * eps
        transcript.append((eps, u, v, best, bool(hit)))
        passed = passed and hit
    return MetricTestResult(passed, tuple(transcript))


def extended_eps_levels(eps_grid=EPS_GRID):
    """The grid plus halvings of its finest level down to 1e-3."""
    levels = sorted(set(float(e) for e in eps_grid), reverse=True)
    e = levels[-1] / 2.0
    while e >= 1e-3:
        levels.append(e)
        e /= 2.0
    return tuple(levels)


@dataclass(frozen=True, eq=False)
class NDEntry:
    point: np.ndarray
    status: str
    transcript: tuple = None


@dataclass(frozen=True, eq=False)
class NDReport:
    curve_id: str
    entries: tuple

    def statuses(self):
        return [e.status for e in self.entries]


def _eps_batches(eps_grid):
    """extended_eps_levels(eps_grid) in two batches: the grid, then its extension.

    Smooth points are mostly decided inside the grid; corners need every
    level, the extension included.
    """
    levels = extended_eps_levels(eps_grid)
    n = len(set(float(e) for e in eps_grid))
    return levels[:n], levels[n:]


def _classify_point(dist, antipode_map, sample, x, delta_grid, batches, ball_sampler):
    alive = {d: True for d in delta_grid}       # safe-passed every level so far
    safe_fail = {d: False for d in delta_grid}  # some level safely refused a witness
    transcript = []
    for eps, best, u, v in _level_chords(dist, sample, x, antipode_map, batches, ball_sampler):
        noise = _NOISE_FACTOR * eps
        transcript.append((eps, u, v, best, bool(best <= 2.0 - min(delta_grid) * eps)))
        for d in delta_grid:
            margin = (2.0 - d * eps) - best
            if margin <= noise:
                alive[d] = False
            if margin < -noise:
                safe_fail[d] = True
        if not any(alive.values()) and all(safe_fail.values()):
            return "smooth", tuple(transcript)
    if any(alive.values()):
        return "corner", tuple(transcript)
    if all(safe_fail.values()):
        return "smooth", tuple(transcript)
    return "unreliable", tuple(transcript)


def nd_classify_metric(dist, antipode_map, sample, delta_grid=None, eps_grid=None, *,
                       targets, ball_sampler, curve_id="curve"):
    """Classify the target sphere points as corner or smooth from metric data alone.

    A point is a corner when some delta in the grid keeps a witness
    margin above the sampling noise at every eps level, the grid
    extended below its finest value to rule out flat-looking smooth
    points; smooth when every delta is safely refused at some level;
    unreliable otherwise.  The noise is the chord-length slack the ball
    sampler's eps/100 spacing can hide, eps/50.  Every eps level must
    be below 1.
    """
    if delta_grid is None:
        delta_grid = DELTA_GRID
    batches = _eps_batches(EPS_GRID if eps_grid is None else eps_grid)
    _check_eps(batches[0] + batches[1])
    entries = []
    for x in np.atleast_2d(np.asarray(targets, dtype=float)):
        status, transcript = _classify_point(dist, antipode_map, sample, x,
                                             delta_grid, batches, ball_sampler)
        entries.append(NDEntry(point=x.copy(), status=status, transcript=transcript))
    return NDReport(curve_id=curve_id, entries=tuple(entries))


# far-field test: distance to a fixed y while sliding through z


def _check_unit(norm, v, name):
    v = np.asarray(v, dtype=float)
    if not abs(float(norm.value(v)) - 1.0) <= ON_CURVE_TOL:
        raise PreconditionError("%s must lie on the unit sphere" % name)
    return v


@dataclass(frozen=True, eq=False)
class FarFieldResult:
    verdict: str
    slope_left: float
    slope_right: float
    disagreement: float


def far_field_profile(obj, y, z, ts):
    """G(t) = dist(gamma_z(t), y) along the sphere through z."""
    param = _sphere_param(obj, "the far-field test")
    y = np.asarray(y, dtype=float)
    pts = param.shift_point(np.asarray(z, dtype=float), np.asarray(ts, dtype=float))
    return np.asarray(param.ambient.value(pts - y[None, :]))


def chord_partner(norm, x, y):
    """Second sphere point z = y + s*x on the line through y along x, or None.

    s is the far end of `Norm.exits(y, x)`, a closed form on every family.
    None unless s lies in (1e-3, 2 - 1e-6), inside the range far_field_test
    accepts, and the chord's midpoint lies 1e-12 inside the ball: a chord
    along a flat piece of the sphere is not a chord of the ball.
    """
    _, s = norm.exits(y, x)
    if not 1e-3 < s < 2.0 - 1e-6 or float(norm.value(y + 0.5 * s * x)) >= 1.0 - 1e-12:
        return None
    return y + s * x


def far_field_test(obj, x, y, z, slope_threshold=1e-3):
    """One-sided slopes of G(t) = dist(gamma_z(t), y) at t = 0.

    Requires unit x, y, z with z - y a positive multiple of x shorter
    than 2, and z a smooth sphere point.  The verdict compares one-sided
    slopes at steps 1e-3, 1e-4 and 1e-5, extrapolated to step zero: a
    gap above slope_threshold means not_differentiable, a slope
    extrapolation disagreeing with itself by more than
    slope_threshold/10 means inconclusive.  The computation runs for any
    norm; only for strictly convex ones does the verdict characterize
    differentiability at x.
    """
    param = _sphere_param(obj, "the far-field test")
    norm = param.ambient
    x = _check_unit(norm, x, "x")
    y = _check_unit(norm, y, "y")
    z = _check_unit(norm, z, "z")
    w = z - y
    lam = float(w @ x) / float(x @ x)
    if float(np.abs(w - lam * x).max()) > 1e-6:
        raise PreconditionError("z - y must be parallel to x")
    if not 0.0 < lam < 2.0:
        raise PreconditionError("z - y must equal lam*x with lam in (0, 2)")
    tz = param.locate(z)
    if param._corner_at(tz) is not None:
        raise PreconditionError("z must be a smooth point of the sphere")
    (right, coarse_r), (left, coarse_l) = param.side_slopes(z, lambda p: norm.value(p - y))
    right, left = float(right), float(left)
    disagreement = max(abs(float(coarse_l) - left), abs(float(coarse_r) - right))
    if disagreement > slope_threshold / 10.0:
        verdict = "inconclusive"
    elif abs(right - left) > slope_threshold:
        verdict = "not_differentiable"
    else:
        verdict = "differentiable"
    return FarFieldResult(verdict=verdict, slope_left=left, slope_right=right, disagreement=disagreement)


def far_slope_reference(obj, x, z):
    """The z2 coordinate of gamma_z'(0) in the basis {-left derivative at x, x}.

    At a not_differentiable instance the left slope of G equals this
    coordinate, which gives an independent check on the far-field
    slopes.
    """
    param = _sphere_param(obj, "the far-field test")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    gx_left = param.side_derivative_info(param.locate(x)).left
    gz = param.side_derivative_info(param.locate(z))
    if gz.gap > 1e-5:
        raise PreconditionError("z must be a smooth point of the sphere")
    coords = np.linalg.solve(np.column_stack([-gx_left, x]), gz.right)
    return float(coords[1])


# serialization


def _vec(v):
    return [float(v[0]), float(v[1])]


def report_to_dict(report):
    """Plain-python dict form of an NDReport (entry keys point, status and
    transcript), stable under json dumps."""
    entries = []
    for e in report.entries:
        transcript = None
        if e.transcript is not None:
            transcript = [
                {"chord": float(c), "eps": float(eps), "hit": bool(h), "u": _vec(u), "v": _vec(v)}
                for eps, u, v, c, h in e.transcript
            ]
        entries.append({
            "point": _vec(e.point),
            "status": e.status,
            "transcript": transcript,
        })
    return {"curve_id": report.curve_id, "entries": entries}
