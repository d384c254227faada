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

from .curves import _as_param
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
    info = _as_param(obj).side_derivative_info(t)
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
    param = _as_param(obj)
    x = np.asarray(x, dtype=float)
    t = param.locate(x)
    if nd_oracle(param, t) != "corner":
        raise PreconditionError("corner_basis requires a corner point")
    info = param.side_derivative_info(t)
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

    sample is a base net of curve points whose antipodes are exactly in
    the net.  dist broadcasts the ambient distance over leading axes,
    antipode_map sends a curve point to its antipode, and ball_sampler
    returns curve points covering an arc of the given radius around a
    given curve point at spacing radius/100.  spacing records the base
    net's arc step.
    """

    sample: np.ndarray
    dist: object
    antipode_map: object
    ball_sampler: object
    spacing: float


def build_metric_view(obj, base_spacing=None):
    """Metric view of a curve, dense enough for the default eps grid."""
    param = _as_param(obj)
    ambient = param.ambient
    if base_spacing is None:
        base_spacing = min(EPS_GRID) / 4.0
    n = int(math.ceil(param.period / base_spacing))
    n += n % 2  # even count keeps the net exactly antipode-closed
    ts = np.arange(n) * (param.period / n)
    sample = param.point_at(ts)

    def dist(a, b):
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return np.asarray(ambient.value(d.reshape(-1, 2))).reshape(d.shape[:-1])

    def antipode_map(p):
        return -np.asarray(p, dtype=float)

    def ball_sampler(center, radius):
        t0 = param.locate(np.asarray(center, dtype=float))
        return param.point_at(t0 + (radius / 100.0) * _SAMPLER_STEPS)

    return MetricView(sample=sample, dist=dist, antipode_map=antipode_map,
                      ball_sampler=ball_sampler, spacing=param.period / n)


def _near(dist, sample, center, eps, ball_sampler):
    pts = sample
    if ball_sampler is not None:
        pts = np.concatenate([sample, np.atleast_2d(ball_sampler(center, eps))])
    d = dist(pts, center)
    keep = (d > 1e-12) & (d <= eps)
    return pts[keep]


def _best_chord(dist, U, V):
    chords = dist(U[:, None, :], V[None, :, :])
    i, j = np.unravel_index(int(np.argmin(chords)), chords.shape)
    return float(chords[i, j]), U[i], V[j]


@dataclass(frozen=True, eq=False)
class MetricTestResult:
    passed: bool
    transcript: tuple  # (eps, u, v, chord, hit) per grid level

    def __bool__(self):
        return self.passed


def metric_nd_test(dist, antipode_map, sample, x, delta, eps_grid=EPS_GRID, ball_sampler=None):
    """Short-chord test at x: witnesses u near x, v near -x at every eps.

    Passes iff for every eps in the grid there are sample points
    u != x and v != -x with max(dist(u, x), dist(v, -x)) <= eps and
    dist(u, v) <= 2 - delta*eps.  Witness pairs are found exhaustively
    over the sample (refined by the ball sampler when given) and all
    point identity checks go through dist, keeping the access honestly
    metric-only.
    """
    x = np.asarray(x, dtype=float)
    ax = np.asarray(antipode_map(x), dtype=float)
    transcript = []
    passed = True
    for eps in eps_grid:
        U = _near(dist, sample, x, eps, ball_sampler)
        V = _near(dist, sample, ax, eps, ball_sampler)
        if len(U) == 0 or len(V) == 0:
            raise PreconditionError("sample too coarse for eps = %g" % eps)
        best, u, v = _best_chord(dist, U, V)
        hit = best <= 2.0 - delta * eps
        transcript.append((float(eps), u, v, best, bool(hit)))
        passed = passed and hit
    return MetricTestResult(passed, tuple(transcript))


def extended_eps_levels(eps_grid=EPS_GRID, floor=1e-3):
    """The grid plus halvings of its finest level down to the floor."""
    levels = sorted(set(float(e) for e in eps_grid), reverse=True)
    e = levels[-1] / 2.0
    while e >= floor:
        levels.append(e)
        e /= 2.0
    return tuple(levels)


@dataclass(frozen=True, eq=False)
class NDEntry:
    point: np.ndarray
    status: str
    left: np.ndarray = None
    right: np.ndarray = None
    gap: float = None
    basis: CornerBasis = None
    transcript: tuple = None


@dataclass(frozen=True, eq=False)
class NDReport:
    curve_id: str
    entries: tuple

    def statuses(self):
        return [e.status for e in self.entries]


def _classify_point(dist, antipode_map, sample, x, delta_grid, levels, ball_sampler, noise_model):
    ax = np.asarray(antipode_map(x), dtype=float)
    alive = {d: True for d in delta_grid}       # safe-passed every level so far
    safe_fail = {d: False for d in delta_grid}  # some level safely refused a witness
    transcript = []
    for eps in levels:
        U = _near(dist, sample, x, eps, ball_sampler)
        V = _near(dist, sample, ax, eps, ball_sampler)
        if len(U) == 0 or len(V) == 0:
            raise PreconditionError("sample too coarse for eps = %g" % eps)
        best, u, v = _best_chord(dist, U, V)
        noise = noise_model(eps)
        transcript.append((float(eps), u, v, best, bool(best <= 2.0 - min(delta_grid) * eps)))
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


def nd_classify_metric(dist, antipode_map, sample, delta_grid=None, eps_grid=None,
                       targets=None, ball_sampler=None, noise_model=None, curve_id="curve"):
    """Classify sphere points as corner or smooth from metric data alone.

    A point is a corner when some delta in the grid keeps a witness
    margin above the sampling noise at every eps level, the grid
    extended below its finest value to rule out flat-looking smooth
    points; smooth when every delta is safely refused at some level;
    unreliable otherwise.  noise_model maps eps to the chord-length
    slack the sampling density can hide, defaulting to the ball
    sampler's eps/50.
    """
    if delta_grid is None:
        delta_grid = DELTA_GRID
    levels = extended_eps_levels(EPS_GRID if eps_grid is None else eps_grid)
    if targets is None:
        targets = sample
    if noise_model is None:
        noise_model = lambda eps: _NOISE_FACTOR * eps
    entries = []
    for x in np.atleast_2d(np.asarray(targets, dtype=float)):
        status, transcript = _classify_point(dist, antipode_map, sample, x,
                                             delta_grid, levels, ball_sampler, noise_model)
        entries.append(NDEntry(point=x.copy(), status=status, transcript=transcript))
    return NDReport(curve_id=curve_id, entries=tuple(entries))


# far-field test: distance to a fixed y while sliding through z


def _check_unit(norm, v, name):
    v = np.asarray(v, dtype=float)
    if abs(float(norm.value(v)) - 1.0) > 1e-6:
        raise PreconditionError("%s must lie on the unit sphere" % name)
    return v


@dataclass(frozen=True, eq=False)
class FarFieldResult:
    verdict: str
    slope_left: float
    slope_right: float
    disagreement: float


def far_field_profile(norm, y, z, ts, param=None):
    """G(t) = dist(gamma_z(t), y) along the sphere through z."""
    if param is None:
        param = _as_param(norm)
    y = np.asarray(y, dtype=float)
    pts = param.shift_point(np.asarray(z, dtype=float), np.asarray(ts, dtype=float))
    return np.asarray(norm.value(pts - y[None, :]))


def _one_sided_slope(g0, gs, hs):
    d = (gs - g0) / hs
    e1 = (10.0 * d[1] - d[0]) / 9.0
    e2 = (10.0 * d[2] - d[1]) / 9.0
    return float(e2), abs(float(e1 - e2))


def far_field_test(norm, x, y, z, h_grid=(1e-3, 1e-4, 1e-5), slope_threshold=1e-3, param=None):
    """One-sided slopes of G(t) = dist(gamma_z(t), y) at t = 0.

    Requires unit x, y, z with z - y a positive multiple of x shorter
    than 2, and z a smooth sphere point.  The verdict compares
    extrapolated one-sided slopes: a gap above slope_threshold means
    not_differentiable, a slope extrapolation disagreeing with itself
    by more than slope_threshold/10 means inconclusive.  The
    computation runs for any norm; only for strictly convex ones does
    the verdict characterize differentiability at x.
    """
    if param is None:
        param = _as_param(norm)
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
    hs = np.asarray(h_grid, dtype=float)
    g0 = float(norm.value(z - y))
    right, dis_r = _one_sided_slope(g0, far_field_profile(norm, y, z, hs, param), hs)
    left, dis_l = _one_sided_slope(g0, far_field_profile(norm, y, z, -hs, param), -hs)
    disagreement = max(dis_l, dis_r)
    if disagreement > slope_threshold / 10.0:
        verdict = "inconclusive"
    elif abs(right - left) > slope_threshold:
        verdict = "not_differentiable"
    else:
        verdict = "differentiable"
    return FarFieldResult(verdict=verdict, slope_left=left, slope_right=right, disagreement=disagreement)


def far_slope_reference(norm, x, z, param=None):
    """The z2 coordinate of gamma_z'(0) in the basis {-left derivative at x, x}.

    At a not_differentiable instance the left slope of G equals this
    coordinate, which gives an independent check on the far-field
    slopes.
    """
    if param is None:
        param = _as_param(norm)
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
    return None if v is None else [float(v[0]), float(v[1])]


def report_to_dict(report):
    """Plain-python dict form of an NDReport, stable under json dumps."""
    entries = []
    for e in report.entries:
        basis = None
        if e.basis is not None:
            basis = {
                "delta_cert": float(e.basis.delta_cert),
                "y": _vec(e.basis.y),
                "z": _vec(e.basis.z),
                "z_coords": [float(e.basis.z_coords[0]), float(e.basis.z_coords[1])],
            }
        transcript = None
        if e.transcript is not None:
            transcript = [
                {"chord": float(c), "eps": float(eps), "hit": bool(h), "u": _vec(u), "v": _vec(v)}
                for eps, u, v, c, h in e.transcript
            ]
        entries.append({
            "basis": basis,
            "gap": None if e.gap is None else float(e.gap),
            "left": _vec(e.left),
            "point": _vec(e.point),
            "right": _vec(e.right),
            "status": e.status,
            "transcript": transcript,
        })
    return {"curve_id": report.curve_id, "entries": entries}
