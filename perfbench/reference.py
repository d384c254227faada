"""Geometry computed apart from normplane, used to check its outputs.

Everything here starts from a norm's JSON spec (its definition) and uses
numpy and scipy only: a gauge evaluated by formulas other than the
package's, the corner set and one-sided tangents derived from the
definition, and a Birkhoff orthogonality test that minimises along the
line with a dense grid plus scipy's bounded scalar minimiser.  Nothing
here imports normplane.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

HEXAGON = np.array([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0)])
L1_CORNERS = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
LINF_CORNERS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])

# relative margin below which a direction counts as not orthogonal; the
# package decides at 1e-9, so its cone ends pass here with room to spare
ORTH_TOL = 1e-7


def _angle_sorted(pts):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))]


def _p_of(spec):
    return math.inf if spec["p"] == "inf" else float(spec["p"])


def _polygon_vertices(spec):
    if spec["family"] == "hexagonal":
        return _angle_sorted(HEXAGON)
    if spec["family"] == "polygon":
        return _angle_sorted(spec["vertices"])
    p = _p_of(spec)
    if p == 1.0:
        return _angle_sorted(L1_CORNERS)
    if p == math.inf:
        return _angle_sorted(LINF_CORNERS)
    return None


def gauge(spec):
    """The norm of a spec as a function of (..., 2) arrays."""
    family = spec["family"]
    verts = _polygon_vertices(spec) if family in ("p", "polygon", "hexagonal") else None
    if verts is not None:
        # facet normals n_i with n_i . w_i = n_i . w_{i+1} = 1; gauge = max_i n_i . v
        nxt = np.roll(verts, -1, axis=0)
        edge = nxt - verts
        normals = np.column_stack([edge[:, 1], -edge[:, 0]])
        normals /= (normals * verts).sum(axis=1)[:, None]
        return lambda v: np.max(np.asarray(v, dtype=float) @ normals.T, axis=-1)
    if family == "p":
        p = _p_of(spec)

        def pnorm(v):
            a = np.abs(np.asarray(v, dtype=float))
            m = a.max(axis=-1)
            safe = np.where(m > 0, m, 1.0)
            return m * ((a[..., 0] / safe) ** p + (a[..., 1] / safe) ** p) ** (1.0 / p)
        return pnorm
    if family == "disk_intersection":
        c = np.asarray(spec["centers"], dtype=float)
        k = float(spec["radius"]) ** 2 - (c ** 2).sum(axis=1)

        def disks(v):
            # v / lam on circle i: |v|^2 mu^2 - 2 (v.c) mu - k = 0 with mu = 1 / lam
            v = np.asarray(v, dtype=float)
            vc = v @ c.T
            vv = (v ** 2).sum(axis=-1)[..., None]
            mu = (vc + np.sqrt(vc * vc + vv * k)) / np.where(vv > 0, vv, 1.0)
            lam = np.where(vv > 0, 1.0 / np.where(mu > 0, mu, 1.0), 0.0)
            return lam.max(axis=-1)
        return disks
    if family == "pushforward":
        base = gauge(spec["base"])
        inv_t = np.linalg.inv(np.asarray(spec["matrix"], dtype=float)).T
        return lambda v: base(np.asarray(v, dtype=float) @ inv_t)
    raise ValueError("unknown family %r" % family)


def corners(spec):
    """Non-smooth points of the unit sphere and their one-sided tangents.

    Returns (points, tangents) with tangents of shape (n, 2, 2): the
    directions of the two boundary pieces meeting at each corner.
    Polygons give their vertices; disk intersections give the meeting
    points of circles adjacent in angle order; pushforwards carry their
    base corners through the matrix; smooth p-norms give none.
    """
    family = spec["family"]
    if family in ("p", "polygon", "hexagonal"):
        verts = _polygon_vertices(spec)
        if verts is None:
            return np.zeros((0, 2)), np.zeros((0, 2, 2))
        tangents = np.stack([verts - np.roll(verts, 1, axis=0),
                             np.roll(verts, -1, axis=0) - verts], axis=1)
        return verts, tangents
    if family == "disk_intersection":
        c = _angle_sorted(spec["centers"])
        r = float(spec["radius"])
        inside = gauge(spec)
        pts, tangents = [], []
        pairs = [(0, 1)] if len(c) == 2 else [(i, (i + 1) % len(c)) for i in range(len(c))]
        for i, j in pairs:
            d = c[j] - c[i]
            dn = math.hypot(d[0], d[1])
            half = math.sqrt(r * r - dn * dn / 4.0)
            perp = np.array([-d[1], d[0]]) / dn
            for p in ((c[i] + c[j]) / 2.0 + half * perp, (c[i] + c[j]) / 2.0 - half * perp):
                if abs(float(inside(p)) - 1.0) <= 1e-12:
                    pts.append(p)
                    ti, tj = p - c[i], p - c[j]
                    tangents.append([[-ti[1], ti[0]], [-tj[1], tj[0]]])
        return np.asarray(pts).reshape(-1, 2), np.asarray(tangents).reshape(-1, 2, 2)
    if family == "pushforward":
        M = np.asarray(spec["matrix"], dtype=float)
        pts, tangents = corners(spec["base"])
        return pts @ M.T, tangents @ M.T
    raise ValueError("unknown family %r" % family)


def steep_points(spec):
    """Axis points of p-norms with 1 < p < 2 (images under pushforwards).

    The sphere is smooth there but its curvature is unbounded, so the
    orthogonality margin grows like delta^(p/(p-1)) and no tolerance-based
    cone test resolves it; workloads keep their targets away from these.
    """
    if spec["family"] == "pushforward":
        return steep_points(spec["base"]) @ np.asarray(spec["matrix"], dtype=float).T
    if spec["family"] == "p" and 1.0 < _p_of(spec) < 2.0:
        return L1_CORNERS.copy()
    return np.zeros((0, 2))


def is_corner(spec, x, tol=1e-9):
    pts, _ = corners(spec)
    if len(pts) == 0:
        return False
    return bool(np.min(gauge(spec)(pts - np.asarray(x, dtype=float)[None, :])) <= tol)


# -- Birkhoff orthogonality ----------------------------------------------


def line_margin(norm, x, theta):
    """min over lam of |x + lam d| / |x| - 1 for d at angle theta.

    A dense grid over the exact bracket |lam| <= 2|x|/|d| finds the
    basin, scipy's bounded minimiser polishes inside it.  lam = 0 is a
    grid point, so a truly orthogonal direction gives 0 up to rounding.
    """
    x = np.asarray(x, dtype=float)
    d = np.array([math.cos(theta), math.sin(theta)])
    nx = float(norm(x))
    bound = 2.0 * nx / float(norm(d))
    lams = np.linspace(-bound, bound, 4001)
    vals = norm(x[None, :] + lams[:, None] * d[None, :])
    i = int(np.argmin(vals))
    lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)]
    res = minimize_scalar(lambda lam: float(norm(x + lam * d)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    return min(float(vals[i]), float(res.fun)) / nx - 1.0


def orthogonal(norm, x, theta):
    return line_margin(norm, x, theta) >= -ORTH_TOL


def check_cone(spec, x, intervals, shift=1e-2):
    """Problems with an orthogonality cone at x, as a list of strings.

    intervals are the package's (lo, hi) angle pairs.  Each interval's
    ends and midpoint must pass the direct test, directions shift radians
    outside each interval must fail it, the set must be symmetric under
    theta -> theta + pi, a non-corner must give one antipodal pair of
    width at most 1e-3, and a corner must give wider intervals holding
    both one-sided tangents.
    """
    norm = gauge(spec)
    problems = []
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if not ivs or len(ivs) % 2:
        return ["cone has %d intervals" % len(ivs)]
    for lo, hi in ivs:
        if not lo <= hi:
            problems.append("interval (%r, %r) is reversed" % (lo, hi))
            continue
        for th in (lo, 0.5 * (lo + hi), hi):
            if not orthogonal(norm, x, th):
                problems.append("direction %.12g inside the cone fails" % th)
        for th in (lo - shift, hi + shift):
            if any(_within(th, a, b) for a, b in ivs):
                continue  # another interval covers it
            if orthogonal(norm, x, th):
                problems.append("direction %.12g outside the cone passes" % th)
    for lo, hi in ivs:
        twin = any(abs(_wrap(lo2 - lo - math.pi)) <= 1e-9 and abs((hi2 - lo2) - (hi - lo)) <= 1e-9
                   for lo2, hi2 in ivs)
        if not twin:
            problems.append("interval (%.12g, %.12g) has no antipodal twin" % (lo, hi))
    widths = [hi - lo for lo, hi in ivs]
    if is_corner(spec, x):
        pts, tangents = corners(spec)
        k = int(np.argmin(norm(pts - np.asarray(x, dtype=float)[None, :])))
        if len(ivs) == 2 and max(widths) <= 1e-3:
            problems.append("single pair at a corner")
        for t in tangents[k]:
            phi = math.atan2(t[1], t[0])
            if not any(_within(phi, lo, hi, slack=1e-9) for lo, hi in ivs):
                problems.append("tangent %.12g missing at a corner" % phi)
    elif len(ivs) != 2 or max(widths) > 1e-3:
        problems.append("not a single pair at a smooth point (widths %r)" % widths)
    return problems


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _within(theta, lo, hi, slack=0.0):
    t = (theta - lo) % (2.0 * math.pi)
    return t <= (hi - lo) + slack or t >= 2.0 * math.pi - slack


# -- the other workloads' properties -------------------------------------


def check_chord_triple(spec, x, out, tol=1e-9):
    u, v, w = (np.asarray(o, dtype=float) for o in out[:3])
    t = float(out[3])
    norm = gauge(spec)
    x = np.asarray(x, dtype=float)
    problems = []
    if float(norm(u - v - t * x)) > tol:
        problems.append("u - v - t x = %.3g" % float(norm(u - v - t * x)))
    if abs(w[0] - u[0]) > tol or abs(w[1] - v[1]) > tol:
        problems.append("w does not share coordinates with u and v")
    for name, p in (("u", u), ("v", v), ("w", w)):
        if abs(float(norm(p)) - 1.0) > tol:
            problems.append("%s off the sphere by %.3g" % (name, abs(float(norm(p)) - 1.0)))
    if t == 0.0:
        problems.append("t is zero")
    return problems


def check_zigzag(points, verdict, goal, tol=1e-6):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    goal = np.asarray(goal, dtype=float)
    problems = []
    if verdict not in ("converged", "fixed"):
        problems.append("verdict %s" % verdict)
    gap = float(np.abs(pts[-1] - goal).sum())  # the drop curve's ambient l1 norm
    if gap > tol:
        problems.append("ends %.3g from the goal" % gap)
    steps = np.diff(pts, axis=0)
    if steps.size and float(steps.min()) < -1e-12:
        problems.append("iterates not monotone")
    return problems


def check_triples(spec, status, triples, target, margin, expect):
    """expect is "found" or "certified_absent", known from the geometry."""
    norm = gauge(spec)
    problems = []
    if status != expect:
        problems.append("status %s, expected %s" % (status, expect))
    if expect == "found" and not triples:
        problems.append("no triple returned")
    for tri in triples:
        tri = np.asarray(tri, dtype=float).reshape(3, 2)
        side = min(float(norm(tri[i] - tri[j])) for i, j in ((0, 1), (0, 2), (1, 2)))
        if side < target - margin - 1e-12:
            problems.append("triple side %.12g below %.12g" % (side, target - margin))
        if float(np.max(np.abs(norm(tri) - 1.0))) > 1e-9:
            problems.append("triple point off the sphere")
    return problems


def check_metric_verdict(spec, x, status):
    """The metric route's verdict against the corner set of the definition."""
    if status == "unreliable":
        return []
    truth = "corner" if is_corner(spec, x) else "smooth"
    return [] if status == truth else ["verdict %s, geometry says %s" % (status, truth)]


def check_iso(code, report, matrix, expect_pass):
    """An iso report: a true map passes with its matrix fitted, a perturbed one is rejected."""
    problems = []
    if not expect_pass:
        if code != 3 or report.get("verdict") != "reject":
            problems.append("perturbed map: exit %s, verdict %s" % (code, report.get("verdict")))
        return problems
    if code != 0 or report.get("verdict") != "pass":
        problems.append("true map: exit %s, verdict %s" % (code, report.get("verdict")))
    checks = report.get("checks", {})
    for name in ("linear", "affine"):
        fitted = np.asarray(checks.get(name, {}).get("matrix", np.nan), dtype=float)
        if fitted.shape != (2, 2) or not float(np.max(np.abs(fitted - matrix))) <= 1e-6:
            problems.append("%s fit %r is not %r" % (name, fitted.tolist(), np.asarray(matrix).tolist()))
    offset = np.asarray(checks.get("affine", {}).get("offset", np.nan), dtype=float)
    if offset.shape != (2,) or not float(np.max(np.abs(offset))) <= 1e-6:
        problems.append("affine offset %r is not zero" % offset.tolist())
    return problems
