"""Birkhoff orthogonality tests and orthogonality cones.

A vector x is Birkhoff orthogonal to y when norm(x + lam*y) >= norm(x)
for every real lam, i.e. the line through x with direction y stays
outside the open ball of radius norm(x).  The relation is not symmetric
in general.  Each pointwise test is a norm distance from x to the line
spanned by y, which the support function of the unit ball gives in
closed form; cones of orthogonal directions come from scanning a half
circle of directions and bisecting the pass boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TWO_PI
from .errors import PreconditionError
from .norms import rot90

__all__ = [
    "OrthCone",
    "birkhoff_margin",
    "is_birkhoff_orth",
    "orth_cone",
    "perp_point",
]


def _line_distance(norm, x, dirs):
    """min over lam of norm(x + lam*d) for each row d of dirs, in closed form.

    With n = rot90(d) normal to the line R*d, the norm distance from x
    to that line is |n.x| / h(n), h the support function of the unit
    ball (the dual norm).
    """
    n = rot90(dirs)
    h, _ = norm.support(n)
    return np.abs(n @ x) / h


def _nonzero_pair(norm, x, y, who):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = float(norm.value(x))
    if nx == 0.0 or float(norm.value(y)) == 0.0:
        raise PreconditionError("%s requires nonzero vectors" % who)
    return x, y, nx


def birkhoff_margin(norm, x, y):
    """min over lam of norm(x + lam*y), minus norm(x).

    Always <= 0 up to rounding; equal to 0 exactly when x is Birkhoff
    orthogonal to y.
    """
    x, y, nx = _nonzero_pair(norm, x, y, "birkhoff_margin")
    return float(_line_distance(norm, x, y[None, :])[0]) - nx


def is_birkhoff_orth(norm, x, y, tol=1e-9):
    """Whether x is Birkhoff orthogonal to y, tol relative to norm(x)."""
    x, y, nx = _nonzero_pair(norm, x, y, "is_birkhoff_orth")
    return bool(_line_distance(norm, x, y[None, :])[0] >= nx * (1.0 - tol))


@dataclass(frozen=True, eq=False)
class OrthCone:
    """Directions Birkhoff orthogonal to a base vector.

    directions holds closed angle intervals (lo, hi) in radians with lo
    in [0, 2pi) and hi - lo < pi; an interval wrapping past 2pi keeps
    hi > 2pi rather than splitting.  The set is exactly symmetric under
    theta -> theta + pi, so intervals come in antipodal pairs, and a
    degenerate interval (hi == lo) is a single direction.
    """

    base_x: np.ndarray
    directions: tuple

    def is_single_pair(self, tol=1e-3):
        """True when the cone is one antipodal direction pair up to tol width."""
        return len(self.directions) == 2 and all(hi - lo <= tol for lo, hi in self.directions)

    def contains(self, theta, slack=1e-9):
        t = float(theta) % TWO_PI
        for lo, hi in self.directions:
            if lo - slack <= t <= hi + slack or lo - slack <= t + TWO_PI <= hi + slack:
                return True
        return False

    def total_width(self):
        return float(sum(hi - lo for lo, hi in self.directions))


def _margins(norm, x, thetas):
    return _line_distance(norm, x, np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))


def orth_cone(norm, x, angular_resolution=720, tol=1e-9):
    """Cone of directions Birkhoff orthogonal to x.

    Margins are scanned over [0, pi) only, since the relation is
    invariant under y -> -y, then mirrored.  Run boundaries on the scan
    grid are refined by bisecting the pass predicate to 1e-9 radians.
    For a smooth sphere point no grid direction need pass at tol, so
    the scan falls back to refining the margin peak, which then sits at
    the single orthogonal direction.
    """
    x = np.asarray(x, dtype=float)
    nx = float(norm.value(x))
    if nx == 0.0:
        raise PreconditionError("orth_cone requires a nonzero base vector")
    n = int(angular_resolution)
    thetas = np.arange(n) * (math.pi / n)
    vals = _margins(norm, x, thetas)
    thresh = nx * (1.0 - tol)
    mask = vals >= thresh
    if mask.all():
        raise RuntimeError("every direction passed the orthogonality test")

    if not mask.any():
        half_runs = [_refine_peak(norm, x, thetas, vals, nx)]
    else:
        runs = _circular_runs(mask)
        fail = []
        ok = []
        for i_lo, i_hi in runs:
            fail += [(i_lo - 1) * math.pi / n, (i_hi + 1) * math.pi / n]
            ok += [i_lo * math.pi / n, i_hi * math.pi / n]
        ends = _bisect_boundaries(norm, x, thresh, np.array(fail), np.array(ok))
        half_runs = []
        for k in range(len(runs)):
            a, b = ends[2 * k], ends[2 * k + 1]
            if b < a:
                b += math.pi  # run wraps through the scan origin
            half_runs.append((a, b))

    intervals = []
    for a, b in half_runs:
        w = b - a
        for shift in (0.0, math.pi):
            lo = (a + shift) % TWO_PI
            intervals.append((lo, lo + w))
    intervals.sort()
    return OrthCone(base_x=x / nx, directions=tuple(intervals))


def _circular_runs(mask):
    """Maximal runs of passing indices, joined across the array ends."""
    n = len(mask)
    idx = np.where(mask)[0]
    breaks = np.where(np.diff(idx) > 1)[0]
    runs = np.split(idx, breaks + 1)
    if len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1:
        runs[0] = np.concatenate([runs[-1] - n, runs[0]])
        runs.pop()
    return [(int(r[0]), int(r[-1])) for r in runs]


def _bisect_boundaries(norm, x, thresh, fail, ok, iters=40):
    # all run boundaries refined in lockstep, one margin batch per step
    for _ in range(iters):
        mid = 0.5 * (fail + ok)
        passed = _margins(norm, x, mid) >= thresh
        ok = np.where(passed, mid, ok)
        fail = np.where(passed, fail, mid)
    return ok % math.pi


def _refine_peak(norm, x, thetas, vals, nx):
    i = int(np.argmax(vals))
    h = math.pi / len(thetas)
    lo, hi = thetas[i] - h, thetas[i] + h
    for _ in range(32):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        v1, v2 = _margins(norm, x, np.array([m1, m2]))
        if v1 < v2:
            lo = m1
        else:
            hi = m2
    peak = 0.5 * (lo + hi)
    if _margins(norm, x, np.array([peak]))[0] < nx * (1.0 - 1e-6):
        raise RuntimeError("margin peak refinement failed to reach orthogonality")
    peak = peak % math.pi
    return peak, peak


def perp_point(norm, x):
    """The unit point z that is Birkhoff orthogonal to x with z2 < 0.

    Needs a strictly convex norm for uniqueness and x on the unit
    sphere.  z is the support point of the ball in the Euclidean
    direction perpendicular to x, which makes the line z + lam*x a
    supporting line.  When the orthogonal pair is horizontal the second
    coordinate ties at 0 and the point with z1 < 0 is returned.
    """
    if not norm.is_strictly_convex:
        raise PreconditionError("perp_point requires a strictly convex norm")
    x = np.asarray(x, dtype=float)
    if abs(float(norm.value(x)) - 1.0) > 1e-6:
        raise PreconditionError("perp_point requires x on the unit sphere")
    _, z = norm.support(rot90(x))
    if abs(z[1]) <= 1e-9:
        return z if z[0] < 0 else -z
    return z if z[1] < 0 else -z
