"""Birkhoff orthogonality tests and orthogonality cones.

A vector x is Birkhoff orthogonal to y when norm(x + lam*y) >= norm(x)
for every real lam, i.e. the line through x with direction y stays
outside the open ball of radius norm(x).  The relation is not symmetric
in general.  Each pointwise test is a norm distance from x to the line
spanned by y, which the support function of the unit ball gives in
closed form.  The cone of directions orthogonal to x is the set the
pointwise test accepts; its ends are found by bracket searches over
the support points of the normals within a quarter turn of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ON_CURVE_TOL, TWO_PI
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
    if not 0.0 < nx < math.inf or not 0.0 < float(norm.value(y)) < math.inf:
        raise PreconditionError("%s requires nonzero finite vectors" % who)
    return x, y, nx


def _check_tol(tol, who):
    if not 0.0 <= tol < 1.0:
        raise PreconditionError("%s requires 0 <= tol < 1" % who)


def birkhoff_margin(norm, x, y):
    """min over lam of norm(x + lam*y), minus norm(x).

    Always <= 0 up to rounding; equal to 0 exactly when x is Birkhoff
    orthogonal to y.
    """
    x, y, nx = _nonzero_pair(norm, x, y, "birkhoff_margin")
    return float(_line_distance(norm, x, y[None, :])[0]) - nx


def is_birkhoff_orth(norm, x, y, tol=1e-9):
    """Whether x is Birkhoff orthogonal to y, tol relative to norm(x), 0 <= tol < 1."""
    _check_tol(tol, "is_birkhoff_orth")
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

    def is_single_pair(self):
        """True when the cone is one antipodal direction pair up to 1e-3 rad width."""
        return len(self.directions) == 2 and all(hi - lo <= 1e-3 for lo, hi in self.directions)

    def contains(self, theta, slack=1e-9):
        t = float(theta) % TWO_PI
        for lo, hi in self.directions:
            if lo - slack <= t <= hi + slack or lo - slack <= t + TWO_PI <= hi + slack:
                return True
        return False

    def total_width(self):
        return float(sum(hi - lo for lo, hi in self.directions))


# each round splits both brackets 16 ways; 13 rounds take a half turn to
# pi * 16**-13 ~ 7e-16 rad, though rounding of n.x and h(n) already moves
# the edge of the pass test by about 1e-11 rad (11 rounds, 1.8e-13 rad,
# would lose no accuracy)
_SPLIT = 16
_ROUNDS = 13
_STEPS = np.arange(1, _SPLIT) / _SPLIT  # the inner split points of a unit bracket


def orth_cone(norm, x, tol=1e-9):
    """Cone of directions y that is_birkhoff_orth(norm, x, y, tol) accepts.

    y passes when its line's normal n = rot90(y), taken within a quarter
    turn of x, has n.x >= h(n) * norm(x) * (1 - tol), h the support
    function.  As n turns anticlockwise through that half turn, the
    support point z(n) runs anticlockwise through x, so the normals that
    fail with z clockwise of x form a leading run and those that fail
    with z anticlockwise of x a trailing run; the passing normals lie
    between them.  One bracket per run end is narrowed together, with
    one batched support call per round.  If no normal passes, the two
    ends cross and both close on their midpoint.  Directions are the
    normals turned back a quarter turn, mirrored by pi.

    Each bracket is narrowed to pi * 16**-13, about 7e-16 rad, and each
    end is taken on the passing side of its bracket.  Rounding in the
    pass test itself moves the edge of the band by about 1e-11 rad, so
    the ends are accurate to that, not to the bracket width.
    """
    _check_tol(tol, "orth_cone")
    x = np.asarray(x, dtype=float)
    nx = float(norm.value(x))
    if not 0.0 < nx < math.inf:
        raise PreconditionError("orth_cone requires a nonzero finite base vector")
    x0, x1 = float(x[0]), float(x[1])
    bound = nx * (1.0 - tol)
    phi = math.atan2(x1, x0)
    lead = trail = phi - 0.5 * math.pi  # lower ends of the two brackets
    width = math.pi  # the width both brackets share
    n = np.empty((2 * (_SPLIT - 1), 2))
    # past[k, j]: split point j + 1 lies beyond the run end bracket k seeks,
    # false at the lower end, true at the upper end (the sentinel column)
    # and monotone in between
    past = np.ones((2, _SPLIT), dtype=bool)
    for _ in range(_ROUNDS):
        angles = np.add.outer((lead, trail), width * _STEPS).ravel()
        np.cos(angles, out=n[:, 0])
        np.sin(angles, out=n[:, 1])
        h, z = norm.support(n)
        fail = (n @ x < h * bound).reshape(2, -1)
        side = (x0 * z[:, 1] - x1 * z[:, 0]).reshape(2, -1)
        np.logical_not(fail[0] & (side[0] < 0.0), out=past[0, :-1])  # has left the leading run
        np.logical_and(fail[1], side[1] > 0.0, out=past[1, :-1])  # has entered the trailing run
        k_lead, k_trail = past.argmax(axis=1).tolist()
        lead += width * (k_lead / _SPLIT)
        trail += width * (k_trail / _SPLIT)
        width /= _SPLIT
    first, last = lead + width, trail
    if first > last:
        first = last = 0.5 * (first + last)
    a = first - 0.5 * math.pi
    intervals = []
    for shift in (0.0, math.pi):
        start = (a + shift) % TWO_PI
        intervals.append((start, start + (last - first)))
    intervals.sort()
    return OrthCone(base_x=x / nx, directions=tuple(intervals))


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
    if not abs(float(norm.value(x)) - 1.0) <= ON_CURVE_TOL:
        raise PreconditionError("perp_point requires x on the unit sphere")
    _, z = norm.support(rot90(x))
    if abs(z[1]) <= 1e-9:
        return z if z[0] < 0 else -z
    return z if z[1] < 0 else -z
