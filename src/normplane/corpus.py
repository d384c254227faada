"""The standing test corpus: nine base norms, their pushforward partners,
and the two drop curves.

The base list covers every qualitative sphere type the library handles:
polygonal spheres with and without axis-aligned edges, smooth spheres of
varying flatness, and piecewise-arc spheres with two and with six
corners.  Each base norm is paired with its image under one fixed shear,
giving eighteen spheres whose corner counts and periods are known.  The
drop curves are convex-hull boundaries with deliberately asymmetric
corner placement; the double drop is centrally symmetric, the single
drop is not.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import sampled_curve
from .norms import DiskIntersection, Hexagonal, PNorm, PolygonGauge, Pushforward

PUSH_MATRIX = np.array([[1.2, 0.4], [-0.2, 0.9]])


def _twelvegon():
    ang = 2.0 * math.pi * np.arange(12) / 12.0
    return PolygonGauge(np.column_stack([np.cos(ang), np.sin(ang)]))


def _sixdisk():
    ang = math.pi * np.arange(6) / 3.0
    centers = 0.6 * np.column_stack([np.cos(ang), np.sin(ang)])
    return DiskIntersection(centers, 1.4)


def base_norms():
    """The nine base norms, in a fixed order."""
    return {
        "l1": PNorm(1.0),
        "l1_5": PNorm(1.5),
        "l2": PNorm(2.0),
        "l3": PNorm(3.0),
        "linf": PNorm(math.inf),
        "hexagonal": Hexagonal(),
        "twelvegon": _twelvegon(),
        "lens": DiskIntersection(np.array([[0.5, 0.0], [-0.5, 0.0]]), 1.25),
        "sixdisk": _sixdisk(),
    }


def corpus_norms():
    """Base norms plus the pushforward partner of each under PUSH_MATRIX."""
    out = dict(base_norms())
    for name, norm in list(out.items()):
        out[name + "_push"] = Pushforward(norm, PUSH_MATRIX)
    return out


def drop_curve():
    """Boundary of the convex hull of the unit disk and the point (1, 1).

    The hull replaces the first-quadrant arc by the two tangent segments
    through (1, 1); the tangency points are exactly (1, 0) and (0, 1).
    Taxicab ambient, anticlockwise, corner flagged at (1, 1) only.  Each
    segment has 256 sample steps, the arc 3 x 3072.
    """
    m, k = 256, 3072
    up = np.column_stack([np.ones(m), np.arange(m) / m])
    xs = 1.0 - np.arange(1, m) / m
    across = np.column_stack([xs, np.ones(m - 1)])
    ang = 0.5 * math.pi + 1.5 * math.pi * np.arange(3 * k) / (3 * k)
    arc = np.column_stack([np.cos(ang), np.sin(ang)])
    pts = np.concatenate([up, [[1.0, 1.0]], across, arc])
    smooth = np.ones(len(pts), dtype=bool)
    smooth[m] = False
    return sampled_curve(pts, smooth, ambient=PNorm(1.0))


def double_drop_curve():
    """Boundary of the convex hull of the disk of radius 0.3 and the points (1, 1), (-1, -1).

    Centrally symmetric, with corners at both hull points.  The disk is
    small enough that (1, 1) is the strict rightmost and uppermost point
    and (-1, -1) the strict leftmost and undermost one.  Tangency points
    solve z^2 - r^2 z + (r^4 - r^2)/2 = 0 and are placed exactly.  Each
    segment has 256 sample steps, each half of the arc 512.
    """
    r, m, k = 0.3, 256, 512
    disc = math.sqrt(r ** 4 - 2.0 * (r ** 4 - r ** 2))
    za = (r ** 2 + disc) / 2.0
    zb = (r ** 2 - disc) / 2.0
    th1 = math.atan2(zb, za)  # lower-right tangency (za, zb)
    th2 = math.atan2(za, zb)  # upper-left tangency (zb, za)

    def seg(p, q, drop_first=False):
        lam = np.arange(m) / m
        if drop_first:
            lam = lam[1:]
        return p[None, :] + lam[:, None] * (q - p)[None, :]

    def arc(t0, t1):
        ang = t0 + (t1 - t0) * np.arange(k) / k
        return r * np.column_stack([np.cos(ang), np.sin(ang)])

    ne = np.array([1.0, 1.0])
    ta = np.array([za, zb])
    tb = np.array([zb, za])
    half = np.concatenate([
        seg(ta, ne), [ne], seg(ne, tb, drop_first=True), arc(th2, th1 + math.pi)])
    pts = np.concatenate([half, -half])
    smooth = np.ones(len(pts), dtype=bool)
    smooth[m] = False
    smooth[len(half) + m] = False
    return sampled_curve(pts, smooth, ambient=PNorm(1.0))
