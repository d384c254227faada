"""Norm families on the plane and their unit sphere geometry.

Every norm here knows how to evaluate itself on batches of vectors, how
to report whether it is strictly convex, how to describe the corner
structure of its unit sphere exactly, and its support function in
closed form.  Corner tangents are stored as ambient-unit vectors,
meaning unit in the norm itself rather than in the Euclidean sense,
because downstream derivative checks compare against them directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SpecError

__all__ = [
    "Norm",
    "PNorm",
    "PolygonGauge",
    "Hexagonal",
    "DiskIntersection",
    "Pushforward",
    "SphereStructure",
    "norm_from_spec",
    "rot90",
    "cross2",
]


def rot90(v):
    """Rotate vectors by a quarter turn anticlockwise."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def cross2(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _as_batch(v):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _computed_once(method):
    """Cache an immutable object's geometry on the instance, its arrays read-only.

    method takes no argument besides the norm or curve and returns an
    array, a dataclass such as SphereStructure, a dict of arrays or
    dataclasses, or a tuple, which is immutable already.
    The instance is immutable, so the result is too; callers that need to
    change an array must copy it.
    """
    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        out = self.__dict__.get(key)
        if out is None:
            out = method(self)
            for part in out.values() if isinstance(out, dict) else [out]:
                arrays = [part] if isinstance(part, np.ndarray) else getattr(part, "__dict__", {}).values()
                for arr in arrays:
                    if isinstance(arr, np.ndarray):
                        arr.flags.writeable = False
            self.__dict__[key] = out
        return out

    return cached


# cap on the Newton steps of PNorm.exits; a tangent line at a point of
# curvature zero converges slowest, by a factor 1 - 1/p per step
_NEWTON_STEPS = 100


def _circle_exits(ax, ay, bx, by, cx, cy, radius):
    """Where the line a + s b crosses the circle |z - c| = radius.

    Returns (lo, hi), both NaN when the line misses the circle.
    """
    dx, dy = ax - cx, ay - cy
    bb = bx * bx + by * by
    db = dx * bx + dy * by
    disc = db * db - bb * (dx * dx + dy * dy - radius * radius)
    if not disc >= 0.0:
        return math.nan, math.nan
    sq = math.sqrt(disc)
    return (-db - sq) / bb, (-db + sq) / bb


def _vertex_support(vertices, u):
    """Support function of a polygon: the best vertex for each row of u."""
    dots = u @ vertices.T
    k = np.argmax(dots, axis=-1)
    return dots[np.arange(len(u)), k], vertices[k]


@dataclass(frozen=True, eq=False)
class SphereStructure:
    """Exact description of a unit sphere's non-smooth locus.

    kind is one of "smooth", "polygonal", "piecewise_arc".  Corner arrays
    are angle sorted anticlockwise; corner_in and corner_out hold the
    ambient-unit one-sided tangents of the anticlockwise traversal.  For
    polygonal spheres, vertices coincides with corners.
    """

    kind: str
    corners: np.ndarray
    corner_in: np.ndarray
    corner_out: np.ndarray
    vertices: np.ndarray | None = None


# the structure of every sphere without corners: one empty, read-only array for all three
_SMOOTH = SphereStructure("smooth", *[np.zeros((0, 2))] * 3)
_SMOOTH.corners.flags.writeable = False


def _corner_tangents(verts, idx, value):
    """Ambient-unit tangents (in, out) of the closed polygon verts at its vertices idx.

    value is called on one edge at a time, so no tangent depends on a batch.
    """
    n = len(verts)
    tin, tout = np.zeros((len(idx), 2)), np.zeros((len(idx), 2))
    for r, k in enumerate(idx):
        ein = verts[k] - verts[k - 1]
        eout = verts[(k + 1) % n] - verts[k]
        tin[r] = ein / value(ein)
        tout[r] = eout / value(eout)
    return tin, tout


def _sorted_corner_arrays(corners, tin, tout):
    corners = np.asarray(corners, dtype=float).reshape(-1, 2)
    tin = np.asarray(tin, dtype=float).reshape(-1, 2)
    tout = np.asarray(tout, dtype=float).reshape(-1, 2)
    order = np.argsort(np.arctan2(corners[:, 1], corners[:, 0]))
    return corners[order], tin[order], tout[order]


class Norm:
    """Common interface for the norm families."""

    family = "abstract"

    def value(self, v):
        raise NotImplementedError

    @property
    def is_strictly_convex(self):
        raise NotImplementedError

    def structure(self):
        raise NotImplementedError

    def to_spec(self):
        raise NotImplementedError

    def support(self, u):
        """Support function h(u) = max over the unit ball of u.z, with a maximiser z.

        u is one nonzero direction or a batch of them.  h is the dual norm
        of u and z is a point of the unit sphere where the supporting line
        with normal u touches it.  Every family has a closed form.
        """
        arr, single = _as_batch(u)
        h, z = self._support(arr)
        return (float(h[0]), z[0]) if single else (h, z)

    def _support(self, u):
        raise NotImplementedError

    def exits(self, a, b):
        """Parameters s_lo <= s_hi where the line a + s*b crosses the unit sphere.

        a is one finite point and b one direction with 0 < b.b < inf, each
        a pair of numbers; anything else raises PreconditionError.  The
        ball is convex, so it meets the line in one interval [s_lo, s_hi],
        returned as two floats; both are NaN when the line misses it.
        Every caller asks about one line at a time, so each family answers
        in plain float arithmetic, without numpy: on a 2-core x86-64
        machine a call takes about 1 us on l2, 2.4 us on a 12-gon, 3.7 us
        on a six-disk intersection and 7.7 us on a pushed p-norm.  Each
        family has a closed form or a convex search:

        - PNorm, p = 2: the roots of the quadratic |a + s b|^2 = 1.
        - PNorm, axis lines a = alpha e_i, b = beta e_j with i != j:
          s = -h and +h with h = (1 - |alpha|^p)^(1/p) / |beta|.
        - PNorm, other lines: s -> |a + s b| is convex, so each side of
          its minimum holds one root.  A Newton search starts on each
          side where the line leaves a disk holding the ball; from
          outside, its iterates approach the root without passing it,
          and an iterate past the minimum but still outside proves a
          miss.  It raises ArithmeticError after _NEWTON_STEPS (100)
          steps.
        - DiskIntersection: the ball is the intersection of the disks,
          so the interval is [max lo_k, min hi_k] over the per-disk
          quadratic roots.
        - Pushforward: the base's exits of inv(M) a + s inv(M) b.
        - Polygons (PNorm with p = 1 or inf, PolygonGauge, Hexagonal): the
          ball is the intersection of the half-planes n_k . z <= n_k . w_k
          of its edges; each holds the line on a ray, or on all of it or
          none when they are parallel, so again [max lo_k, min hi_k].
        """
        ax, ay = map(float, a)
        bx, by = map(float, b)
        if not (math.isfinite(ax) and math.isfinite(ay) and 0.0 < bx * bx + by * by < math.inf):
            raise PreconditionError("exits needs a finite point a and a direction b with "
                                    "0 < b.b < inf, got a = (%r, %r), b = (%r, %r)" % (ax, ay, bx, by))
        return self._exits(ax, ay, bx, by)

    @_computed_once
    def _half_planes(self):
        """Float triples (n_x, n_y, n . w_k): each edge's half-plane n . z <= n . w_k."""
        w = self.structure().vertices
        nxt = np.roll(w, -1, axis=0)
        # outward normals n_k of the anticlockwise edges; n_k . w_k = w_k x w_(k+1)
        n = rot90(w - nxt)
        return tuple(zip(n[:, 0].tolist(), n[:, 1].tolist(), cross2(w, nxt).tolist()))

    def _exits(self, ax, ay, bx, by):
        lo, hi = -math.inf, math.inf
        for nx, ny, offset in self._half_planes():
            room = offset - (ax * nx + ay * ny)
            rate = bx * nx + by * ny
            if rate < 0.0:
                s = room / rate
                if s > lo:
                    lo = s
            elif rate > 0.0:
                s = room / rate
                if s < hi:
                    hi = s
            elif room < 0.0:
                return math.nan, math.nan  # parallel to the edge and beyond it
        return (lo, hi) if lo <= hi else (math.nan, math.nan)

    def unit_point(self, theta):
        """Point of the unit sphere in direction theta (radians)."""
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        val = np.asarray(self.value(np.stack([c, s], axis=-1)))
        return np.stack([c / val, s / val], axis=-1)

    def _polygon_structure(self, vertices):
        w = np.asarray(vertices, dtype=float)
        c, ti, to = _sorted_corner_arrays(w, *_corner_tangents(w, range(len(w)), self.value))
        return SphereStructure("polygonal", c, ti, to, vertices=c)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_spec()})"


class PNorm(Norm):
    """The p-norms, with p = inf as a distinguished value."""

    family = "p"

    def __init__(self, p):
        if p != math.inf and not p >= 1:
            raise SpecError("spec.p", "p must satisfy 1 <= p <= inf")
        self.p = float(p)

    def value(self, v):
        arr, single = _as_batch(v)
        a = np.abs(arr)
        # column arithmetic: numpy reduces slowly along a length-2 last axis
        if self.p == math.inf:
            out = np.maximum(a[..., 0], a[..., 1])
        elif self.p == 1.0:
            out = a[..., 0] + a[..., 1]
        elif self.p == 2.0:
            out = np.hypot(a[..., 0], a[..., 1])
        else:
            # factor out the max so large p cannot overflow
            m = np.maximum(a[..., 0], a[..., 1])
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.where(m[..., None] > 0, a / np.maximum(m, 1e-300)[..., None], 0.0)
                out = m * (r[..., 0] ** self.p + r[..., 1] ** self.p) ** (1.0 / self.p)
        return float(out[0]) if single else out

    @property
    def is_strictly_convex(self):
        return self.p != 1.0 and self.p != math.inf

    @_computed_once
    def structure(self):
        if self.p == 1.0:
            verts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
            return self._polygon_structure(_angle_sorted(verts))
        if self.p == math.inf:
            verts = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
            return self._polygon_structure(_angle_sorted(verts))
        return _SMOOTH

    def _support(self, u):
        if self.p == 1.0 or self.p == math.inf:
            return _vertex_support(self.structure().vertices, u)
        # dual q-norm; the maximiser is sign(u)|u|^(q-1) scaled to the sphere,
        # with the max factored out as in value()
        q = self.p / (self.p - 1.0)
        a = np.abs(u)
        m = np.maximum(a[:, 0], a[:, 1])
        r = a / m[:, None]
        rq = (r[:, 0] ** q + r[:, 1] ** q) ** (1.0 / q)
        return m * rq, np.sign(u) * (r / rq[:, None]) ** (q - 1.0)

    def _exits(self, ax, ay, bx, by):
        if self.p == 2.0:
            return _circle_exits(ax, ay, bx, by, 0.0, 0.0, 1.0)
        if not self.is_strictly_convex:
            return super()._exits(ax, ay, bx, by)
        if (ay == 0.0 and bx == 0.0) or (ax == 0.0 and by == 0.0):
            alpha = abs(ax + ay)
            if alpha > 1.0:
                return math.nan, math.nan  # 1 - alpha^p < 0: the axis line misses
            half = (1.0 - alpha ** self.p) ** (1.0 / self.p) / abs(bx + by)
            return -half, half
        # the ball lies in the disk of radius max(1, 2^(1/2 - 1/p)), so the
        # line's exits from that disk start one search outside it on each side
        lo, hi = _circle_exits(ax, ay, bx, by, 0.0, 0.0, max(1.0, 2.0 ** (0.5 - 1.0 / self.p)))
        if math.isnan(lo):
            return lo, hi
        return self._newton_root(ax, ay, bx, by, lo, -1.0), self._newton_root(ax, ay, bx, by, hi, 1.0)

    def _newton_root(self, ax, ay, bx, by, s, side):
        """The root of |a + s b| = 1 on one side of the minimum, from s outside the ball, or NaN."""
        p = self.p
        steps = 0
        while True:
            if steps == _NEWTON_STEPS:
                raise ArithmeticError("PNorm.exits: no convergence in %d Newton steps" % steps)
            steps += 1
            zx, zy = ax + s * bx, ay + s * by
            # the value with the max factored out, as in value(); m > 0 outside the ball
            x, y = abs(zx), abs(zy)
            m = max(x, y)
            nz = m * ((x / m) ** p + (y / m) ** p) ** (1.0 / p)
            if not nz > 1.0:
                return s
            # slope along b; the gradient of the p-norm is sign(z) (|z| / |z|_p)^(p-1)
            slope = (math.copysign((x / nz) ** (p - 1.0), zx) * bx
                     + math.copysign((y / nz) ** (p - 1.0), zy) * by)
            if not side * slope > 0.0:
                return math.nan  # past the minimum and still outside: the line misses the ball
            step = (nz - 1.0) / slope
            s -= step
            if not abs(step) > 2.0 ** -50 * (1.0 + abs(s)):
                return s

    def to_spec(self):
        return {"family": "p", "p": "inf" if self.p == math.inf else self.p}


def _angle_sorted(vertices):
    w = np.asarray(vertices, dtype=float)
    order = np.argsort(np.arctan2(w[:, 1], w[:, 0]))
    return w[order]


class PolygonGauge(Norm):
    """Gauge of an origin-symmetric convex polygon given by its vertices."""

    family = "polygon"

    def __init__(self, vertices, _path="spec.vertices"):
        w = np.asarray(vertices, dtype=float)
        if w.ndim != 2 or w.shape[1] != 2 or len(w) < 4:
            raise SpecError(_path, "need at least 4 vertex pairs")
        if not np.all(np.isfinite(w)):
            bad = int(np.argwhere(~np.isfinite(w).all(axis=1))[0, 0])
            raise SpecError(f"{_path}[{bad}]", "vertex is not finite")
        k = len(w)
        if k % 2 != 0:
            raise SpecError(_path, "vertex count must be even for origin symmetry")
        w = _angle_sorted(w)
        for i in range(k):
            if not np.allclose(w[(i + k // 2) % k], -w[i], atol=1e-9):
                raise SpecError(_path, "vertex set must be symmetric about the origin")
        for i in range(k):
            a, b, c = w[i], w[(i + 1) % k], w[(i + 2) % k]
            if cross2(b - a, c - b) <= 1e-12:
                raise SpecError(f"{_path}[{(i + 1) % k}]", "vertices must be in strictly convex anticlockwise position")
            if cross2(a, b) <= 1e-12:
                raise SpecError(_path, "origin must lie strictly inside the polygon")
        self._w = w
        # edge e_j = w_(j+1) - w_j of the first half and its opposite bound the slab
        # |f_j| <= 1, f_j(v) = (v x e_j) / (w_j x w_(j+1)); columns for a leading axis
        h = k // 2
        e = w[1:h + 1] - w[:h]
        self._slabs = (e[:, 0], e[:, 1], cross2(w[:h], w[1:h + 1]))

    @property
    def vertices(self):
        return self._w.copy()

    def value(self, v):
        arr, single = _as_batch(v)
        x, y = arr[..., 0], arr[..., 1]
        # the ball is the intersection of the slabs, so the gauge is max |f_j|: even bit for bit
        lead = (-1,) + (1,) * x.ndim
        e0, e1, dens = (col.reshape(lead) for col in self._slabs)
        out = (np.abs(x * e1 - y * e0) / dens).max(axis=0)
        return float(out[0]) if single else out

    @property
    def is_strictly_convex(self):
        return False

    @_computed_once
    def structure(self):
        return self._polygon_structure(self._w)

    def _support(self, u):
        return _vertex_support(self._w, u)

    def to_spec(self):
        return {"family": "polygon", "vertices": [[float(a), float(b)] for a, b in self._w]}


_HEX_VERTICES = [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0)]


class Hexagonal(Norm):
    """Closed-form hexagon norm: max(|a|,|b|) on matching signs, |a|+|b| otherwise.

    The formula agrees with the gauge of the hexagon through (1,0), (1,1),
    (0,1); sphere geometry is delegated to that polygon.
    """

    family = "hexagonal"

    def __init__(self):
        self._poly = PolygonGauge(_HEX_VERTICES)

    def value(self, v):
        arr, single = _as_batch(v)
        a = arr[..., 0]
        b = arr[..., 1]
        out = np.where(a * b >= 0, np.maximum(np.abs(a), np.abs(b)), np.abs(a) + np.abs(b))
        return float(out[0]) if single else out

    @property
    def is_strictly_convex(self):
        return False

    def structure(self):
        return self._poly.structure()

    def _support(self, u):
        return self._poly._support(u)

    def to_spec(self):
        return {"family": "hexagonal"}


class DiskIntersection(Norm):
    """Gauge of an intersection of disks of one shared radius.

    Centers must be origin symmetric as a set and every disk must contain
    the origin strictly, so the intersection is a convex body and the
    gauge is a norm.
    """

    family = "disk_intersection"

    def __init__(self, centers, radius, _path="spec"):
        c = np.asarray(centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2 or len(c) < 1:
            raise SpecError(f"{_path}.centers", "need a list of center pairs")
        if not np.all(np.isfinite(c)):
            bad = int(np.argwhere(~np.isfinite(c).all(axis=1))[0, 0])
            raise SpecError(f"{_path}.centers[{bad}]", "center is not finite")
        r = float(radius)
        if not (r > 0 and math.isfinite(r)):
            raise SpecError(f"{_path}.radius", "radius must be positive and finite")
        norms = np.hypot(c[:, 0], c[:, 1])
        if np.any(norms >= r - 1e-9):
            bad = int(np.argmax(norms))
            raise SpecError(f"{_path}.centers[{bad}]", "every disk must contain the origin strictly")
        half = []  # one disk of each antipodal pair: the one before its partner
        for i in range(len(c)):
            d = np.hypot(c[:, 0] + c[i, 0], c[:, 1] + c[i, 1])
            if d.min() > 1e-9:
                raise SpecError(f"{_path}.centers[{i}]", "center set must be symmetric about the origin")
            if i <= int(np.argmin(d)):
                half.append(i)
        self.centers = c
        self.radius = r
        # columns of the half's centers and per-disk positive constants r^2 - |c|^2
        self._pairs = (c[half, 0], c[half, 1], r * r - norms[half] ** 2)

    def value(self, v):
        arr, single = _as_batch(v)
        x, y = arr[..., 0], arr[..., 1]
        # the disks on a leading axis and products taken elementwise: numpy runs
        # one long loop per array op, and no row's value depends on its batch.
        # The gauges of the disks at c and -c are (-+b + root) / a with b = c.v,
        # so a pair's larger one takes |b|: the gauge is even bit for bit
        lead = (-1,) + (1,) * x.ndim
        c0, c1, a = (col.reshape(lead) for col in self._pairs)
        b = np.abs(c0 * x + c1 * y)
        lam = (b + np.sqrt(b * b + a * (x * x + y * y))) / a
        out = lam.max(axis=0)
        return float(out[0]) if single else out

    @property
    def is_strictly_convex(self):
        return True

    @_computed_once
    def structure(self):
        pts = []
        r = self.radius
        c = self.centers
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                d = c[j] - c[i]
                dn = float(np.hypot(d[0], d[1]))
                if dn < 1e-12 or dn >= 2 * r:
                    continue
                mid = (c[i] + c[j]) / 2
                half = math.sqrt(r * r - dn * dn / 4.0)
                perp = rot90(d) / dn
                for p in (mid + half * perp, mid - half * perp):
                    if self.value(p) <= 1 + 1e-9:
                        pts.append(p)
        uniq = {}
        for p in pts:
            uniq[(round(p[0], 9), round(p[1], 9))] = p
        corners, tin, tout = [], [], []
        for p in uniq.values():
            active = [k for k in range(len(c)) if abs(np.hypot(*(p - c[k])) - r) <= 1e-9]
            cin = cout = None
            for k in active:
                t = rot90(p - c[k]) / r
                others = [m for m in active if m != k]
                dots = [float(np.dot(t, p - c[m])) for m in others]
                if all(v > 0 for v in dots):
                    cin = t
                elif all(v < 0 for v in dots):
                    cout = t
            if cin is None or cout is None or cross2(cin, cout) <= 0:
                continue  # tangential contact, not a corner
            corners.append(p)
            tin.append(cin / self.value(cin))
            tout.append(cout / self.value(cout))
        corners, tin, tout = _sorted_corner_arrays(corners, tin, tout)
        if len(corners) == 0:
            return _SMOOTH
        return SphereStructure("piecewise_arc", corners, tin, tout)

    def _support(self, u):
        # the support point is a corner or the support point of the disk
        # whose arc it lies on; only candidates inside the ball count
        n = len(u)
        unit = u / np.hypot(u[:, 0], u[:, 1])[:, None]
        cand = self.centers[None, :, :] + self.radius * unit[:, None, :]
        inside = self.value(cand.reshape(-1, 2)).reshape(n, -1) <= 1.0 + 1e-12
        dots = np.where(inside, np.einsum("nkj,nj->nk", cand, u), -np.inf)
        corners = self.structure().corners
        cand = np.concatenate([cand, np.broadcast_to(corners, (n,) + corners.shape)], axis=1)
        dots = np.concatenate([dots, u @ corners.T], axis=1)
        k = np.argmax(dots, axis=1)
        rows = np.arange(n)
        return dots[rows, k], cand[rows, k]

    def _exits(self, ax, ay, bx, by):
        # every disk bounds the chord: a line off the origin cuts the disks at c and -c apart
        lo, hi = -math.inf, math.inf
        for cx, cy in self.centers.tolist():
            s_lo, s_hi = _circle_exits(ax, ay, bx, by, cx, cy, self.radius)
            if not s_lo <= s_hi:
                return math.nan, math.nan  # the line misses this disk
            if s_lo > lo:
                lo = s_lo
            if s_hi < hi:
                hi = s_hi
        return (lo, hi) if lo <= hi else (math.nan, math.nan)

    def to_spec(self):
        return {
            "family": "disk_intersection",
            "centers": [[float(a), float(b)] for a, b in self.centers],
            "radius": self.radius,
        }


class Pushforward(Norm):
    """Image norm under an invertible linear map: |v| = |inv(M) v| in the base."""

    family = "pushforward"

    def __init__(self, base, matrix, _path="spec"):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise SpecError(f"{_path}.matrix", "need a finite 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-12:
            raise SpecError(f"{_path}.matrix", "matrix must be invertible")
        if not isinstance(base, Norm):
            raise SpecError(f"{_path}.base", "base must be a norm")
        self.base = base
        self.matrix = m
        self.det = det
        # exact adjugate inverse
        self.inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det

    def value(self, v):
        arr, single = _as_batch(v)
        out = self.base.value(arr @ self.inv.T)
        return out if not single else float(np.asarray(out).reshape(-1)[0])

    @property
    def is_strictly_convex(self):
        return self.base.is_strictly_convex

    @_computed_once
    def structure(self):
        s = self.base.structure()
        if len(s.corners) == 0:
            return s
        m = self.matrix
        corners = s.corners @ m.T
        if self.det > 0:
            tin = s.corner_in @ m.T
            tout = s.corner_out @ m.T
        else:
            # orientation reverses: sides swap and run backwards
            tin = -(s.corner_out @ m.T)
            tout = -(s.corner_in @ m.T)
        tin = tin / np.asarray(self.value(tin))[:, None]
        tout = tout / np.asarray(self.value(tout))[:, None]
        corners, tin, tout = _sorted_corner_arrays(corners, tin, tout)
        verts = corners if s.kind == "polygonal" else None
        return SphereStructure(s.kind, corners, tin, tout, vertices=verts)

    def _support(self, u):
        # the ball is M B, so h(u) = h_B(M^T u) at the point M z
        h, z = self.base._support(u @ self.matrix)
        return h, z @ self.matrix.T

    def _exits(self, ax, ay, bx, by):
        # the ball is M B: a + s b lies in it when inv(M) a + s inv(M) b lies in B
        (i00, i01), (i10, i11) = self.inv.tolist()
        return self.base._exits(i00 * ax + i01 * ay, i10 * ax + i11 * ay,
                                i00 * bx + i01 * by, i10 * bx + i11 * by)

    def to_spec(self):
        return {
            "family": "pushforward",
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "base": self.base.to_spec(),
        }


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise SpecError(path, "expected an object")
    if key not in obj:
        raise SpecError(f"{path}.{key}", "missing required field")
    return obj[key]


def norm_from_spec(obj, path="spec"):
    """Build a norm from its JSON-style description, validating as we go."""
    family = _require(obj, "family", path)
    if family == "p":
        p = _require(obj, "p", path)
        if p == "inf":
            return PNorm(math.inf)
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise SpecError(f"{path}.p", "p must be a number or \"inf\"")
        if not (1 <= float(p) < math.inf):
            raise SpecError(f"{path}.p", "p must satisfy 1 <= p <= inf")
        return PNorm(float(p))
    if family == "polygon":
        verts = _require(obj, "vertices", path)
        try:
            return PolygonGauge(verts, _path=f"{path}.vertices")
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}.vertices", str(exc)) from exc
    if family == "hexagonal":
        return Hexagonal()
    if family == "disk_intersection":
        centers = _require(obj, "centers", path)
        radius = _require(obj, "radius", path)
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise SpecError(f"{path}.radius", "radius must be a number")
        try:
            return DiskIntersection(centers, radius, _path=path)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}.centers", str(exc)) from exc
    if family == "pushforward":
        matrix = _require(obj, "matrix", path)
        base = norm_from_spec(_require(obj, "base", path), path=f"{path}.base")
        try:
            m = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}.matrix", str(exc)) from exc
        return Pushforward(base, m, _path=path)
    raise SpecError(f"{path}.family", f"unknown norm family {family!r}")
