"""Closed-form support functions and the Birkhoff margins built on them.

Every check runs on the whole 18-norm corpus.  The margin reference
uses norm values only: a dense grid over the exact bracket, polished by
a scalar minimizer.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from normplane.birkhoff import birkhoff_margin
from normplane.curves import extreme_points, unit_sphere
from normplane.norms import rot90


def _directions(k, offset=0.0123):
    th = offset + np.arange(k) * (2.0 * math.pi / k)
    return np.column_stack([np.cos(th), np.sin(th)])


def test_support_bounds_the_sphere_and_touches_it(corpus):
    u = _directions(64)
    for name, norm in corpus.items():
        sphere = np.concatenate([
            norm.unit_point(np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)),
            norm.structure().corners])
        h, z = norm.support(u)
        assert np.all(u @ sphere.T <= h[:, None] + 1e-12), name
        assert np.allclose(norm.value(z), 1.0, rtol=0.0, atol=1e-12), name
        assert np.allclose((u * z).sum(axis=1), h, rtol=0.0, atol=1e-12), name
        # one direction at a time gives the same answer as the batch
        h0, z0 = norm.support(u[5])
        assert h0 == pytest.approx(h[5], abs=1e-15) and np.allclose(z0, z[5], atol=1e-15), name


def _reference_line_minimum(norm, x, d, points=2001):
    """min over lam of norm(x + lam*d), from norm values alone.

    The minimizer lies in |lam| <= 2 norm(x) / norm(d): both ends have
    value at least norm(x) by the triangle inequality.  Two grid passes
    narrow it to a cell a few millionths wide.  The scalar minimizer then
    works on the offset inside that cell, whose smallness keeps its
    relative tolerance fine enough for kinked minima too.
    """
    bound = 2.0 * float(norm.value(x)) / float(norm.value(d))
    lam = np.linspace(-bound, bound, points)
    for _ in range(2):
        vals = norm.value(x[None, :] + lam[:, None] * d[None, :])
        i = int(np.argmin(vals))
        best, step = lam[i], lam[1] - lam[0]
        lam = np.linspace(best - step, best + step, points)
    res = minimize_scalar(lambda s: float(norm.value(x + (best + s) * d)),
                          bounds=(-step, step), method="bounded",
                          options={"xatol": 1e-15})
    return min(float(res.fun), float(vals[i]))


def test_closed_form_margin_matches_value_only_line_minimum(corpus):
    dirs = _directions(12, offset=0.0371)[:6]  # a half circle suffices: y and -y agree
    worst = 0.0
    for name, norm in corpus.items():
        struct = norm.structure()
        points = [(x, dirs) for x in norm.unit_point(0.29 + np.arange(8) * (math.pi / 4.0))]
        for k, c in enumerate(struct.corners):
            # the one-sided tangents carry the exact zero margins
            points.append((c, np.concatenate([dirs, [struct.corner_in[k], struct.corner_out[k],
                                                     rot90(c)]])))
        for x, ds in points:
            nx = float(norm.value(x))
            for d in ds:
                got = birkhoff_margin(norm, x, d)
                want = _reference_line_minimum(norm, x, d) - nx
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=1e-12), (name, tuple(x), tuple(d))
    assert worst <= 1e-12


def test_structure_is_computed_once_and_read_only(corpus):
    for name, norm in corpus.items():
        s = norm.structure()
        assert norm.structure() is s, name
        curve = unit_sphere(norm)
        ext = extreme_points(curve)
        assert all(extreme_points(curve)[k] is es for k, es in ext.items()), name
        for arr in (s.corners, s.corner_in, s.corner_out, s.vertices, *(es.points for es in ext.values())):
            if arr is None:
                continue
            assert not arr.flags.writeable, name
            if arr.size:
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0
