"""Norm evaluation against closed forms and cross-family oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normplane import norms
from normplane.curves import extreme_points, unit_sphere
from normplane.errors import PreconditionError, SpecError
from normplane.norms import (
    DiskIntersection,
    Hexagonal,
    PNorm,
    PolygonGauge,
    Pushforward,
    norm_from_spec,
)

SQUARE = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
HEX_VERTICES = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False)


def _families():
    return [
        PNorm(1),
        PNorm(1.5),
        PNorm(2),
        PNorm(3),
        PNorm(math.inf),
        Hexagonal(),
        PolygonGauge(SQUARE),
        DiskIntersection([(0.5, 0.0), (-0.5, 0.0)], 1.25),
        Pushforward(Hexagonal(), [[1.2, 0.4], [-0.2, 0.9]]),
    ]


def test_hexagonal_branch_values():
    h = Hexagonal()
    assert h.value((1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert h.value((1.0, -1.0)) == pytest.approx(2.0, abs=1e-15)
    # same-sign branch is max(|a|,|b|), opposite-sign branch is |a|+|b|
    for a, b in [(0.3, 0.8), (-0.5, -0.2), (2.0, 0.1)]:
        assert h.value((a, b)) == pytest.approx(max(abs(a), abs(b)), rel=1e-12)
    for a, b in [(0.3, -0.8), (-0.5, 0.2)]:
        assert h.value((a, b)) == pytest.approx(abs(a) + abs(b), rel=1e-12)


def test_pnorm_values():
    assert PNorm(2).value((3.0, 4.0)) == pytest.approx(5.0, rel=1e-12)
    assert PNorm(2).value((0.0, 0.0)) == 0.0
    assert PNorm(1).value((1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
    assert PNorm(math.inf).value((3.0, -4.0)) == pytest.approx(4.0, rel=1e-12)


def test_polygon_square_matches_l1():
    # the diamond polygon gauge and the l1 norm are the same functional
    gauge = PolygonGauge(SQUARE)
    l1 = PNorm(1)
    assert gauge.value((1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
    rng = np.random.default_rng(11)
    vs = rng.uniform(-3.0, 3.0, size=(200, 2))
    assert np.allclose(gauge.value(vs), l1.value(vs), rtol=1e-10, atol=1e-12)


def test_disk_intersection_matches_per_disk_gauge():
    # gauge of one disk (center c, radius r, |c| < r) along direction p:
    # the positive boundary scale solves |s p - c| = r
    centers = [(0.5, 0.0), (-0.5, 0.0)]
    r = 1.25
    lens = DiskIntersection(centers, r)

    def oracle(p):
        best = 0.0
        for c in np.asarray(centers, dtype=float):
            pc = float(p @ c)
            pp = float(p @ p)
            s = (pc + math.sqrt(pc * pc + pp * (r * r - c @ c))) / pp
            best = max(best, 1.0 / s)
        return best

    rng = np.random.default_rng(7)
    for v in rng.uniform(-2.0, 2.0, size=(100, 2)):
        if np.abs(v).max() < 1e-3:
            continue
        assert lens.value(v) == pytest.approx(oracle(v), rel=1e-12)


def test_value_rows_do_not_depend_on_their_batch(corpus):
    # a row's value is the same bits in a 4096-row batch as alone; Pushforward's
    # matrix product is a BLAS call, whose rounding may depend on the batch
    vs = np.random.default_rng(19).normal(size=(4096, 2))
    for name, norm in corpus.items():
        if isinstance(norm, Pushforward):
            continue
        alone = np.array([norm.value(v) for v in vs])
        assert np.array_equal(norm.value(vs), alone), name


def test_every_corpus_norm_is_even_bit_for_bit(corpus):
    # value(-v) == value(v) to the last bit: on seeded rows, on the corners
    # and corner tangents at several scales, and on rows on either axis
    # with either sign of zero
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(100000, 2))
    free = rng.normal(size=64)
    for zero in (0.0, -0.0):
        rows = np.concatenate([rows, np.column_stack([free, np.full(64, zero)]),
                               np.column_stack([np.full(64, zero), free])])
    for name, norm in corpus.items():
        s = norm.structure()
        dirs = np.concatenate([s.corners, s.corner_in, s.corner_out]).reshape(-1, 2)
        vs = np.concatenate([rows] + [c * dirs for c in (1.0, 0.37, 3.3, 1e-3)])
        assert norm.value(-vs).tobytes() == norm.value(vs).tobytes(), name


def test_half_of_each_symmetric_body_gives_the_gauge(corpus):
    # the one-per-pair gauges equal the maximum over every disk, and over
    # every edge functional of a polygon, to rounding
    vs = np.random.default_rng(29).normal(size=(20000, 2))
    checked = 0
    for name, norm in corpus.items():
        if isinstance(norm, DiskIntersection):
            c, r = norm.centers, norm.radius
            a = r * r - (c ** 2).sum(axis=1)
            b = vs @ c.T
            want = ((-b + np.sqrt(b * b + a * (vs ** 2).sum(axis=1)[:, None])) / a).max(axis=1)
        elif isinstance(norm, PolygonGauge):
            w = norm.vertices
            nxt = np.roll(w, -1, axis=0)
            e, dens = nxt - w, w[:, 0] * nxt[:, 1] - w[:, 1] * nxt[:, 0]
            want = ((vs[:, :1] * e[:, 1] - vs[:, 1:] * e[:, 0]) / dens).max(axis=1)
        else:
            continue
        checked += 1
        assert np.max(np.abs(norm.value(vs) / want - 1.0)) <= 1e-15, name
    assert checked == 3


@pytest.mark.parametrize(
    "norm, expected",
    [
        (PNorm(2), True),
        (PNorm(1.5), True),
        (PNorm(1), False),
        (PNorm(math.inf), False),
        (Hexagonal(), False),
        (PolygonGauge(SQUARE), False),
        (DiskIntersection([(0.5, 0.0), (-0.5, 0.0)], 1.25), True),
        (Pushforward(PNorm(1.5), [[2.0, 1.0], [0.0, 1.0]]), True),
    ],
)
def test_strict_convexity(norm, expected):
    assert norm.is_strictly_convex is expected


def test_pushforward_definition():
    T = np.array([[1.2, 0.4], [-0.2, 0.9]])
    Tinv = np.linalg.inv(T)
    push = Pushforward(Hexagonal(), T)
    rng = np.random.default_rng(3)
    for v in rng.uniform(-2.0, 2.0, size=(50, 2)):
        assert push.value(v) == pytest.approx(Hexagonal().value(Tinv @ v), rel=1e-12)


def test_hexagonal_sphere_vertices():
    corners = Hexagonal().structure().corners
    assert sorted(map(tuple, np.asarray(corners).round(12))) == sorted(HEX_VERTICES)


def test_pushforward_transports_corners():
    T = np.array([[1.2, 0.4], [-0.2, 0.9]])
    push = Pushforward(Hexagonal(), T)
    got = sorted(map(tuple, np.asarray(push.structure().corners).round(9)))
    want = sorted(tuple(np.round(T @ np.asarray(v, dtype=float), 9)) for v in HEX_VERTICES)
    assert got == want


def test_exits_hand_cases(monkeypatch, corpus):
    # closed forms: the line y = 0.6 on l2, an axis line on l3
    assert PNorm(2).exits([0.0, 0.6], [1.0, 0.0]) == pytest.approx((-0.8, 0.8), abs=1e-15)
    half = (1.0 - 0.5 ** 3) ** (1.0 / 3.0)
    assert PNorm(3).exits([0.5, 0.0], [0.0, 2.0]) == pytest.approx((-half / 2, half / 2), abs=1e-15)
    # general lines, 50 each on every corpus sphere and on a mirrored one:
    # both ends on the sphere, the chord inside it
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.3, 0.3, size=(50, 2))
    b = rng.normal(size=(50, 2))
    for norm in (*corpus.values(), Pushforward(corpus["lens"], [[0.0, 1.0], [1.0, 0.0]])):
        for ai, bi in zip(a, b):
            lo, hi = norm.exits(ai, bi)
            assert type(lo) is type(hi) is float and lo < hi, norm
            assert np.abs(norm.value(np.array([ai + lo * bi, ai + hi * bi])) - 1.0).max() <= 1e-14, norm
            assert norm.value(ai + 0.5 * (lo + hi) * bi) < 1.0, norm
        # a line outside the ball misses it: NaN at both ends
        assert np.isnan(norm.exits([3.0, 3.0], [1.0, -1.0])).all(), norm
    # lines that cross the disk the Newton search starts from but miss the ball
    assert np.isnan(PNorm(3).exits([1.05, 0.0], [-0.01, 1.0])).all()
    assert np.isnan(PNorm(1.5).exits([0.7, 0.7], [1.0, -1.0])).all()
    # a search that needs more than the cap of steps raises
    monkeypatch.setattr(norms, "_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError):
        PNorm(3).exits([0.1, 0.2], [1.0, 0.3])
    # polygons: a line along an edge of linf holds all of it and a parallel
    # line beyond it misses; a line through a vertex and otherwise outside
    # the ball touches it there only
    assert PNorm(math.inf).exits([0.0, 1.0], [1.0, 0.0]) == (-1.0, 1.0)
    assert np.isnan(PNorm(math.inf).exits([0.0, 1.5], [1.0, 0.0])).all()
    lo, hi = PNorm(math.inf).exits([1.0, 1.0], [1.0, -1.0])
    assert lo == hi == 0.0
    lo, hi = Hexagonal().exits([0.5, 2.0], [0.5, -1.0])
    assert lo == hi == 1.0


def test_exits_reject_a_bad_point_or_direction(corpus):
    # a zero, non-finite or underflowing direction, or a non-finite point,
    # is refused on every family instead of giving NaN or an infinite chord
    for name, norm in corpus.items():
        for b in ((0.0, 0.0), (math.nan, 1.0), (1.0, -math.inf), (1e-200, 0.0)):
            with pytest.raises(PreconditionError):
                norm.exits([0.1, 0.2], b)
        with pytest.raises(PreconditionError):
            norm.exits([math.inf, 0.2], [1.0, 0.0])


# The batched exits the package ran while its callers could pass many lines,
# kept as the reference for the one-line float kernels.  Two elementary steps
# are pinned to what the kernels do on any machine: powers come from libm one
# element at a time (numpy's SIMD power may differ by one ulp, and a near-tangent
# root amplifies that to 1e-9), and 2x2 products are rounded once per product
# and sum (a BLAS call may fuse them).


def _ref_pow(x, p):
    return np.array([v ** p if v >= 0.0 else math.nan for v in x.ravel().tolist()]).reshape(x.shape)


def _ref_times(v, m):
    # rows of v times m.T
    return np.column_stack([v[:, 0] * m[0, 0] + v[:, 1] * m[0, 1],
                            v[:, 0] * m[1, 0] + v[:, 1] * m[1, 1]])


def _ref_circle_exits(a, b, centers, radius):
    dx = a[:, 0:1] - centers[None, :, 0]
    dy = a[:, 1:2] - centers[None, :, 1]
    bx, by = b[:, 0:1], b[:, 1:2]
    bb = bx * bx + by * by
    db = dx * bx + dy * by
    with np.errstate(invalid="ignore"):
        sq = np.sqrt(db * db - bb * (dx * dx + dy * dy - radius * radius))
    return (-db - sq) / bb, (-db + sq) / bb


def _ref_polygon_exits(w, a, b):
    nxt = np.roll(w, -1, axis=0)
    n = np.column_stack([nxt[:, 1] - w[:, 1], w[:, 0] - nxt[:, 0]])
    room = (w[:, 0] * nxt[:, 1] - w[:, 1] * nxt[:, 0])[None, :] - (a[:, :1] * n[:, 0] + a[:, 1:] * n[:, 1])
    rate = b[:, :1] * n[:, 0] + b[:, 1:] * n[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = room / rate
    lo = np.where(rate < 0.0, s, -np.inf).max(axis=1)
    hi = np.where(rate > 0.0, s, np.inf).min(axis=1)
    miss = ~(lo <= hi) | ((rate == 0.0) & (room < 0.0)).any(axis=1)
    lo[miss] = hi[miss] = np.nan
    return lo, hi


def _ref_newton_exits(p, a, b):
    lo, hi = _ref_circle_exits(a, b, np.zeros((1, 2)), max(1.0, 2.0 ** (0.5 - 1.0 / p)))
    n = len(a)
    s = np.concatenate([lo[:, 0], hi[:, 0]])
    side = np.repeat([-1.0, 1.0], n)
    a, b = np.concatenate([a, a]), np.concatenate([b, b])
    live = ~np.isnan(s)
    for _ in range(100):
        if not live.any():
            return s[:n], s[n:]
        z = a + s[:, None] * b
        m = np.abs(z).max(axis=1)
        r = np.abs(z) / m[:, None]
        nz = m * _ref_pow(_ref_pow(r[:, 0], p) + _ref_pow(r[:, 1], p), 1.0 / p)
        g = np.sign(z) * _ref_pow(np.abs(z) / nz[:, None], p - 1.0)
        slope = g[:, 0] * b[:, 0] + g[:, 1] * b[:, 1]
        outside = live & (nz > 1.0)
        inward = side * slope > 0.0
        s[outside & ~inward] = np.nan
        step = np.divide(nz - 1.0, slope, out=np.zeros(2 * n), where=outside & inward)
        s -= step
        live = outside & inward & (np.abs(step) > 2.0 ** -50 * (1.0 + np.abs(s)))
    raise ArithmeticError("no convergence in 100 Newton steps")


def _ref_exits(norm, a, b):
    if isinstance(norm, Pushforward):
        return _ref_exits(norm.base, _ref_times(a, norm.inv), _ref_times(b, norm.inv))
    if isinstance(norm, DiskIntersection):
        lo, hi = _ref_circle_exits(a, b, norm.centers, norm.radius)
        lo, hi = lo.max(axis=1), hi.min(axis=1)
        miss = ~(lo <= hi)
        lo[miss] = hi[miss] = np.nan
        return lo, hi
    if isinstance(norm, PNorm) and norm.p == 2.0:
        lo, hi = _ref_circle_exits(a, b, np.zeros((1, 2)), 1.0)
        return lo[:, 0], hi[:, 0]
    if not norm.is_strictly_convex:
        return _ref_polygon_exits(norm.structure().vertices, a, b)
    lo = np.full(len(a), np.nan)
    hi = lo.copy()
    axis = ((a[:, 1] == 0.0) & (b[:, 0] == 0.0)) | ((a[:, 0] == 0.0) & (b[:, 1] == 0.0))
    if axis.any():
        alpha = np.abs(a[axis, 0] + a[axis, 1])
        beta = np.abs(b[axis, 0] + b[axis, 1])
        half = _ref_pow(1.0 - _ref_pow(alpha, norm.p), 1.0 / norm.p) / beta
        lo[axis], hi[axis] = -half, half
    if not axis.all():
        lo[~axis], hi[~axis] = _ref_newton_exits(norm.p, a[~axis], b[~axis])
    return lo, hi


def _assert_exits_match_reference(norm, a, b, what):
    want_lo, want_hi = _ref_exits(norm, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    for k, (ak, bk) in enumerate(zip(a, b)):
        for got, want in zip(norm.exits(ak, bk), (want_lo[k], want_hi[k])):
            assert math.isnan(got) == math.isnan(want), (what, ak, bk, got, want)
            assert not abs(got - want) > 1e-14, (what, ak, bk, got, want)


def test_exits_match_batch_reference(corpus):
    # |ds| <= 1e-14 and the same NaN ends, on every corpus norm and a
    # pushforward with det < 0: axis lines on [-1.3, 1.3] (misses among
    # them), within 1e-11 of each axis extreme and through the origin;
    # seeded lines with unit directions; lines through each corner
    rng = np.random.default_rng(109)
    mirrored = Pushforward(corpus["lens"], [[0.0, 1.0], [1.0, 0.0]])
    for name, norm in (*corpus.items(), ("lens_mirrored", mirrored)):
        ext = extreme_points(unit_sphere(norm))
        a, b = [], []
        for axis in (0, 1):
            ends = np.array([ext["EN"[axis]].value, -ext["WS"[axis]].value])
            near = (ends[:, None] + [-1e-11, -1e-12, 0.0, 1e-12, 1e-11]).ravel()
            for val in np.concatenate([rng.uniform(-1.3, 1.3, 40), near, [0.0]]):
                a.append((val, 0.0) if axis == 0 else (0.0, val))
                b.append((0.0, 1.0) if axis == 0 else (1.0, 0.0))
        th = rng.uniform(0.0, 2.0 * math.pi, 200 + 8 * len(norm.structure().corners))
        units = np.column_stack([np.cos(th), np.sin(th)])
        a.extend(rng.uniform(-1.3, 1.3, size=(200, 2)))
        a.extend(np.repeat(norm.structure().corners, 8, axis=0))
        b.extend(units)
        _assert_exits_match_reference(norm, a, b, name)
    # named cases: an axis line beyond l3's extreme, whose closed form has a
    # negative base; lines parallel to an edge of linf and of the hexagon;
    # a line through the origin on l1.5
    cases = [(PNorm(3), (1.2, 0.0), (0.0, 1.0), (math.nan, math.nan)),
             (PNorm(math.inf), (0.0, 0.5), (1.0, 0.0), (-1.0, 1.0)),
             (PNorm(math.inf), (0.0, 1.5), (1.0, 0.0), (math.nan, math.nan)),
             (Hexagonal(), (0.0, 0.0), (1.0, 1.0), (-1.0, 1.0)),
             (Hexagonal(), (0.5, 0.0), (-1.0, -1.0), (-0.5, 1.0)),
             (PNorm(1.5), (0.0, 0.0), (0.6, 0.8), (-1.0 / PNorm(1.5).value((0.6, 0.8)),
                                                  1.0 / PNorm(1.5).value((0.6, 0.8))))]
    for norm, a, b, want in cases:
        _assert_exits_match_reference(norm, [a], [b], norm)
        assert np.allclose(norm.exits(a, b), want, rtol=1e-15, atol=0.0, equal_nan=True), (norm, a, b)


@settings(max_examples=60, deadline=None)
@given(v=st.tuples(finite_coord, finite_coord), alpha=st.sampled_from([-2.0, -0.5, 3.0]))
def test_homogeneity(v, alpha):
    v = np.asarray(v)
    for norm in _families():
        base = float(norm.value(v))
        assert float(norm.value(alpha * v)) == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)
        assert float(norm.value(-v)) == pytest.approx(base, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    u=st.tuples(finite_coord, finite_coord),
    v=st.tuples(finite_coord, finite_coord),
)
def test_triangle_inequality(u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    for norm in _families():
        assert float(norm.value(u + v)) <= float(norm.value(u)) + float(norm.value(v)) + 1e-12


def test_triangle_inequality_bulk():
    rng = np.random.default_rng(19)
    u = rng.uniform(-10.0, 10.0, size=(10_000, 2))
    v = rng.uniform(-10.0, 10.0, size=(10_000, 2))
    for norm in _families():
        slack = norm.value(u) + norm.value(v) - norm.value(u + v)
        assert float(np.min(slack)) >= -1e-12


def test_positivity_and_zero():
    for norm in _families():
        assert float(norm.value((0.0, 0.0))) == 0.0
        rng = np.random.default_rng(5)
        vs = rng.uniform(-1.0, 1.0, size=(50, 2))
        vs = vs[np.abs(vs).max(axis=1) > 1e-6]
        assert np.all(np.asarray(norm.value(vs)) > 0.0)


def test_spec_roundtrip():
    for norm in _families():
        clone = norm_from_spec(norm.to_spec())
        rng = np.random.default_rng(23)
        vs = rng.uniform(-2.0, 2.0, size=(50, 2))
        assert np.allclose(norm.value(vs), clone.value(vs), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ({}, "family"),
        ({"family": "warp"}, "family"),
        ({"family": "p"}, "p"),
        ({"family": "p", "p": 0.5}, "p"),
        ({"family": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0]]}, "vertices"),
        ({"family": "pushforward", "base": {"family": "p", "p": 2},
          "matrix": [[1, 1], [1, 1]]}, "matrix"),
    ],
)
def test_spec_validation_errors(obj, fragment):
    with pytest.raises(SpecError) as err:
        norm_from_spec(obj)
    assert fragment in str(err.value)
