"""Natural parameterization geometry: periods, evaluation, side derivatives."""

import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from normplane import cli, norms
from normplane.birkhoff import birkhoff_margin, is_birkhoff_orth, orth_cone, perp_point
from normplane.diffdetect import _check_unit, _oracle_status, far_field_profile, nd_oracle
from normplane.errors import PreconditionError, SpecError
from normplane.isometry import (
    chord_triple,
    equilateral_triples,
    fit_affine,
    fit_linear,
    linear_map,
    nondiff_set,
    staircase,
    table_map,
    zigzag,
)
from normplane.norms import DiskIntersection, Hexagonal, Norm, PNorm, Pushforward
from normplane.corpus import PUSH_MATRIX, corpus_norms, double_drop_curve, drop_curve
from normplane import curves
from normplane.curves import (
    ON_CURVE_TOL,
    NaturalParam,
    _nearest_edge,
    _on_curve_residual,
    build_natural_param,
    curve_from_spec,
    curve_to_spec,
    extreme_points,
    line_crossings,
    sampled_curve,
    unit_sphere,
)

# self-circumference of each corpus sphere, frozen from the implementation
# at the default resolution; analytic anchors where they exist (polygons,
# 2*pi for the round circle) confirm the first digits
FROZEN_PERIODS = {
    "l1": 8.0,
    "l1_5": 6.51953569711154,
    "l2": 6.28318526867592,
    "l3": 6.51953591599912,
    "linf": 8.0,
    "hexagonal": 6.0,
    "twelvegon": 6.43078061834695,
    "lens": 6.36299155272721,
    "sixdisk": 6.26519777143432,
}


def test_frozen_periods(params):
    for name, want in FROZEN_PERIODS.items():
        assert params[name].period == pytest.approx(want, abs=1e-9), name


def test_round_circle_period_is_two_pi(params):
    assert params["l2"].period == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_polygon_periods_exact(params):
    # diamond and square both have sphere perimeter 8 in their own norm
    assert params["l1"].period == pytest.approx(8.0, abs=1e-12)
    assert params["linf"].period == pytest.approx(8.0, abs=1e-12)
    assert params["hexagonal"].period == pytest.approx(6.0, abs=1e-12)


def test_basepoint_and_quarter_turn():
    # a sphere table that is not a polygon starts at polar angle 0
    p = build_natural_param(unit_sphere(PNorm(2)))
    assert np.allclose(p.point_at(0.0), [1.0, 0.0], atol=1e-12)
    assert np.allclose(p.point_at(p.period / 4.0), [0.0, 1.0], atol=1e-6)


def test_square_edge_walk():
    p = build_natural_param(unit_sphere(PNorm(math.inf)))
    t = p.locate((1.0, 1.0))
    # two units of sup-norm arc length along the top edge
    assert np.allclose(p.point_at(t + 2.0), [-1.0, 1.0], atol=1e-9)
    assert np.allclose(p.point_at(t), [1.0, 1.0], atol=1e-12)


def test_side_derivatives_round_circle():
    p = build_natural_param(unit_sphere(PNorm(2)))
    info = p.side_derivative_info(0.0)
    assert np.allclose(info.right, [0.0, 1.0], atol=1e-6)
    assert np.allclose(info.left, [0.0, 1.0], atol=1e-6)
    assert info.gap <= 1e-6


def test_side_derivatives_square_corner():
    p = build_natural_param(unit_sphere(PNorm(math.inf)))
    info = p.side_derivative_info(p.locate((1.0, 1.0)))
    # incoming edge rises along x = 1, outgoing edge runs left along y = 1
    assert np.allclose(info.left, [0.0, 1.0], atol=1e-12)
    assert np.allclose(info.right, [-1.0, 0.0], atol=1e-12)
    assert info.exact
    assert info.gap > 0.5


def test_side_derivatives_hexagon_corner(params):
    p = params["hexagonal"]
    t = p.locate(np.array([0.0, 1.0]))
    info = p.side_derivative_info(t)
    assert info.gap > 1e-3
    assert not np.allclose(info.left, info.right, atol=1e-3)


AXIS_DIRS = {"E": (1.0, 0.0), "N": (0.0, 1.0), "W": (-1.0, 0.0), "S": (0.0, -1.0)}


def _assert_unit_values(ext):
    # every set's value is its support value max(points @ d), 1 on these unit spheres
    for name, d in AXIS_DIRS.items():
        assert ext[name].value == float(np.max(ext[name].points @ np.array(d))), name
        assert ext[name].value == pytest.approx(1.0, abs=1e-12), name


def test_extreme_points_square():
    ext = extreme_points(unit_sphere(PNorm(math.inf)))
    assert set(ext) == {"E", "N", "W", "S"}
    for es in ext.values():
        assert es.is_segment
    east = np.asarray(ext["E"].points)
    assert sorted(map(tuple, east.round(12))) == [(1.0, -1.0), (1.0, 1.0)]
    _assert_unit_values(ext)


def test_extreme_points_circle():
    ext = extreme_points(unit_sphere(PNorm(2)))
    for name, want in [("E", (1, 0)), ("N", (0, 1)), ("W", (-1, 0)), ("S", (0, -1))]:
        es = ext[name]
        assert not es.is_segment
        assert np.allclose(es.points[0], want, atol=1e-7)
    _assert_unit_values(ext)


def test_extreme_points_hexagon():
    ext = extreme_points(unit_sphere(Hexagonal()))
    east = ext["E"]
    assert east.is_segment
    assert sorted(map(tuple, np.asarray(east.points).round(12))) == [(1.0, 0.0), (1.0, 1.0)]
    _assert_unit_values(ext)


def test_line_crossings_square():
    sq = unit_sphere(PNorm(math.inf))
    comps = line_crossings(sq, 0, 0.0)  # vertical line x = 0
    assert len(comps) == 2
    pts = sorted(tuple(np.round(0.5 * (lo + hi), 12)) for lo, hi, seg in comps)
    assert pts == [(0.0, -1.0), (0.0, 1.0)]
    edge = line_crossings(sq, 0, 1.0)
    assert len(edge) == 1
    lo, hi, seg = edge[0]
    assert seg
    assert sorted([tuple(np.round(lo, 12)), tuple(np.round(hi, 12))]) == [(1.0, -1.0), (1.0, 1.0)]


def test_line_crossings_drop_flat_edges(drop):
    # the 256 sampled edges on each flat side are one component, not 256
    for axis, want in ((0, [(1.0, 0.0), (1.0, 1.0)]), (1, [(0.0, 1.0), (1.0, 1.0)])):
        comps = line_crossings(drop, axis, 1.0)
        assert len(comps) == 1
        lo, hi, seg = comps[0]
        assert seg
        assert np.allclose([lo, hi], want, rtol=0.0, atol=1e-15)


# -- line crossings against the slow paths they replace -------------------


def _loop_polygon_crossings(verts, axis, val):
    # the edge-by-edge loop line_crossings ran before, one segment per edge
    n = len(verts)
    scale = max(1.0, float(np.abs(verts).max()))
    tol = 1e-10 * scale
    other = 1 - axis
    segs = []
    singles = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        sa = a[axis] - val
        sb = b[axis] - val
        if abs(sa) <= tol and abs(sb) <= tol:
            segs.append((a.copy(), b.copy()))
        elif abs(sa) <= tol:
            singles.append(a.copy())
        elif abs(sb) <= tol:
            pass  # picked up as the next edge's start
        elif sa * sb < 0:
            u = sa / (sa - sb)
            singles.append(a + u * (b - a))
    comps = []
    for a, b in segs:
        lo, hi = (a, b) if a[other] <= b[other] else (b, a)
        comps.append((lo, hi, True))
    for p in singles:
        on_seg = any(lo[other] - tol <= p[other] <= hi[other] + tol for lo, hi, _ in comps)
        dup = any(abs(p[other] - q[0][other]) <= tol for q in comps if not q[2])
        if not on_seg and not dup:
            comps.append((p, p.copy(), False))
    comps.sort(key=lambda c: c[0][other])
    return comps


def _merge_runs(comps):
    # join segments that share an end, in sorted order: one per run of edges
    out = []
    for comp in comps:
        if comp[2] and out and out[-1][2] and np.array_equal(out[-1][1], comp[0]):
            out[-1] = (out[-1][0], comp[1], True)
        else:
            out.append(comp)
    return out


def _brentq_sphere_crossings(norm, axis, val):
    # the polar-angle root-finding line_crossings ran before on other spheres
    d = np.zeros(2)
    d[axis] = 1.0
    _, (p_hi, p_lo) = norm.support(np.stack([d, -d]))
    phi_hi = math.atan2(p_hi[1], p_hi[0])
    phi_lo = math.atan2(p_lo[1], p_lo[0])
    tol = 1e-11 * max(1.0, abs(p_hi[axis]), abs(p_lo[axis]))
    if val > p_hi[axis] + tol or val < p_lo[axis] - tol:
        return []
    if abs(val - p_hi[axis]) <= tol:
        return [(p_hi, p_hi.copy(), False)]
    if abs(val - p_lo[axis]) <= tol:
        return [(p_lo, p_lo.copy(), False)]

    def cross_on(a, b):
        # coordinate along the chain is monotone between the two extremes
        def f(phi):
            return float(norm.unit_point(phi)[axis]) - val
        span = (b - a) % (2.0 * math.pi)
        root = brentq(f, a, a + span, xtol=1e-14)
        return norm.unit_point(root)

    c1 = cross_on(phi_lo, phi_hi)
    c2 = cross_on(phi_hi, phi_lo + 2.0 * math.pi)
    other = 1 - axis
    comps = [(c1, c1.copy(), False), (c2, c2.copy(), False)]
    comps.sort(key=lambda c: c[0][other])
    return comps


def test_polygon_crossings_match_loop_reference(corpus, drop, double_drop):
    # bitwise equal to the loop once its per-edge segments are merged; every
    # vertex coordinate on the corpus polygons, a seeded 64 per axis on the
    # drop curves (the loop takes 12 ms a call on drop's 9728 edges), and
    # 200 seeded values per axis around each curve
    rng = np.random.default_rng(89)
    curves = {name: unit_sphere(n) for name, n in corpus.items()}
    curves = {name: c for name, c in curves.items() if c.is_polygonal}
    assert len(curves) == 8
    curves.update(drop=drop, double_drop=double_drop)
    merged = 0
    for name, curve in curves.items():
        verts = curve.points if curve.kind == "sampled" else curve.norm.structure().vertices
        for axis in (0, 1):
            coords = np.unique(verts[:, axis])
            if len(coords) > 64:
                # the extremes, drop's flat sides at 1 and a seeded 64
                coords = np.concatenate([[coords.min(), coords.max(), 1.0],
                                         rng.choice(coords, 64, replace=False)])
            lo, hi = float(verts[:, axis].min()), float(verts[:, axis].max())
            vals = np.concatenate([coords, rng.uniform(lo - 0.1, hi + 0.1, 200)])
            for val in vals:
                want = _loop_polygon_crossings(verts, axis, float(val))
                got = line_crossings(curve, axis, float(val))
                merged += len(want) - len(_merge_runs(want))
                want = _merge_runs(want)
                assert len(got) == len(want), (name, axis, val)
                for (glo, ghi, gseg), (wlo, whi, wseg) in zip(got, want):
                    assert gseg == wseg, (name, axis, val)
                    assert np.array_equal(glo, wlo) and np.array_equal(ghi, whi), (name, axis, val)
    assert merged >= 2 * 255  # the drop's flat edges were hit


def test_sphere_crossings_match_brentq_reference(corpus):
    # to 1e-13 on every smooth corpus sphere: seeded values, values within
    # 1e-12 of each axis extreme (one point) and values beyond it (none)
    rng = np.random.default_rng(97)
    curves = {name: unit_sphere(n) for name, n in corpus.items()}
    curves = {name: c for name, c in curves.items() if not c.is_polygonal}
    assert len(curves) == 10
    worst = 0.0
    for name, curve in curves.items():
        ext = extreme_points(curve)
        for axis, (up, down) in enumerate((("E", "W"), ("N", "S"))):
            top = float(ext[up].points[0][axis])
            bottom = float(ext[down].points[0][axis])
            near = [top - 1e-12, top - 3e-13, top, bottom, bottom + 3e-13, bottom + 1e-12]
            beyond = [top + 1e-10, top + 0.01, bottom - 1e-10, bottom - 0.01]
            for val in np.concatenate([rng.uniform(bottom, top, 60), near, beyond]):
                want = _brentq_sphere_crossings(curve.norm, axis, float(val))
                got = line_crossings(curve, axis, float(val))
                count = 1 if val in near else 0 if val in beyond else 2
                assert len(got) == len(want) == count, (name, axis, val)
                for (glo, ghi, gseg), (wlo, whi, wseg) in zip(got, want):
                    assert not gseg and not wseg
                    assert np.array_equal(glo, ghi)
                    worst = max(worst, float(np.abs(glo - wlo).max()))
    assert worst <= 1e-13


def _count_calls(monkeypatch, owners):
    # count every call of the named methods on the given classes
    calls = {}
    for cls, method in owners:
        orig = getattr(cls, method)
        key = "%s.%s" % (cls.__name__, method)
        calls[key] = 0

        def counting(self, *args, _orig=orig, _key=key):
            calls[_key] += 1
            return _orig(self, *args)

        monkeypatch.setattr(cls, method, counting)
    return calls


def test_quadratic_crossings_evaluate_no_norm(corpus, monkeypatch):
    # on l2, lens and sixdisk_push a crossing is a closed form over cached
    # axis extremes: after the first call, each line_crossings call makes
    # 0 value calls and 0 unit_point calls, whatever the line
    calls = _count_calls(monkeypatch, [(PNorm, "value"), (DiskIntersection, "value"),
                                       (Pushforward, "value"), (Norm, "unit_point")])
    rng = np.random.default_rng(101)
    for name in ("l2", "lens", "sixdisk_push"):
        curve = unit_sphere(corpus[name])
        line_crossings(curve, 0, 0.0)
        for axis in (0, 1):
            for val in np.concatenate([rng.uniform(-1.0, 1.0, 20), [-0.999, 0.999, 5.0]]):
                for key in calls:
                    calls[key] = 0
                line_crossings(curve, axis, float(val))
                assert sum(calls.values()) == 0, (name, axis, val, calls)


def test_newton_crossings_stop_within_cap(corpus, monkeypatch):
    # l1_5_push and l3_push cross by Newton steps; every line, near-tangent
    # ones included, stops within 40 steps, well inside the stated cap (20
    # at 1e-10 from an extreme): with the cap set to 40 none raises
    assert norms._NEWTON_STEPS == 100
    monkeypatch.setattr(norms, "_NEWTON_STEPS", 40)
    rng = np.random.default_rng(103)
    for name in ("l1_5_push", "l3_push"):
        curve = unit_sphere(corpus[name])
        ext = extreme_points(curve)
        for axis, (up, down) in enumerate((("E", "W"), ("N", "S"))):
            top = float(ext[up].points[0][axis])
            bottom = float(ext[down].points[0][axis])
            near = [top - 1e-10, top - 1e-7, top - 1e-4, bottom + 1e-10, bottom + 1e-6]
            for val in np.concatenate([rng.uniform(bottom, top, 100), near]):
                comps = line_crossings(curve, axis, float(val))
                assert len(comps) == 2, (name, axis, val)
                for p, _, _ in comps:
                    assert abs(float(curve.norm.value(p)) - 1.0) <= 1e-14, (name, axis, val)


def test_corner_params_hexagon(params):
    p = params["hexagonal"]
    cps = p.corner_params()
    assert len(cps) == 6
    # all six vertices are at integer arc length from the table's start
    assert np.allclose(np.sort(np.mod(cps, 1.0)), 0.0, atol=1e-9)


def test_locate_point_roundtrip(params):
    for name in ("l2", "hexagonal", "lens", "twelvegon"):
        p = params[name]
        L = p.period
        ts = np.linspace(0.0, L, 37, endpoint=False)
        back = np.array([p.locate(p.point_at(float(t))) for t in ts])
        err = np.abs((back - ts + L / 2.0) % L - L / 2.0)
        assert float(err.max()) <= 1e-7, name


def test_on_curve_residual(corpus, drop):
    # spheres: |norm(p) - 1|, so points normalized onto the sphere read ~0
    rng = np.random.default_rng(3)
    v = rng.standard_normal((64, 2))
    for name, norm in corpus.items():
        on = v / np.asarray(norm.value(v))[:, None]
        assert _on_curve_residual(unit_sphere(norm), on) <= 1e-15, name
        assert _on_curve_residual(unit_sphere(norm), on * (1 + 1e-5)) == pytest.approx(1e-5, rel=1e-6)
    # sampled polygons: distance to the nearest edge in the ambient norm, l1 here
    assert _on_curve_residual(drop, [[1.0, 1.0], [0.0, -1.0], [1.0, 0.3]]) <= 1e-16
    assert _on_curve_residual(drop, [1.0 + 5e-7, 0.5]) == pytest.approx(5e-7, abs=1e-15)
    assert _on_curve_residual(drop, [[1.0, 0.5], [0.5, 1.0 - 2e-6]]) == pytest.approx(2e-6, abs=1e-15)


def _dense_nearest_edges(verts, pts):
    """(index, fraction, distance) of the nearest edge to each point, every edge scored.

    The former per-point pass, in the same float operations, run on 16
    points at a time; it is the reference the angle search must reproduce
    exactly.
    """
    vx, vy = verts[:, 0], verts[:, 1]
    d = np.roll(verts, -1, axis=0) - verts
    dx, dy = d[:, 0], d[:, 1]
    dd = dx * dx + dy * dy
    out = []
    for chunk in np.split(pts, np.arange(16, len(pts), 16)):
        px, py = chunk[:, :1], chunk[:, 1:]
        s = (px - vx) * dx
        s += (py - vy) * dy
        s /= dd
        np.clip(s, 0.0, 1.0, out=s)
        err = np.hypot(s * dx + vx - px, s * dy + vy - py)
        best = np.argmin(err, axis=1)
        rows = np.arange(len(chunk))
        out.extend(zip(best.tolist(), s[rows, best].tolist(), err[rows, best].tolist()))
    return out


def _coarse_polygon():
    ang = 0.3 + 2.0 * math.pi * np.arange(7) / 7.0
    return sampled_curve(np.column_stack([1.3 * np.cos(ang), 0.8 * np.sin(ang)]),
                         ambient=PNorm(2.0))


def _edge_probes(verts, rng):
    """Vertices, edge midpoints, 2000 seeded on-edge points, and points 1e-3
    inside and outside, pushed along each sampled edge's outer normal."""
    n = len(verts)
    nxt = np.roll(verts, -1, axis=0)
    i = rng.integers(0, n, size=2000)
    u = rng.uniform(0.0, 1.0, size=2000)
    on = verts[i] + u[:, None] * (nxt[i] - verts[i])
    d = nxt[i] - verts[i]
    normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return np.concatenate([verts, 0.5 * (verts + nxt), on,
                           on[:200] - 1e-3 * normal[:200], on[:200] + 1e-3 * normal[:200]])


def test_nearest_edge_matches_every_edge_pass(drop, double_drop):
    rng = np.random.default_rng(17)
    for curve in (drop, double_drop, _coarse_polygon()):
        edges = curve._edges()
        probes = _edge_probes(curve.points, rng)
        for p, want in zip(probes, _dense_nearest_edges(curve.points, probes)):
            assert _nearest_edge(edges, p) == want, tuple(p)


def test_on_curve_queries_score_a_window_of_edges(drop, monkeypatch):
    # on-curve locate and residual queries never reach the pass over all edges
    scored = []
    score = curves._score_edges

    def counting(verts, idx, point):
        scored.append(len(idx))
        return score(verts, idx, point)

    param = build_natural_param(drop)
    pts = param.point_at(np.linspace(0.0, param.period, 97, endpoint=False))
    monkeypatch.setattr(curves, "_score_edges", counting)
    for p in pts:
        param.locate(p)
    assert _on_curve_residual(drop, pts) <= 1e-15
    assert len(scored) == 2 * len(pts)
    assert max(scored) == 2 * curves._EDGE_WINDOW + 1
    # a point off the curve does score every edge
    _on_curve_residual(drop, [[0.5, 0.5]])
    assert scored[-1] == len(drop.points)


def test_extreme_points_computed_once_and_read_only():
    curve = drop_curve()
    first = extreme_points(curve)
    second = extreme_points(curve)
    assert second is not first  # callers get their own dict of the shared sets
    for name, es in first.items():
        assert second[name] is es, name
        assert not es.points.flags.writeable, name
        with pytest.raises(ValueError):
            es.points[0, 0] = 0.0
    assert np.allclose(first["E"].points, [[1.0, 0.0], [1.0, 1.0]])


def test_structure_and_table_computed_once_and_read_only():
    # a curve computes its structure and its arc-length table once, with read-only arrays;
    # a sampled curve copies its points, so the caller's array stays writable
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    cases = {"sampled": sampled_curve(pts, ambient=PNorm(1.0)), "sphere": unit_sphere(PNorm(3.0))}
    for name, curve in cases.items():
        s = curve.structure()
        assert curve.structure() is s, name
        table = curve._table()
        assert curve._table() is table and build_natural_param(curve).knots_t is table["knots_t"], name
        arrays = [v for v in table.values() if isinstance(v, np.ndarray)]
        for arr in arrays + [s.corners, s.corner_in, s.corner_out]:
            assert not arr.flags.writeable, name
    assert pts.flags.writeable and cases["sampled"].points is not pts


def test_antipode_params(params):
    for name in ("l2", "hexagonal", "l1_5"):
        p = params[name]
        for t in np.linspace(0.0, p.period, 11, endpoint=False):
            s = p.antipode_t(float(t))
            assert np.allclose(p.point_at(s), -p.point_at(float(t)), atol=1e-8), name


def _point_at_reference(param, t):
    # the interpolation point_at computes, over every knot with np.mod and np.clip
    t = np.asarray(t, dtype=float)
    tm = np.mod(t.reshape(-1), param.period)
    i = np.clip(np.searchsorted(param.knots_t, tm, side="right") - 1, 0, len(param._seg_len) - 1)
    u = (tm - param.knots_t[i]) / param._seg_len[i]
    p = param.knots_p[i] * (1 - u)[:, None] + param.knots_p[i + 1] * u[:, None]
    if not param._polygonal:
        p = p / np.asarray(param.ambient.value(p))[:, None]
    return p.reshape(t.shape + (2,)) if t.ndim else p[0]


def test_point_at_matches_the_reference_bit_for_bit(params, corpus, drop):
    # one turn either side of [0, L), far turns, a ball sampler's sorted
    # rows, scalars and the edge values L, -1e-300 and -0.0, the last also
    # on a table whose first knot has a negative zero
    rng = np.random.default_rng(31)
    rows = np.array([0.2, 0.1, 0.05, 0.0125])[:, None] / 100.0 * np.arange(-105, 106)
    signed_zero = build_natural_param(sampled_curve([[1, -0.0], [0, 1], [-1, 0], [0, -1]],
                                                    ambient=PNorm(1)))
    assert math.copysign(1.0, signed_zero.knots_p[0, 1]) < 0.0
    for name, p in dict(params, drop=build_natural_param(drop), signed_zero=signed_zero).items():
        L = p.period
        cases = [rng.uniform(0.0, L, 400), rng.uniform(-L, 2.0 * L, 400),
                 rng.uniform(-50.0, 50.0, 400), rng.uniform(0.0, L, (3, 5)),
                 L, -1e-300, 0.0, -0.0, -L, 2.0 * L, float(rng.uniform(0.0, L)),
                 np.array([L, -1e-300, 0.0, -0.0]), np.zeros(0)]
        for t0 in np.concatenate([[0.0, 1e-3, L - 1e-3], rng.uniform(0.0, L, 4), p.corner_params()]):
            cases.append(t0 + rows)
        for t in cases:
            got, want = p.point_at(t), _point_at_reference(p, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, np.shape(t))


def test_shift_point_on_polygon_is_exact(params):
    p = params["hexagonal"]
    start = np.array([1.0, 0.0])
    assert np.allclose(p.shift_point(start, 1.0), [1.0, 1.0], atol=1e-12)
    assert np.allclose(p.shift_point(start, -1.0), [0.0, -1.0], atol=1e-12)


def test_periodicity(params):
    for name, p in params.items():
        ts = np.linspace(0.0, p.period, 7, endpoint=False)
        a = p.point_at(ts)
        b = p.point_at(ts + p.period)
        assert np.allclose(a, b, atol=1e-9), name


def test_unit_speed(params):
    rng = np.random.default_rng(29)
    for name in ("l2", "hexagonal", "lens", "l3", "sixdisk_push", "linf"):
        p = params[name]
        norm = p.ambient
        for t in rng.uniform(0.0, p.period, 50):
            info = p.side_derivative_info(float(t))
            assert abs(float(norm.value(info.left)) - 1.0) <= 1e-5, name
            assert abs(float(norm.value(info.right)) - 1.0) <= 1e-5, name


def test_injectivity(params):
    p = params["lens"]
    ts = np.linspace(0.0, p.period, 400, endpoint=False)
    pts = p.point_at(ts)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    d[np.arange(len(ts)), np.arange(len(ts))] = 1.0
    assert float(d.min()) > 1e-4


def test_sphere_points_on_sphere(params, corpus):
    for name, p in params.items():
        norm = corpus[name]
        ts = np.linspace(0.0, p.period, 64, endpoint=False)
        vals = np.asarray(norm.value(p.point_at(ts)))
        assert float(np.abs(vals - 1.0).max()) <= 1e-9, name


def test_arc_additivity(params):
    p = params["l1_5"]
    rng = np.random.default_rng(31)
    for _ in range(20):
        t = float(rng.uniform(0.0, p.period))
        d1, d2 = rng.uniform(0.0, 0.3, 2)
        start = p.point_at(t)
        one = p.shift_point(start, d1 + d2)[0]
        mid = p.shift_point(start, d1)[0]
        two = p.shift_point(mid, d2)[0]
        assert np.allclose(one, two, atol=1e-8)


# -- arc length measured afresh, independent of the parameter table -------


def _arc_piece(norm, lo, hi, rel_tol=1e-12):
    # chord sums over a corner-free polar-angle range, Richardson-corrected

    def chord_sum(k):
        pts = norm.unit_point(np.linspace(lo, hi, k + 1))
        return float(np.asarray(norm.value(np.diff(pts, axis=0))).sum())

    k = 16
    prev = chord_sum(k)
    while k < 2 ** 16:
        k *= 2
        cur = chord_sum(k)
        if abs(cur - prev) <= rel_tol * abs(cur) + 1e-15:
            return (4.0 * cur - prev) / 3.0
        prev = cur
    return (4.0 * cur - prev) / 3.0


def arc_length_between(norm, pa, pb):
    """Anticlockwise arc length of the unit sphere from point pa to point pb."""
    phi_a = math.atan2(pa[1], pa[0])
    span = (math.atan2(pb[1], pb[0]) - phi_a) % (2.0 * math.pi)
    corners = norm.structure().corners
    cuts = [0.0, span]
    for k in (-1, 0, 1):
        cand = np.arctan2(corners[:, 1], corners[:, 0]) + k * 2.0 * math.pi - phi_a
        cuts.extend(cand[(cand > 0) & (cand < span)])
    cuts = np.unique(np.asarray(cuts))
    return float(sum(_arc_piece(norm, phi_a + lo, phi_a + hi)
                     for lo, hi in zip(cuts[:-1], cuts[1:])))


def test_arc_length_table_matches_fresh_measurement(params, corpus):
    # four arcs per sphere, together one full turn, from an off-knot start;
    # the table's chord sums fall short of the arc by up to 3.6e-7 on
    # l1_5_push, whose curvature blows up where the sheared axes meet it
    for name, p in params.items():
        ts = p.period * (np.arange(5) + 0.37) / 4.0
        pts = p.point_at(ts)
        located = np.array([p.locate(q) for q in pts])
        for k in range(4):
            arc = arc_length_between(corpus[name], pts[k], pts[k + 1])
            assert arc == pytest.approx(ts[k + 1] - ts[k], abs=1e-6), name
            assert arc == pytest.approx((located[k + 1] - located[k]) % p.period, abs=1e-6), name


# -- arc stepping: the window search it replaced, kept as the reference ----

CURVED = ("l1_5", "l2", "l3", "lens", "sixdisk",
          "l1_5_push", "l2_push", "l3_push", "lens_push", "sixdisk_push")


def _window_grid(corner_phis, phi0, psi):
    grid = phi0 + np.linspace(-psi, psi, 4097)
    extra = [np.asarray([phi0])]
    for k in (-2, -1, 0, 1, 2):
        cand = corner_phis + k * 2.0 * math.pi
        sel = cand[(cand > phi0 - psi) & (cand < phi0 + psi)]
        if len(sel):
            extra.append(sel)
    grid = np.unique(np.concatenate([grid] + extra))
    keep = np.concatenate([[True], np.diff(grid) > 1e-13])
    grid = grid[keep]
    i0 = int(np.argmin(np.abs(grid - phi0)))
    return grid, i0


def _window_shift_point(p, anchor, deltas):
    """shift_point of a sphere by a 4097-angle window around the anchor.

    The window grows until it covers the steps, the cumulative chord sum
    is inverted on it, and two rounds on a 17-point grid refine each
    angle.  Its speed floor bounds the window's first width.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    norm = p.curve.norm
    corners = p.curve.structure().corners
    corner_phis = np.arctan2(corners[:, 1], corners[:, 0]) if len(corners) else np.zeros(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        speeds = p._seg_len / np.diff(p._rel)
    good = speeds[np.isfinite(speeds) & (speeds > 0)]
    speed_floor = float(good.min()) * 0.8 if len(good) else 0.1
    phi0 = math.atan2(anchor[1], anchor[0])
    dmax = float(np.abs(deltas).max())
    if dmax == 0.0:
        return norm.unit_point(np.full(len(deltas), phi0))
    psi = min(dmax / speed_floor * 1.3 + 1e-9, 3.0)
    for _ in range(8):
        grid, i0 = _window_grid(corner_phis, phi0, psi)
        pts = norm.unit_point(grid)
        seg = np.asarray(p.ambient.value(np.diff(pts, axis=0)))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        cum = cum - cum[i0]
        if cum[-1] >= dmax * 1.02 and -cum[0] >= dmax * 1.02:
            break
        psi = min(psi * 2.0, 3.1)
    j = np.clip(np.searchsorted(cum, deltas, side="right") - 1, 0, len(grid) - 2)
    slope = (cum[j + 1] - cum[j]) / (grid[j + 1] - grid[j])
    phi = grid[j] + (deltas - cum[j]) / slope
    for _ in range(2):
        frac = np.linspace(0.0, 1.0, 17)
        sub = grid[j][:, None] + (phi - grid[j])[:, None] * frac[None, :]
        sp = norm.unit_point(sub)
        small = np.asarray(p.ambient.value(np.diff(sp, axis=1))).sum(axis=1)
        phi = phi - (small - (deltas - cum[j])) / slope
    return norm.unit_point(phi)


@pytest.mark.parametrize("name", CURVED)
def test_oracle_matches_window_reference(params, name, monkeypatch):
    # 400 parameters per sphere, and 5e-4 and 2e-3 to either side of each corner
    p = params[name]
    ts = np.concatenate([np.arange(400) * (p.period / 400)]
                        + [c + np.array([-2e-3, -5e-4, 5e-4, 2e-3]) for c in p.corner_params()])
    got = [p.side_derivative_info(float(t)) for t in ts]
    monkeypatch.setattr(NaturalParam, "shift_point", _window_shift_point)
    want = [p.side_derivative_info(float(t)) for t in ts]
    # chord sums converge slowly next to l1_5's axis points, where the curvature is infinite
    tol = 1e-7 if name.startswith("l1_5") else 1e-9
    for t, a, b in zip(ts, got, want):
        assert _oracle_status(a, 1e-3) == _oracle_status(b, 1e-3), (name, t)
        assert float(np.abs(np.concatenate([a.left - b.left, a.right - b.right])).max()) <= tol, (name, t)


def _fine_arc(norm, pa, pb, sign, n):
    # signed arc from pa to pb, anticlockwise for sign > 0: a chord sum over
    # n equal angle steps with the corners as extra knots
    phi_a = math.atan2(pa[1], pa[0])
    span = (math.atan2(pb[1], pb[0]) - phi_a) % (2.0 * math.pi)
    lo, hi = (0.0, span) if sign > 0 else (span - 2.0 * math.pi, 0.0)
    corners = norm.structure().corners
    cuts = np.mod(np.arctan2(corners[:, 1], corners[:, 0]) - phi_a - lo, 2.0 * math.pi) + lo
    grid = np.sort(np.concatenate([np.linspace(lo, hi, n + 1), cuts[cuts < hi]]))
    pts = norm.unit_point(phi_a + grid)
    return math.copysign(float(np.asarray(norm.value(np.diff(pts, axis=0))).sum()), sign)


def test_shift_point_accuracy(params, corpus):
    # the bounds of NaturalParam.shift_point's docstring, at random anchors,
    # beside corners and at the axis points and their images under the
    # corpus shear, where l1_5 and l1_5_push have infinite curvature
    assert {n for n, p in params.items() if not p._polygonal} == set(CURVED)
    rng = np.random.default_rng(41)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    dirs = np.concatenate([dirs, dirs @ PUSH_MATRIX.T])
    for name in CURVED:
        p, norm = params[name], corpus[name]
        rel, floor = (1e-6, 5e-7) if name.startswith("l1_5") else (1e-8, 5e-8)
        ts = np.concatenate([rng.uniform(0.0, p.period, 3), p.corner_params()[:2] + 3e-4,
                             [p.locate(d / norm.value(d)) - 2e-6 for d in dirs]])
        for anchor in p.point_at(ts):
            for d in (1e-3, -1e-4, 1e-5, -1e-5):
                q = p.shift_point(anchor, d)[0]
                assert abs(_fine_arc(norm, anchor, q, d, 4096) - d) <= rel * abs(d) + 1e-14, (name, d)
            for d in (0.6, -0.3):
                q = p.shift_point(anchor, d)[0]
                assert abs(_fine_arc(norm, anchor, q, d, 2 ** 14) - d) <= floor, (name, d)


def test_side_derivatives_cost_under_a_quarter_window(params, monkeypatch):
    # the window search evaluated 4097 angles and more per call; seeded
    # Newton stepping evaluates about 850
    rows = []
    unit_point = Norm.unit_point

    def counting(self, theta):
        rows.append(np.size(theta))
        return unit_point(self, theta)

    monkeypatch.setattr(Norm, "unit_point", counting)
    for name in CURVED:
        p = params[name]
        for t in np.linspace(0.0, p.period, 7, endpoint=False):
            rows.clear()
            p.side_derivative_info(float(t) + 0.01)
            assert 0 < sum(rows) <= 4097 // 4, name


def test_drop_curve_shape(drop):
    st = drop.structure()
    assert len(st.corners) == 1
    assert np.allclose(st.corners[0], [1.0, 1.0], atol=1e-12)
    p = build_natural_param(drop)
    assert p.period == pytest.approx(8.0, abs=1e-12)
    # tangency points of the disk hull are smooth
    from normplane.diffdetect import nd_oracle
    for pt in ([1.0, 0.0], [0.0, 1.0]):
        t = p.locate(np.asarray(pt))
        assert nd_oracle(p, t) == "smooth"
    t = p.locate(np.array([1.0, 1.0]))
    assert nd_oracle(p, t) == "corner"


def test_double_drop_shape(double_drop):
    st = double_drop.structure()
    assert len(st.corners) == 2
    got = sorted(map(tuple, np.asarray(st.corners).round(12)))
    assert got == [(-1.0, -1.0), (1.0, 1.0)]
    pts = np.asarray(double_drop.points)
    n = len(pts)
    assert n % 2 == 0
    assert np.allclose(pts, -np.roll(pts, n // 2, axis=0), atol=1e-12)
    p = build_natural_param(double_drop)
    assert p.period == pytest.approx(8.0, abs=1e-12)


def test_corpus_curves_are_convex(params):
    for name, p in params.items():
        pts = p.point_at(np.linspace(0.0, p.period, 256, endpoint=False))
        e = np.roll(pts, -1, axis=0) - pts
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        assert float(cross.min()) >= -1e-12, name


def test_curve_spec_roundtrip(drop):
    spec = curve_to_spec(drop)
    clone = curve_from_spec(spec)
    assert np.allclose(np.asarray(spec["points"]), np.asarray(clone.points))
    assert clone.ambient.value((1.0, 1.0)) == pytest.approx(
        drop.ambient.value((1.0, 1.0)), rel=1e-12)


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ({}, "points"),
        ({"points": [[0, 0], [1, 0]], "ambient": {"family": "p", "p": 1}}, "points"),
        ({"points": [[1, 0], [0, 1], [-1, 0], [0, -1]],
          "ambient": {"family": "p", "p": 1}, "smooth": [True]}, "smooth"),
        ({"points": [[1, 0], [0, 1, 2], [-1, 0], [0, -1]],
          "ambient": {"family": "p", "p": 1}}, "points"),
        ({"points": [[1, 0], ["up", 1], [-1, 0], [0, -1]],
          "ambient": {"family": "p", "p": 1}}, "points"),
        ({"points": [[1, 0], [0, 1], [-1, 0], [0, -1]],
          "ambient": {"family": "p", "p": 1}, "smooth": [[True], [True, False], [], []]}, "smooth"),
    ],
)
def test_curve_spec_validation(obj, fragment):
    with pytest.raises(SpecError) as err:
        curve_from_spec(obj)
    assert fragment in str(err.value)


def test_sampled_curve_rejects_nonconvex():
    pts = [(1, 0), (0, 1), (0.1, 0.1), (-1, 0), (0, -1)]
    with pytest.raises((SpecError, PreconditionError)):
        sampled_curve(pts)


# -- lazy tables -----------------------------------------------------------


LAZY_CURVES = {name: unit_sphere(n) for name, n in corpus_norms().items()}
LAZY_CURVES.update(drop=drop_curve(), double_drop=double_drop_curve())

# first reads of a fresh param; e is a param read right after construction
FIRST_READS = {
    "period": lambda p, e: p.period,
    "point_at": lambda p, e: p.point_at(np.array([0.1, 1.3, 2.9, 7.7])),
    "locate": lambda p, e: p.locate(e.point_at(0.7)),
    "shift_point": lambda p, e: p.shift_point(e.point_at(1.1), [1e-3, -0.2]),
    "side_derivative_info": lambda p, e: vars(p.side_derivative_info(0.9)),
}


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _turned_to(norm, c):
    # the norm pushed forward by [[c0, c1], [-c1, c0]], which turns the direction of c onto
    # the positive x axis, to rounding: the turned sphere's table starts at c's image
    return Pushforward(norm, [[c[0], c[1]], [-c[1], c[0]]])


def _turned(curve):
    # the curve entered at another point: a sphere turned so that its table starts at the
    # image of the point one unit of arc from its start, a sampled curve's points rolled
    if curve.kind == "sphere":
        return unit_sphere(_turned_to(curve.norm, NaturalParam(curve).point_at(1.0)))
    k = len(curve.points) // 3
    return sampled_curve(np.roll(curve.points, -k, axis=0), np.roll(curve.smooth, -k),
                         ambient=curve.ambient)


def _fresh(curve):
    # the same curve as a new object, whose table is not computed yet
    if curve.kind == "sphere":
        return unit_sphere(curve.norm)
    return sampled_curve(curve.points, curve.smooth, ambient=curve.ambient)


@pytest.mark.parametrize("turned", [False, True])
@pytest.mark.parametrize("name", sorted(LAZY_CURVES))
def test_lazy_param_equals_eager(name, turned):
    # whichever read builds the table, knots, corners and outputs are bit for bit those
    # of a param read right after construction; each lazy param views a new copy of the
    # curve, so its first read computes the table
    curve = _turned(LAZY_CURVES[name]) if turned else LAZY_CURVES[name]
    eager = NaturalParam(curve)
    eager.knots_t  # builds the table now
    for read, first in FIRST_READS.items():
        lazy = NaturalParam(_fresh(curve))
        assert _same(first(lazy, eager), first(eager, eager)), (name, read)
        for attr in ("knots_t", "knots_p", "period", "corner_ts"):
            assert _same(getattr(lazy, attr), getattr(eager, attr)), (name, read, attr)


@pytest.mark.parametrize("name", sorted(LAZY_CURVES))
def test_unread_param_evaluates_no_norm(name, monkeypatch):
    # construction evaluates no norm; the first read builds the curve's table
    curve = _fresh(LAZY_CURVES[name])
    rows = []
    for cls in (PNorm, norms.PolygonGauge, Hexagonal, DiskIntersection, Pushforward):
        def counting(self, v, _orig=cls.__dict__["value"]):
            rows.append(np.size(v) // 2)
            return _orig(self, v)
        monkeypatch.setattr(cls, "value", counting)
    param = NaturalParam(curve)
    assert sum(rows) == 0
    assert param.period > 0 and sum(rows) > 0  # the counter sees the table's rows


def test_off_curve_point_is_named_by_locate(drop):
    # locate blames the point it was given
    for curve, off in ((unit_sphere(Hexagonal()), (1.000005, 0.5000025)),
                       (drop, (1.0, 1.001))):
        with pytest.raises(PreconditionError, match="^point does not lie on the curve$"):
            build_natural_param(curve).locate(np.array(off))


def test_one_on_curve_tolerance_in_the_ambient_norm(drop):
    # a point 0.9 * ON_CURVE_TOL off the curve in its ambient norm is on it for locate,
    # _on_curve_residual and the far-field unit check alike; one 1.1 times that is off.
    # On the drop's arc at 45 degrees its l1 offset is sqrt(2) times the Euclidean one
    diag = np.array([-1.0, -1.0]) / math.sqrt(2.0)
    for curve, on, out in ((unit_sphere(Hexagonal()), (1.0, 0.5), (1.0, 0.0)),
                           (unit_sphere(PNorm(2.0)), (0.6, 0.8), (0.6, 0.8)),
                           (drop, diag, diag / math.sqrt(2.0))):
        param = build_natural_param(curve)
        for scale in (0.9, 1.1):
            p = np.add(on, scale * ON_CURVE_TOL * np.asarray(out))
            assert (_on_curve_residual(curve, p) <= ON_CURVE_TOL) == (scale < 1.0)
            if scale < 1.0:
                param.locate(p)
                continue
            with pytest.raises(PreconditionError):
                param.locate(p)
            if curve.kind == "sphere":
                with pytest.raises(PreconditionError):
                    _check_unit(curve.norm, p, "z")


NAN = math.nan
L2 = PNorm(2.0)
# one NaN or infinite coordinate where a point on the curve, a unit vector, a nonzero vector,
# a basis, a map matrix, a table pair, a parameter, a step or a distance is needed; drop is
# the drop curve
NON_FINITE_CALLS = {
    "locate-sphere": lambda drop: build_natural_param(L2).locate((NAN, 0.0)),
    "locate-polygon": lambda drop: build_natural_param(drop).locate((NAN, 0.0)),
    "check-unit": lambda drop: _check_unit(L2, (NAN, 1.0), "z"),
    "zigzag": lambda drop: zigzag(drop, (1.0, 1.0), (NAN, 0.0)),
    "staircase": lambda drop: staircase(drop, (NAN, 0.0), -1, 1),
    "nondiff-set": lambda drop: nondiff_set(L2, (NAN, 1.0)),
    "linear-map": lambda drop: linear_map(L2, L2, [[NAN, 0.0], [0.0, 1.0]]),
    "fit-linear": lambda drop: fit_linear(linear_map(L2, L2, np.eye(2)), [(NAN, 0.0), (0.0, 1.0)]),
    "fit-affine": lambda drop: fit_affine(linear_map(L2, L2, np.eye(2)),
                                          [(NAN, 0.0), (0.0, 1.0), (-1.0, 0.0)]),
    "birkhoff-margin": lambda drop: birkhoff_margin(L2, (1.0, 0.0), (NAN, 1.0)),
    "is-birkhoff-orth": lambda drop: is_birkhoff_orth(L2, (NAN, 0.0), (0.0, 1.0)),
    "orth-cone": lambda drop: orth_cone(L2, (NAN, 1.0)),
    "orth-cone-inf": lambda drop: orth_cone(L2, (math.inf, 1.0)),
    "orth-cone-tol": lambda drop: orth_cone(L2, (1.0, 0.0), tol=NAN),
    "is-birkhoff-orth-tol": lambda drop: is_birkhoff_orth(L2, (1.0, 0.0), (0.0, 1.0), tol=NAN),
    "perp-point": lambda drop: perp_point(L2, (NAN, 1.0)),
    "chord-triple-nan": lambda drop: chord_triple(L2, (NAN, 1.0)),
    "chord-triple-inf": lambda drop: chord_triple(L2, (math.inf, 1.0)),
    "chord-triple-nan-y": lambda drop: chord_triple(L2, (1.0, NAN)),
    "equilateral-target": lambda drop: equilateral_triples(L2, NAN, 1e-3),
    "equilateral-margin": lambda drop: equilateral_triples(L2, 1.7, NAN),
    "table-map-nan": lambda drop: table_map(L2, L2, [[0.0, 0.0], [NAN, 1.0]]),
    "table-map-inf": lambda drop: table_map(L2, L2, [[0.0, 0.0], [1.0, math.inf]]),
    "side-derivatives-nan": lambda drop: build_natural_param(L2).side_derivative_info(NAN),
    "side-derivatives-inf": lambda drop: build_natural_param(L2).side_derivative_info(math.inf),
    "nd-oracle": lambda drop: nd_oracle(L2, NAN),
    "shift-point": lambda drop: build_natural_param(L2).shift_point((1.0, 0.0), [NAN]),
    "far-field-profile": lambda drop: far_field_profile(L2, (0.0, 1.0), (1.0, 0.0), [NAN]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_a_non_finite_point_is_refused(drop, name):
    # a comparison with NaN is False, so each on-curve, unit or nonzero check is written to
    # fail unless its bound holds: an off-curve test reads `not err <= tol`.  The value is
    # refused before any numpy call warns of it
    with warnings.catch_warnings(), pytest.raises(PreconditionError):
        warnings.simplefilter("error")
        NON_FINITE_CALLS[name](drop)


# -- the mirrored half-turn table ---------------------------------------------


def _full_turn_period(norm):
    # the table as it was built over the full turn: chords between unit points
    # at _TABLE_KNOTS equal angles from angle 0, with every corner a knot
    corners = norm.structure().corners
    rel_c = np.mod(np.arctan2(corners[:, 1], corners[:, 0]), 2.0 * math.pi)
    rel = np.linspace(0.0, 2.0 * math.pi, curves._TABLE_KNOTS, endpoint=False)
    rel = np.unique(np.concatenate([rel, rel_c]))
    for c in rel_c:
        rel = rel[~((np.abs(rel - c) < 1e-12) & (rel != c))]
    pts = norm.unit_point(np.append(rel, 2.0 * math.pi))
    pts[-1] = pts[0]
    return float(np.sum(norm.value(np.diff(pts, axis=0))))


# a lens with its corners at angles 0 and pi: its table starts at a corner
CORNER_START = DiskIntersection([[0.0, 0.5], [0.0, -0.5]], 1.25)

# default: the norm as it is; generic: turned so the table starts at its point at angle 2.2;
# corner: turned so the table starts at its first corner (the lens is CORNER_START)
MIRROR_CASES = [(name, "default", 16384) for name in CURVED]
MIRROR_CASES += [(name, "generic", 16384) for name in CURVED]
MIRROR_CASES += [(name, "corner", 16384) for name in ("lens", "sixdisk", "lens_push", "sixdisk_push")]


@pytest.mark.parametrize("name, base, resolution", MIRROR_CASES)
def test_table_is_a_mirrored_half_turn(corpus, name, base, resolution):
    assert resolution == curves._TABLE_KNOTS
    norm = corpus[name]
    if base == "generic":
        norm = _turned_to(norm, norm.unit_point(2.2))
    elif base == "corner":
        norm = CORNER_START if name == "lens" else _turned_to(norm, norm.structure().corners[0])
    corners = norm.structure().corners
    p = NaturalParam(unit_sphere(norm))
    h = (len(p.knots_p) - 1) // 2
    assert len(p.knots_p) == 2 * h + 1 and h >= curves._TABLE_KNOTS // 2
    assert np.array_equal(p.knots_p[h:-1], -p.knots_p[:h])
    assert np.array_equal(p.knots_p[-1], p.knots_p[0])
    assert np.array_equal(p.knots_t[h:-1], p.knots_t[:h] + p.period / 2.0)
    assert p.knots_t[-1] == p.period
    # every corner is a knot, in both halves, with its own one-sided tangents
    assert len(p.corner_ts) == len(corners)
    assert np.isin(p.corner_ts, p.knots_t).all()
    for t in p.corner_ts:
        gap = np.abs(corners - p.knots_p[np.searchsorted(p.knots_t, t)]).max(axis=1)
        j = int(np.argmin(gap))
        info = p.side_derivative_info(t)
        assert gap[j] <= 1e-12 and info.exact
        assert np.array_equal(info.left, norm.structure().corner_in[j])
        assert np.array_equal(info.right, norm.structure().corner_out[j])
    if base == "corner":
        # the table starts at a corner; a turned corner a rounding below angle 0 has its
        # knot at t = period, the same point as t = 0
        assert 0.0 in np.mod(p.corner_ts, p.period)
        if name == "lens":
            assert np.array_equal(p.corner_ts, [0.0, p.period / 2.0])
    assert p.period == pytest.approx(_full_turn_period(norm), rel=1e-12)


# -- corners by knot index: the nearest-knot matching it replaced, kept as the reference


def _nearest_knot_corners(param):
    # each corner of the curve's structure goes to its nearest knot within 1e-9,
    # one Euclidean distance pass per corner, and the matches are sorted by parameter
    struct = param.curve.structure()
    pts, ts = param.knots_p[:-1], param.knots_t[:-1]
    cts, cin, cout = [], [], []
    for k, corner in enumerate(struct.corners):
        d = np.hypot(*(pts - corner[None, :]).T)
        j = int(np.argmin(d))
        if d[j] <= 1e-9:
            cts.append(float(ts[j]))
            cin.append(struct.corner_in[k])
            cout.append(struct.corner_out[k])
    order = np.argsort(cts) if cts else []
    return (np.asarray([cts[i] for i in order], dtype=float),
            np.asarray([cin[i] for i in order], dtype=float).reshape(-1, 2),
            np.asarray([cout[i] for i in order], dtype=float).reshape(-1, 2))


def test_polygon_corners_by_index_match_nearest_knot_reference(params, drop, double_drop):
    # an octagon with unflagged vertices at both ends of its point list and between
    octagon = sampled_curve([[1, 0], [0.7, 0.7], [0, 1], [-0.7, 0.7], [-1, 0], [-0.7, -0.7],
                             [0, -1], [0.7, -0.7]],
                            smooth=[False, True, False, False, True, True, False, False],
                            ambient=Hexagonal())
    cases = {name: p for name, p in params.items() if p._polygonal}
    cases.update(drop=build_natural_param(drop), double_drop=build_natural_param(double_drop),
                 octagon=build_natural_param(octagon))
    assert len(cases) == 11
    for name, p in cases.items():
        got = (p.corner_ts, p._corner_in, p._corner_out)
        for g, w in zip(got, _nearest_knot_corners(p)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert len(cases["octagon"].corner_ts) == 5


# -- one owner per piece of sphere geometry ----------------------------------


def _bytes(pairs):
    return [np.asarray(v).tobytes() for pair in pairs for v in pair]


def test_side_slopes_match_the_stencils_they_replace(params, drop):
    # side_slopes gives, bit for bit, each stencil it replaced: _fd_side's (+h, -h)
    # stacking, nondiff_set's (-h, +h) stacking over every b, and far_field_test's
    # two far_field_profile calls
    hs = np.asarray(curves._FD_STEPS)
    rng = np.random.default_rng(11)
    for name, p in dict(params, drop=build_natural_param(drop)).items():
        norm = p.ambient
        for t in rng.uniform(0.0, p.period, 4):
            a = p.point_at(t)
            pts = p.shift_point(a, np.concatenate([hs, -hs]))
            want = curves._one_sided(a, pts[:3], pts[3:])
            assert _bytes(p.side_slopes(a, lambda q: q)) == _bytes(want), name

            bs = p.point_at(rng.uniform(0.0, p.period, 24))
            slide = p.shift_point(a, np.concatenate([-hs, hs]))
            G = norm.value(slide[:, None, :] - bs[None, :, :])
            want = curves._one_sided(norm.value(a - bs), G[3:6], G[0:3])
            got = p.side_slopes(a, lambda q: norm.value(q[..., None, :] - bs))
            assert _bytes(got) == _bytes(want), name

            if p.curve.kind == "sphere":
                y = bs[0]
                want = curves._one_sided(float(norm.value(a - y)), far_field_profile(p, y, a, hs),
                                         far_field_profile(p, y, a, -hs))
                got = p.side_slopes(a, lambda q: norm.value(q - y))
                assert _bytes(got) == _bytes(want), name


def test_planes_are_freed_without_the_cycle_collector(specs_dir):
    # a curve's table holds no reference back to the curve or its norm, so a plane that
    # has been read dies with its last reference; only a norm's own sphere is a cycle
    specs = {name: json.loads((specs_dir / (name + ".json")).read_text()) for name in ("l2", "drop")}
    planes = {
        "norm-spec": lambda: cli._plane(specs["l2"], "l2.json"),
        "curve-spec": lambda: cli._plane(specs["drop"], "drop.json"),
        "sphere": lambda: build_natural_param(unit_sphere(PNorm(3.0))),
        "norm": lambda: build_natural_param(PNorm(3.0)),
    }
    gc.collect()
    gc.disable()
    try:
        alive = {}
        for name, make in planes.items():
            param = make()
            assert param.period > 0  # the table is computed and cached on the curve
            curve = weakref.ref(param.curve)
            del param
            alive[name] = curve() is not None
        assert alive == {"norm-spec": False, "curve-spec": False, "sphere": False, "norm": True}
        gc.collect()
        assert curve() is None  # the norm <-> sphere cycle goes to the collector
    finally:
        gc.enable()


def test_a_norm_has_one_sphere():
    # a norm's params all view its one sphere; a curve's view the curve; a param passes through
    norm = PNorm(3.0)
    first, second = build_natural_param(norm), build_natural_param(norm)
    assert first.curve is second.curve and first.curve.norm is norm
    assert build_natural_param(first) is first
    drop = drop_curve()
    param = build_natural_param(drop)
    assert param.curve is drop and build_natural_param(param) is param
    # one table per curve, computed on the first read and shared by every param of it
    assert "__table" not in vars(drop)
    assert build_natural_param(drop).knots_t is param.knots_t
    assert first.period == second.period and first.knots_p is second.knots_p
