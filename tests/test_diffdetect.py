"""Local metric and far-field differentiability detection, oracle-checked."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from normplane.errors import PreconditionError
from normplane.curves import build_natural_param, unit_sphere
from normplane.diffdetect import (
    EPS_GRID,
    _arc_ends,
    _eps_batches,
    _level_chords,
    build_metric_view,
    chord_partner,
    corner_basis,
    extended_eps_levels,
    far_field_profile,
    far_field_test,
    far_slope_reference,
    metric_nd_test,
    nd_classify_metric,
    nd_oracle,
    report_to_dict,
)

LENS_TIP_Y = math.sqrt(1.3125)


def _view(param):
    return build_metric_view(param)


def _near(dist, sample, center, eps, ball_sampler):
    # every in-ball point of the net and of the sampler, unordered
    pts = np.concatenate([sample, np.atleast_2d(ball_sampler(center, eps))])
    d = dist(pts, center)
    return pts[(d > 1e-12) & (d <= eps)]


def _exhaustive_chord(view, x, eps):
    # reference for the run-end search: the full chord matrix of both eps-arcs
    U = _near(view.dist, view.sample, x, eps, view.ball_sampler)
    V = _near(view.dist, view.sample, view.antipode_map(x), eps, view.ball_sampler)
    return float(np.min(view.dist(U[:, None, :], V[None, :, :])))


def _level_chords_per_level(dist, sample, x, ax, levels, ball_sampler):
    # reference for the batched search: one sampler call and one pass over
    # the whole net per level and side
    def ends(d, eps, circular):
        inside = (d > 1e-12) & (d <= eps)
        before = np.concatenate([inside[-1:] if circular else [False], inside[:-1]])
        after = np.concatenate([inside[1:], inside[:1] if circular else [False]])
        return np.flatnonzero(inside & ~(before & after))

    sides = [(c, dist(sample, c)) for c in (x, ax)]
    for eps in levels:
        U, V = (np.concatenate([
            sample[ends(d_net, eps, True)],
            ball[ends(dist(ball, c), eps, False)]])
            for c, d_net in sides for ball in [np.atleast_2d(ball_sampler(c, eps))])
        chords = dist(U[:, None, :], V[None, :, :])
        i, j = np.unravel_index(int(np.argmin(chords)), chords.shape)
        yield float(eps), float(chords[i, j]), U[i], V[j]


def _classify(param, view, n_uniform=36):
    L = param.period
    ts = np.sort(np.concatenate(
        [param.corner_params(), np.arange(n_uniform) * (L / n_uniform)]) % L)
    keep = np.concatenate([[True], np.diff(ts) > 1e-9])
    if keep.sum() > 1 and ts[0] + L - ts[-1] <= 1e-9:
        keep[-1] = False
    ts = ts[keep]
    rep = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                             targets=param.point_at(ts),
                             ball_sampler=view.ball_sampler)
    return ts, rep


def test_nd_oracle_examples(params):
    hexa = params["hexagonal"]
    assert nd_oracle(hexa, hexa.locate(np.array([0.0, 1.0]))) == "corner"
    circ = params["l2"]
    for t in np.linspace(0.0, circ.period, 17, endpoint=False):
        assert nd_oracle(circ, float(t)) == "smooth"
    square = params["linf"]
    assert nd_oracle(square, square.locate(np.array([1.0, 1.0]))) == "corner"


@pytest.mark.parametrize(
    "name, point, delta",
    [
        ("linf", (1.0, 1.0), 0.5),
        ("hexagonal", (0.0, 1.0), 0.5),
        ("hexagonal", (1.0, 1.0), 0.5),
        ("l1", (1.0, 0.0), 0.5),
    ],
)
def test_corner_basis_certified_delta(params, name, point, delta):
    basis = corner_basis(params[name], np.asarray(point))
    z1, z2 = basis.z_coords
    assert z1 > 0.0 and z2 > 0.0
    assert basis.delta_cert == pytest.approx(delta, abs=1e-12)
    # x = -lam*y + mu*z with positive coefficients
    M = np.column_stack([-np.asarray(basis.y), np.asarray(basis.z)])
    lam, mu = np.linalg.solve(M, np.asarray(basis.x))
    assert lam > 0.0 and mu > 0.0


def test_corner_basis_twelvegon_vertex(params):
    p = params["twelvegon"]
    vertex = p.point_at(p.corner_params()[0])
    basis = corner_basis(p, vertex)
    assert basis.delta_cert == pytest.approx(0.25, abs=1e-9)


def test_corner_basis_needs_a_corner(params):
    with pytest.raises(PreconditionError):
        corner_basis(params["l2"], np.array([1.0, 0.0]))


def test_metric_test_hexagon_corner(params):
    p = params["hexagonal"]
    view = _view(p)
    res = metric_nd_test(view.dist, view.antipode_map, view.sample,
                         np.array([0.0, 1.0]), 0.5,
                         eps_grid=(0.2, 0.1, 0.05, 0.02),
                         ball_sampler=view.ball_sampler)
    assert res.passed
    assert len(res.transcript) == 4


def test_metric_test_diamond_corner(params):
    p = params["l1"]
    view = _view(p)
    res = metric_nd_test(view.dist, view.antipode_map, view.sample,
                         np.array([1.0, 0.0]), 0.5,
                         ball_sampler=view.ball_sampler)
    assert res.passed


def test_metric_test_smooth_point_fails_for_every_delta(params):
    # a smooth point sheds every candidate delta once eps drops far enough
    p = params["l2"]
    view = _view(p)
    levels = extended_eps_levels(EPS_GRID)
    assert levels[-1] < 0.01
    for delta in (0.01, 0.1, 0.5, 1.0):
        res = metric_nd_test(view.dist, view.antipode_map, view.sample,
                             np.array([1.0, 0.0]), delta,
                             eps_grid=tuple(levels),
                             ball_sampler=view.ball_sampler)
        assert not res.passed, delta


def test_metric_witness_agrees_with_direct_search(params):
    # re-find the winning short chord by brute force over net and ball samples
    p = params["hexagonal"]
    view = _view(p)
    x = np.array([0.0, 1.0])
    eps = 0.1
    res = metric_nd_test(view.dist, view.antipode_map, view.sample, x, 0.5,
                         eps_grid=(eps,), ball_sampler=view.ball_sampler)
    _, u, v, chord, _ = res.transcript[0]
    U = _near(view.dist, view.sample, x, eps, view.ball_sampler)
    V = _near(view.dist, view.sample, view.antipode_map(x), eps, view.ball_sampler)
    best = math.inf
    for w in U:
        best = min(best, float(np.min(view.dist(w[None, :], V))))
    assert abs(chord - best) <= 1e-15
    assert chord == pytest.approx(float(view.dist(u, v)), abs=1e-15)
    # a corner admits a chord short of 2 by delta*eps, delta = 1/2 here,
    # up to the sampler's own granularity
    assert best <= 2.0 - 0.5 * eps + 2.0 * eps / 100.0


def test_run_end_search_matches_exhaustive_chords(params):
    # every corner and 8 seeded points per corpus sphere, at every level
    batches = _eps_batches(EPS_GRID)
    rng = np.random.default_rng(71)
    worst = 0.0
    for p in params.values():
        view = _view(p)
        ts = np.concatenate([p.corner_params(), rng.uniform(0.0, p.period, 8)])
        for x in p.point_at(ts):
            ax = view.antipode_map(x)
            got = list(_level_chords(view.dist, view.sample, x, view.antipode_map, batches,
                                     view.ball_sampler))
            assert [g[0] for g in got] == list(extended_eps_levels())
            for eps, chord, u, v in got:
                worst = max(worst, abs(chord - _exhaustive_chord(view, x, eps)))
                assert max(float(view.dist(u, x)), float(view.dist(v, ax))) <= eps + 1e-15
    assert worst <= 1e-15


@pytest.mark.parametrize("grid", [EPS_GRID, (0.15, 0.03)], ids=["default", "custom"])
def test_batched_levels_match_the_per_level_search(params, grid):
    # bit for bit: every level's eps, chord, u and v, on every corner and
    # 8 seeded points per corpus sphere
    batches = _eps_batches(grid)
    assert batches[0] + batches[1] == extended_eps_levels(grid)
    assert batches[0] == tuple(sorted(grid, reverse=True))
    rng = np.random.default_rng(72)
    for name, p in params.items():
        view = _view(p)
        ts = np.concatenate([p.corner_params(), rng.uniform(0.0, p.period, 8)])
        for x in p.point_at(ts):
            ax = view.antipode_map(x)
            got = list(_level_chords(view.dist, view.sample, x, view.antipode_map, batches,
                                     view.ball_sampler))
            want = list(_level_chords_per_level(view.dist, view.sample, x, ax,
                                                extended_eps_levels(grid), view.ball_sampler))
            assert len(got) == len(want) == len(extended_eps_levels(grid)), name
            for g, w in zip(got, want):
                assert g[:2] == w[:2], name
                assert g[2].tobytes() == w[2].tobytes() and g[3].tobytes() == w[3].tobytes(), name


@pytest.mark.parametrize(
    "d, circular, want",
    [
        # a run that wraps from the last net point to the first
        ([0.1, 0.2, 5.0, 5.0, 5.0, 0.15, 0.05], True, [1, 5]),
        # the excluded center splits one run into two
        ([5.0, 0.2, 0.1, 0.0, 0.1, 0.2, 5.0], True, [1, 2, 4, 5]),
        ([5.0, 5.0, 5.0, 5.0], True, []),
        ([5.0, 5.0, 5.0], False, []),
        # a linear sampler run keeps its array ends, a one-point run counts once
        ([0.1, 0.2, 0.1, 0.0, 0.3, 0.1, 5.0, 0.2], False, [0, 2, 5, 7]),
    ],
)
def test_arc_ends_hand_cases(d, circular, want):
    idx, ends = _arc_ends(np.array(d if circular else [d]), [0.25], circular=circular)
    assert idx[ends[0]].tolist() == want


def test_arc_ends_windowed_net_run_wraps():
    # the window holds the net points within the coarsest level; at the
    # finer level the run inside it wraps from the last point to the first
    d = np.array([0.1, 0.2, 5.0, 5.0, 5.0, 0.15, 0.05])
    idx, ends = _arc_ends(d, [0.25, 0.12], circular=True)
    assert idx.tolist() == [0, 1, 5, 6]
    assert [idx[row].tolist() for row in ends] == [[1, 5], [0, 6]]
    # linear rows, one per level, read each level against its own row
    rows = np.array([[0.3, 0.2, 0.1, 0.2], [0.3, 0.2, 0.1, 0.2]])
    idx, ends = _arc_ends(rows, [0.25, 0.15], circular=False)
    assert [idx[row].tolist() for row in ends] == [[1, 3], [2]]


def test_metric_route_compares_run_ends_only(params):
    # per target: the net once, from x only, the sampler's points around x
    # and at most 16 x 16 run-end pairs per level, never the full chord matrix
    view = _view(params["hexagonal"])
    pairs = [0]

    def counting(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        pairs[0] += int(np.prod(np.broadcast_shapes(a.shape, b.shape)[:-1]))
        return view.dist(a, b)

    rep = nd_classify_metric(counting, view.antipode_map, view.sample,
                             targets=np.array([[0.0, 1.0]]), ball_sampler=view.ball_sampler)
    assert rep.statuses() == ["corner"]
    levels_run = len(rep.entries[0].transcript)
    assert pairs[0] <= len(view.sample) + 211 * levels_run + 256 * levels_run


def test_ball_sampler_locates_each_center_once(corpus, monkeypatch):
    # each target is located once, not once per level, and its antipode never
    param = build_natural_param(unit_sphere(corpus["l3_push"]))
    view = _view(param)
    calls = [0]
    locate = param.locate

    def counting(point):
        calls[0] += 1
        return locate(point)

    monkeypatch.setattr(param, "locate", counting)
    targets = param.point_at(np.array([0.3, 1.1, 2.5]))
    rep = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                             targets=targets, ball_sampler=view.ball_sampler)
    assert min(len(e.transcript) for e in rep.entries) > 2
    assert calls[0] == len(targets)


def test_levels_are_sampled_in_two_batches(params):
    # around x only, one sampler call with the grid's radii and one with
    # its extension's; a smooth point decided inside the grid never
    # samples the extension, and the metric test reads its grid in one batch
    grid, extension = len(EPS_GRID), len(extended_eps_levels()) - len(EPS_GRID)
    calls = []

    def counting(view):
        def sampler(center, radius):
            calls.append(np.shape(radius))
            return view.ball_sampler(center, radius)
        return sampler

    for name, x, status, want in (
            ("hexagonal", [0.0, 1.0], "corner", [(grid,), (extension,)]),
            ("l2", [1.0, 0.0], "smooth", [(grid,)])):
        view = _view(params[name])
        calls.clear()
        rep = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                                 targets=np.array([x]), ball_sampler=counting(view))
        assert rep.statuses() == [status]
        assert calls == want, name
    assert len(rep.entries[0].transcript) <= grid
    calls.clear()
    metric_nd_test(view.dist, view.antipode_map, view.sample, np.array([1.0, 0.0]), 0.5,
                   ball_sampler=counting(view))
    assert calls == [(grid,)]


def test_ball_sampler_takes_an_array_of_radii(params):
    # one row of points per radius, each row the scalar call's points bit for bit
    view = _view(params["l3_push"])
    x = params["l3_push"].point_at(0.7)
    radii = np.array([0.2, 0.05, 0.0125])
    rows = view.ball_sampler(x, radii)
    assert rows.shape == (3, 211, 2)
    for r, row in zip(radii, rows):
        assert row.tobytes() == view.ball_sampler(x, float(r)).tobytes()
    assert view.ball_sampler(x, 0.1).shape == (211, 2)


def test_ball_sampler_commutes_with_the_antipode_map(corpus, params):
    # ball_sampler(-c, r) == -ball_sampler(c, r) bit for bit, at every corner,
    # 50 seeded points and the point on the positive x-axis with either sign
    # of zero; each side's rows stay centered on its own center
    rng = np.random.default_rng(73)
    radii = np.array(extended_eps_levels())
    for name, p in params.items():
        view = _view(p)
        e = corpus[name].unit_point(0.0)
        centers = np.concatenate([p.point_at(p.corner_params()).reshape(-1, 2),
                                  p.point_at(rng.uniform(0.0, p.period, 50)),
                                  [e, [e[0], -0.0]]])
        for c in centers:
            for r in (radii, 0.1):
                rows = view.ball_sampler(c, r)
                flipped = view.ball_sampler(view.antipode_map(c), r)
                assert flipped.tobytes() == (-rows).tobytes(), name
                assert np.abs(rows[..., 105, :] - c).max() <= 1e-6, name


def test_metric_route_needs_eps_below_one(params):
    # at eps >= 1 the arcs around x and -x meet and run ends are not enough
    view = _view(params["l2"])
    x = np.array([1.0, 0.0])
    with pytest.raises(PreconditionError):
        metric_nd_test(view.dist, view.antipode_map, view.sample, x, 0.5,
                       eps_grid=(0.2, 1.5), ball_sampler=view.ball_sampler)
    with pytest.raises(PreconditionError):
        nd_classify_metric(view.dist, view.antipode_map, view.sample, eps_grid=(1.0, 0.1),
                           targets=x[None, :], ball_sampler=view.ball_sampler)


def test_classification_counts(params):
    for name, want in (("hexagonal", 6), ("l2", 0), ("lens", 2)):
        p = params[name]
        view = _view(p)
        ts, rep = _classify(p, view)
        statuses = rep.statuses()
        assert statuses.count("corner") == want, name
        assert statuses.count("unreliable") == 0, name
        for t, st in zip(ts, statuses):
            assert st == nd_oracle(p, float(t)), (name, float(t))


def test_metric_view_sample_is_antipode_closed(params):
    # the net's second half is its first half negated, bit for bit
    for name, param in params.items():
        sample = _view(param).sample
        h = len(sample) // 2
        assert len(sample) == 2 * h, name
        assert np.array_equal(sample[h:], -sample[:h]), name


def _brentq_chord_partner(norm, x, y):
    # the reference: the far exit by a scalar root search, as chord_partner
    # found it before every family had Norm.exits
    def f(s):
        return float(norm.value(y + s * x)) - 1.0

    if f(1e-3) >= 0.0:
        return None
    s1 = brentq(f, 1e-3, 2.2, xtol=1e-13)
    if not 1e-6 < s1 < 2.0 - 1e-6:
        return None
    return y + s1 * x


def test_chord_partner_matches_brentq_reference(corpus, params):
    worst = 0.0
    for k, (name, norm) in enumerate(corpus.items()):
        p = params[name]
        rng = np.random.default_rng(300 + k)
        xs = p.point_at(rng.uniform(0.0, p.period, 300))
        ys = p.point_at(rng.uniform(0.0, p.period, 300))
        found = 0
        for x, y in zip(xs, ys):
            z, want = chord_partner(norm, x, y), _brentq_chord_partner(norm, x, y)
            assert (z is None) == (want is None), (name, x, y)
            if z is not None:
                found += 1
                worst = max(worst, float(np.abs(z - want).max()))
        assert found >= 80, name
    assert worst <= 1e-12


def test_chord_partner_rejects_chords_along_flat_edges(corpus):
    # y on an edge of a polygonal sphere, x along it either way: the chord
    # lies on the sphere, not inside the ball
    probes = 0
    for name, norm in corpus.items():
        if norm.structure().kind != "polygonal":
            continue
        w = norm.structure().vertices
        for a, b in zip(w, np.roll(w, -1, axis=0)):
            e = (b - a) / norm.value(b - a)
            for f in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
                for x in (e, -e):
                    probes += 1
                    assert chord_partner(norm, x, a + f * (b - a)) is None, (name, a, b, f)
    assert probes == 624


def test_chord_partner_accepts_arc_chords(corpus, params):
    # the same probes on a piecewise-arc sphere: y inside an arc, x along the
    # chord between the arc's corners; the arc bulges, so the chord is inside
    for name in ("lens", "sixdisk", "lens_push", "sixdisk_push"):
        norm, p = corpus[name], params[name]
        ts = p.corner_params()
        for t0, t1 in zip(ts, np.append(ts[1:], ts[0] + p.period)):
            c0, c1 = p.point_at(t0), p.point_at(t1)
            x = (c1 - c0) / norm.value(c1 - c0)
            for f in (0.1, 0.25):
                y = p.point_at(t0 + f * (t1 - t0))
                z = chord_partner(norm, x, y)
                assert z is not None, (name, t0, f)
                assert abs(float(norm.value(z)) - 1.0) <= 1e-14
                assert t0 < t0 + (p.locate(z) - t0) % p.period < t1
                assert np.abs(z - _brentq_chord_partner(norm, x, y)).max() <= 1e-12


def test_far_profile_matches_linear_law(params):
    p = params["hexagonal"]
    y = np.array([1.0, 1.0 / 3.0])
    z = np.array([1.0, 2.0 / 3.0])
    ts = np.linspace(-1.0 / 3.0 + 1e-6, 1.0 / 3.0 - 1e-6, 25)
    G = far_field_profile(p, y, z, ts)
    assert np.abs(G - (1.0 / 3.0 + ts)).max() <= 1e-12


def test_far_test_hexagon_blind_spot(params):
    # the corner at (0,1) is invisible to this far-field probe
    p = params["hexagonal"]
    x = np.array([0.0, 1.0])
    res = far_field_test(p, x, np.array([1.0, 1.0 / 3.0]),
                         np.array([1.0, 2.0 / 3.0]))
    assert res.verdict == "differentiable"
    assert res.slope_left == pytest.approx(1.0, abs=1e-9)
    assert res.slope_right == pytest.approx(1.0, abs=1e-9)
    assert nd_oracle(p, p.locate(x)) == "corner"


def test_far_test_round_circle(params):
    p = params["l2"]
    res = far_field_test(p, np.array([0.0, 1.0]),
                         np.array([0.6, -0.8]), np.array([0.6, 0.8]))
    assert res.verdict == "differentiable"


def test_far_test_lens_tip_and_slope_identity(params):
    p = params["lens"]
    lens = p.ambient
    tip = np.array([0.0, LENS_TIP_Y])
    c = 0.3
    y2 = math.sqrt(1.5625 - (c + 0.5) ** 2)
    y = np.array([c, -y2])
    z = np.array([c, y2])
    res = far_field_test(p, tip, y, z)
    assert res.verdict == "not_differentiable"
    ref = far_slope_reference(p, tip, z)
    assert res.slope_left == pytest.approx(ref, abs=1e-4)


def test_far_test_preconditions(params):
    p = params["l2"]
    with pytest.raises(PreconditionError):
        # chord not parallel to x
        far_field_test(p, np.array([0.0, 1.0]),
                       np.array([0.6, -0.8]), np.array([-0.6, 0.8]))
    lens_p = params["lens"]
    tip = np.array([0.0, LENS_TIP_Y])
    with pytest.raises(PreconditionError):
        # z itself sits at a corner
        far_field_test(lens_p, np.array([0.0, 1.0]) * 0 + tip,
                       -tip, tip)


def test_far_field_takes_a_norm_or_its_sphere_param(params, drop):
    p = params["lens"]
    tip = np.array([0.0, LENS_TIP_Y])
    y2 = math.sqrt(1.5625 - 0.8 ** 2)
    y, z = np.array([0.3, -y2]), np.array([0.3, y2])
    by_param = far_field_test(p, tip, y, z)
    by_norm = far_field_test(p.ambient, tip, y, z)
    assert (by_norm.slope_left, by_norm.slope_right) == (by_param.slope_left, by_param.slope_right)
    assert far_slope_reference(p.ambient, tip, z) == far_slope_reference(p, tip, z)
    # a sampled curve has no norm of its own to measure the far field in
    dp = build_natural_param(drop)
    with pytest.raises(PreconditionError):
        far_field_profile(dp, [0.0, -1.0], [1.0, 0.5], [0.0])
    with pytest.raises(PreconditionError):
        far_field_test(dp, [1.0, 0.0], [0.0, -1.0], [1.0, 0.5])


def test_report_serializes(params):
    p = params["hexagonal"]
    view = _view(p)
    _, rep = _classify(p, view, n_uniform=12)
    payload = report_to_dict(rep)
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
