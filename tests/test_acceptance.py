"""End-to-end acceptance: eleven numbered criteria, one test each.

Every test prints one criterion line (visible with -s or on failure)
and asserts the stated tolerances.  Criteria with runtime bounds time
themselves; everything is seeded, so reruns are exact repeats.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from normplane.birkhoff import birkhoff_margin, orth_cone
from normplane.curves import build_natural_param, target_params, unit_sphere
from normplane.diffdetect import (
    build_metric_view,
    chord_partner,
    corner_basis,
    far_field_profile,
    far_field_test,
    far_slope_reference,
    metric_nd_test,
    nd_classify_metric,
    nd_oracle,
)
from normplane.errors import PreconditionError
from normplane.isometry import (
    check_antipodes,
    check_isometry,
    chord_triple,
    equilateral_triples,
    fit_linear,
    linear_map,
    table_map,
    zigzag,
)
from normplane.norms import Pushforward

EPS = (0.2, 0.1, 0.05, 0.02, 0.01)


def _report(num, ok, detail):
    print("criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def metric_views(params):
    # one net per sphere, dense enough for the finest eps level; shared
    # between the classification and certified-delta criteria
    return {name: build_metric_view(p, base_spacing=min(EPS) / 4.0)
            for name, p in params.items()}


def test_criterion_01_far_field_blind_spot(corpus, params):
    t0 = time.perf_counter()
    norm, p = corpus["hexagonal"], params["hexagonal"]
    x = np.array([0.0, 1.0])
    y = np.array([1.0, 1.0 / 3.0])
    z = np.array([1.0, 2.0 / 3.0])
    ts = np.linspace(-1.0 / 3.0 + 1e-6, 1.0 / 3.0 - 1e-6, 100)
    profile = far_field_profile(p, y, z, ts)
    err = float(np.max(np.abs(profile - (1.0 / 3.0 + ts))))
    res = far_field_test(p, x, y, z)
    oracle = nd_oracle(p, p.locate(x))
    elapsed = time.perf_counter() - t0
    ok = (err <= 1e-12 and res.verdict == "differentiable"
          and oracle == "corner" and elapsed < 1.0)
    _report(1, ok, "hexagon blind spot: G linear to %.1e, far=%s, oracle=%s, %.2fs"
            % (err, res.verdict, oracle, elapsed))


def test_criterion_02_metric_matches_oracle(params, metric_views):
    t0 = time.perf_counter()
    reliable = unreliable = 0
    mismatches = []
    for name, p in params.items():
        view = metric_views[name]
        ts = target_params(p, 200)
        assert len(ts) >= 200, name
        report = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                                    targets=p.point_at(ts),
                                    ball_sampler=view.ball_sampler, curve_id=name)
        for t, entry in zip(ts, report.entries):
            oracle = nd_oracle(p, float(t))
            if entry.status == "unreliable" or oracle == "unreliable":
                unreliable += 1
            elif entry.status == oracle:
                reliable += 1
            else:
                mismatches.append((name, float(t), entry.status, oracle))
    elapsed = time.perf_counter() - t0
    frac = reliable / float(reliable + unreliable + len(mismatches))
    ok = not mismatches and frac >= 0.9 and elapsed < 120.0
    _report(2, ok, "metric vs oracle: %d reliable points agree, %d mismatch, "
            "%d unreliable, %.0fs" % (reliable, len(mismatches), unreliable, elapsed))


def test_criterion_03_certified_delta(params, metric_views):
    checked = 0
    failures = []
    for name, p in params.items():
        corners = p.corner_params()
        if len(corners) == 0:
            continue
        view = metric_views[name]
        for t in corners:
            x = p.point_at(float(t))
            basis = corner_basis(p, x)
            z1, z2 = basis.z_coords
            if abs(basis.delta_cert - z1 / (2.0 * z2)) > 1e-12:
                failures.append((name, float(t), "delta formula"))
            res = metric_nd_test(view.dist, view.antipode_map, view.sample,
                                 x, basis.delta_cert, eps_grid=EPS,
                                 ball_sampler=view.ball_sampler)
            checked += 1
            if not res.passed or len(res.transcript) != len(EPS):
                failures.append((name, float(t), "metric test"))
    ok = not failures and checked >= 60
    _report(3, ok, "certified deltas: %d corners pass at all %d eps levels%s"
            % (checked, len(EPS), "" if not failures else "; failures %r" % failures))


def test_criterion_04_far_field_on_strictly_convex(corpus, params):
    sc = [name for name in corpus if corpus[name].is_strictly_convex]
    assert sorted(sc) == sorted(
        ["l1_5", "l2", "l3", "lens", "sixdisk",
         "l1_5_push", "l2_push", "l3_push", "lens_push", "sixdisk_push"])
    resolved_total = nd_total = 0
    failures = []
    for k, name in enumerate(sc):
        norm, p = corpus[name], params[name]
        rng = np.random.default_rng(1000 + k)
        corners = p.corner_params()
        resolved = attempts = 0
        while resolved < 20 and attempts < 600:
            attempts += 1
            if len(corners) and attempts % 3 == 0:
                tx = float(corners[(attempts // 3) % len(corners)])
            else:
                tx = float(rng.uniform(0.0, p.period))
            x = p.point_at(tx)
            y = p.point_at(float(rng.uniform(0.0, p.period)))
            z = chord_partner(norm, x, y)
            if z is None:
                continue
            try:
                res = far_field_test(p, x, y, z)
            except PreconditionError:
                continue  # z landed on a corner; draw another chord
            oracle = nd_oracle(p, tx)
            if res.verdict == "inconclusive" or oracle == "unreliable":
                continue
            resolved += 1
            matches = {"differentiable": "smooth", "not_differentiable": "corner"}
            if matches[res.verdict] != oracle:
                failures.append((name, tx, res.verdict, oracle))
            if res.verdict == "not_differentiable":
                nd_total += 1
                ref = far_slope_reference(p, x, z)
                if abs(res.slope_left - ref) > 1e-4:
                    failures.append((name, tx, "slope", res.slope_left, ref))
        if resolved < 20:
            failures.append((name, "only %d resolved triples" % resolved))
        resolved_total += resolved
    ok = not failures and nd_total >= 4
    _report(4, ok, "far field: %d resolved triples on %d strictly convex norms, "
            "%d corner instances, slope identity at each%s"
            % (resolved_total, len(sc), nd_total,
               "" if not failures else "; failures %r" % failures[:4]))


def test_criterion_05_side_derivative_orthogonality(corpus, params):
    tested = excluded = 0
    worst_margin = 0.0
    failures = []
    for name, p in params.items():
        norm = corpus[name]
        corners = p.corner_params()
        n_uniform = 100 - len(corners)
        ts = np.concatenate([corners,
                             (np.arange(n_uniform) + 0.37) * (p.period / n_uniform)])
        for t in ts:
            x = p.point_at(float(t))
            info = p.side_derivative_info(float(t))
            for d in (info.left, info.right):
                m = float(birkhoff_margin(norm, x, d))
                worst_margin = min(worst_margin, m)
                if m < -1e-6:
                    failures.append((name, float(t), "margin", m))
            oracle = nd_oracle(p, float(t))
            if oracle == "unreliable":
                excluded += 1
                continue
            single = orth_cone(norm, x).is_single_pair()
            if single != (oracle == "smooth"):
                failures.append((name, float(t), "cone", single, oracle))
            tested += 1
    ok = not failures and excluded <= tested / 50
    _report(5, ok, "side derivatives orthogonal at %d points (worst margin %.1e), "
            "cone degeneracy matches oracle, %d excluded%s"
            % (tested, worst_margin, excluded,
               "" if not failures else "; failures %r" % failures[:4]))


def test_criterion_06_self_circumference(params):
    periods = {name: p.period for name, p in params.items()}
    failures = []
    if abs(periods["l2"] - 2.0 * math.pi) > 1e-6:
        failures.append(("l2", periods["l2"]))
    for name in ("l1", "linf"):
        if abs(periods[name] - 8.0) > 1e-6:
            failures.append((name, periods[name]))
    for name, L in periods.items():
        if not 6.0 - 1e-9 <= L <= 8.0 + 1e-6:
            failures.append((name, L))
    ok = not failures
    _report(6, ok, "self-circumference: round %.8f, diamond %.6f, square %.6f, "
            "all %d periods in [6, 8]%s"
            % (periods["l2"], periods["l1"], periods["linf"], len(periods),
               "" if not failures else "; failures %r" % failures))


def test_criterion_07_isometry_harness(corpus, params):
    rng = np.random.default_rng(20260822)
    checked = 0
    worst = {"distortion": 0.0, "antipodes": 0.0, "fit": 0.0}
    failures = []
    for name, p in params.items():
        done = 0
        while done < 10:
            M = rng.normal(size=(2, 2))
            det = abs(float(np.linalg.det(M)))
            if not 0.35 <= det <= 4.0 or np.linalg.cond(M) > 8.0:
                continue
            tgt = build_natural_param(unit_sphere(Pushforward(corpus[name], M)))
            m = linear_map(p, tgt, M)
            dist = check_isometry(m)
            anti = check_antipodes(m)
            basis = (p.point_at(0.0), p.point_at(p.period / 3.0))
            T, res = fit_linear(m, basis)
            worst["distortion"] = max(worst["distortion"], dist)
            worst["antipodes"] = max(worst["antipodes"], anti)
            worst["fit"] = max(worst["fit"], res)
            if dist > 1e-8 or anti > 1e-8 or res > 1e-7:
                failures.append((name, done, dist, anti, res))
            if not np.allclose(T, M, atol=1e-6):
                failures.append((name, done, "matrix"))
            done += 1
            checked += 1
    rejected = 0
    min_reject = math.inf
    for name in list(params)[:10]:
        p = params[name]
        knots = np.linspace(0.0, p.period, 64, endpoint=False)
        noise = rng.uniform(-2e-2, 2e-2, size=64)  # amplitude above 1e-2
        m = table_map(p, p, np.column_stack([knots, knots + noise]))
        d = check_isometry(m)
        min_reject = min(min_reject, d)
        if d >= 1e-3:
            rejected += 1
    ok = not failures and checked == 10 * len(params) and rejected == 10
    _report(7, ok, "harness: %d pushforward maps pass (worst distortion %.1e, "
            "antipode %.1e, fit %.1e); %d/10 perturbed maps rejected "
            "(smallest distortion %.2e)%s"
            % (checked, worst["distortion"], worst["antipodes"], worst["fit"],
               rejected, min_reject, "" if not failures else "; failures %r" % failures[:4]))


def test_criterion_08_equilateral_triples(corpus):
    t0 = time.perf_counter()
    failures = []
    found = {}
    for name in ("linf", "hexagonal"):
        res = equilateral_triples(corpus[name], 2.0, 1e-6)
        found[name] = res.status
        if res.status != "found" or not res.triples:
            failures.append((name, res.status))
            continue
        tri = [np.asarray(q, dtype=float) for q in res.triples[0]]
        for i in range(3):
            for j in range(i + 1, 3):
                d = float(corpus[name].value(tri[i] - tri[j]))
                if abs(d - 2.0) > 1e-6:
                    failures.append((name, i, j, d))
    res = equilateral_triples(corpus["l2"], 2.0, 1e-3)
    if res.status != "certified_absent":
        failures.append(("l2", res.status))
    if res.fine_spacing > 1e-4:
        failures.append(("l2", "spacing", res.fine_spacing))
    if not res.best_bound < 2.0 - 1e-3:
        failures.append(("l2", "bound", res.best_bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(8, ok, "equilateral: square %s, hexagon %s, circle certified absent "
            "(bound %.4f, net %.1e), %.1fs%s"
            % (found.get("linf"), found.get("hexagonal"), res.best_bound,
               res.fine_spacing, elapsed, "" if not failures else "; failures %r" % failures))


def test_criterion_09_zigzag_convergence(drop, double_drop):
    p = build_natural_param(drop)
    c = np.array([1.0, 1.0])
    failures = []
    iters = []
    for k in range(16):
        a = p.point_at(k * p.period / 16.0)
        res = zigzag(drop, c, a)
        iters.append(res.iterations)
        if res.verdict not in ("converged", "fixed") or res.final_gap > 1e-6:
            failures.append((k, res.verdict, res.final_gap))
        if res.iterations > 10_000:
            failures.append((k, "iterations", res.iterations))
        steps = np.diff(np.asarray(res.points), axis=0)
        if steps.size and float(steps.min()) < -1e-12:
            failures.append((k, "monotone", float(steps.min())))
    fixed = zigzag(double_drop, c, np.array([-1.0, -1.0]))
    if fixed.verdict != "fixed" or len(fixed.points) != 1:
        failures.append(("fixed", fixed.verdict, len(fixed.points)))
    ok = not failures
    _report(9, ok, "zigzag: 16 starts converge monotonically (max %d steps); "
            "strict double extreme is an exact fixed point%s"
            % (max(iters), "" if not failures else "; failures %r" % failures))


def test_criterion_10_chord_triple_identities(params):
    worst = 0.0
    count = 0
    for name in ("l2", "lens"):
        p = params[name]
        for k in range(16):
            th = 2.0 * math.pi * k / 16.0
            x = np.array([math.cos(th), math.sin(th)])
            u, v, w, t = chord_triple(p, x)
            r1 = float(p.ambient.value(u - v - t * x))
            r2 = abs(float(w[0] - u[0]))
            r3 = abs(float(w[1] - v[1]))
            worst = max(worst, r1, r2, r3)
            count += 1
    ok = worst <= 1e-9 and count == 32
    _report(10, ok, "chord triples: identities hold to %.1e over %d directions"
            % (worst, count))


def test_criterion_11_byte_determinism(specs_dir, repo_root, child_env, tmp_path):
    commands = [
        ["norm-eval", "--spec", str(specs_dir / "hexagonal.json"),
         "--vector", "1,1", "--format", "json"],
        ["nd", "--spec", str(specs_dir / "hexagonal.json"),
         "--mode", "metric", "--targets", "8"],
        ["nd", "--spec", str(specs_dir / "l2.json"),
         "--mode", "far", "--resolution", "3", "--seed", "5"],
        ["iso", "--map", str(specs_dir / "map_push_hexagonal.json"),
         "--source-spec", str(specs_dir / "hexagonal.json"),
         "--target-spec", str(specs_dir / "hexagonal_push.json")],
        ["plot", "--spec", str(specs_dir / "hexagonal.json"),
         "--overlay", "staircase:0.5,1", "--overlay", "nd_points"],
    ]
    failures = []
    for i, cmd in enumerate(commands):
        outs = []
        for run in (1, 2):
            path = tmp_path / ("c%d_r%d.bin" % (i, run))
            proc = subprocess.run(
                [sys.executable, "-m", "normplane"] + cmd + ["--out", str(path)],
                capture_output=True, text=True,
                env=child_env(PYTHONHASHSEED=str(run)), cwd=repo_root)
            if proc.returncode != 0:
                failures.append((cmd[0], "exit %d" % proc.returncode, proc.stderr[:120]))
                break
            outs.append(path.read_bytes())
        if len(outs) == 2 and (outs[0] != outs[1] or not outs[0]):
            failures.append((cmd[0], "bytes differ"))
    ok = not failures
    _report(11, ok, "determinism: %d commands byte-identical across reruns%s"
            % (len(commands), "" if not failures else "; failures %r" % failures))
