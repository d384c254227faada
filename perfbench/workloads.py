"""The four workloads: set-up, seeded operation lists and output checks.

A workload's set-up builds everything its operations need and returns a
State: the operation list (one round) and the callables the tracer may
wrap beside the package's module functions.  Each Op runs one call into
normplane, reduces its result to a compact, comparable output, and
checks that output against reference.py.  Rounds repeat the same list,
so an output equal to one already checked needs no second check.

The package is reached only through the module namespace handed to
set-up, looked up at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import reference

SQRT3 = math.sqrt(3.0)
EXCLUSION = 0.02  # uniform targets keep this norm distance from corners and steep points
METRIC_UNIFORM = 4  # uniform targets per sphere, beside all its corners
CONE_TARGETS = 3     # per sphere: one seeded corner, if it has any, and uniform points
ISO_TRUE_MAPS = 3


@dataclass
class Op:
    label: str
    run: object      # () -> raw result of the package call
    output: object   # raw result -> hashable output that check() reads
    check: object    # output -> list of problems (empty when correct)


@dataclass
class State:
    ops: list
    hooks: list = field(default_factory=list)  # (holder, attribute, span name, kind)
    round_check: object = None                  # list of outputs of one round -> {index: problems}


def _uniform_points(param, spec, rng, count):
    """One seeded point in each of count equal arcs of the sphere.

    Stratifying keeps the mix of cheap and costly targets alike from seed
    to seed.  Points within EXCLUSION of a corner or a steep point are
    drawn again, inside the same arc.
    """
    norm = reference.gauge(spec)
    avoid = np.concatenate([reference.corners(spec)[0], reference.steep_points(spec)])
    out = []
    for k in range(count):
        while True:
            x = param.point_at((k + float(rng.uniform())) * param.period / count)
            if len(avoid) == 0 or float(np.min(norm(avoid - x[None, :]))) >= EXCLUSION:
                out.append(x)
                break
    return out


def _corpus(mods):
    return [(name, norm, norm.to_spec()) for name, norm in mods.corpus.corpus_norms().items()]


def _param(mods, norm):
    return mods.curves.build_natural_param(mods.curves.unit_sphere(norm))


# -- metric-route --------------------------------------------------------


def setup_metric_route(mods, rng, workdir):
    dd = mods.diffdetect
    ops, hooks = [], []
    for name, norm, spec in _corpus(mods):
        param = _param(mods, norm)
        view = dd.build_metric_view(param, base_spacing=min(dd.EPS_GRID) / 4.0)
        calls = SimpleNamespace(dist=view.dist, ball_sampler=view.ball_sampler)
        hooks += [(calls, "dist", "diffdetect.dist", "pairs"),
                  (calls, "ball_sampler", "diffdetect.ball_sampler", "calls")]
        targets = list(reference.corners(spec)[0])
        targets += _uniform_points(param, spec, rng, METRIC_UNIFORM)
        for x in targets:
            ops.append(_metric_op(mods, name, spec, param, view, calls, x))
    return State(ops, hooks, _unreliable_share)


def _metric_op(mods, name, spec, param, view, calls, x):
    def run():
        return mods.diffdetect.nd_classify_metric(
            calls.dist, view.antipode_map, view.sample, targets=x[None, :],
            ball_sampler=calls.ball_sampler, curve_id=name)

    def check(status):
        problems = reference.check_metric_verdict(spec, x, status)
        oracle = mods.diffdetect.nd_oracle(param, param.locate(x))
        if "unreliable" not in (status, oracle) and status != oracle:
            problems.append("metric %s disagrees with oracle %s" % (status, oracle))
        return problems

    return Op("%s at (%.6f, %.6f)" % (name, x[0], x[1]), run,
              lambda report: report.entries[0].status, check)


def _unreliable_share(outputs):
    unreliable = [i for i, status in enumerate(outputs) if status == "unreliable"]
    if len(unreliable) <= 0.1 * len(outputs):
        return {}
    msg = "%d of %d verdicts unreliable" % (len(unreliable), len(outputs))
    return {i: [msg] for i in unreliable}


# -- orth-cones ----------------------------------------------------------


def setup_orth_cones(mods, rng, workdir):
    ops = []
    for name, norm, spec in _corpus(mods):
        param = _param(mods, norm)
        pts = reference.corners(spec)[0]
        targets = [pts[int(rng.integers(len(pts)))]] if len(pts) else []
        targets += _uniform_points(param, spec, rng, CONE_TARGETS - len(targets))
        for x in targets:
            ops.append(_cone_op(mods, name, spec, norm, x))
    return State(ops)


def _cone_op(mods, name, spec, norm, x):
    return Op("%s at (%.6f, %.6f)" % (name, x[0], x[1]),
              lambda: mods.birkhoff.orth_cone(norm, x),
              lambda cone: tuple((float(lo), float(hi)) for lo, hi in cone.directions),
              lambda directions: reference.check_cone(spec, x, directions))


# -- iso-reports ---------------------------------------------------------


def _seeded_matrix(rng):
    # criterion 07's limits keep the pushforward well conditioned
    while True:
        M = rng.normal(size=(2, 2))
        if 0.35 <= abs(float(np.linalg.det(M))) <= 4.0 and np.linalg.cond(M) <= 8.0:
            return M


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def setup_iso_reports(mods, rng, workdir):
    ops = []
    for name, norm, spec in _corpus(mods):
        period = _param(mods, norm).period
        src = _write_json(os.path.join(workdir, name + ".json"), spec)
        for k in range(ISO_TRUE_MAPS):
            M = _seeded_matrix(rng)
            tgt = _write_json(os.path.join(workdir, "%s_m%d.json" % (name, k)),
                              {"family": "pushforward", "matrix": M.tolist(), "base": spec})
            mp = _write_json(os.path.join(workdir, "%s_map%d.json" % (name, k)),
                             {"form": "linear", "matrix": M.tolist()})
            ops.append(_iso_op(mods, "%s true map %d" % (name, k), src, tgt, mp, M, workdir))
        knots = np.linspace(0.0, period, 64, endpoint=False)
        pairs = np.column_stack([knots, knots + rng.uniform(-2e-2, 2e-2, size=64)])
        mp = _write_json(os.path.join(workdir, name + "_perturbed.json"),
                         {"form": "param_table", "pairs": pairs.tolist()})
        ops.append(_iso_op(mods, "%s perturbed table" % name, src, src, mp, None, workdir))
    return State(ops)


def _iso_op(mods, label, src, tgt, mp, M, workdir):
    out = os.path.join(workdir, "report.json")
    argv = ["iso", "--map", mp, "--source-spec", src, "--target-spec", tgt,
            "--checks", "distortion,antipodes,linear,affine", "--out", out]

    def output(code):
        with open(out, encoding="utf-8") as fh:
            return code, fh.read()

    def check(result):
        code, text = result
        return reference.check_iso(code, json.loads(text), M, expect_pass=M is not None)

    return Op(label, lambda: mods.cli.main(argv), output, check)


# -- pinning -------------------------------------------------------------

# (corpus norm, target distance, expected status); the largest equilateral
# side is sqrt(3) on l2 and its pushforward, and 2 on linf and hexagonal
TRIPLE_CASES = (
    ("l2", SQRT3 + 0.004, "certified_absent"),  # close enough that the net refines
    ("l2", SQRT3 - 0.01, "found"),
    ("l2_push", SQRT3 + 0.02, "certified_absent"),
    ("l2_push", SQRT3 - 0.01, "found"),
    ("linf", 2.0, "found"),
    ("hexagonal", 2.0, "found"),
)
TRIPLE_MARGIN = 1e-6
CHORD_FAMILIES = 9
ZIGZAG_STARTS = 16
ZIGZAG_GOAL = (1.0, 1.0)


def setup_pinning(mods, rng, workdir):
    ops = []
    corpus = _corpus(mods)
    kept = [(j, c) for j, c in enumerate(corpus)
            if (j < CHORD_FAMILIES) == (j % CHORD_FAMILIES % 2 == 0)]
    for k, (_, (name, norm, spec)) in enumerate(kept):
        # one sphere per family, bases and pushforwards alternating; the
        # direction's quadrant alternates too, since directions with
        # x1 x2 < 0 run on the mirrored sphere and cost more
        param = _param(mods, norm)
        th = (k % 2 + float(rng.uniform())) * math.pi / 2.0
        x = np.array([math.cos(th), math.sin(th)])
        ops.append(_chord_op(mods, name, spec, param, x))
    drop = mods.corpus.drop_curve()
    dparam = mods.curves.build_natural_param(drop)
    goal = np.array(ZIGZAG_GOAL)
    for k in range(ZIGZAG_STARTS):
        a = dparam.point_at(k * dparam.period / ZIGZAG_STARTS)
        ops.append(_zigzag_op(mods, k, drop, goal, a))
    norms = {name: (norm, spec) for name, norm, spec in corpus}
    for name, target, expect in TRIPLE_CASES:
        norm, spec = norms[name]
        ops.append(_triples_op(mods, name, norm, spec, target, expect))
    return State(ops)


def _chord_op(mods, name, spec, param, x):
    return Op("chord_triple %s towards (%.6f, %.6f)" % (name, x[0], x[1]),
              lambda: mods.isometry.chord_triple(param, x),
              lambda out: tuple(tuple(map(float, p)) for p in out[:3]) + (float(out[3]),),
              lambda out: reference.check_chord_triple(spec, x, out))


def _zigzag_op(mods, k, drop, goal, a):
    return Op("zigzag start %d" % k,
              lambda: mods.isometry.zigzag(drop, goal, a),
              lambda res: (res.verdict, np.asarray(res.points, dtype=float).tobytes()),
              lambda out: reference.check_zigzag(np.frombuffer(out[1]), out[0], goal))


def _triples_op(mods, name, norm, spec, target, expect):
    def output(res):
        return res.status, tuple(np.asarray(t, dtype=float).tobytes() for t in res.triples)

    def check(out):
        triples = [np.frombuffer(t) for t in out[1]]
        return reference.check_triples(spec, out[0], triples, target, TRIPLE_MARGIN, expect)

    return Op("equilateral_triples %s at %.6f" % (name, target),
              lambda: mods.isometry.equilateral_triples(norm, target, TRIPLE_MARGIN),
              output, check)


WORKLOADS = {
    "metric-route": setup_metric_route,
    "orth-cones": setup_orth_cones,
    "iso-reports": setup_iso_reports,
    "pinning": setup_pinning,
}
