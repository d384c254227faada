"""Tests of the benchmark's own checks and tracer.

Each check must accept a right answer and reject a deliberately wrong
one.  Run from the repo root:

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

L1 = {"family": "p", "p": 1.0}
L2 = {"family": "p", "p": 2.0}
PUSH = [[1.2, 0.4], [-0.2, 0.9]]


@pytest.fixture(scope="module")
def mods():
    return run.fresh_import()


def test_gauge_and_corners_match_the_package_on_the_corpus(mods):
    rng = np.random.default_rng(0)
    for name, norm in mods.corpus.corpus_norms().items():
        spec = norm.to_spec()
        v = rng.normal(size=(200, 2))
        assert np.allclose(reference.gauge(spec)(v), norm.value(v), rtol=1e-12), name
        ours = reference.corners(spec)[0]
        theirs = norm.structure().corners
        assert len(ours) == len(theirs), name
        for p in ours:
            assert np.min(np.abs(theirs - p).sum(axis=1)) < 1e-9, name


def test_metric_verdict_rejects_a_flipped_verdict():
    corner, smooth = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    assert reference.check_metric_verdict(L1, corner, "corner") == []
    assert reference.check_metric_verdict(L1, smooth, "smooth") == []
    assert reference.check_metric_verdict(L1, corner, "unreliable") == []
    assert reference.check_metric_verdict(L1, corner, "smooth")
    assert reference.check_metric_verdict(L1, smooth, "corner")
    push_corner = np.asarray(PUSH) @ corner
    spec = {"family": "pushforward", "matrix": PUSH, "base": L1}
    assert reference.check_metric_verdict(spec, push_corner, "corner") == []
    assert reference.check_metric_verdict(spec, push_corner, "smooth")


def test_unreliable_share_is_capped_at_a_tenth():
    assert workloads._unreliable_share(["smooth"] * 9 + ["unreliable"]) == {}
    flagged = workloads._unreliable_share(["smooth"] * 8 + ["unreliable"] * 2)
    assert sorted(flagged) == [8, 9]


def test_cone_check_accepts_true_cones_and_rejects_shifted_ones():
    half = math.pi / 2.0
    smooth = [(half, half), (3 * half, 3 * half)]
    x = np.array([1.0, 0.0])
    assert reference.check_cone(L2, x, smooth) == []
    shifted = [(lo + 1e-2, hi + 1e-2) for lo, hi in smooth]
    assert reference.check_cone(L2, x, shifted)
    # l1 at (1, 0): every direction between the two edges supports the ball
    corner = [(math.pi / 4, 3 * math.pi / 4), (5 * math.pi / 4, 7 * math.pi / 4)]
    assert reference.check_cone(L1, x, corner) == []
    assert reference.check_cone(L1, x, [(lo + 1e-2, hi + 1e-2) for lo, hi in corner])
    assert reference.check_cone(L1, x, [(lo + 1e-2, hi - 1e-2) for lo, hi in corner])
    assert reference.check_cone(L1, x, [(half, half), (3 * half, 3 * half)])
    assert reference.check_cone(L1, x, corner[:1])


def test_cone_check_on_package_cones(mods):
    corpus = mods.corpus.corpus_norms()
    for name in ("sixdisk_push", "l3"):
        norm = corpus[name]
        spec = norm.to_spec()
        x = reference.corners(spec)[0][0] if name == "sixdisk_push" else norm.unit_point(0.3)
        cone = mods.birkhoff.orth_cone(norm, x).directions
        assert reference.check_cone(spec, x, cone) == [], name
        assert reference.check_cone(spec, x, [(lo - 1e-2, hi - 1e-2) for lo, hi in cone]), name


def test_iso_check_rejects_a_matrix_off_by_1e3():
    M = np.array([[1.1, 0.3], [-0.4, 0.8]])
    report = {"verdict": "pass", "checks": {
        "linear": {"matrix": M.tolist()},
        "affine": {"matrix": M.tolist(), "offset": [0.0, 1e-12]}}}
    assert reference.check_iso(0, report, M, expect_pass=True) == []
    off = json.loads(json.dumps(report))
    off["checks"]["linear"]["matrix"][0][1] += 1e-3
    assert reference.check_iso(0, off, M, expect_pass=True)
    assert reference.check_iso(3, report, M, expect_pass=True)
    assert reference.check_iso(3, {"verdict": "reject"}, None, expect_pass=False) == []
    assert reference.check_iso(0, report, None, expect_pass=False)


def test_chord_triple_check(mods):
    norm = mods.corpus.corpus_norms()["lens"]
    x = np.array([math.cos(0.7), math.sin(0.7)])
    out = mods.isometry.chord_triple(norm, x)
    spec = norm.to_spec()
    assert reference.check_chord_triple(spec, x, out) == []
    u, v, w, t = out
    assert reference.check_chord_triple(spec, x, (u + [1e-6, 0.0], v, w, t))
    assert reference.check_chord_triple(spec, x, (u, v, w + [0.0, 1e-6], t))
    assert reference.check_chord_triple(spec, x, (u, v, w, t * (1 + 1e-6)))


def test_zigzag_check():
    good = np.array([[0.2, -0.9], [0.9, 0.5], [1.0, 1.0]])
    assert reference.check_zigzag(good, "converged", (1.0, 1.0)) == []
    assert reference.check_zigzag(good[::-1], "converged", (1.0, 1.0))
    assert reference.check_zigzag(good[:2], "converged", (1.0, 1.0))
    assert reference.check_zigzag(good, "not_converged", (1.0, 1.0))


def test_triples_check():
    ang = np.array([0.1, 0.1 + 2 * math.pi / 3, 0.1 + 4 * math.pi / 3])
    tri = np.column_stack([np.cos(ang), np.sin(ang)])
    target = math.sqrt(3.0) - 0.01
    assert reference.check_triples(L2, "found", [tri], target, 1e-6, "found") == []
    assert reference.check_triples(L2, "certified_absent", [], target, 1e-6, "found")
    assert reference.check_triples(L2, "found", [tri * 0.99], target, 1e-6, "found")
    squeezed = tri.copy()
    squeezed[1] = [math.cos(2.0), math.sin(2.0)]
    assert reference.check_triples(L2, "found", [squeezed], target, 1e-6, "found")


def test_benchmark_json_names_match_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    metrics = run.end_to_end([run.Record(0, 0.01, None, None, False)], 1.0, [0.1])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}


def test_tracer_merges_nested_norm_calls_and_patches_imported_names(mods):
    norm = mods.norms.Pushforward(mods.norms.PNorm(3.0), PUSH)
    tracer = Tracer(mods, [])
    original = mods.birkhoff.orth_cone
    patched = []

    def op():
        patched.append(mods.cli.orth_cone is not original)
        norm.value(np.ones((5, 2)))
        return mods.cli.build_natural_param(mods.curves.unit_sphere(norm)).period

    tracer.run_op(0, op)
    totals = tracer.totals()
    assert totals["norms.value"][0] >= 1
    assert tracer.counts["norms.value.rows"] >= 5
    assert totals["curves.build_natural_param"][0] == 1  # found through cli's own name
    spans = tracer.arrays()
    # the Pushforward call and its base call are one span, not two
    value_id = tracer.names.index("norms.value")
    parents = spans["parent"][spans["name_id"] == value_id]
    assert all(tracer.nid[p] != value_id for p in parents if p >= 0)
    assert patched == [True] and mods.cli.orth_cone is original  # restored afterwards


def test_run_refuses_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "pinning", "--seed", "1", "--seconds", "1"]) == 2
