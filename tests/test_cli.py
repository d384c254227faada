"""Command line behaviour: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from normplane.cli import main
from normplane.curves import curve_to_spec

PUSH = [[1.2, 0.4], [-0.2, 0.9]]


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- norm-eval -----------------------------------------------------------


@pytest.mark.parametrize(
    "spec, vec, expect",
    [("l1.json", "1,1", "2"), ("hexagonal.json", "3,-2", "5"), ("l2.json", "2,0", "2")],
)
def test_norm_eval_text(capsys, specs_dir, spec, vec, expect):
    code, out, err = _run(capsys, "norm-eval", "--spec", str(specs_dir / spec),
                          "--vector", vec)
    assert code == 0 and err == ""
    assert out.strip() == expect


def test_norm_eval_json(capsys, specs_dir):
    code, out, _ = _run(capsys, "norm-eval", "--spec", str(specs_dir / "lens.json"),
                        "--vector", "0,1", "--format", "json", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "norm-eval"
    assert payload["seed"] == 7
    assert payload["strictly_convex"] is True
    assert payload["value"] == pytest.approx(1.0 / np.sqrt(1.3125), abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("norm-eval", "--spec", "{missing}", "--vector", "1,0"),
        ("norm-eval", "--spec", "{drop}", "--vector", "1,0"),
        ("norm-eval", "--spec", "{l2}", "--vector", "1;0"),
        ("norm-eval", "--spec", "{l2}", "--vector", "1,zebra"),
    ],
)
def test_norm_eval_input_errors(capsys, specs_dir, argv):
    fills = {"missing": str(specs_dir / "no_such_file.json"),
             "drop": str(specs_dir / "drop.json"),
             "l2": str(specs_dir / "l2.json")}
    argv = tuple(a.format(**fills) if "{" in a else a for a in argv)
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_bad_subcommand_flags_exit_2(capsys, specs_dir):
    code = main(["nd", "--spec", str(specs_dir / "l2.json"), "--mode", "bogus"])
    capsys.readouterr()
    assert code == 2


def test_malformed_norm_spec_exit_2(capsys, tmp_path):
    path = _write(tmp_path, "bad.json", {"family": "p", "p": 0.5})
    code, _, err = _run(capsys, "norm-eval", "--spec", path, "--vector", "1,0")
    assert code == 2 and "error:" in err


# -- nd ------------------------------------------------------------------


def test_nd_oracle_counts_hexagon_corners(capsys, specs_dir):
    code, out, _ = _run(capsys, "nd", "--spec", str(specs_dir / "hexagonal.json"),
                        "--mode", "oracle", "--resolution", "36")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "oracle"
    assert payload["counts"] == {"corner": 6, "smooth": 30, "unreliable": 0}
    corner_pts = [e["point"] for e in payload["entries"] if e["status"] == "corner"]
    for p in [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]:
        assert any(np.allclose(q, p, atol=1e-9) for q in corner_pts), p


def test_nd_metric_agrees_with_oracle(capsys, specs_dir):
    code, out, _ = _run(capsys, "nd", "--spec", str(specs_dir / "hexagonal.json"),
                        "--mode", "metric", "--targets", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "agree"
    assert payload["agreement"]["disagree"] == 0
    assert payload["counts"]["corner"] == 6
    assert payload["net_spacing"] <= min(payload["eps_grid"]) / 2.0


def test_nd_metric_coarse_net_rejected(capsys, specs_dir):
    code, _, err = _run(capsys, "nd", "--spec", str(specs_dir / "hexagonal.json"),
                        "--mode", "metric", "--resolution", "100")
    assert code == 2
    assert "too coarse" in err


def test_nd_far_blind_spot_exit_3(capsys, specs_dir):
    # vertical hexagon chords hide the corner at (0, 1) from the far test
    third = "%.16f" % (1.0 / 3.0)
    code, out, _ = _run(capsys, "nd", "--spec", str(specs_dir / "hexagonal.json"),
                        "--mode", "far", "--points", "1,%s;1,%s" % (third, "%.16f" % (2.0 / 3.0)))
    assert code == 3
    payload = json.loads(out)
    entry = payload["entries"][0]
    assert entry["verdict"] == "differentiable"
    assert entry["oracle"] == "corner"
    assert entry["agreement"] == "disagree"
    assert payload["verdict"] == "disagree"


def test_nd_far_random_probes_agree(capsys, specs_dir):
    code, out, _ = _run(capsys, "nd", "--spec", str(specs_dir / "l2.json"),
                        "--mode", "far", "--resolution", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"]["agree"] >= 1
    assert payload["agreement"]["disagree"] == 0


def test_nd_far_degenerate_pair_exit_2(capsys, specs_dir):
    code, _, err = _run(capsys, "nd", "--spec", str(specs_dir / "l2.json"),
                        "--mode", "far", "--points", "1,0;1,0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("mode", ["far", "metric"])
def test_nd_far_needs_a_norm(capsys, specs_dir, mode):
    code, _, err = _run(capsys, "nd", "--spec", str(specs_dir / "drop.json"),
                        "--mode", mode)
    assert code == 2 and "%s mode needs a norm spec, not a sampled curve" % mode in err


def test_nd_metric_rejects_symmetric_sampled_curve(capsys, tmp_path, double_drop):
    # centrally symmetric, but still no unit sphere: the chord threshold
    # 2 - delta*eps would give wrong verdicts rather than an error
    path = _write(tmp_path, "double_drop.json", curve_to_spec(double_drop))
    code, _, err = _run(capsys, "nd", "--spec", path, "--mode", "metric")
    assert code == 2 and "sampled curve" in err


def test_nd_text_format(capsys, specs_dir):
    code, out, _ = _run(capsys, "nd", "--spec", str(specs_dir / "hexagonal.json"),
                        "--mode", "oracle", "--resolution", "12", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "differentiability report"
    assert "corners: 6" in out


# -- iso -----------------------------------------------------------------


def test_iso_identity_passes(capsys, specs_dir):
    code, out, _ = _run(capsys, "iso", "--map", str(specs_dir / "map_identity.json"),
                        "--source-spec", str(specs_dir / "l2.json"),
                        "--target-spec", str(specs_dir / "l2.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    hist = payload["checks"]["distortion"]["histogram"]
    total = sum(hist.values())
    assert total >= 4 * payload["samples"]
    assert hist["<=1e-12"] == total  # identity distorts nothing
    assert payload["rigidity"] == "undetermined"


def test_iso_pushforward_recovers_matrix(capsys, specs_dir):
    code, out, _ = _run(capsys, "iso", "--map", str(specs_dir / "map_push_hexagonal.json"),
                        "--source-spec", str(specs_dir / "hexagonal.json"),
                        "--target-spec", str(specs_dir / "hexagonal_push.json"),
                        "--checks", "distortion,antipodes,linear,affine", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["seed"] == 3
    assert payload["rigidity"] == "linear"
    assert np.allclose(payload["checks"]["linear"]["matrix"], PUSH, atol=1e-6)
    assert np.allclose(payload["checks"]["affine"]["offset"], [0, 0], atol=1e-6)


def test_iso_distorted_matrix_rejected(capsys, specs_dir, tmp_path):
    path = _write(tmp_path, "stretch.json", {"form": "linear",
                                             "matrix": [[1.05, 0.0], [0.0, 1.0]]})
    code, out, _ = _run(capsys, "iso", "--map", path,
                        "--source-spec", str(specs_dir / "l2.json"),
                        "--target-spec", str(specs_dir / "l2.json"))
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "reject"
    assert payload["checks"]["distortion"]["pass"] is False
    assert payload["checks"]["distortion"]["value"] > 1e-3


@pytest.mark.parametrize(
    "obj",
    [
        {"matrix": [[1, 0], [0, 1]]},
        {"form": "moebius", "matrix": [[1, 0], [0, 1]]},
        {"form": "linear"},
        {"form": "linear", "matrix": [[1, 0, 0], [0, 1, 0]]},
        {"form": "linear", "matrix": [[1, 2], [2, 4]]},
        {"form": "param_table", "pairs": [[0, 0], [2, 1], [1, 3], [4, 5]]},
    ],
)
def test_iso_bad_map_files_exit_2(capsys, specs_dir, tmp_path, obj):
    path = _write(tmp_path, "map.json", obj)
    code, _, err = _run(capsys, "iso", "--map", path,
                        "--source-spec", str(specs_dir / "l2.json"),
                        "--target-spec", str(specs_dir / "l2.json"))
    assert code == 2 and err.startswith("error:")


def test_iso_unknown_check_exit_2(capsys, specs_dir):
    code, _, err = _run(capsys, "iso", "--map", str(specs_dir / "map_identity.json"),
                        "--source-spec", str(specs_dir / "l2.json"),
                        "--target-spec", str(specs_dir / "l2.json"),
                        "--checks", "distortion,voodoo")
    assert code == 2 and "unknown check" in err


def test_iso_text_format_mentions_histogram(capsys, specs_dir):
    code, out, _ = _run(capsys, "iso", "--map", str(specs_dir / "map_identity.json"),
                        "--source-spec", str(specs_dir / "l2.json"),
                        "--target-spec", str(specs_dir / "l2.json"),
                        "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "isometry verification report"
    assert "pair distortions by decade" in out
    assert out.rstrip().endswith("verdict: pass")


# -- plot ----------------------------------------------------------------


def test_plot_hexagon_with_overlays(capsys, specs_dir, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, _, _ = _run(capsys, "plot", "--spec", str(specs_dir / "hexagonal.json"),
                      "--overlay", "nd_points", "--overlay", "orth_cone:0,1",
                      "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_plot_zigzag_overlay_on_drop(capsys, specs_dir, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, _, _ = _run(capsys, "plot", "--spec", str(specs_dir / "drop.json"),
                      "--overlay", "zigzag:1,1:-1,0", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("<svg")


def test_plot_unknown_overlay_exit_2(capsys, specs_dir):
    code, _, err = _run(capsys, "plot", "--spec", str(specs_dir / "l2.json"),
                        "--overlay", "confetti")
    assert code == 2 and "unknown overlay" in err


# -- determinism ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("nd", "--spec", "{hex}", "--mode", "metric", "--targets", "8"),
        ("nd", "--spec", "{l2}", "--mode", "far", "--resolution", "3", "--seed", "5"),
        ("iso", "--map", "{map}", "--source-spec", "{hex}", "--target-spec", "{push}"),
        ("plot", "--spec", "{hex}", "--overlay", "staircase:0.5,1"),
    ],
)
def test_repeat_runs_are_byte_identical(capsys, specs_dir, tmp_path, argv):
    fills = {"hex": str(specs_dir / "hexagonal.json"),
             "l2": str(specs_dir / "l2.json"),
             "push": str(specs_dir / "hexagonal_push.json"),
             "map": str(specs_dir / "map_push_hexagonal.json")}
    argv = [a.format(**fills) if "{" in a else a for a in argv]
    outs = []
    for name in ("a.bin", "b.bin"):
        path = tmp_path / name
        main(argv + ["--out", str(path)])
        capsys.readouterr()
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0


def test_console_entry_point(repo_root, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "normplane", "norm-eval",
         "--spec", "specs/l2.json", "--vector", "2,0"],
        capture_output=True, text=True, env=child_env(), cwd=repo_root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2", proc.stderr
