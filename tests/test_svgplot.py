"""SVG rendering: formatting, window snapping, byte stability."""

import numpy as np

from normplane.cli import main
from normplane.curves import build_natural_param, unit_sphere
from normplane.norms import Hexagonal
from normplane.svgplot import SvgCanvas, _fmt, canvas_for, curve_outline


def test_fmt_never_emits_negative_zero():
    assert _fmt(-0.000004) == "0.0000"
    assert _fmt(-0.0) == "0.0000"
    assert _fmt(1.5) == "1.5000"
    assert _fmt(-2.25) == "-2.2500"


def test_canvas_window_snaps_to_tenths():
    assert SvgCanvas(0.95).half == 1.0
    assert SvgCanvas(1.01).half == 1.1
    assert SvgCanvas(1.0999999).half == 1.1
    # nearby extents land on the same window, keeping output stable
    assert canvas_for([[[1.32, 0.0]]]).half == canvas_for([[[1.34, 0.0]]]).half


def test_render_is_byte_stable():
    def draw():
        c = SvgCanvas(2.0)
        c.axes()
        c.polyline([[0, 0], [1, 1], [1, -1]], closed=True)
        c.marker([0.5, 0.5], hollow=True)
        c.label((-1.0, -1.5), "note")
        return c.render()

    a, b = draw(), draw()
    assert a == b
    assert a.startswith("<svg") and a.endswith("</svg>\n")


def test_outline_passes_through_hexagon_vertices():
    param = build_natural_param(unit_sphere(Hexagonal()))
    pts = curve_outline(param, samples=64)
    for v in [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]:
        assert np.min(np.hypot(pts[:, 0] - v[0], pts[:, 1] - v[1])) <= 1e-9, v


def test_plot_emits_closed_polygon(capsys, specs_dir):
    # the plot command draws the outline as one closed polygon, never writing -0.0000
    assert main(["plot", "--spec", str(specs_dir / "hexagonal.json")]) == 0
    out = capsys.readouterr().out
    assert "<polygon" in out
    assert "-0.0000" not in out
