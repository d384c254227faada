"""Deterministic SVG rendering of curves and overlays.

Every drawing goes onto a fixed 800x800 canvas with all coordinates
written through one %.4f formatter, so identical inputs produce
byte-identical files.  The world window is square, centered at the
origin, and sized from the drawn geometry in deterministic tenth steps.
"""

from __future__ import annotations

import math

import numpy as np

SIZE = 800

CURVE = "#1a467b"
MARK = "#c03030"
CHORD = "#2e8b57"
PATH = "#d07820"
FAINT = "#9aa7b5"


def _fmt(v):
    s = "%.4f" % float(v)
    return "0.0000" if s == "-0.0000" else s


class SvgCanvas:
    """Collects shapes in world coordinates and renders one SVG document."""

    def __init__(self, half_width):
        # snap the window up to a tenth so near-identical inputs agree
        self.half = math.ceil(float(half_width) * 10.0 + 1e-9) / 10.0
        self._body = []

    def _xy(self, p):
        s = SIZE / (2.0 * self.half)
        return (SIZE / 2.0 + float(p[0]) * s, SIZE / 2.0 - float(p[1]) * s)

    def polyline(self, pts, color=CURVE, width=2.0, closed=False, dashed=False):
        cs = " ".join("%s,%s" % tuple(map(_fmt, self._xy(p))) for p in np.atleast_2d(pts))
        tag = "polygon" if closed else "polyline"
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self._body.append(
            '<%s points="%s" fill="none" stroke="%s" stroke-width="%s"%s/>'
            % (tag, cs, color, _fmt(width), dash))

    def segment(self, a, b, color=CHORD, width=1.5, dashed=False):
        (xa, ya), (xb, yb) = self._xy(a), self._xy(b)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self._body.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>'
            % (_fmt(xa), _fmt(ya), _fmt(xb), _fmt(yb), color, _fmt(width), dash))

    def marker(self, p, color=MARK, hollow=False):
        x, y = self._xy(p)
        fill = "none" if hollow else color
        self._body.append(
            '<circle cx="%s" cy="%s" r="5.0000" fill="%s" stroke="%s" stroke-width="1.5"/>'
            % (_fmt(x), _fmt(y), fill, color))

    def label(self, p, text):
        x, y = self._xy(p)
        self._body.append(
            '<text x="%s" y="%s" font-family="monospace" font-size="16" fill="#333333">%s</text>'
            % (_fmt(x), _fmt(y), text))

    def axes(self):
        h = self.half
        self.segment((-h, 0.0), (h, 0.0), color=FAINT, width=1.0)
        self.segment((0.0, -h), (0.0, h), color=FAINT, width=1.0)

    def render(self):
        head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
                'viewBox="0 0 %d %d">' % (SIZE, SIZE, SIZE, SIZE))
        bg = '<rect width="%d" height="%d" fill="#ffffff"/>' % (SIZE, SIZE)
        return "\n".join([head, bg] + self._body + ["</svg>"]) + "\n"


def curve_outline(param, samples=1024):
    """Closed outline of a curve: uniform parameter sweep plus the corners."""
    ts = np.linspace(0.0, param.period, int(samples), endpoint=False)
    ts = np.unique(np.concatenate([ts, param.corner_params()]) % param.period)
    return param.point_at(ts)


def canvas_for(points_list):
    """A canvas showing every point, and at least [-1, 1]^2, with a 15 % margin."""
    extent = 1.0
    for pts in points_list:
        arr = np.atleast_2d(np.asarray(pts, dtype=float))
        if arr.size:
            extent = max(extent, float(np.abs(arr).max()))
    return SvgCanvas(extent * 1.15)
