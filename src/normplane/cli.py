"""Command line surface: point queries, reports, and figures.

Four subcommands cover the lab.  norm-eval prints a single norm value,
nd writes differentiability reports (oracle, metric-only, or far-field
mode), iso runs the isometry verification harness on a map file, and
plot emits deterministic SVG figures with optional overlays.

Exit codes are a contract: 0 clean pass, 2 input or precondition error,
3 mathematical disagreement or rejection.  Identical invocations give
byte-identical output; all sampling is seeded and the seed lands in the
report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy.optimize import brentq

from .birkhoff import orth_cone
from .curves import build_natural_param, curve_from_spec, unit_sphere
from .diffdetect import (
    DELTA_GRID,
    EPS_GRID,
    build_metric_view,
    far_field_test,
    nd_classify_metric,
    nd_oracle,
)
from .errors import PreconditionError, SpecError
from .isometry import (
    check_antipodes,
    check_isometry,
    distortion_profile,
    equilateral_triples,
    fit_affine,
    fit_linear,
    linear_map,
    rigidity_verdict,
    staircase,
    table_map,
    two_corner_undetermined,
    zigzag,
)
from .norms import norm_eval, norm_from_spec
from .svgplot import CHORD, CURVE, FAINT, MARK, PATH, canvas_for, curve_outline, draw_curve


class InputError(Exception):
    """Bad command line input; maps to exit code 2."""


# -- small plumbing ------------------------------------------------------


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from exc


def _load_plane(path):
    """(norm, param) from a spec file; norm is None for sampled curves."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError("%s: expected a JSON object" % path)
    if "family" in obj:
        norm = norm_from_spec(obj, path=path)
        return norm, build_natural_param(unit_sphere(norm))
    if "points" in obj:
        return None, build_natural_param(curve_from_spec(obj, path=path))
    raise InputError("%s: neither a norm spec (family) nor a curve spec (points)" % path)


def _parse_vec(text, what="vector"):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InputError("%s must be two comma separated numbers, got %r" % (what, text))
    try:
        return np.array([float(parts[0]), float(parts[1])])
    except ValueError as exc:
        raise InputError("%s: %s" % (what, exc)) from exc


def _parse_grid(text, what):
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise InputError("%s: %s" % (what, exc)) from exc
    if not vals or any(v <= 0 for v in vals):
        raise InputError("%s must be a nonempty list of positive numbers" % what)
    return vals


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _vec(v):
    return [float(v[0]), float(v[1])]


def _g(v):
    return "%.12g" % float(v)


# -- norm-eval -----------------------------------------------------------


def cmd_norm_eval(args):
    obj = _read_json(args.spec)
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError("%s is not a norm spec" % args.spec)
    norm = norm_from_spec(obj, path=args.spec)
    v = _parse_vec(args.vector)
    val = float(norm_eval(norm, v))
    if args.format == "json":
        _emit(_json_text({
            "command": "norm-eval",
            "seed": args.seed,
            "spec": args.spec,
            "strictly_convex": bool(norm.is_strictly_convex),
            "value": val,
            "vector": _vec(v),
        }), args.out)
    else:
        _emit(_g(val) + "\n", args.out)
    return 0


# -- nd ------------------------------------------------------------------


def _target_params(param, resolution):
    """Corner parameters merged with a uniform net, deduplicated."""
    L = param.period
    ts = np.arange(int(resolution)) * (L / int(resolution))
    ts = np.sort(np.concatenate([ts, param.corner_params()]) % L)
    keep = np.concatenate([[True], np.diff(ts) > 1e-9])
    ts = ts[keep]
    if len(ts) > 1 and ts[0] + L - ts[-1] <= 1e-9:
        ts = ts[:-1]
    return ts


def _nd_oracle_report(param, args):
    ts = _target_params(param, args.resolution)
    entries = []
    counts = {"corner": 0, "smooth": 0, "unreliable": 0}
    for t in ts:
        status = nd_oracle(param, t, threshold=args.tol)
        info = param.side_derivative_info(t)
        counts[status] += 1
        entries.append({
            "gap": float(info.gap),
            "point": _vec(param.point_at(t)),
            "status": status,
            "t": float(t),
        })
    return {"counts": counts, "entries": entries}, 0


def _nd_metric_report(norm, param, args):
    if norm is None:
        # the 2 - delta*eps chord threshold assumes a unit sphere of diameter 2
        raise InputError("metric mode needs a norm spec, not a sampled curve")
    eps = args.eps_grid if args.eps_grid is not None else EPS_GRID
    delta = args.delta_grid if args.delta_grid is not None else DELTA_GRID
    if args.resolution is None:
        view = build_metric_view(param, base_spacing=min(eps) / 4.0)
    else:
        view = build_metric_view(param, base_spacing=param.period / args.resolution)
    if view.spacing > min(eps) / 2.0:
        raise InputError(
            "metric net spacing %.4g is too coarse for the finest eps level %.4g; "
            "raise --resolution until spacing <= eps/2" % (view.spacing, min(eps)))
    ts = _target_params(param, args.targets)
    pts = param.point_at(ts)
    report = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                                delta_grid=delta, eps_grid=eps, targets=pts,
                                ball_sampler=view.ball_sampler)
    entries = []
    counts = {"corner": 0, "smooth": 0, "unreliable": 0}
    agree = disagree = unresolved = 0
    for t, entry in zip(ts, report.entries):
        oracle = nd_oracle(param, t, threshold=args.tol)
        counts[entry.status] += 1
        if entry.status == "unreliable" or oracle == "unreliable":
            outcome = "unresolved"
            unresolved += 1
        elif entry.status == oracle:
            outcome = "agree"
            agree += 1
        else:
            outcome = "disagree"
            disagree += 1
        entries.append({
            "agreement": outcome,
            "metric": entry.status,
            "oracle": oracle,
            "point": _vec(entry.point),
            "t": float(t),
        })
    body = {
        "agreement": {"agree": agree, "disagree": disagree, "unresolved": unresolved},
        "counts": counts,
        "delta_grid": [float(d) for d in delta],
        "entries": entries,
        "eps_grid": [float(e) for e in eps],
        "net_spacing": float(view.spacing),
        "net_size": int(len(view.sample)),
        "verdict": "disagree" if disagree else "agree",
    }
    return body, (3 if disagree else 0)


def _chord_partner(norm, x, y):
    """Second sphere point on the line through y in direction x, or None."""

    def f(s):
        return float(norm.value(y + s * x)) - 1.0

    if f(1e-3) >= 0.0:
        return None
    s1 = brentq(f, 1e-3, 2.2, xtol=1e-13)
    if not 1e-6 < s1 < 2.0 - 1e-6:
        return None
    return y + s1 * x


def _far_entry(norm, param, x, y, z, tol):
    res = far_field_test(norm, x, y, z, slope_threshold=tol, param=param)
    oracle = nd_oracle(param, param.locate(x), threshold=tol)
    matches = {"differentiable": "smooth", "not_differentiable": "corner"}
    if res.verdict == "inconclusive" or oracle == "unreliable":
        outcome = "unresolved"
    elif matches[res.verdict] == oracle:
        outcome = "agree"
    else:
        outcome = "disagree"
    return {
        "agreement": outcome,
        "lam": float(norm.value(z - y)),
        "oracle": oracle,
        "slope_disagreement": float(res.disagreement),
        "slope_left": float(res.slope_left),
        "slope_right": float(res.slope_right),
        "verdict": res.verdict,
        "x": _vec(x),
        "y": _vec(y),
        "z": _vec(z),
    }


def _nd_far_report(norm, param, args):
    if norm is None:
        raise InputError("far mode needs a norm spec, not a sampled curve")
    entries = []
    if args.points is not None:
        halves = args.points.split(";")
        if len(halves) != 2:
            raise InputError("--points must look like \"y1,y2;z1,z2\"")
        y = _parse_vec(halves[0], "y")
        z = _parse_vec(halves[1], "z")
        w = z - y
        lam = float(norm.value(w))
        if not 0.0 < lam < 2.0:
            raise InputError("z - y must have norm strictly between 0 and 2")
        entries.append(_far_entry(norm, param, w / lam, y, z, args.tol))
    else:
        count = 8 if args.resolution is None else int(args.resolution)
        rng = np.random.default_rng(args.seed)
        probes = list(param.corner_params()[:count])
        while len(probes) < count:
            probes.append(rng.uniform(0.0, param.period))
        for tx in probes:
            x = param.point_at(tx)
            for _ in range(60):
                y = param.point_at(rng.uniform(0.0, param.period))
                z = _chord_partner(norm, x, y)
                if z is None:
                    continue
                try:
                    entries.append(_far_entry(norm, param, x, y, z, args.tol))
                except PreconditionError:
                    continue  # z landed on a corner; try another chord
                break
    if not entries:
        raise InputError("no admissible (y, z) pair found; pass --points explicitly")
    agree = sum(e["agreement"] == "agree" for e in entries)
    disagree = sum(e["agreement"] == "disagree" for e in entries)
    unresolved = sum(e["agreement"] == "unresolved" for e in entries)
    body = {
        "agreement": {"agree": agree, "disagree": disagree, "unresolved": unresolved},
        "entries": entries,
        "verdict": "disagree" if disagree else "agree",
    }
    return body, (3 if disagree else 0)


def _nd_text(payload):
    lines = ["differentiability report"]
    for key in ("spec", "mode", "seed"):
        lines.append("%s: %s" % (key, payload[key]))
    if "net_spacing" in payload:
        lines.append("metric net: %d points, spacing %s" % (payload["net_size"], _g(payload["net_spacing"])))
    for e in payload["entries"]:
        if "metric" in e:
            lines.append("t=%-10s (%s, %s)  metric=%-10s oracle=%-10s %s"
                         % (_g(e["t"]), _g(e["point"][0]), _g(e["point"][1]),
                            e["metric"], e["oracle"], e["agreement"]))
        elif "verdict" in e:
            lines.append("x=(%s, %s) y=(%s, %s) z=(%s, %s)  far=%-18s oracle=%-10s %s"
                         % (_g(e["x"][0]), _g(e["x"][1]), _g(e["y"][0]), _g(e["y"][1]),
                            _g(e["z"][0]), _g(e["z"][1]), e["verdict"], e["oracle"], e["agreement"]))
        else:
            lines.append("t=%-10s (%s, %s)  %s  gap=%s"
                         % (_g(e["t"]), _g(e["point"][0]), _g(e["point"][1]), e["status"], _g(e["gap"])))
    if "counts" in payload:
        c = payload["counts"]
        lines.append("corners: %d  smooth: %d  unreliable: %d"
                     % (c["corner"], c["smooth"], c["unreliable"]))
    if "agreement" in payload:
        a = payload["agreement"]
        lines.append("agreement: %d agree, %d disagree, %d unresolved"
                     % (a["agree"], a["disagree"], a["unresolved"]))
        lines.append("verdict: %s" % payload["verdict"])
    return "\n".join(lines) + "\n"


def cmd_nd(args):
    norm, param = _load_plane(args.spec)
    if args.mode == "oracle":
        if args.resolution is None:
            args.resolution = 360
        body, code = _nd_oracle_report(param, args)
    elif args.mode == "metric":
        body, code = _nd_metric_report(norm, param, args)
    else:
        body, code = _nd_far_report(norm, param, args)
    body.update({"command": "nd", "mode": args.mode, "seed": args.seed, "spec": args.spec})
    _emit(_json_text(body) if args.format == "json" else _nd_text(body), args.out)
    return code


# -- iso -----------------------------------------------------------------

_CHECK_NAMES = ("distortion", "antipodes", "linear", "affine")

# decade bins for the pair-distortion profile; the top bin is open-ended
_HIST_EDGES = (1e-12, 1e-9, 1e-6, 1e-3, 1e-1)


def _distortion_histogram(profile):
    labels = ["<=1e-12", "1e-12..1e-9", "1e-9..1e-6", "1e-6..1e-3", "1e-3..1e-1", ">1e-1"]
    counts = np.histogram(profile, bins=[-1.0] + list(_HIST_EDGES) + [np.inf])[0]
    return {lab: int(c) for lab, c in zip(labels, counts)}


def _load_map(path, src, tgt):
    obj = _read_json(path)
    if not isinstance(obj, dict) or "form" not in obj:
        raise InputError("%s: expected a map object with a 'form' field" % path)
    form = obj["form"]
    try:
        if form == "linear":
            if "matrix" not in obj:
                raise InputError("%s: linear map needs a matrix" % path)
            M = np.asarray(obj["matrix"], dtype=float)
            if M.shape != (2, 2) or not np.all(np.isfinite(M)):
                raise InputError("%s: matrix must be a finite 2x2 array" % path)
            # landing on the target curve is the harness's question, not
            # a load-time requirement, so validation is disabled here
            return linear_map(src, tgt, M, tol=math.inf)
        if form == "param_table":
            if "pairs" not in obj:
                raise InputError("%s: param_table map needs pairs" % path)
            return table_map(src, tgt, obj["pairs"])
    except PreconditionError as exc:
        raise InputError("%s: %s" % (path, exc)) from exc
    raise InputError("%s: unknown map form %r" % (path, form))


def _independent_param(param):
    """Parameter whose point is most transverse to the basepoint ray."""
    L = param.period
    p0 = param.point_at(0.0)
    cands = np.linspace(0.05 * L, 0.45 * L, 9)
    pts = param.point_at(cands)
    cross = np.abs(p0[0] * pts[:, 1] - p0[1] * pts[:, 0])
    return float(cands[int(np.argmax(cross))])


def cmd_iso(args):
    src_norm, src = _load_plane(args.source_spec)
    _, tgt = _load_plane(args.target_spec)
    m = _load_map(args.map, src, tgt)
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    for c in checks:
        if c not in _CHECK_NAMES:
            raise InputError("unknown check %r; choose from %s" % (c, ", ".join(_CHECK_NAMES)))
    if not checks:
        raise InputError("no checks requested")
    results = {}
    if "distortion" in checks:
        profile = distortion_profile(m, samples=args.samples, seed=args.seed)
        val = float(np.max(profile))
        results["distortion"] = {
            "histogram": _distortion_histogram(profile),
            "pass": val <= args.tol,
            "value": val,
        }
    if "antipodes" in checks:
        val = check_antipodes(m, samples=args.samples)
        results["antipodes"] = {"pass": val <= args.tol, "value": val}
    if "linear" in checks:
        t1 = _independent_param(src)
        basis = (src.point_at(0.0), src.point_at(t1))
        T, res = fit_linear(m, basis, samples=args.samples)
        results["linear"] = {
            "matrix": [[float(v) for v in row] for row in T],
            "pass": res <= args.tol,
            "value": res,
        }
    if "affine" in checks:
        L = src.period
        anchors = src.point_at(np.array([0.0, L / 3.0, 2.0 * L / 3.0]))
        T, b, res = fit_affine(m, anchors, samples=args.samples)
        results["affine"] = {
            "matrix": [[float(v) for v in row] for row in T],
            "offset": _vec(b),
            "pass": res <= args.tol,
            "value": res,
        }
    ok = all(r["pass"] for r in results.values())
    payload = {
        "checks": results,
        "command": "iso",
        "form": m.form,
        "map": args.map,
        "rigidity": None if src_norm is None else rigidity_verdict(src_norm),
        "samples": args.samples,
        "seed": args.seed,
        "source": args.source_spec,
        "target": args.target_spec,
        "tol": args.tol,
        "two_corner_gap": None if src_norm is None else two_corner_undetermined(src_norm),
        "verdict": "pass" if ok else "reject",
    }
    if args.format == "json":
        text = _json_text(payload)
    else:
        names = {
            "distortion": "pair distance distortion",
            "antipodes": "antipode defect",
            "linear": "residual against the fitted linear map",
            "affine": "residual against the fitted affine map",
        }
        lines = ["isometry verification report",
                 "map: %s (%s)" % (args.map, m.form),
                 "source: %s" % args.source_spec,
                 "target: %s" % args.target_spec,
                 "seed: %d  samples: %d  tol: %s" % (args.seed, args.samples, _g(args.tol))]
        for name in _CHECK_NAMES:
            if name in results:
                r = results[name]
                lines.append("%s: %s  %s" % (names[name], _g(r["value"]),
                                             "pass" if r["pass"] else "FAIL"))
                if name == "distortion":
                    hist = r["histogram"]
                    lines.append("  pair distortions by decade: " + "  ".join(
                        "%s: %d" % (lab, hist[lab]) for lab in hist))
        if payload["rigidity"] is not None:
            lines.append("corner-count rigidity: %s" % payload["rigidity"])
            if payload["two_corner_gap"]:
                lines.append("note: exactly one antipodal corner pair; linearity is "
                             "not forced by corner count")
        lines.append("verdict: %s" % payload["verdict"])
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 3


# -- plot ----------------------------------------------------------------


def _overlay_prims(name, rest, norm, param):
    """Primitives and extent points for one overlay."""
    prims, extent = [], []
    if name == "nd_points":
        if rest:
            raise InputError("nd_points takes no arguments")
        for p in param.curve.structure().corners:
            prims.append(("mark", p, MARK, False))
            extent.append(p)
    elif name == "orth_cone":
        if norm is None:
            raise InputError("orth_cone needs a norm spec")
        x = _parse_vec(rest, "orth_cone base point")
        cone = orth_cone(norm, x)
        for lo, hi in cone.directions:
            angles = [lo] if hi - lo <= 1e-9 else list(np.linspace(lo, hi, 5))
            for k, th in enumerate(angles):
                u = np.array([math.cos(th), math.sin(th)])
                p = u / float(norm.value(u))
                solid = len(angles) == 1 or k in (0, len(angles) - 1)
                prims.append(("seg", np.zeros(2), p, CHORD if solid else FAINT, not solid))
        prims.append(("mark", x, MARK, False))
        extent.append(x)
    elif name == "zigzag":
        halves = rest.split(":")
        if len(halves) != 2:
            raise InputError("zigzag overlay takes c and a as \"cx,cy:ax,ay\"")
        c = _parse_vec(halves[0], "zigzag c")
        a = _parse_vec(halves[1], "zigzag a")
        res = zigzag(param, c, a)
        prims.append(("poly", res.points, PATH, False))
        prims.append(("mark", a, PATH, True))
        prims.append(("mark", c, MARK, False))
        extent.extend([a, c])
    elif name == "staircase":
        a = _parse_vec(rest, "staircase a")
        steps = staircase(param, a, -4, 4)
        pts = np.array([steps[n] for n in sorted(steps)])
        prims.append(("poly", pts, PATH, False))
        prims.append(("mark", a, MARK, False))
        extent.append(a)
    elif name == "triples":
        if norm is None:
            raise InputError("triples needs a norm spec")
        parts = [p for p in rest.split(",") if p] if rest else []
        target = float(parts[0]) if parts else 2.0
        margin = float(parts[1]) if len(parts) > 1 else 1e-3
        res = equilateral_triples(norm, target, margin)
        for triple in res.triples:
            tri = np.asarray(triple, dtype=float)
            prims.append(("poly", np.vstack([tri, tri[:1]]), CHORD, False))
            for p in tri:
                prims.append(("mark", p, CHORD, False))
                extent.append(p)
        if res.status == "certified_absent":
            prims.append(("note", "no triple at pairwise distance %s (margin %s)"
                          % (_g(target), _g(margin))))
    else:
        raise InputError("unknown overlay %r" % name)
    return prims, extent


def cmd_plot(args):
    norm, param = _load_plane(args.spec)
    outline = curve_outline(param, samples=args.resolution)
    prims, extent = [], [outline]
    for spec in args.overlay:
        name, _, rest = spec.partition(":")
        p, e = _overlay_prims(name.strip(), rest, norm, param)
        prims.extend(p)
        extent.extend(e)
    canvas = canvas_for(extent)
    canvas.axes()
    draw_curve(canvas, param)
    for prim in prims:
        kind = prim[0]
        if kind == "poly":
            canvas.polyline(prim[1], color=prim[2], width=1.5, dashed=prim[3])
        elif kind == "seg":
            canvas.segment(prim[1], prim[2], color=prim[3], dashed=prim[4])
        elif kind == "mark":
            canvas.marker(prim[1], color=prim[2], hollow=prim[3])
        elif kind == "note":
            canvas.label((-canvas.half * 0.95, -canvas.half * 0.9), prim[1])
    _emit(canvas.render(), args.out)
    return 0


# -- argument parsing ----------------------------------------------------


def _grid_arg(what):
    def parse(text):
        try:
            return _parse_grid(text, what)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def build_parser():
    ap = argparse.ArgumentParser(prog="normplane",
                                 description="computational laboratory for normed planes")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("norm-eval", help="evaluate a norm at a vector")
    pe.add_argument("--spec", required=True, help="norm spec JSON path")
    pe.add_argument("--vector", required=True, help="point as \"a,b\"")
    pe.add_argument("--format", choices=("text", "json"), default="text")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default=None)
    pe.set_defaults(fn=cmd_norm_eval)

    pn = sub.add_parser("nd", help="differentiability report for a sphere or curve")
    pn.add_argument("--spec", required=True, help="norm or curve spec JSON path")
    pn.add_argument("--mode", choices=("oracle", "metric", "far"), default="metric")
    pn.add_argument("--resolution", type=int, default=None,
                    help="oracle: classified points; metric: net size; far: probe count")
    pn.add_argument("--targets", type=int, default=24,
                    help="metric mode: uniform classification targets beside corners")
    pn.add_argument("--eps-grid", type=_grid_arg("--eps-grid"), default=None)
    pn.add_argument("--delta-grid", type=_grid_arg("--delta-grid"), default=None)
    pn.add_argument("--points", default=None, help="far mode pair \"y1,y2;z1,z2\"")
    pn.add_argument("--tol", type=float, default=1e-3,
                    help="oracle gap threshold / far slope threshold")
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--format", choices=("json", "text"), default="json")
    pn.add_argument("--out", default=None)
    pn.set_defaults(fn=cmd_nd)

    pi = sub.add_parser("iso", help="verify a sphere map against isometry checks")
    pi.add_argument("--map", required=True, help="map JSON path (linear or param_table)")
    pi.add_argument("--source-spec", required=True)
    pi.add_argument("--target-spec", required=True)
    pi.add_argument("--checks", default="distortion,antipodes,linear",
                    help="comma list from distortion,antipodes,linear,affine")
    pi.add_argument("--tol", type=float, default=1e-6)
    pi.add_argument("--samples", type=int, default=256)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--format", choices=("json", "text"), default="json")
    pi.add_argument("--out", default=None)
    pi.set_defaults(fn=cmd_iso)

    pp = sub.add_parser("plot", help="draw a curve with overlays to SVG")
    pp.add_argument("--spec", required=True, help="norm or curve spec JSON path")
    pp.add_argument("--overlay", action="append", default=[],
                    help="nd_points | orth_cone:x,y | zigzag:cx,cy:ax,ay | "
                         "staircase:ax,ay | triples[:target[,margin]]")
    pp.add_argument("--resolution", type=int, default=1024, help="outline sample count")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", default=None)
    pp.set_defaults(fn=cmd_plot)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; keep that contract
        return int(exc.code or 0)
    try:
        if getattr(args, "resolution", None) is not None and args.resolution <= 0:
            raise InputError("--resolution must be positive")
        if getattr(args, "samples", None) is not None and args.samples <= 0:
            raise InputError("--samples must be positive")
        if getattr(args, "tol", None) is not None and args.tol <= 0:
            raise InputError("--tol must be positive")
        return args.fn(args)
    except (InputError, SpecError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
