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
import functools
import json
import math
import sys

import numpy as np

from .birkhoff import orth_cone
from .curves import build_natural_param, curve_from_spec, target_params, unit_sphere
from .diffdetect import (
    DELTA_GRID,
    EPS_GRID,
    _oracle_status,
    _vec,
    build_metric_view,
    chord_partner,
    far_field_test,
    nd_classify_metric,
    nd_oracle,
)
from .errors import PreconditionError, SpecError
from .isometry import (
    check_antipodes,
    distortion_profile,
    equilateral_triples,
    fit_affine,
    fit_linear,
    map_from_spec,
    rigidity_verdict,
    staircase,
    two_corner_undetermined,
    zigzag,
)
from .norms import norm_from_spec
from .svgplot import CHORD, CURVE, FAINT, MARK, PATH, canvas_for, curve_outline


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


def _plane(obj, path):
    """The param of a parsed spec file's sphere or curve; its curve.norm is None for a curve.

    A norm spec's sphere is built here rather than cached on its norm, so
    the plane and its table go with the param's last reference.
    """
    if not isinstance(obj, dict):
        raise InputError("%s: expected a JSON object" % path)
    if "family" in obj:
        return build_natural_param(unit_sphere(norm_from_spec(obj, path=path)))
    if "points" in obj:
        return build_natural_param(curve_from_spec(obj, path=path))
    raise InputError("%s: neither a norm spec (family) nor a curve spec (points)" % path)


def _parse_vec(text, what="vector"):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InputError("%s must be two comma separated numbers, got %r" % (what, text))
    return np.array([_parse_number(parts[0], what), _parse_number(parts[1], what)])


def _parse_number(text, what):
    try:
        val = float(text)
    except ValueError as exc:
        raise InputError("%s: %s" % (what, exc)) from exc
    if not math.isfinite(val):
        raise InputError("%s must be finite, got %r" % (what, text))
    return val


def _parse_grid(text, what):
    vals = tuple(_parse_number(p, what) for p in text.split(",") if p.strip())
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


def _g(v):
    return "%.12g" % float(v)


# -- norm-eval -----------------------------------------------------------


def cmd_norm_eval(args):
    obj = _read_json(args.spec)
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError("%s is not a norm spec" % args.spec)
    norm = norm_from_spec(obj, path=args.spec)
    v = _parse_vec(args.vector)
    val = float(norm.value(v))
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


def _nd_oracle_report(param, args):
    ts = target_params(param, args.resolution)
    entries = []
    counts = {"corner": 0, "smooth": 0, "unreliable": 0}
    for t in ts:
        info = param.side_derivative_info(t)
        status = _oracle_status(info, args.tol)
        counts[status] += 1
        entries.append({
            "gap": float(info.gap),
            "point": _vec(param.point_at(t)),
            "status": status,
            "t": float(t),
        })
    return {"counts": counts, "entries": entries}, 0


def _agreement(status, oracle):
    """A route's corner/smooth/unreliable status against the oracle's."""
    if status == "unreliable" or oracle == "unreliable":
        return "unresolved"
    return "agree" if status == oracle else "disagree"


def _tally(body):
    """Add the agreement counts and the verdict to a report body; return it and the exit code."""
    counts = {k: sum(e["agreement"] == k for e in body["entries"])
              for k in ("agree", "disagree", "unresolved")}
    body.update(agreement=counts, verdict="disagree" if counts["disagree"] else "agree")
    return body, (3 if counts["disagree"] else 0)


def _nd_metric_report(param, args):
    if param.curve.norm is None:
        # the 2 - delta*eps chord threshold assumes a unit sphere of diameter 2
        raise InputError("metric mode needs a norm spec, not a sampled curve")
    eps, delta = args.eps_grid, args.delta_grid
    if max(eps) >= 1.0:
        # at eps >= 1 the eps-arcs around a point and its antipode meet
        raise InputError("--eps-grid values must be below 1, got %g" % max(eps))
    if args.resolution is None:
        view = build_metric_view(param, base_spacing=min(eps) / 4.0)
    else:
        view = build_metric_view(param, base_spacing=param.period / args.resolution)
    if view.spacing > min(eps) / 2.0:
        raise InputError(
            "metric net spacing %.4g is too coarse for the finest eps level %.4g; "
            "raise --resolution until spacing <= eps/2" % (view.spacing, min(eps)))
    ts = target_params(param, args.targets)
    pts = param.point_at(ts)
    report = nd_classify_metric(view.dist, view.antipode_map, view.sample,
                                delta_grid=delta, eps_grid=eps, targets=pts,
                                ball_sampler=view.ball_sampler)
    entries = []
    counts = {"corner": 0, "smooth": 0, "unreliable": 0}
    for t, entry in zip(ts, report.entries):
        oracle = nd_oracle(param, t, threshold=args.tol)
        counts[entry.status] += 1
        entries.append({
            "agreement": _agreement(entry.status, oracle),
            "metric": entry.status,
            "oracle": oracle,
            "point": _vec(entry.point),
            "t": float(t),
        })
    return _tally({
        "counts": counts,
        "delta_grid": [float(d) for d in delta],
        "entries": entries,
        "eps_grid": [float(e) for e in eps],
        "net_spacing": float(view.spacing),
        "net_size": int(len(view.sample)),
    })


# far-field verdicts as the oracle's statuses
_FAR_STATUS = {"differentiable": "smooth", "not_differentiable": "corner", "inconclusive": "unreliable"}


def _far_entry(param, x, y, z, tol):
    res = far_field_test(param, x, y, z, slope_threshold=tol)
    oracle = nd_oracle(param, param.locate(x), threshold=tol)
    return {
        "agreement": _agreement(_FAR_STATUS[res.verdict], oracle),
        "lam": float(param.ambient.value(z - y)),
        "oracle": oracle,
        "slope_disagreement": float(res.disagreement),
        "slope_left": float(res.slope_left),
        "slope_right": float(res.slope_right),
        "verdict": res.verdict,
        "x": _vec(x),
        "y": _vec(y),
        "z": _vec(z),
    }


def _nd_far_report(param, args):
    norm = param.curve.norm
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
        entries.append(_far_entry(param, w / lam, y, z, args.tol))
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
                z = chord_partner(norm, x, y)
                if z is None:
                    continue
                try:
                    entries.append(_far_entry(param, x, y, z, args.tol))
                except PreconditionError:
                    continue  # z landed on a corner; try another chord
                break
    if not entries:
        raise InputError("no admissible (y, z) pair found; pass --points explicitly")
    return _tally({"entries": entries})


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
    param = _plane(_read_json(args.spec), args.spec)
    if args.mode == "oracle":
        if args.resolution is None:
            args.resolution = 360
        body, code = _nd_oracle_report(param, args)
    elif args.mode == "metric":
        body, code = _nd_metric_report(param, args)
    else:
        body, code = _nd_far_report(param, args)
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


def _independent_param(param):
    """Parameter whose point is most transverse to the ray through point_at(0)."""
    L = param.period
    p0 = param.point_at(0.0)
    cands = np.linspace(0.05 * L, 0.45 * L, 9)
    pts = param.point_at(cands)
    cross = np.abs(p0[0] * pts[:, 1] - p0[1] * pts[:, 0])
    return float(cands[int(np.argmax(cross))])


def cmd_iso(args):
    src_obj = _read_json(args.source_spec)
    src = _plane(src_obj, args.source_spec)
    tgt_obj = _read_json(args.target_spec)
    # equal specs share one plane; their JSON text tells true from 1, which == does not
    if tgt_obj == src_obj and _json_text(tgt_obj) == _json_text(src_obj):
        tgt = src
    else:
        tgt = _plane(tgt_obj, args.target_spec)
    m = map_from_spec(_read_json(args.map), src, tgt, path=args.map)
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
    norm = src.curve.norm
    payload = {
        "checks": results,
        "command": "iso",
        "form": m.form,
        "map": args.map,
        "rigidity": None if norm is None else rigidity_verdict(norm),
        "samples": args.samples,
        "seed": args.seed,
        "source": args.source_spec,
        "target": args.target_spec,
        "tol": args.tol,
        "two_corner_gap": None if norm is None else two_corner_undetermined(norm),
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


def _overlay_prims(name, rest, param):
    """Primitives and extent points for one overlay."""
    norm = param.curve.norm
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
            angles = [0.5 * (lo + hi)] if cone.is_single_pair() else list(np.linspace(lo, hi, 5))
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
        if len(parts) > 2:
            raise InputError("triples takes at most a target and a margin, got %r" % rest)
        target = _parse_number(parts[0], "triples target") if parts else 2.0
        margin = _parse_number(parts[1], "triples margin") if len(parts) > 1 else 1e-3
        if target <= 0:
            raise InputError("triples target must be positive, got %r" % parts[0])
        if margin < 0:
            raise InputError("triples margin must not be negative, got %r" % parts[1])
        res = equilateral_triples(param, target, margin)
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
    param = _plane(_read_json(args.spec), args.spec)
    outline = curve_outline(param, samples=args.resolution)
    prims, extent = [], [outline]
    for spec in args.overlay or ():
        name, _, rest = spec.partition(":")
        p, e = _overlay_prims(name.strip(), rest, param)
        prims.extend(p)
        extent.extend(e)
    canvas = canvas_for(extent)
    canvas.axes()
    canvas.polyline(outline, color=CURVE, width=2.0, closed=True)
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


@functools.cache
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
    pn.add_argument("--eps-grid", type=_grid_arg("--eps-grid"), default=EPS_GRID)
    pn.add_argument("--delta-grid", type=_grid_arg("--delta-grid"), default=DELTA_GRID)
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
    pp.add_argument("--overlay", action="append", default=None,
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
        for flag in ("resolution", "targets", "samples", "tol"):
            val = getattr(args, flag, None)
            if val is not None and not 0 < val < math.inf:
                raise InputError("--%s must be finite and positive" % flag)
        return args.fn(args)
    except (InputError, SpecError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
