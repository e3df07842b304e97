"""Command line interface.

Subcommands: analyze, classify, scan, warp, verify.  Exit codes:
0 pass, 1 check failure, 2 usage/config error, 3 numerical/domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import biharmonic, verify as verify_mod, warped
from .errors import EvalDomainError, UsageError, WarpgeoError, first_failing, range_policy
from .immersion import PointGeometry
from .scene import load_scene


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_points(text, m):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords = [_finite(x) for x in chunk.split(",")]
        except ValueError:
            raise UsageError(f"point {chunk!r} is not a list of numbers") from None
        if len(coords) != m:
            raise UsageError(f"point {chunk!r} needs {m} coordinates")
        points.append(tuple(coords))
    if not points:
        raise UsageError("no points given")
    return points


def _parse_point(option, text, m):
    points = _parse_points(text, m)
    if len(points) != 1:
        raise UsageError(f"{option} takes one point, got {len(points)}")
    return points[0]


def _count(text):
    num = int(text)
    if num < 1:
        raise ValueError(text)
    return num


def _fields(text, kinds, form):
    """Split a colon-separated spec such as lo:hi:N into values of `kinds`."""
    parts = text.split(":")
    try:
        if len(parts) != len(kinds):
            raise ValueError(text)
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        raise UsageError(f"{text!r} is not of the form {form}") from None


# --t, --grid and --samples ask for at most this many points, checked before
# any is made
MAX_POINTS = 1_000_000


def _axis(text):
    return _fields(text, (_finite, _finite, _count), "lo:hi:N")


def _linspaces(option, text, axes):
    """The lo:hi:N axes as arrays, after checking that each has a finite
    width and that their grid holds at most MAX_POINTS points."""
    for lo, hi, _ in axes:
        if not math.isfinite(hi - lo):
            raise UsageError(f"{option} axis {lo:g}:{hi:g} is too wide")
    total = math.prod(n for _, _, n in axes)
    if total > MAX_POINTS:
        raise UsageError(
            f"{option} {text} asks for {total} points, more than {MAX_POINTS}"
        )
    return [np.linspace(*axis) for axis in axes]


def _parse_grid(text, m):
    axes = [_axis(part) for part in text.split(",")]
    if len(axes) != m:
        raise UsageError(f"grid needs {m} axes")
    mesh = np.meshgrid(*_linspaces("--grid", text, axes), indexing="ij")
    return [tuple(float(c[i]) for c in mesh) for i in np.ndindex(mesh[0].shape)]


def _parse_range(text):
    return tuple(_fields(text, (_finite, _finite), "lo:hi"))


def _parse_tgrid(text):
    return _linspaces("--t", text, [_axis(text)])[0]


def _resolve_points(args, scene):
    m = scene.immersion.m
    if getattr(args, "points", None):
        return _parse_points(args.points, m)
    if getattr(args, "grid", None):
        return _parse_grid(args.grid, m)
    if scene.points:
        return list(scene.points)
    raise UsageError("no points: pass --points/--grid or an analysis block")


def _open_report(path):
    """Open a --json or --csv output path for writing."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit_json(path, payload):
    """Write `payload` to `path`; a payload holding a non-finite number is
    an EvalDomainError, raised before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise EvalDomainError(f"{path}: the report holds a non-finite number") from None
    with _open_report(path) as fh:
        fh.write(text + "\n")


def _emit(args, label, columns, lines, csv_rows=None, report=None):
    """The one output path of every subcommand: check its numbers, then
    print `lines`, write `csv_rows` to --csv and report() to --json where
    asked.  `columns` maps each field to its values over the rows, row
    first: an array, or a list of numbers or of nested lists of numbers.
    Each is checked once, before anything is printed or opened: the first
    row holding a value that is not finite is an EvalDomainError naming
    its first such field and the row, label(i)."""
    ok = {}
    for field, values in columns.items():
        finite = np.isfinite(np.asarray(values, dtype=float))
        ok[field] = finite.all(axis=tuple(range(1, finite.ndim)))
    rows_ok = np.logical_and.reduce(list(ok.values()))
    if bad := first_failing(rows_ok, np.arange(np.size(rows_ok))):
        i = int(bad[0])
        field = next(name for name, row_ok in ok.items() if not row_ok[i])
        raise EvalDomainError(f"{field} is not finite at {label(i)}")
    print(*lines, sep="\n")
    if csv_rows is not None and args.csv:
        with _open_report(args.csv) as fh:
            csv.writer(fh).writerows(csv_rows)
    if report is not None and args.json:
        _emit_json(args.json, report())


def _table(headers, rows):
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in [headers, *rows]]


def _fmt(x):
    return f"{x:.9g}"


def _analysis(spec, points):
    """(JSON entry, table cells) of each of `points`, evaluated as one batch."""
    pg = PointGeometry(spec, np.array(points).T)
    n_res = biharmonic.normal_residual(pg)
    _, t_res = biharmonic.tangential_residual(pg)
    # per-point arrays, the batch axis first
    arrays = {
        "g": pg.g_val,
        "B": pg.B_val,
        "H": pg.H_val,
        "eta": pg.eta_val,
        "A": pg.A_frame,
        "gradLambda": pg.grad_lam_amb,
    }
    out = []
    for i in range(len(points)):
        entry = {key: a[i].tolist() for key, a in arrays.items()} | {
            "point": [float(c[i]) for c in pg.point],
            "lambda": float(pg.lam[i]),
            "normA2": pg.normA2[i],
            "lapLambda": pg.lap_lam[i],
            "ricEtaEta": pg.ric_eta_eta,
            "normalResidual": n_res[i],
            "tangentialResidual": t_res[i],
        }
        cells = [pg.lam[i], pg.normA2[i], pg.lap_lam[i], n_res[i], t_res[i]]
        out.append((entry, [_fmt(c) for c in cells]))
    return out


def cmd_analyze(args):
    scene = load_scene(args.scene)
    spec = scene.immersion
    points = _resolve_points(args, scene)
    spec.require_hypersurface()
    read = biharmonic.each(lambda ps: _analysis(spec, ps), points)
    reports, rows = [], []
    for i, p in enumerate(points):
        try:
            entry, cells = read(i)
        except WarpgeoError as exc:
            entry = {"point": list(p), "error": str(exc)}
            cells = ["error", str(exc), "", "", ""]
        reports.append(entry)
        rows.append([",".join(_fmt(c) for c in p)] + cells)
    good = [i for i, entry in enumerate(reports) if "error" not in entry]
    columns = {key: [reports[i][key] for i in good] for key in (reports[good[0]] if good else ())}
    headers = ["point", "lambda", "|A|^2", "lapLambda", "normalRes", "tangentialRes"]
    _emit(args, lambda j: f"point {rows[good[j]][0]}", columns, _table(headers, rows),
          report=lambda: {"reports": reports})
    failed = sum("error" in entry for entry in reports)
    if failed:
        raise EvalDomainError(f"{failed} point(s) failed")
    return 0


def cmd_classify(args):
    scene = load_scene(args.scene)
    points = _resolve_points(args, scene)
    tol = args.tol if args.tol is not None else scene.tolerance
    payload = biharmonic.classify(scene.immersion, points, tol).to_dict()
    flags = ("harmonic", "biharmonic", "normally_biharmonic", "tangentially_biharmonic")
    maxima = ("maxNormalResidual", "maxTangentialResidual", "maxMeanCurvature")
    lines = [f"{key:25s} {payload[key]}" for key in flags]
    lines += [f"{key:25s} {_fmt(payload[key])}" for key in maxima]
    _emit(args, lambda i: f"the {len(points)} point(s)", {k: [payload[k]] for k in maxima},
          lines, report=lambda: payload)
    return 0


def cmd_scan(args):
    scene = load_scene(args.scene)
    lo, hi = _parse_range(args.range)
    if args.samples > MAX_POINTS:
        raise UsageError(
            f"--samples {args.samples} asks for more than {MAX_POINTS} samples"
        )
    if args.probe:
        probe = _parse_point("--probe", args.probe, scene.immersion.m)
    elif scene.points:
        probe = scene.points[0]
    else:
        raise UsageError("scan needs --probe or an analysis point")
    result = biharmonic.parameter_scan(
        scene.immersion, args.param, lo, hi, args.samples, probe
    )
    good = [(v, r) for v, r in result.samples if r is not None]
    columns = {args.param: [v for v, _ in good], "normal_residual": [r for _, r in good]}
    rows = [[_fmt(v), "failed" if r is None else _fmt(r)] for v, r in result.samples]
    lines = _table([args.param, "normalResidual"], rows)
    lines.append("roots: " + (" ".join(_fmt(r) for r in result.roots) or "(none)"))
    csv_rows = [[args.param, "normal_residual"]]
    csv_rows += [[v, "" if r is None else r] for v, r in result.samples]
    _emit(args, lambda i: f"{args.param} = {_fmt(good[i][0])}", columns, lines, csv_rows,
          result.to_dict)
    for v, msg in result.failures:
        print(f"failed sample {args.param}={_fmt(v)}: {msg}", file=sys.stderr)
    return 0


def cmd_warp(args):
    scene = load_scene(args.scene)
    ws = scene.require_warp()
    point = _parse_point("--point", args.point, scene.immersion.m)
    sweep = warped.warped_report(ws, _parse_tgrid(args.t), point)
    columns = sweep.columns
    keys = ["t", "f", "pairing", "pairing_closed_form", "power_residual",
            "tangential_part_norm", "normal_part_norm"]
    values = list(zip(*(columns[key].tolist() for key in keys)))
    csv_header = ["t", "f", "pairing", "pairing_closed_form", "power_residual",
                  "tangential_norm", "normal_norm"]
    headers = ["t", "f", "pairing", "pairingClosed", "powerResidual", "|tangential|", "|normal|"]
    _emit(args, lambda i: f"t = {_fmt(columns['t'][i])}", columns,
          _table(headers, [[_fmt(v) for v in row] for row in values]), [csv_header, *values],
          lambda: {"reports": sweep.to_dicts()})
    return 0


def cmd_verify(args):
    checks = verify_mod.run_checks(args.filter)
    if not checks:
        raise UsageError(f"--filter {args.filter!r} matches no check")
    rows = [
        [
            c.name,
            _fmt(c.expected),
            _fmt(c.got),
            _fmt(c.tol),
            "pass" if c.passed else "FAIL",
        ]
        for c in checks
    ]
    lines = _table(["check", "expected", "got", "tol", "status"], rows)
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    # a check whose `got` is not finite is a FAIL row, not a refusal of the
    # table; the JSON writer alone refuses it
    columns = {"expected": [c.expected for c in checks], "tol": [c.tol for c in checks]}
    _emit(args, lambda i: checks[i].name, columns, lines,
          report=lambda: {"checks": [c.row() for c in checks]})
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpgeo",
        description=(
            "Verification engine for biharmonic hypersurfaces and "
            "warped-product inclusions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="pointwise geometry and residual report")
    p.add_argument("scene")
    p.add_argument("--points", help="semicolon-separated points, e.g. '1,0.5;2,1.57'")
    p.add_argument("--grid", help="per-axis lo:hi:N specs, comma separated")
    p.add_argument("--json", help="write JSON report to this path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="biharmonicity flags over a point batch")
    p.add_argument("scene")
    p.add_argument("--points")
    p.add_argument("--grid")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("scan", help="roots of the normal residual in a parameter")
    p.add_argument("scene")
    p.add_argument("--param", required=True)
    p.add_argument("--range", required=True, help="lo:hi")
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--probe", help="probe point, e.g. '1,0.7'")
    p.add_argument("--csv")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("warp", help="warped inclusion report over a t grid")
    p.add_argument("scene")
    p.add_argument("--t", required=True, help="lo:hi:N")
    p.add_argument("--point", required=True)
    p.add_argument("--csv")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_warp)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--filter", help="only run checks whose name contains this")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with range_policy():
            code = args.fn(args)
    except WarpgeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.exit_code
    sys.exit(code)


if __name__ == "__main__":
    main()
