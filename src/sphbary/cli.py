"""Command-line front end.

Subcommands: validate, coords, grid, compare, random, oracle.  Exit codes:
0 on success, 1 on a domain error (the machine-readable error name is the
first token after "error:" on stderr), 2 on usage errors, unparseable
input included.  All output is a pure function of the inputs and the
seed, so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import SphBaryError
from .geom import DEFAULT_TOL, Tolerances, unit_row, unit_vertices
from .harness import (
    DEFAULT_BANDS,
    PolygonFile,
    compare_methods,
    grid_rows,
    load_polygon_file,
    oracle_triangle,
    random_polygon,
    rows_to_csv,
)
from .spherical import METHODS, evaluate, extended_spherical_coords, reconstruction_residual


def _fmt(v: float) -> str:
    return repr(float(v))


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# argparse types: the ArgumentTypeError they raise is a usage error (exit 2).

def _band(text: str) -> Tolerances:
    try:
        return Tolerances(geom=float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive, finite number, got {text!r}") from None


def _coordinate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _levels(text: str):
    bands = []
    for chunk in text.split(","):
        try:
            lo, hi = (float(t) for t in chunk.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo:hi[,lo:hi...], got {text!r}") from None
        if np.isnan(lo) or np.isnan(hi):
            raise argparse.ArgumentTypeError(f"a band bound must be a number or +-inf, got {chunk!r}")
        bands.append((lo, hi))
    return tuple(bands)


def _polygon_file(path: str) -> PolygonFile:
    try:
        return load_polygon_file(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read polygon file {path!r}: {exc!r}") from None


def cmd_validate(args, tol: Tolerances) -> int:
    polygon = args.file.validated(tol)
    shape = "convex" if polygon.convex else "non-convex"
    print(f"valid, {shape}, n={polygon.n}")
    w = polygon.witness
    print(f"hemisphere witness = ({_fmt(w[0])}, {_fmt(w[1])}, {_fmt(w[2])})")
    print("orientation: anti-clockwise (winding +2*pi)")
    return 0


def cmd_coords(args, tol: Tolerances) -> int:
    if args.extended:
        if args.method != "NEW_MV":
            print("error: --extended evaluation supports only NEW_MV", file=sys.stderr)
            return 2
        cv = extended_spherical_coords(args.file.vertices, args.point, "MV", tol)
        vertices = unit_vertices(args.file.vertices)
    else:
        polygon = args.file.validated(tol)
        cv = evaluate(polygon, args.point, args.method)
        vertices = polygon.vertices
    print(f"location: {cv.location}")
    print(f"method: {cv.method}")
    for i, v in enumerate(cv.values):
        print(f"psi[{i}] = {_fmt(v)}")
    print(f"sum = {_fmt(cv.total)}")
    print(f"residual = {_fmt(reconstruction_residual(cv.values, vertices, unit_row(args.point)[0]))}")
    if cv.denom is not None:
        print(f"denominator = {_fmt(cv.denom)}")
    return 0


def cmd_grid(args, tol: Tolerances) -> int:
    polygon = args.file.validated(tol)
    if not 0 <= args.vertex < polygon.n:
        print(f"error: vertex index {args.vertex} out of range for n={polygon.n}", file=sys.stderr)
        return 2
    rows = grid_rows(polygon, args.vertex, args.resolution, args.method, args.levels or DEFAULT_BANDS)
    _write(rows_to_csv(rows), args.output)
    return 0


def cmd_compare(args, tol: Tolerances) -> int:
    polygon = args.file.validated(tol)
    a, b = args.methods
    report = compare_methods(polygon, a, b, args.resolution)
    print(report.to_text())
    if args.csv:
        _write(report.to_csv(), args.csv)
    return 0


def cmd_random(args, tol: Tolerances) -> int:
    if not 3 <= args.n <= 64:
        print(f"error: n must be in [3, 64], got {args.n}", file=sys.stderr)
        return 2
    if not 0.0 < args.rho < np.pi / 2:
        print(f"error: rho must be in (0, pi/2), got {args.rho}", file=sys.stderr)
        return 2
    mode = "nonconvex" if args.nonconvex else "convex"
    polygon = random_polygon(args.n, args.rho, args.seed, mode, tol)
    pf = PolygonFile(vertices=polygon.vertices.tolist(), name=args.name, seed=args.seed)
    _write(pf.to_json(), args.output)
    return 0


def cmd_oracle(args, tol: Tolerances) -> int:
    pf = args.file
    if len(pf.vertices) != 3:
        print(f"error: oracle needs a triangle file, got n={len(pf.vertices)}", file=sys.stderr)
        return 2
    V = unit_vertices(pf.vertices)
    x = unit_row(args.point)[0]
    psi = oracle_triangle(V[0], V[1], V[2], x)
    for i, val in enumerate(psi):
        print(f"psi[{i}] = {_fmt(val)}")
    print(f"residual = {_fmt(reconstruction_residual(psi, V, x))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphbary",
        description="Barycentric coordinates of points on the unit sphere "
        "with respect to spherical polygons.",
    )
    parser.add_argument("--tol", type=_band, default=DEFAULT_TOL, metavar="EPS",
                        help="override the geometric band, > 0 and finite (angles get 10x this)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the random subcommand")
    parser.add_argument("--extended", action="store_true",
                        help="evaluate outside the default domain: skip polygon validation "
                             "and the interior check (coords, NEW_MV only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a polygon file")
    p.add_argument("file", type=_polygon_file)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coords", help="evaluate coordinates at one point")
    p.add_argument("file", type=_polygon_file)
    p.add_argument("--point", type=_coordinate, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p.add_argument("--method", choices=METHODS, default="NEW_MV")
    p.add_argument("--extended", action="store_true", default=argparse.SUPPRESS,
                   help="same as the global --extended flag")
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("grid", help="sample a coordinate over the polygon, CSV output")
    p.add_argument("file", type=_polygon_file)
    p.add_argument("--vertex", type=int, default=0, help="vertex index k whose psi_k is tabulated")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--method", choices=METHODS, default="NEW_MV")
    p.add_argument("--levels", type=_levels, default=None,
                   help="contour bands lo:hi[,lo:hi...]; default is the shipped six bands")
    p.add_argument("--output", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("compare", help="max/mean gap between two methods on a grid")
    p.add_argument("file", type=_polygon_file)
    p.add_argument("--methods", nargs=2, choices=METHODS, required=True, metavar=("A", "B"))
    p.add_argument("--resolution", type=int, default=24)
    p.add_argument("--csv", default=None, help="also dump per-point rows to this CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("random", help="deterministic seeded random polygon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="same as the global --seed flag")
    p.add_argument("--rho", type=float, default=0.8, help="cap radius bound in (0, pi/2)")
    p.add_argument("--nonconvex", action="store_true",
                   help="produce a polygon with at least one reflex vertex")
    p.add_argument("--name", default=None)
    p.add_argument("--output", default=None, help="polygon JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("oracle", help="3x3 elimination oracle for triangles")
    p.add_argument("file", type=_polygon_file)
    p.add_argument("--point", type=_coordinate, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # compare needs a non-empty grid; grid wants a contour map worth drawing.
    least = {"grid": 8, "compare": 1}.get(args.command)
    if least is not None and args.resolution < least:
        parser.error(f"--resolution must be >= {least}, got {args.resolution}")
    if args.extended and args.command != "coords":
        parser.error(f"argument --extended: applies to coords only, not to {args.command}")
    try:
        return args.func(args, args.tol)
    except SphBaryError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
