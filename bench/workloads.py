"""The three workloads and the traced layer probe.

Every workload is a closed loop with one client in one thread: it runs
rounds, one after another, until the run's seconds are spent (at least two
rounds, so every output is produced twice and compared byte for byte).
Inside a round the five methods are interleaved and the starting method
rotates from round to round, so machine drift hits every method alike.
Round 0 checks every output and fills the tally; later rounds must
reproduce round 0's outputs exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import sphbary as sb
from sphbary.errors import SphBaryError

import check
import inputs
from spans import NullTracer, Tracer
from speed import Speed

METHODS = ("NEW_MV", "NEW_WC", "NEW_MV_CLOSED", "CC_MV", "CC_WC")
STAGES = (
    "geom.validate_polygon",
    "geom.locate_point",
    "polyhedron.build_q",
    "polyhedron.mv_weights",
    "polyhedron.wachspress_weights",
    "spherical.closed_form_mv_weights",
    "tangent.gnomonic_project",
    "tangent.planar_mv",
    "tangent.planar_wachspress",
)
# Refusal tags reported per method in the traced run; any other tag is
# counted under "other".
REFUSAL_TAGS = {
    "NEW_MV": ("KernelViolation", "NotInterior", "DegenerateTriangle", "ResidualTooLarge"),
    "NEW_WC": ("NotConvexForWC", "NotInterior", "FaceThroughPoint", "ResidualTooLarge"),
    "NEW_MV_CLOSED": ("AlphaNearPi", "AngleDegenerate", "ResidualTooLarge"),
    "CC_MV": ("ProjectionUndefined", "OriginOnBoundary", "ResidualTooLarge"),
    "CC_WC": ("ProjectionUndefined", "OriginOnBoundary", "NotConvex", "ResidualTooLarge"),
}
SETUP_REPEATS = 7
REPLAY_POINTS = 32          # replayed grid points per polygon in the traced run
PROBE_RESOLUTION = 4        # grid_rows probe in the traced run
CLI_PROBE_RESOLUTION = 8
VALIDATE_PROBE = "import json, sys\nimport sphbary\nfor v in json.load(open(sys.argv[1])):\n    sphbary.validate_polygon(v)\n"


class Round:
    """One round's calls.  After `finish`, per-method seconds and
    evaluations, latency samples (ms per evaluation, weight) and the summed
    call time, all in reference seconds (see speed.py)."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.calls: list[tuple] = []       # (midpoint, seconds, method, evals, latency group)

    def add(self, method: str | None, evals: int, seconds: float, group=None) -> None:
        """Record a call that has just ended.  Calls of one latency `group`
        form a single sample; without a group each call is a sample."""
        self.calls.append((perf_counter() - seconds / 2, seconds, method, evals, group))
        self.speed.follow(seconds)

    def finish(self) -> "Round":
        self.seconds = defaultdict(float)
        self.evals = defaultdict(int)
        self.raw_wall = sum(c[1] for c in self.calls)
        self.wall = 0.0
        groups: dict = defaultdict(lambda: [0.0, 0])
        for t, seconds, method, evals, group in self.calls:
            seconds *= self.speed.scale_at(t)
            self.wall += seconds
            if method is not None:
                self.seconds[method] += seconds
                self.evals[method] += evals
                g = groups[len(groups) if group is None else ("group", group)]
                g[0] += seconds
                g[1] += evals
        self.latency = [(1e3 * s / e, e) for s, e in groups.values()]
        return self

    def rate(self, method: str | None = None) -> float:
        if method is None:
            return sum(self.evals.values()) / sum(self.seconds.values())
        return self.evals[method] / self.seconds[method]


def weighted_quantile(samples: list[tuple[float, int]], q: float) -> float:
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    acc = 0
    for value, weight in samples:
        acc += weight
        if acc >= q * total:
            return value
    return samples[-1][0]


def tail_quantile(count: int) -> float:
    """The highest percentile, at most 99, with at least ten samples beyond it."""
    return max(0.5, min(0.99, int(100 * (1 - 10 / count)) / 100))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    spawns = False                 # measured work runs in fresh interpreters

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.speed = Speed(share=0.3, spawn=True) if self.spawns else Speed()
        self.tally = check.Tally()
        self._digests: dict = {}
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    # -- provided by each workload ------------------------------------------
    raw: list                      # inputs.Polygon, in workload order

    def round(self, r: int, tr) -> Round:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """A fresh interpreter that imports sphbary and validates every polygon."""
        path = self.workdir / "polygons.json"
        path.write_text(json.dumps([p.vertices.tolist() for p in self.raw]) + "\n")
        return [sys.executable, "-c", VALIDATE_PROBE, str(path)]

    def replay_pairs(self) -> list[tuple[int, np.ndarray]]:
        """(polygon index, direction) pairs for the stage replay."""
        raise NotImplementedError

    def probe_polygons(self) -> list[int]:
        """Indices of the polygons the grid_rows and CLI probes use."""
        raise NotImplementedError

    # -- shared -------------------------------------------------------------
    def same_as_before(self, key, value: str) -> bool:
        """False when `key` produced different output in an earlier round;
        True the first time a key is seen."""
        old = self._digests.setdefault(key, value)
        if old != value:
            self.tally.failed += 1
            return False
        return True

    def seen(self, key) -> bool:
        return key in self._digests

    def cli(self, tr, label: str, eval_id: str, args: list[str], output: Path | None = None,
            out: Round | None = None, method: str | None = None, evals: int = 0, group=None):
        """Run one `python -m sphbary` command, add it to round `out`;
        returns (stdout bytes, output file bytes)."""
        argv = [sys.executable, "-m", "sphbary", *args]
        t0 = perf_counter()
        with tr.span(f"cli.{label}", eval_id):
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        if out is not None:
            out.add(method, evals, perf_counter() - t0, group)
        if proc.returncode != 0:
            self.tally.failed += 1
            sys.stderr.write(f"command failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr.decode()}")
        body = output.read_bytes() if output is not None and output.exists() else b""
        return proc.stdout, body

    def check_csv(self, key, text: str, vertices: np.ndarray, convex: bool) -> np.ndarray:
        """Tally the rows of a grid CSV the first time `key` is seen and
        return their points; the CLI prints only psi_k, its residual and
        the error tag per row."""
        rows = list(csv.DictReader(io.StringIO(text)))
        points = np.array([[float(row["px"]), float(row["py"]), float(row["pz"])] for row in rows])
        first = not self.seen(key)
        if not self.same_as_before(key, digest(text)):
            for row in rows:
                self.tally.wrong[row["method"]] += 1
                self.tally.unexpected[row["method"], "nondeterministic"] += 1
        if not first:
            return points
        if not rows:
            self.tally.failed += 1
            return points
        inside = check.winding_inside(vertices, points)
        for row, ins in zip(rows, inside):
            error = row["error"] or None
            bad = None
            if error is None:
                if float(row["residual"]) > check.RESIDUAL:
                    bad = "residual"
                elif convex and float(row["value"]) < -check.NEG_SLACK:
                    bad = "negative"
            self.tally.record(row["method"], not ins, convex, error, bad)
        return points


class DenseGrid(Workload):
    """Few polygons, many directions: grid_rows over a fixed grid."""

    name = "dense_grid"

    def __init__(self, seed, root, workdir):
        super().__init__(root, workdir)
        self.raw = inputs.dense_grid(seed, root)
        self.polygons = [sb.validate_polygon(p.vertices) for p in self.raw]
        self.input_hash = inputs.input_hash(self.raw, f"{self.name}:{inputs.DENSE_RESOLUTION}")
        self.grid_points: dict[int, np.ndarray] = {}

    def round(self, r, tr):
        """The latency sample is per polygon: its grid's mean time per
        evaluation over the five methods.  Per method and polygon, the 15
        per-point costs sit in clusters whose order changes with the seed."""
        out = Round(self.speed)
        res = inputs.DENSE_RESOLUTION
        for pi, (raw, polygon) in enumerate(zip(self.raw, self.polygons)):
            b = inputs.bucket(raw.n)
            for k in range(len(METHODS)):
                method = METHODS[(k + r + pi) % len(METHODS)]
                t0 = perf_counter()
                with tr.span("harness.grid_rows", f"grid/{b}/{method}/{res * res}"):
                    rows = sb.grid_rows(polygon, 0, res, method)
                out.add(method, len(rows), perf_counter() - t0, group=pi)
                self.check_rows(pi, method, rows)
        return out

    def check_rows(self, pi: int, method: str, rows) -> None:
        raw = self.raw[pi]
        points = np.array([row.point for row in rows])
        first = not self.seen((pi, method))
        self.same_as_before((pi, method), digest(points.tobytes(), *[
            (row.error, None if row.values is None else row.values.tobytes()) for row in rows]))
        if not first:
            return
        self.grid_points[pi] = points
        inside = check.winding_inside(raw.vertices, points)
        for row, ins in zip(rows, inside):
            bad = None if row.error else check.violation(row.values, raw.vertices, row.point, raw.convex)
            self.tally.record(method, not ins, raw.convex, row.error, bad)

    def replay_pairs(self):
        pairs = []
        for pi, raw in enumerate(self.raw):
            pts = self.grid_points[pi]
            step = max(1, len(pts) // REPLAY_POINTS)
            pairs += [(pi, x) for x in pts[::step]] + [(pi, raw.center)]
        return pairs

    def probe_polygons(self):
        return list(range(len(self.raw)))


class PolygonStream(Workload):
    """Many polygons, a few points each, one evaluate call per method."""

    name = "polygon_stream"

    def __init__(self, seed, root, workdir):
        super().__init__(root, workdir)
        self.raw = inputs.polygon_stream(seed)
        self.input_hash = inputs.input_hash(self.raw, self.name)

    def round(self, r, tr):
        out = Round(self.speed)
        for pi, raw in enumerate(self.raw):
            b = inputs.bucket(raw.n)
            t0 = perf_counter()
            try:
                with tr.span("geom.validate_polygon", f"round/{b}/-/{pi}"):
                    polygon = sb.validate_polygon(raw.vertices)
                invalid = None
            except SphBaryError as exc:
                polygon, invalid = None, exc.name
            out.add(None, 0, perf_counter() - t0)
            for qi, q in enumerate(raw.queries):
                for k in range(len(METHODS)):
                    method = METHODS[(k + r + pi + qi) % len(METHODS)]
                    values, error = None, invalid
                    t0 = perf_counter()
                    if polygon is not None:
                        try:
                            with tr.span("harness.evaluate", f"round/{b}/{method}/{pi}.{qi}"):
                                values = sb.evaluate(polygon, q.x, method).values
                        except SphBaryError as exc:
                            error = exc.name
                    out.add(method, 1, perf_counter() - t0)
                    self.note(pi, qi, method, values, error)
        return out

    def note(self, pi: int, qi: int, method: str, values, error) -> None:
        key = (pi, qi, method)
        first = not self.seen(key)
        self.same_as_before(key, digest(error, None if values is None else values.tobytes()))
        if not first:
            return
        raw, q = self.raw[pi], self.raw[pi].queries[qi]
        bad = None
        if values is not None:
            bad = check.violation(values, raw.vertices, q.x, raw.convex, q.kind, q.index, q.gap, q.coef)
        near_edge = q.kind == "edge" and q.gap <= check.NEAR_EDGE_GAP
        self.tally.record(method, q.kind == "exterior", raw.convex, error, bad, near_edge)

    def replay_pairs(self):
        return [(pi, q.x) for pi, raw in enumerate(self.raw) for q in raw.queries] + [
            (pi, raw.center) for pi, raw in enumerate(self.raw)]

    def probe_polygons(self):
        firsts = {}
        for pi, raw in enumerate(self.raw):
            if raw.convex:
                firsts.setdefault(inputs.bucket(raw.n), pi)
        return sorted(firsts.values())


class CliSession(Workload):
    """A fixed sequence of `python -m sphbary` commands, one at a time."""

    name = "cli_session"
    spawns = True
    GRID_RESOLUTION = (16, 8, 8)       # demo quadrilateral, 12-gon, 32-gon
    COMPARE = ("NEW_WC", "CC_WC")
    COMPARE_RESOLUTION = 10

    def __init__(self, seed, root, workdir):
        super().__init__(root, workdir)
        self.raw = [inputs.demo_quad(root)] + inputs.cli_polygons(seed)
        self.files = [root / "data" / "demo_quad.json"]
        for i, p in enumerate(self.raw[1:]):
            self.files.append(workdir / f"cli_polygon_{i}.json")
            inputs.write_polygon(self.files[-1], p)
        self.input_hash = inputs.input_hash(self.raw, f"{self.name}:{self.GRID_RESOLUTION}")
        self.grid_points: dict[int, np.ndarray] = {}

    def setup_argv(self):
        return [sys.executable, "-m", "sphbary", "validate", str(self.files[0])]

    def round(self, r, tr):
        """The latency sample is per file, as in dense_grid: its grids' mean
        time per point over the five methods."""
        out = Round(self.speed)
        for fi, (path, raw) in enumerate(zip(self.files, self.raw)):
            if fi < 2:
                self.validate(tr, r, fi, out)
            res = self.GRID_RESOLUTION[fi]
            for k in range(len(METHODS)):
                method = METHODS[(k + r + fi) % len(METHODS)]
                csv_path = self.workdir / f"grid_{fi}_{method}.csv"
                _, body = self.cli(tr, "grid", f"cli/{r}/{method}", [
                    "grid", str(path), "--resolution", str(res), "--method", method, "--output", str(csv_path)],
                    csv_path, out, method, res * res, group=fi)
                self.grid_points[fi] = self.check_csv((fi, method), body.decode(), raw.vertices, raw.convex)
            if fi == 0:
                self.compare(tr, r, fi, self.COMPARE_RESOLUTION, out)
        return out

    def validate(self, tr, r: int, fi: int, out: Round) -> None:
        raw = self.raw[fi]
        stdout, _ = self.cli(tr, "validate", f"cli/{r}/-", ["validate", str(self.files[fi])], out=out)
        expected = f"valid, {'convex' if raw.convex else 'non-convex'}, n={raw.n}"
        if self.same_as_before(("validate", fi), digest(stdout)) and not stdout.decode().startswith(expected):
            self.tally.failed += 1

    def compare(self, tr, r: int, fi: int, res: int, out: Round) -> None:
        raw = self.raw[fi]
        base = ["compare", str(self.files[fi]), "--methods", *self.COMPARE, "--resolution", str(res)]
        stdout, _ = self.cli(tr, "compare", f"cli/{r}/-", base, out=out)
        if self.same_as_before(("compare", fi), digest(stdout)) and not stdout.startswith(
                f"compare {self.COMPARE[0]} vs {self.COMPARE[1]}\ngrid points: {res * res},".encode()):
            self.tally.failed += 1
        csv_path = self.workdir / f"compare_{fi}.csv"
        stdout_csv, body = self.cli(tr, "compare_csv", f"cli/{r}/-", [*base, "--csv", str(csv_path)], csv_path, out)
        self.same_as_before(("compare_csv_stdout", fi), digest(stdout_csv))
        rows = self.check_csv(("compare_csv", fi), body.decode(), raw.vertices, raw.convex)
        if len(rows) != 2 * raw.n * res * res:
            self.tally.failed += 1

    def replay_pairs(self):
        pairs = []
        for fi, raw in enumerate(self.raw):
            pts = self.grid_points[fi]
            step = max(1, len(pts) // REPLAY_POINTS)
            pairs += [(fi, x) for x in pts[::step]] + [(fi, raw.center)]
        return pairs

    def probe_polygons(self):
        return list(range(len(self.raw)))


WORKLOADS = {w.name: w for w in (DenseGrid, PolygonStream, CliSession)}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_rounds(wl: Workload, seconds: float, tracer: Tracer | None) -> tuple[list[Round], list[Round]]:
    """At least two rounds, and more while the next one, as long as the
    longest so far, would end at most half a round after `seconds`.  With a
    tracer, odd rounds are traced and even ones are not; returns
    (untraced, traced)."""
    plain, traced = [], []
    null = NullTracer()
    start = perf_counter()
    longest = 0.0
    r = 0
    while r < 2 or perf_counter() + longest / 2 <= start + seconds:
        t0 = perf_counter()
        if tracer is not None and r % 2:
            traced.append(wl.round(r, tracer))
        else:
            plain.append(wl.round(r, null))
        longest = max(longest, perf_counter() - t0)
        r += 1
    return [rd.finish() for rd in plain], [rd.finish() for rd in traced]


def measure_setup(wl: Workload) -> tuple[list[float], list[float]]:
    """Raw and reference seconds of each fresh-interpreter set-up.  Set-up
    is short, so the kernel runs as long as each one."""
    raw, speed = [], Speed(share=1.0, spawn=True)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(wl.setup_argv(), cwd=wl.root, env=wl.env, capture_output=True, timeout=120)
        raw.append((t0, perf_counter() - t0))
        speed.follow(raw[-1][1])
        if proc.returncode != 0:
            wl.tally.failed += 1
            sys.stderr.write(proc.stderr.decode())
    return [s for _, s in raw], [s * speed.scale_at(t0 + s / 2) for t0, s in raw]


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """metric -> (value, unit, sample count), measured untraced, and notes."""
    raw_setup, setup = measure_setup(wl)
    rounds, _ = run_rounds(wl, seconds, None)
    latency = [s for rd in rounds for s in rd.latency]
    count = sum(w for _, w in latency)
    tail = tail_quantile(count)
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup))}
    for m in METHODS:
        metrics[f"evals_per_s.{m}"] = (statistics.median(rd.rate(m) for rd in rounds), "1/s", len(rounds))
    metrics["eval_ms_p50"] = (weighted_quantile(latency, 0.5), "ms", count)
    metrics["eval_ms_p99"] = (weighted_quantile(latency, tail), "ms", count)
    metrics["wall_s"] = (statistics.median(rd.wall for rd in rounds), "s", len(rounds))
    metrics["not_wrong_frac"] = (1.0 - wl.tally.wrong_frac, "ratio", wl.tally.attempted)
    metrics["not_refused_frac"] = (1.0 - wl.tally.refused_frac, "ratio", wl.tally.attempted)
    notes = {
        "rounds": len(rounds),
        "eval_ms_p99_quantile": tail,
        "raw_s": {"setup": raw_setup, "round_wall": [rd.raw_wall for rd in rounds]},
        "reference_s": {"setup": setup, "round_wall": [rd.wall for rd in rounds]},
    }
    return metrics, notes


def replay(tr: Tracer, polygon, x: np.ndarray, method: str, eid: str) -> None:
    """Call one method's stage functions one by one, in the order the
    package's evaluate runs them for an interior point."""
    try:
        with tr.span("harness.evaluate", eid):
            sb.evaluate(polygon, x, method)
    except SphBaryError:
        pass
    try:
        with tr.span("geom.locate_point", eid):
            loc = sb.locate_point(polygon, x)
        if loc.kind != "interior":
            return
        if method in ("NEW_MV", "NEW_WC"):
            with tr.span("polyhedron.build_q", eid):
                q = sb.build_q(polygon, x)
            if method == "NEW_MV":
                with tr.span("polyhedron.mv_weights", eid):
                    sb.mv_weights(q)
            else:
                with tr.span("polyhedron.wachspress_weights", eid):
                    sb.wachspress_weights(q, require_convex=False)
        elif method == "NEW_MV_CLOSED":
            with tr.span("spherical.closed_form_mv_weights", eid):
                sb.closed_form_mv_weights(polygon, x)
        else:
            with tr.span("tangent.gnomonic_project", eid):
                t = sb.gnomonic_project(polygon, x)
            name = "tangent.planar_mv" if method == "CC_MV" else "tangent.planar_wachspress"
            with tr.span(name, eid):
                (sb.planar_mv if method == "CC_MV" else sb.planar_wachspress)(t)
    except SphBaryError:
        pass


def layer_probe(wl: Workload, tr: Tracer, inproc: Speed, spawned: Speed) -> None:
    """Every layer, measured on this workload's own inputs: validation,
    the stage replay, grid_rows and (outside cli_session) the CLI."""

    def step(call, *args, speed=inproc):
        t0 = perf_counter()
        out = call(*args)
        speed.follow(perf_counter() - t0)
        return out

    def validate(pi, raw):
        with tr.span("geom.validate_polygon", f"probe/{inputs.bucket(raw.n)}/-/{pi}"):
            return sb.validate_polygon(raw.vertices)

    def replay_all(j, pi, x):
        b = inputs.bucket(wl.raw[pi].n)
        for k in range(len(METHODS)):
            method = METHODS[(k + j) % len(METHODS)]
            replay(tr, polygons[pi], x, method, f"replay/{b}/{method}/{pi}.{j}")

    def grid(pi, method, res):
        with tr.span("harness.grid_rows", f"grid/{inputs.bucket(wl.raw[pi].n)}/{method}/{res * res}"):
            sb.grid_rows(polygons[pi], 0, res, method)

    polygons = {pi: step(validate, pi, raw) for pi, raw in enumerate(wl.raw)}
    for j, (pi, x) in enumerate(wl.replay_pairs()):
        step(replay_all, j, pi, x)
    for pi in wl.probe_polygons():
        for method in METHODS:
            step(grid, pi, method, PROBE_RESOLUTION)
    if isinstance(wl, CliSession):
        return
    path = wl.workdir / "cli_probe.json"
    inputs.write_polygon(path, wl.raw[wl.probe_polygons()[0]])
    res = str(CLI_PROBE_RESOLUTION)
    step(wl.cli, tr, "validate", "cli/probe/-", ["validate", str(path)], speed=spawned)
    for method in METHODS:
        step(wl.cli, tr, "grid", f"cli/probe/{method}", [
            "grid", str(path), "--resolution", res, "--method", method, "--output", str(wl.workdir / "probe.csv")],
            speed=spawned)
    base = ["compare", str(path), "--methods", *CliSession.COMPARE, "--resolution", res]
    step(wl.cli, tr, "compare", "cli/probe/-", base, speed=spawned)
    step(wl.cli, tr, "compare_csv", "cli/probe/-", [*base, "--csv", str(wl.workdir / "probe_compare.csv")],
         speed=spawned)


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{s}.us.{b}", "us") for s in STAGES for b, _ in inputs.BUCKETS]
    names += [(f"harness.evaluate.us.{m}.{b}", "us") for m in METHODS for b, _ in inputs.BUCKETS]
    names += [(f"harness.unattributed_us.{m}.{b}", "us") for m in METHODS for b, _ in inputs.BUCKETS]
    names += [(f"harness.grid_rows.us_per_point.{m}", "us") for m in METHODS]
    names += [(f"harness.evaluate.calls.{m}", "count") for m in METHODS]
    names += [(f"harness.evaluate.wrong.{m}", "count") for m in METHODS]
    names += [(f"harness.evaluate.refused.{m}.{t}", "count") for m in METHODS for t in (*REFUSAL_TAGS[m], "other")]
    names += [("harness.evaluate.wrong_frac", "ratio"), ("harness.evaluate.refused_frac", "ratio")]
    names += [("cli.startup_s", "s")] + [(f"cli.grid_s.{m}", "s") for m in METHODS]
    names += [("cli.compare_s", "s"), ("cli.compare_csv_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


def traced(wl: Workload, seconds: float, out_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced rounds, then probe
    every layer; spans are written to `out_path`."""
    tr = Tracer()
    plain, traced_rounds = run_rounds(wl, seconds, tr)
    inproc = Speed() if wl.spawns else wl.speed
    spawned = wl.speed if wl.spawns else Speed(spawn=True)
    layer_probe(wl, tr, inproc, spawned)
    tr.write(out_path)

    values: dict[str, list[float]] = defaultdict(list)
    by_eval: dict[str, dict] = defaultdict(dict)
    cli_rounds: dict[tuple, float] = defaultdict(float)
    for name, start, end, _, eid, error in tr.spans:
        us = (end - start) / 1e3 * (spawned if name.startswith("cli.") else inproc).scale_at((start + end) / 2e9)
        parts = eid.split("/")
        if name.startswith("cli."):
            _, r, method = parts
            key = f"cli.grid_s.{method}" if name == "cli.grid" else f"{name}_s"
            cli_rounds[key, r] += us / 1e6
            continue
        _, b, method, tail = parts
        if name == "harness.grid_rows":
            values[f"harness.grid_rows.us_per_point.{method}"].append(us / int(tail))
        elif error is None and name in STAGES:
            values[f"{name}.us.{b}"].append(us)
        if parts[0] == "replay":
            by_eval[eid][name] = (us, error)
    for eid, spans in by_eval.items():
        _, b, method, _ = eid.split("/")
        us, error = spans.pop("harness.evaluate")
        if error is None and all(e is None for _, e in spans.values()):
            values[f"harness.evaluate.us.{method}.{b}"].append(us)
            values[f"harness.unattributed_us.{method}.{b}"].append(us - sum(u for u, _ in spans.values()))
    for (key, _), s in cli_rounds.items():
        values[key].append(s)
    values["cli.startup_s"] = [(end - start) / 1e9 * spawned.scale_at((start + end) / 2e9)
                               for name, start, end, *_ in tr.spans if name == "cli.validate"]
    samples = {k: len(v) for k, v in values.items() if v}
    values = {k: statistics.median(v) for k, v in values.items() if v}

    t = wl.tally
    for m in METHODS:
        values[f"harness.evaluate.calls.{m}"] = t.calls[m]
        values[f"harness.evaluate.wrong.{m}"] = t.wrong[m]
    for (m, tag), count in t.refused.items():
        key = f"harness.evaluate.refused.{m}.{tag if tag in REFUSAL_TAGS[m] else 'other'}"
        values[key] = values.get(key, 0) + count
    values["harness.evaluate.wrong_frac"] = t.wrong_frac
    values["harness.evaluate.refused_frac"] = t.refused_frac
    values["trace.overhead_frac"] = 1.0 - (statistics.median(rd.rate() for rd in traced_rounds)
                                           / statistics.median(rd.rate() for rd in plain))
    samples["trace.overhead_frac"] = len(plain) + len(traced_rounds)
    metrics = {}
    for name, unit in per_layer_names():
        if ".refused." in name:
            values.setdefault(name, 0)
        if name not in values:
            raise RuntimeError(f"traced run produced no sample for {name}")
        # counts and fractions of the outcome tally cover every checked evaluation
        metrics[name] = (values[name], unit, samples.get(name, t.attempted))
    notes = {"rounds_untraced": len(plain), "rounds_traced": len(traced_rounds), "spans": len(tr.spans)}
    return metrics, notes
