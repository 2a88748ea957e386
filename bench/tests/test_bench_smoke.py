"""Self-check of the benchmark: a tiny-size run of every workload that must
print every metric BENCHMARK.json names, a checker that must flag perturbed
coordinates, and the refusal to run outside a sphbary checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import sphbary as sb  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Few, small inputs that still cover every size bucket and a star ring."""
    monkeypatch.setattr(inputs, "DENSE_N", (9, 25))
    monkeypatch.setattr(inputs, "DENSE_RESOLUTION", 3)
    monkeypatch.setattr(inputs, "STREAM_N", (3, 9, 25, 9))
    monkeypatch.setattr(inputs, "STREAM_STAR", (False, False, False, True))
    monkeypatch.setattr(inputs, "cli_polygons", lambda seed: [])
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "REPLAY_POINTS", 4)
    monkeypatch.setattr(workloads.CliSession, "GRID_RESOLUTION", (8,))
    monkeypatch.setattr(workloads.CliSession, "COMPARE_RESOLUTION", 3)


def names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_present(tiny, tmp_path, name):
    wl = workloads.WORKLOADS[name](3, ROOT, tmp_path)
    metrics, _ = workloads.end_to_end(wl, 0.0)
    assert {k: u for k, (_, u, _) in metrics.items()} == names("end_to_end")
    assert all(np.isfinite(v) and v > 0 and n >= 1 for v, _, n in metrics.values())
    assert wl.tally.correct and wl.tally.attempted > 0


def test_per_layer_metrics_present(tiny, tmp_path):
    wl = workloads.PolygonStream(3, ROOT, tmp_path)
    metrics, _ = workloads.traced(wl, 0.0, tmp_path / "spans.json")
    assert {k: u for k, (_, u, _) in metrics.items()} == names("per_layer")
    assert all(np.isfinite(v) and n >= 1 for v, _, n in metrics.values())
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {"geom.locate_point", "polyhedron.build_q", "cli.grid"} <= {s["name"] for s in spans}


def test_checker_flags_perturbed_psi():
    p = next(p for p in inputs.polygon_stream(3) if p.convex and p.n >= 5)
    polygon = sb.validate_polygon(p.vertices)
    psi = sb.evaluate(polygon, p.center, "CC_MV").values
    assert check.violation(psi, p.vertices, p.center, p.convex) is None
    bumped = psi.copy()
    bumped[0] += 1e-6
    assert check.violation(bumped, p.vertices, p.center, p.convex) == "residual"
    # Along a direction that keeps sum(psi v) and sum(psi), push one value below zero.
    null = np.linalg.svd(np.vstack([p.vertices.T, np.ones(p.n)]))[2][-1]
    i = int(np.argmax(np.abs(null)))
    negative = psi - (psi[i] + 1e-6) / null[i] * null
    assert check.violation(negative, p.vertices, p.center, p.convex) == "negative"
    assert check.violation(negative, p.vertices, p.center, convex=False) is None

    vertex = next(q for q in p.queries if q.kind == "vertex")
    kron = np.eye(p.n)[vertex.index]
    assert check.violation(kron, p.vertices, vertex.x, p.convex, "vertex", vertex.index) is None
    kron[vertex.index] -= 1e-15
    assert check.violation(kron, p.vertices, vertex.x, p.convex, "vertex", vertex.index) == "kronecker"

    edge = inputs.edge_query(np.random.default_rng(0), p, 1e-12)
    on_edge = np.zeros(p.n)
    on_edge[edge.index], on_edge[(edge.index + 1) % p.n] = edge.coef
    args = (p.vertices, edge.x, False, "edge", edge.index, edge.gap, edge.coef)
    assert check.violation(on_edge, *args) is None
    assert check.violation(on_edge + 5e-10 * null / np.abs(null).max(), *args) == "edge"


def test_tally_counts_exterior_values_as_wrong():
    tally = check.Tally()
    assert tally.record("CC_MV", exterior=True, convex=True, error=None, check=None) == "wrong"
    assert tally.record("CC_MV", exterior=True, convex=True, error="ExteriorPoint", check=None) == "ok"
    assert tally.record("CC_MV", exterior=False, convex=True, error="OriginOnBoundary", check=None) == "refused"
    assert tally.unexpected and not tally.correct


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "dense_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
