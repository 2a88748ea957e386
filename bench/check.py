"""Output checker and outcome tally.

Thresholds are those of the acceptance suite (tests/test_acceptance.py):
linear-precision residual <= 1e-8, sum(psi) >= 1 - 1e-10, psi >= -1e-10 on
convex polygons, the exact Kronecker delta at a vertex and edge
coefficients within 1e-10.  Each attempted evaluation ends as one of

  ok       values that pass every check, or an exterior point that raised;
  wrong    values that fail a check, or an exterior point that got values;
  refused  a point inside or on the polygon that raised a SphBaryError.

Known defects of the library are tallied like any other wrong answer; only
a wrong answer outside `known_defect` makes a run incorrect.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

RESIDUAL = 1e-8
SUM_SLACK = 1e-10
NEG_SLACK = 1e-10
EDGE_TOL = 1e-10
EDGE_CHECK_GAP = 1e-12     # edge coefficients are asserted at gaps this small
NEAR_EDGE_GAP = 1e-8       # interior points this close to an edge are in the boundary layer


def known_defect(method: str, convex: bool, check: str, near_edge: bool) -> bool:
    """Wrong answers the library gives at the commit that defined the
    benchmark (ROADMAP open items 1 and 2).  They are tallied like any
    other; a wrong answer outside this list marks the run incorrect."""
    if method == "NEW_MV_CLOSED" and not convex:
        return True                       # unsigned alpha on non-convex rings
    if method == "NEW_WC" and convex and check == "negative":
        return True                       # polar-dual weights on the fan
    # residual > 1e-8 (NEW_MV, NEW_WC) and NaN values (NEW_MV_CLOSED) at
    # interior points within 1e-8 of an edge
    return near_edge and method.startswith("NEW_") and check in ("residual", "shape")


def violation(psi, vertices: np.ndarray, x: np.ndarray, convex: bool,
              kind: str = "interior", index: int = -1, gap: float = 0.0, coef=()) -> str | None:
    """Name of the first failed check, or None when psi passes them all."""
    psi = np.asarray(psi, dtype=float)
    n = len(vertices)
    if psi.shape != (n,) or not np.all(np.isfinite(psi)):
        return "shape"
    if kind == "vertex":
        return None if np.array_equal(psi, np.eye(n)[index]) else "kronecker"
    if float(np.linalg.norm(psi @ vertices - x)) > RESIDUAL:
        return "residual"
    if float(psi.sum()) < 1.0 - SUM_SLACK:
        return "sum"
    if convex and float(psi.min()) < -NEG_SLACK:
        return "negative"
    if kind == "edge" and gap <= EDGE_CHECK_GAP:
        expected = np.zeros(n)
        expected[index], expected[(index + 1) % n] = coef
        if float(np.max(np.abs(psi - expected))) > EDGE_TOL:
            return "edge"
    return None


class Tally:
    """Outcome counts per method, per error tag and per failed check."""

    def __init__(self):
        self.calls = Counter()       # method
        self.wrong = Counter()       # method
        self.refused = Counter()     # (method, tag)
        self.reasons = Counter()     # (method, check)
        self.unexpected = Counter()  # (method, check) outside known_defect
        self.failed = 0              # crashes and non-deterministic outputs

    def record(self, method: str, exterior: bool, convex: bool,
               error: str | None, check: str | None, near_edge: bool = False) -> str:
        """Tally one evaluation.  `error` is the SphBaryError tag it raised
        (None when it returned values); `check` is the failed check of the
        returned values (None when they passed)."""
        self.calls[method] += 1
        if exterior:
            outcome = "ok" if error else "wrong"
            check = check or "exterior_answered"
        elif error:
            outcome = "refused"
            self.refused[method, error] += 1
        else:
            outcome = "wrong" if check else "ok"
        if outcome == "wrong":
            self.wrong[method] += 1
            self.reasons[method, check] += 1
            if not known_defect(method, convex, check, near_edge):
                self.unexpected[method, check] += 1
        return outcome

    @property
    def attempted(self) -> int:
        return sum(self.calls.values())

    @property
    def wrong_frac(self) -> float:
        return sum(self.wrong.values()) / max(self.attempted, 1)

    @property
    def refused_frac(self) -> float:
        return sum(self.refused.values()) / max(self.attempted, 1)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unexpected

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "wrong_frac": self.wrong_frac,
            "refused_frac": self.refused_frac,
            "calls": dict(self.calls),
            "wrong": dict(self.wrong),
            "wrong_by_check": {f"{m}.{c}": k for (m, c), k in sorted(self.reasons.items())},
            "refused_by_tag": {f"{m}.{t}": k for (m, t), k in sorted(self.refused.items())},
            "unexpected_wrong": {f"{m}.{c}": k for (m, c), k in sorted(self.unexpected.items())},
            "failed": self.failed,
        }


def winding_inside(vertices: np.ndarray, points: np.ndarray, band: float = 1e-9) -> np.ndarray:
    """True where a point is inside the ring or within `band` of an edge's
    great circle; the benchmark's own locate, independent of the library."""
    nxt = np.roll(vertices, -1, axis=0)
    normals = np.cross(vertices, nxt)
    sin_t = points @ normals.T                                      # (m, n)
    cx = np.cross(points[:, None, :], vertices[None, :, :])         # x cross v_i
    cos_t = np.einsum("mij,mij->mi", cx, np.roll(cx, -1, axis=1))
    winding = np.arctan2(sin_t, cos_t).sum(axis=1)
    on_arc = (np.einsum("mij,ij->mi", cx, normals) <= 0) & (np.einsum("mij,ij->mi", np.roll(cx, -1, axis=1), normals) >= 0)
    near = (np.abs(sin_t / np.linalg.norm(normals, axis=1)) <= band) & on_arc
    return (np.abs(winding - 2 * np.pi) < 1.0) | near.any(axis=1)
