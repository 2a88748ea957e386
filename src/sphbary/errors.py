"""Exception hierarchy.

Every class name doubles as the machine-readable error tag printed by the
command-line front end (exit code 1), so names are stable API.
"""


class SphBaryError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- vector / polygon validation ------------------------------------------

class ZeroVector(SphBaryError):
    pass


class TooFewVertices(SphBaryError):
    pass


class NotInHemisphere(SphBaryError):
    pass


class WrongOrientation(SphBaryError):
    pass


class DegenerateEdge(SphBaryError):
    pass


class SelfIntersecting(SphBaryError):
    pass


# -- polyhedron construction and 3D weights --------------------------------

class PointOnVertexOrAntipode(SphBaryError):
    pass


class NotInterior(SphBaryError):
    pass


class DegenerateTriangle(SphBaryError):
    pass


class KernelViolation(SphBaryError):
    pass


class NotConvex(SphBaryError):
    pass


class FaceThroughPoint(SphBaryError):
    pass


# -- spherical coordinate evaluation ----------------------------------------

class ExteriorPoint(SphBaryError):
    pass


class NonPositiveDenominator(SphBaryError):
    pass


class NotConvexForWC(SphBaryError):
    pass


class AngleDegenerate(SphBaryError):
    pass


class AlphaNearPi(SphBaryError):
    pass


# -- tangent-plane (classical) construction ---------------------------------

class ProjectionUndefined(SphBaryError):
    pass


class OriginOnBoundary(SphBaryError):
    pass


# -- harness -----------------------------------------------------------------

class SingularMatrix(SphBaryError):
    pass


class GenerationFailed(SphBaryError):
    pass


class ResidualTooLarge(SphBaryError):
    pass


class UnknownMethod(SphBaryError):
    pass


# -- batched calls -------------------------------------------------------------
#
# A batched kernel evaluates m rows at once and records, per row, the error
# its single-row call raises: a list of m entries, None where the row
# succeeded.  Checks run in the single-row order and each one only tags rows
# that no earlier check refused, so every row keeps its first error.

def refuse(errors: list, mask, make) -> None:
    """Record make(i) as the error of each row i in `mask` still unrefused."""
    for i in mask.nonzero()[0]:
        if errors[i] is None:
            errors[i] = make(int(i))


def check_row(errors: list, i: int = 0) -> None:
    """Raise row i's recorded error, if any: the single-row form of a batch."""
    if errors[i] is not None:
        raise errors[i]


def single(batched, *args):
    """The m = 1 call of a batched kernel: batched(*args, errors) with one
    error slot, that row's error raised, else row 0 of each output."""
    errors = [None]
    out = batched(*args, errors)
    check_row(errors)
    return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]
