"""Exception types shared across the library."""


class EbhessError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EbhessError):
    """Operand shapes are incompatible with the requested operation."""


class RankDeficient(EbhessError):
    """A pivoted LU met a pivot below the breakdown threshold."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"rank deficiency detected at column {column}")


class SingularPivotBlock(EbhessError):
    """The pivot-row submatrix is singular to working precision."""


class NoConvergence(EbhessError):
    """An iterative kernel exhausted its sweep budget."""


class SingularOperator(EbhessError):
    """The operator has a non-finite entry or is singular by :func:`ebhess.dense.singular`."""


class UnknownGallery(EbhessError):
    """Requested test-problem name is not in the gallery."""


class BadDimension(EbhessError):
    """Gallery size parameter outside its documented range."""


class ParseError(EbhessError):
    """Malformed Matrix Market header or entry data."""


class UnsupportedField(EbhessError):
    """Matrix Market field or symmetry variant outside the supported set."""


class Breakdown(EbhessError):
    """A rank-deficient candidate block; ``basis`` holds the blocks before it (None at block 1)."""

    def __init__(self, step, message=None):
        self.step = step
        self.basis = None
        super().__init__(message or f"breakdown while constructing block {step}")


class SingularCoefficient(EbhessError):
    """A recursion coefficient that must be inverted is singular."""


class BranchCutViolation(EbhessError):
    """An eigenvalue sits on the branch cut (or pole) of the requested function."""


class IllConditionedEigenbasis(EbhessError):
    """Eigenvector basis too ill-conditioned to evaluate the function reliably."""


class Overflow(EbhessError):
    """Result overflowed the scaling capacity of the kernel."""


class AssumptionViolated(EbhessError):
    """A precondition of an error bound does not hold for this operator."""


class NotConverged(EbhessError):
    """Restart cap reached with shifts still above tolerance."""

    def __init__(self, unconverged, state=None, message=None):
        self.unconverged = list(unconverged)
        self.state = state
        super().__init__(
            message or f"{len(self.unconverged)} shift(s) not converged at the restart cap"
        )


class ReducedSystemSingular(NotConverged):
    """A shifted reduced system is singular to working precision.

    ``solve_shifted`` froze that shift and solved the others on; ``sigma`` is
    the first frozen shift, ``unconverged`` lists every shift not converged
    (the frozen ones included) and ``state`` holds every shift's X."""

    def __init__(self, sigma, unconverged, state=None):
        self.sigma = sigma
        super().__init__(unconverged, state, f"reduced system singular for shift {sigma}")


class BadConfig(EbhessError, ValueError):
    """Invalid settings."""
