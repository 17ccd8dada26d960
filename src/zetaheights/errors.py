"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming errors.
"""


class ZetaHeightsError(Exception):
    """Base class for all package-specific errors."""


class ZeroPolynomialError(ZetaHeightsError, ValueError):
    """The zero polynomial was supplied where a nonzero one is required."""


class NonConvergenceError(ZetaHeightsError, RuntimeError):
    """A polished root failed its residual certificate."""


class LeadingCoeffVanishesError(ZetaHeightsError, ValueError):
    """Leading coefficient is 0 mod p; mod-p factorization is undefined."""


class FactorizationFailureError(ZetaHeightsError, RuntimeError):
    """Integer factorization exceeded its budget.

    Carries ``partial``: a dict of prime -> exponent found so far, plus the
    unfactored cofactor under key ``None``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or {}


class OverrideRequiredError(ZetaHeightsError, RuntimeError):
    """The split of a prime above an index divisor cannot be used: its shape
    does not have sum e*f = n_K, which a correct decomposition never gives,
    or code standing in for the split raises it to ask for one. An override
    entry {p: shape} then supplies the shape."""

    def __init__(self, p, message=""):
        super().__init__(message or f"splitting override required for p={p}")
        self.p = p


class NotUniformSplittingError(ZetaHeightsError, ValueError):
    """Residue degrees are unequal; the input is not Galois-compatible."""


class DomainError(ZetaHeightsError, ValueError):
    """Argument outside the documented domain of an operation."""


class GridMissError(ZetaHeightsError, RuntimeError):
    """Requested point lies outside the evaluator's cached grids."""


class InconsistentResidueError(ZetaHeightsError, RuntimeError):
    """The theta functional equation gives two disagreeing residues."""


class IncompleteZeroSetError(ZetaHeightsError, RuntimeError):
    """Zero scan not certified complete: |S| on the argument count's top
    edge falls to rounding; the evaluator's phase at 3/2 + iT leaves the
    Euler product's by more than its tail; the count's Delta / pi lies too
    far from an integer for the tail to fix it; or the scan's count differs
    from the argument principle's after all rescans. From locate_zeros,
    ``diagnostics["attempts"]`` holds one report per attempt; from
    argument_count alone, ``diagnostics["argument"]`` holds the count's own,
    with its Euler cutoff X, tail bound, gap and rounding.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ClosureFailureError(ZetaHeightsError, RuntimeError):
    """Explicit-formula identity failed to bracket its arithmetic side.

    ``payload`` carries both sides and the bracket for inspection.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload or {}


class QuadratureFailureError(ZetaHeightsError, RuntimeError):
    """Adaptive quadrature did not reach the requested accuracy."""


class DegreeMismatchError(ZetaHeightsError, ValueError):
    """Tower levels violate the degree-divisibility requirement."""


class DegenerateDiscriminantError(ZetaHeightsError, ValueError):
    """Family constants are undefined when |d| = 1 (the rationals alone)."""


class UsageError(ZetaHeightsError, ValueError):
    """Malformed command line; maps to exit code 64."""
