"""Exception types shared across the package.

The CLI maps these onto process exit codes: input problems exit 1, exhausted
numeric budgets exit 2, ties, degeneracies and ill-conditioning exit 3.
"""


class L2AlexError(Exception):
    """Base class for all package-specific errors."""


class InputError(L2AlexError):
    """Invalid input document or CLI arguments, or a grid on which a value
    leaves the double range.

    `kind` is a stable machine-readable identifier (e.g. "malformed-json",
    "dimension-mismatch", "bad-index-divisor").
    """

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class VariableCountMismatch(L2AlexError):
    """Operands disagree on the ambient variable count."""


class ZeroPolynomialError(L2AlexError):
    """Operation undefined for the zero polynomial."""


class QuadratureBudgetError(L2AlexError):
    """Adaptive quadrature ran out of evaluation budget before reaching tol.

    Carries the best estimate so far and its achieved error, in log units
    as the library's results report them: an estimate of log M, log V(t) or
    log tau(t), or of the mean itself from ``adaptive_circle_mean``.
    """

    def __init__(self, message, best_estimate, achieved_tol):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_tol = achieved_tol


class DegenerateSliceError(L2AlexError):
    """A one-variable slice of a nonzero polynomial vanished at a node.

    A nonzero Laurent polynomial has positive Mahler measure, and its slices
    vanish only on a measure-zero set; hitting one exactly at a quadrature
    node indicates degenerate input rather than a harmless corner case.
    """


class IllConditionedError(L2AlexError, ArithmeticError):
    """A root factorization failed its reconstruction check, or a
    polynomial coefficient (a determinant's, say) or a twist's log scale
    sigma_j log t left the double range: the input is too ill-conditioned
    for double precision."""


class ChiefPartTieError(L2AlexError):
    """Two weight groups tie in the extremal-part selection.

    With a decomposition, the asymptote extraction assumes the positive
    weights r_1..r_d are linearly independent over Q, which makes <r, w>
    injective on integer weight vectors; a numerical tie means that
    assumption is violated. Without one, two faces whose float weights
    <sigma, v> agree to rounding cannot be told apart in double precision;
    an exact decomposition settles which face is extremal.
    """
