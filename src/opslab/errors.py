"""Exception types shared across the library.

``ArgumentError`` flags inputs that are malformed on their face (wrong
shape, negative order, unparsable file).  ``AssumptionError`` flags inputs
that are well formed but fail a mathematical hypothesis discovered during
the computation (not power bounded, range inclusion fails, no positive
definite fixed point).  ``IdentityCheckError`` means a certificate's own
residual check failed: ``invariant_metric`` (its X),
``similarity_certificate`` (the three residuals of a
``SimilarityCertificate``, once) and ``canonical_left_m_inverse``
(``T S = I`` for its ``T = S^{-1}``) check
each residual they return; the CLI re-judges none.  ``similar_to_unitary``
decides T, whatever the order m, by ``T S = I`` and then T* against S's
certificate; a T that is not S^{-1} refutes its hypothesis: ``AssumptionError``.
Seeing one means a bug or a genuinely inconsistent input, never a routine
user error; the cross-checks between two decisions of one claim live in
the sweeps of ``suites`` and the tests.
"""


class OpslabError(Exception):
    """Base class for all library errors."""


class ArgumentError(OpslabError):
    """Raised when an argument is structurally invalid."""


class AssumptionError(OpslabError):
    """Raised when a mathematical hypothesis fails on otherwise valid input."""


class IdentityCheckError(OpslabError):
    """Raised when a certificate's own residual check fails."""


class MatrixFormatError(ArgumentError):
    """Raised when matrix/conjugation JSON does not match the schema."""
