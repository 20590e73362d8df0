"""Exception types shared across the library."""


class PsicertError(Exception):
    """Base class for all library-specific errors."""


class DuplicateMultiplierTerm(PsicertError):
    """A diagonal multiplier was given repeated exponent vectors."""


class NotDiagonal(PsicertError):
    """A Hermitian polynomial has an off-diagonal entry where none is allowed."""


class NotHermitian(PsicertError):
    """A matrix or entry table violates Hermitian symmetry."""


class ExplicitLimit(PsicertError):
    """A desk-scale size cap was exceeded (matrix dimension, search space)."""


class CapExceeded(PsicertError):
    """The requested multiplier-power cap is above the hard limit."""


class DegreeMismatch(PsicertError):
    """An exponent vector does not have the required total degree or arity."""


class DomainTooSmall(PsicertError):
    """A formula was evaluated outside its validity range."""


class ParamsInfeasible(PsicertError):
    """Family parameters violate the construction's preconditions."""


class EpsilonSearchFailed(PsicertError):
    """No small enough coefficient was found within the search floor."""


class NotInPsiD(PsicertError):
    """An operation requires membership in a positivity class that fails to hold."""


class CertificateFailure(PsicertError):
    """A certificate construction that must succeed did not; internal inconsistency."""


class Infeasible(PsicertError):
    """A sign pattern admits no nonnegative realization."""


class BudgetExhausted(PsicertError):
    """A search ran out of evaluation budget before it found any result."""


class UnsupportedDimension(PsicertError):
    """Diagram rendering only handles two or three variables."""
