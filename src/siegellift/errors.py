"""Exception hierarchy shared across the package.

``InputError`` subclasses signal bad user-supplied data (CLI exit code 2);
``VerificationError`` subclasses signal a failed exactness prediction
(CLI exit code 1).
"""


class SiegelLiftError(Exception):
    """Base class for all package errors."""


class InputError(SiegelLiftError):
    """Invalid or unsupported input data."""


class PrimeMismatchError(InputError):
    """Two local factors at different primes were combined."""


class WeightMismatchError(InputError):
    """Weight ledger mismatch in an operation that requires equal weights."""


class DegreeError(InputError):
    """Operand degree outside the operation's domain."""


class SingularModelError(InputError):
    """Weierstrass model with vanishing discriminant."""


class BadPrimeError(InputError):
    """Prime supplied to the wrong reduction regime (good vs. bad)."""


class NonMinimalModelError(InputError):
    """Reduction data inconsistent with a minimal Weierstrass model."""


class EigenfileError(InputError):
    """Malformed Hecke-eigenvalue file."""


class MissingEigenvalueError(InputError):
    """Local factor requested at a prime absent from the eigenvalue table."""


class UnsupportedFieldError(InputError):
    """Imaginary quadratic discriminant outside the class-number-one set."""


class UnitCompatibilityError(InputError):
    """Character exponent incompatible with the unit group of the field."""


class NonRegularError(InputError):
    """Archimedean parameter degenerates (zero or repeated exponent)."""


class UnsupportedLevelError(InputError):
    """No level formula applies to the requested configuration."""


class MissingPrimeError(InputError):
    """Dirichlet expansion requested past the primes with stored factors."""

    def __init__(self, primes):
        self.primes = tuple(primes)
        super().__init__(f"no local factor stored at primes {list(self.primes)}")


class ConvergenceDomainError(InputError):
    """Evaluation point outside the region of absolute convergence."""


class VerificationError(SiegelLiftError):
    """An exact identity predicted to hold failed."""


class InexactDivisionError(VerificationError):
    """Polynomial division left a nonzero remainder."""


class NotSymplecticError(InexactDivisionError):
    """Exterior square is not divisible by the polarization factor."""
