"""The package's six exception classes, all under ``SiegelLiftError``.

``InputError`` and its subclass ``UnsupportedLevelError`` mean bad input
(CLI exit code 2); ``VerificationError`` and its subclasses, ``InexactDivisionError``
and ``NotSymplecticError``, mean a failed exactness prediction (exit code 1).
"""


class SiegelLiftError(Exception):
    """Base class for all package errors."""


class InputError(SiegelLiftError):
    """Invalid or unsupported input data."""


class UnsupportedLevelError(InputError):
    """No level formula applies to the requested configuration."""


class VerificationError(SiegelLiftError):
    """An exact identity predicted to hold failed."""


class InexactDivisionError(VerificationError):
    """Polynomial division left a nonzero remainder."""


class NotSymplecticError(InexactDivisionError):
    """Exterior square is not divisible by the polarization factor."""
