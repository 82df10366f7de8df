"""Exception hierarchy shared by all p1dom modules."""


class P1DomError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(P1DomError, TypeError):
    """Two operands belong to different coefficient rings."""


class UnsupportedRingError(P1DomError, ValueError):
    """The requested operation is not defined over this coefficient ring."""


class ShapeError(P1DomError, ValueError):
    """Matrix or complex dimensions are inconsistent."""


class BaseRingViolationError(P1DomError, ValueError):
    """A matrix entry uses an exponent forbidden by its base ring."""


class NonVanishingH1Error(P1DomError, ValueError):
    """A level of a sheaf complex has nontrivial first cohomology."""


class NotNovikovAcyclicError(P1DomError, ValueError):
    """The Novikov acyclicity hypothesis fails for the given complex."""


class StabilisationFailureError(P1DomError, RuntimeError):
    """The finite-domination witness fails its audit: a chart homology
    has a free part (``domination._torsion_dims``), or a ledger equation
    dim_K H_q(W) = dim_K H_q(C) + the two chart dimensions does not hold
    (``domination._witness``)."""


class FormatError(P1DomError, ValueError):
    """A file or serialised object does not match the expected format,
    or a complex to be written densely is too large for it: a degree of
    the global sections W above MAX_RANK (``sheaves.cech_complex``).

    Carries a ``location`` string pointing at the offending field.
    """

    def __init__(self, message, location=""):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


def shown(value) -> str:
    """``repr(value)`` for a message, whole up to 40 characters; a longer
    one is cut to its first 40 and its length, so no input echoes whole."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} chars)"
