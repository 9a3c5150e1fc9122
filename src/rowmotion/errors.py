"""Exceptions shared across the package, and how their messages show input."""


def shown(value):
    """``str(value)``, or past 40 characters its first 20 and its length: a
    4,300-digit key would fill 8 kB of an error line."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


class PosetError(ValueError):
    """Raised for malformed poset input: cycles, duplicate or dangling covers."""


class SingularValue(ArithmeticError):
    """Raised when a realm value has no inverse (singular matrix, zero fraction).

    ``element`` carries the poset element id at which a transfer map or toggle
    hit the singular value, when that context is known.  ``trial`` carries the
    component of a product-ring value that is singular (``realms.FpProductRealm``,
    one fuzz trial of a batch); it is not in the message, so a trial refused
    in a batch reads as it would alone.
    """

    def __init__(self, message, element=None, trial=None):
        if element is not None:
            message = f"{message} (at element {element})"
        super().__init__(message)
        self.element = element
        self.trial = trial


class SamplingExhausted(RuntimeError):
    """Raised when a labeling sampler exceeds its retry bound.

    The failing master seed is kept on the exception so the run can be replayed.
    """

    def __init__(self, message, seed=None):
        if seed is not None:
            message = f"{message} (seed {seed})"
        super().__init__(message)
        self.seed = seed
