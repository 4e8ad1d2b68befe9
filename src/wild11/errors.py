"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes so that automation can tell
user error (2) from an out-of-scope request (3) from a genuine arithmetic
inconsistency (4).
"""


class Wild11Error(Exception):
    """Base class for all package-specific errors."""


class CapabilityError(Wild11Error):
    """The request is valid but outside what this implementation supports.

    Examples: a field with more than 2^20 elements, point counting in
    characteristic 2 or 3 or above q = 11^4, fiber classification in the
    wildly ramified characteristics 2 and 3.
    """


class InconsistencyError(Wild11Error):
    """An exact identity that must hold for correct inputs failed.

    This always signals corrupted input data or an arithmetic bug, never a
    recoverable condition.
    """


class ReducibleFiberError(Wild11Error):
    """Naive point counting was refused because a fiber is reducible.

    Counting points of a Weierstrass model equals counting points of the
    smooth surface only when every singular fiber is irreducible; anything
    else would silently undercount.
    """
