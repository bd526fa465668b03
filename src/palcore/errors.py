"""Exception hierarchy.

Every error raised by the library derives from PalcoreError so callers can
catch the whole family at an API boundary (the CLI maps them to exit code 1).
"""


class PalcoreError(Exception):
    """Base class for all library errors."""


class SingularMatrix(PalcoreError):
    """Matrix determinant too close to zero to normalize."""


class IdentityElement(PalcoreError):
    """Operation undefined on (plus or minus) the identity."""


class DegenerateGeodesic(PalcoreError):
    """Operation needs two distinct ideal endpoints."""


class SharedEndpoint(PalcoreError):
    """No common perpendicular: the geodesics share an ideal endpoint."""


class ElementaryGroup(PalcoreError):
    """Generator pair is elementary (shared fixed point or identity generator)."""


class InvalidRational(PalcoreError):
    """Not a reduced non-negative rational (1/0 allowed)."""


class SchemeViolation(PalcoreError):
    """Runtime consistency check of the primitive-word scheme failed."""


class NotPalindrome(PalcoreError):
    """Word is not letterwise palindromic."""


class IdentityImage(PalcoreError):
    """Word evaluates to plus or minus the identity; no axis exists."""


class OrthogonalityViolation(PalcoreError):
    """Computed axis fails the antipodality test against the core geodesic.

    Signals numerical breakdown: in exact arithmetic a palindrome's axis
    meets the core at right angles and its fixed points are antipodal.
    """


class CommutingPair(PalcoreError):
    """The two palindrome images commute; the double altitude is undefined."""


class TrivialPalindromization(PalcoreError):
    """Palindromization collapsed to (plus or minus) the identity."""


class DegenerateAxis(PalcoreError):
    """A parabolic element has no proper axis."""
