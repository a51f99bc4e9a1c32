"""Exception hierarchy shared across the package."""


class ConewalkError(Exception):
    """Base class for all package-specific errors."""


# --- model ingestion / validation ---

class MalformedFile(ConewalkError):
    pass


class WeightsNotNormalized(ConewalkError):
    pass


class EmptyConeInterior(ConewalkError):
    pass


class PointOutsideCone(ConewalkError):
    pass


# --- enumeration / DP resource guards ---

class HorizonTooLarge(ConewalkError):
    pass


class MemoryBudgetExceeded(ConewalkError):
    pass


class UnsupportedCone(ConewalkError):
    pass


# --- Laplace transform analysis ---

class Overflow(ConewalkError):
    pass


class Unbounded(ConewalkError):
    """The transform has no minimum over the search region."""


class NotConverged(ConewalkError):
    pass


class NoGlobalMinimum(ConewalkError):
    """0 is outside the relative interior of the step hull: L decreases
    forever along some direction, so no global minimum exists."""


# --- boundary functional / escape bounds ---

class NotSmallStep(ConewalkError):
    pass


class DriftNotInterior(ConewalkError):
    pass


class DriftNotPositive(ConewalkError):
    pass


class Trapped(ConewalkError):
    """All increments stay in the cone; the exit functional vanishes."""


# --- sequence analysis ---

class InsufficientTerms(ConewalkError):
    pass


class NonpositiveTerm(ConewalkError):
    pass


class RateOutOfRange(ConewalkError):
    pass


class AllZeroOnWindow(ConewalkError):
    """Fewer than two positive terms at n >= 1 on a fit window."""


class UnsupportedLazyStep(ConewalkError):
    pass
