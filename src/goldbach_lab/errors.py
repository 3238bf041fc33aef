"""Exception types shared across the package."""


class GoldbachLabError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidInterval(GoldbachLabError):
    """Interval endpoints out of order or below 1."""


class SegmentTooLarge(GoldbachLabError):
    """Requested sieve span exceeds the segment cap."""


class OutOfBounds(GoldbachLabError):
    """Requested prime lies beyond the supported magnitude."""


class EmptyCandidate(GoldbachLabError):
    """Validation called on an empty sequence."""


class NonDivisibleWidth(GoldbachLabError):
    """Row width does not divide the range cardinality exactly."""


class WidthExceedsRange(GoldbachLabError):
    """Row width is larger than the range itself."""


class OverlappingRows(GoldbachLabError):
    """Offset requested for two rows whose intervals intersect."""


class TargetTooSmall(GoldbachLabError):
    """Decomposition target below the smallest prime sum."""


class AboveOracleCap(GoldbachLabError):
    """Target beyond the DP oracle cap."""


class AboveEnumerationCap(GoldbachLabError):
    """Target beyond the enumeration cap."""


class NotEven(GoldbachLabError):
    """An even number was required."""


class CheckpointMismatch(GoldbachLabError):
    """Checkpoint file unusable: wrong bounds, version, or field set."""


class GoldbachCounterexample(GoldbachLabError):
    """Exhaustive pair search found no two-prime sum for an even target.

    Carries the target so callers can report it.  Any occurrence is both a
    reportable discovery and a probable implementation fault; cross-check
    against the DP oracle before believing it.
    """

    def __init__(self, target: int):
        super().__init__(f"no prime pair found for {target}")
        self.target = target
