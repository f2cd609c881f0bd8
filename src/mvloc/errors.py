"""Exception hierarchy for mvloc.

Geometric failure modes get their own classes so callers can tell a
degenerate configuration (recoverable: drop the sample, try another pair)
from bad input data.
"""


class MvlocError(Exception):
    """Base class for all mvloc errors."""


class InvalidRotationError(MvlocError):
    """Matrix fails the orthonormality / determinant check for a rotation."""


class DegenerateGeometryError(MvlocError):
    """Configuration carries no information (parallel rays, zero baseline,
    rank-deficient system)."""


class InsufficientDataError(MvlocError):
    """Fewer observations than the operation minimally requires."""


class NoConsensusError(MvlocError):
    """RANSAC terminated without a hypothesis meeting the inlier minimum."""


class AmbiguousAverageError(MvlocError):
    """Rotation average is not unique (tied dominant eigenvalue)."""


class AmbiguousCheiralityError(MvlocError):
    """Two decomposition candidates tie the positive-depth vote."""


class NoValidPoseError(MvlocError):
    """No decomposition candidate places any point in front of both cameras."""


class InitializationError(MvlocError):
    """Iterative solve cannot start from the supplied initial value."""


class ParseError(MvlocError):
    """Malformed dataset file. Carries the offending path and line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class GenerationError(MvlocError):
    """Synthetic scene generation failed to satisfy its own constraints."""


class ConfigurationError(MvlocError):
    """Study or pipeline configuration is unusable."""
