"""Exception types shared across the package."""


class NeurovarError(Exception):
    """Base class for all package errors."""


class ArchitectureError(NeurovarError):
    """An architecture violates a structural invariant."""


class WidthZero(ArchitectureError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"width n_{index} must be >= 1")


class DegreeBelowTwo(ArchitectureError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"activation degree d_{index} must be >= 2")


class LengthMismatch(ArchitectureError):
    def __init__(self, nwidths: int, ndegrees: int):
        self.nwidths = nwidths
        self.ndegrees = ndegrees
        super().__init__(
            f"{nwidths} widths require {max(nwidths - 2, 0)} activation degrees, "
            f"got {ndegrees}"
        )


class PivotVanishes(NeurovarError):
    """The dehomogenization pivot coefficient is zero at the sample point."""

    def __init__(self, point):
        self.point = point
        super().__init__("pivot coefficient vanishes at sample point; resample")


class SamplingExhausted(NeurovarError):
    """Too many consecutive pivot failures; the gauge looks degenerate."""


class ProportionalPair(NeurovarError):
    """Two forms in a power-independence instance are proportional."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"forms {i} and {j} are linearly dependent")


class AmbientTooLarge(NeurovarError):
    """A computation is refused for its size: the work a verb estimates from
    its inputs passes `poly.WORK_CAP` (`poly.refuse_past_cap`)."""
