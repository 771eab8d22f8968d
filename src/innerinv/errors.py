"""Exception types shared across the package."""


class InnerInvError(Exception):
    """Base class for all package-specific failures."""


class DomainError(InnerInvError):
    """An input value lies outside the mathematical domain of an operation."""


class DuplicateSingularityError(DomainError):
    """Two pieces of singular data collide at the same boundary point."""


class SingularPointError(InnerInvError):
    """Boundary evaluation was requested at a singular point."""


class InvalidArcError(InnerInvError):
    """An arc crosses a singular point or is otherwise unusable."""


class TruncationError(InnerInvError):
    """The truncation budget cannot deliver the requested accuracy."""


class PhaseRangeError(InnerInvError):
    """A phase value falls outside the range covered by a chart."""


class NotSingularError(InnerInvError):
    """Classification was requested at a point that is not singular."""


class NoLimitError(InnerInvError):
    """A one-sided boundary limit does not exist (the phase blows up)."""


class NotShiftableError(InnerInvError):
    """No translation symmetry exists between the requested arcs."""


class RotationUnavailableError(InnerInvError):
    """The requested rotation is not a symmetry of the singularity data."""


class CertificationError(InnerInvError):
    """A numerical certificate or consistency check failed."""


class SchemaError(InnerInvError):
    """A document does not match the expected structure.

    ``path`` points at the offending field, e.g. ``zeros[3].angle``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class RangeError(SchemaError):
    """A document field has the right type but an out-of-range value."""
