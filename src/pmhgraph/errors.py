"""Exception hierarchy shared across the package."""


class PmhError(Exception):
    """Base class for all library errors."""


class ParameterError(PmhError):
    """Invalid generator tag or parameter."""


class FormatError(PmhError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class StructureError(PmhError):
    """Input graph lacks required structure (disconnected, acyclic, ...)."""


class PreconditionError(PmhError):
    """An operation's stated precondition does not hold."""


class ParityError(PreconditionError):
    """Edge-count parity precondition violated."""


class CapacityError(PmhError):
    """Size bound or search-dimension cap exceeded."""


class WitnessError(PmhError):
    """A search returned a witness that fails its independent re-check."""


class BudgetError(PmhError):
    """A node budget ran out before a yes/no answer was certified; the answer
    is inconclusive."""
