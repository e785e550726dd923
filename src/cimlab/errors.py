"""Exception types shared across the package."""


class CimlabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(CimlabError):
    """A group constructor was given an order outside its domain."""


class InvalidActionError(CimlabError):
    """A semidirect-product action does not have a compatible order."""


class CapacityError(CimlabError):
    """An enumeration would exceed the configured size cap."""


class MapValidationError(CimlabError):
    """A rotation sequence does not define a valid Cayley map.

    ``reason`` is one of ``identity-in-s``, ``s-not-symmetric``,
    ``duplicate-entry``, ``element-out-of-range``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DisconnectedMapError(CimlabError):
    """An algorithm that requires a connected map was given a disconnected one."""


class PreconditionError(CimlabError):
    """A documented precondition was violated.

    ``kind`` is a stable machine-readable tag: ``orbit-not-faithful`` or
    ``generation-fails``.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class UnsupportedReductionError(CimlabError):
    """Disconnected maps cannot be reduced to connected ones for this group."""
