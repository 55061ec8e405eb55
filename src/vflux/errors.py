"""Exception types shared across the package."""


class VfluxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(VfluxError, ValueError):
    """A physical parameter is outside its admissible domain."""


class UsageError(VfluxError, ValueError):
    """An operation was called outside its stated preconditions."""


class DegenerateSteadyStateError(VfluxError):
    """The generator kernel is not one-dimensional; no unique steady state."""


class BranchError(VfluxError):
    """The dominant eigenvalue branch cannot be selected unambiguously."""


class IndeterminateRectificationError(VfluxError):
    """No current runs forward (``max(J_f, -J_b)`` at the floor); rectification undefined."""


class IndeterminateAmplificationError(VfluxError):
    """The base-current derivative vanishes; amplification undefined."""


class ConfigError(VfluxError, ValueError):
    """A scenario configuration failed to parse or validate."""
