"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """A weight model or run configuration is malformed."""


class PreconditionError(ValueError):
    """An operation was called with arguments outside its contract."""


class SingularInputError(ValueError):
    """A pointwise evaluation was requested at a singular point."""


class InternalCheckError(RuntimeError):
    """A result failed one of the library's own consistency checks."""
