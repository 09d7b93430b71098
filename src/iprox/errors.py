"""Exception types shared across the package, one per kind of failure."""


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


class DivergenceError(RuntimeError):
    """A solver run or ODE integration diverged; k is the iteration or sample."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class RunFailure(RuntimeError):
    """A run completed, but a step on its results (such as a rate fit) failed."""


class ConfigError(ValueError):
    """Invalid experiment config; the message starts with the offending field's path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
