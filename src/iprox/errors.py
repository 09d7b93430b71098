"""Exception types shared across the package, one per kind of failure."""


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


class DivergenceError(RuntimeError):
    """A solver run or ODE integration diverged; k is the iteration or sample."""

    def __init__(self, message, k=None, value=None):
        super().__init__(message)
        self.k = k
        self.value = value


class RunFailure(RuntimeError):
    """A run completed, but a step on its results (such as a rate fit) failed."""


class ConfigError(ValueError):
    """Invalid experiment config; ``path`` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
