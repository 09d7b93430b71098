"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


class DivergenceError(RuntimeError):
    """A run tripped the divergence guard or produced non-finite values."""

    def __init__(self, message, k=None, value=None):
        super().__init__(message)
        self.k = k
        self.value = value


class RunFailure(RuntimeError):
    """A run completed, but a step on its results (such as a rate fit) failed."""


class UnsupportedOracle(RuntimeError):
    """The problem lacks an optional oracle required by this operation."""


class IntegrationBlowup(RuntimeError):
    """ODE state became non-finite during integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(ValueError):
    """Invalid experiment config; ``path`` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
