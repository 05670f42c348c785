"""Exception hierarchy shared across the package."""


class IxcapError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IxcapError):
    """Malformed or inconsistent user input (files, matrices, indices)."""


class CapExceededError(IxcapError):
    """A configurable size cap (alphabet, vertex count, subset size) was exceeded."""


class BudgetExceededError(IxcapError):
    """A search ran out of its node budget before proving optimality.

    Carries in ``best`` the size of the best answer the search knew when it
    ran out, or None when it knew none.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class VerificationError(IxcapError):
    """An internal consistency check on a computed answer failed.

    Raised instead of returning an answer that the library could not verify,
    such as an equilibrium strategy whose worst-case decoded set differs from
    the independent set it was built from.
    """


class ConvergenceError(IxcapError):
    """An iterative solver failed to converge within its iteration budget.

    Carries the last iterate value and residuals for diagnosis.
    """

    def __init__(self, message, last_value=None, residual=None):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual
