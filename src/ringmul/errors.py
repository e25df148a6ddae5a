"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix dimensions are malformed or incompatible."""


class UnsupportedShape(ValueError):
    """Shape lies outside the domain of the requested algorithm."""


class ExactHalveUnavailable(Exception):
    """The ring cannot certify exact division by two."""


class NotEvenlyDivisible(ArithmeticError):
    """Value is not of the form y + y, so exact halving fails."""


class CountMismatch(Exception):
    """An observed operation tally differs from the predicted one; figure
    names which: multiplications, additions, halvings or constant
    multiplications."""

    def __init__(self, message, predicted=None, observed=None, figure=None):
        super().__init__(message)
        self.predicted = predicted
        self.observed = observed
        self.figure = figure


class WitnessNotFound(Exception):
    """Seeded search exhausted its budget without finding a witness."""


class TermBudgetExceeded(Exception):
    """Symbolic expansion grew past the configured term bound."""
