"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all domain errors raised by this package."""


class DatasetError(Error):
    """Malformed, incomplete, or inconsistent input data."""


class UnknownCategoryError(Error):
    """A category noun that does not occur in the typicality table."""

    def __init__(self, category, suggestions=()):
        self.category = category
        self.suggestions = tuple(suggestions)
        message = f"unknown category {category!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions)
        super().__init__(message)


class DegenerateTypicalityError(Error):
    """A typicality at or below 0, at or above 1, or NaN would send a logarithm to -inf or NaN.

    The speaker utility takes log of the listener mass on (or off) a
    feature; a typicality of 0 or 1 makes that mass vanish, and one outside
    [0, 1] makes it negative, so the model is undefined.  Fast mode needs
    only finite rows, >= 0 for the topic and > 0 for the vehicle.  Degenerate
    tables are rejected rather than clamped.
    """


class ZeroVarianceError(Error):
    """Pearson correlation is undefined when either vector is constant."""


class ZeroMassError(Error):
    """A distribution could not be normalized because its total mass is 0."""
