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
    """A typicality row read for scoring is not a distribution strictly inside (0, 1).

    The speaker utility takes log of the listener mass on (or off) a
    feature; a typicality of 0 or 1 makes that mass vanish, and one outside
    [0, 1] makes it negative, so the model is undefined; a row that does not
    sum to 1 is not a typicality row.  Every scoring path, full and fast,
    applies this one rule (``TypicalityTable.degenerate_rows``) before any
    arithmetic.  Degenerate tables are rejected rather than clamped.
    """


class ZeroVarianceError(Error):
    """Pearson correlation is undefined when either vector is constant."""


class ZeroMassError(Error):
    """A distribution could not be normalized because its total mass is 0."""
