"""The two kinds of error: the input is wrong, or the request is.

Every exception class in mvsum derives from exactly one of them; the CLI
exits 1 on a DataError and 2 on a UsageError. Both are ValueErrors.
"""


class DataError(ValueError):
    """The input data is wrong: a malformed graph or summary (exit 1)."""


class UsageError(ValueError):
    """The request is wrong: a bad parameter or incompatible inputs (exit 2)."""
