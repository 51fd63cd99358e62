"""Shared exception types.

The CLI maps these onto exit codes: ParseError -> 1, ConnectivityError -> 2,
BudgetError -> 3, InternalError -> 4.  Everything else that signals misuse is
a plain ValueError.
"""


class ParseError(ValueError):
    """Malformed presentation or word text.  Carries a 1-based position."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConnectivityError(RuntimeError):
    """A connectivity hypothesis failed.  `witness` explains where."""

    def __init__(self, message, omitted=None, witness=None, transcript=None):
        super().__init__(message)
        self.omitted = omitted
        self.witness = witness
        self.transcript = transcript or []


class BudgetError(RuntimeError):
    """A size budget or enumeration limit was exhausted."""


class InternalError(RuntimeError):
    """An internal invariant check failed: the program, not the input, is
    at fault.  Raised instead of `assert` so the check survives `python -O`."""
