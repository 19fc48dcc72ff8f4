"""Error hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, UnsupportedTypeError -> 3,
InternalError -> 4.
"""

from __future__ import annotations


class FoldstabError(Exception):
    """Base class for all package errors."""


class InputError(FoldstabError):
    """Bad user input: unparsable file, invalid quiver, invalid automorphism."""


class SpecParseError(InputError):
    """Parse failure in a quiver spec file, carrying line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AdmissibilityError(InputError):
    """The automorphism is not admissible for folding."""


class UnsupportedTypeError(FoldstabError):
    """The operation needs a Dynkin quiver (or a supported Coxeter type)."""


class InternalError(FoldstabError):
    """An internal invariant failed; indicates a bug, not bad input."""
