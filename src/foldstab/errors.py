"""Error hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, UnsupportedTypeError -> 3,
InternalError -> 4.
"""

from __future__ import annotations


def quote(token: str | int) -> str:
    """repr(token) for an error message; a longer token is cut to its first
    40 characters and '...', so a huge input token cannot flood stderr."""
    text = str(token)
    if len(text) <= 40:
        return repr(token)
    return (repr(text[:40]) if isinstance(token, str) else text[:40]) + "..."


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
