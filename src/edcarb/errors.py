"""Toolkit exception hierarchy.

Every error raised by the toolkit derives from ToolkitError and carries the
process exit code the CLI maps it to: 2 for bad inputs, 3 for problems that
are well-posed but unsolvable (no feasible design/plan), 4 for I/O trouble.
A refusal raises the base class of its exit code, and its message tells it
from the others; a subclass exists only to carry data or to be caught.
"""

from __future__ import annotations


class ToolkitError(Exception):
    exit_code = 1


class ValidationFailure(ToolkitError):
    """Inputs violate a documented precondition or schema."""

    exit_code = 2


class InfeasibleError(ToolkitError):
    """The request is valid but has no solution under the given constraints."""

    exit_code = 3


class IoFailure(ToolkitError):
    """Filesystem-level failure while reading inputs or writing artifacts."""

    exit_code = 4
