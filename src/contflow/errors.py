"""Exception hierarchy shared across contflow modules.

A class is kept only where code tells it apart: ``cli.main`` catches
ContflowError (exit 1) and SimError (exit 2), the result reader catches
ValidationError, the planner's site binding catches NotFound,
RuntimeUnavailable and InconsistentPlacement, and CycleDetected carries its
cycle.  Every other refusal raises one of these with its own message.
"""

from __future__ import annotations


class ContflowError(Exception):
    """Base class for all contflow errors."""


class ValidationError(ContflowError):
    """A document, flag or file that contflow refuses (exit 1)."""


class CycleDetected(ValidationError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(f"cycle detected: {' -> '.join(cycle)}")


class NotFound(ValidationError):
    """No catalog transformation of that id at that site."""


class RuntimeUnavailable(ValidationError):
    """A container's runtime is not available at a site."""


class InconsistentPlacement(ValidationError):
    """A container cannot reach a job the way its placement says."""


class SimError(ContflowError):
    """A simulation that cannot finish, or an output that cannot be written (exit 2)."""
