"""Exception hierarchy shared across contflow modules."""

from __future__ import annotations


class ContflowError(Exception):
    """Base class for all contflow errors."""


# --- catalog ---------------------------------------------------------------

class CatalogError(ContflowError):
    pass


class CatalogSyntaxError(CatalogError):
    pass


class DanglingContainerRef(CatalogError):
    pass


class DuplicateName(CatalogError):
    pass


class UnknownScheme(CatalogError):
    pass


class EmptyLocator(CatalogError):
    pass


class MalformedMount(CatalogError):
    pass


class UnknownOption(CatalogError):
    pass


class NotFound(CatalogError):
    pass


# --- workflow --------------------------------------------------------------

class ValidationError(ContflowError):
    pass


class CycleDetected(ValidationError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(f"cycle detected: {' -> '.join(cycle)}")


class DanglingEdge(ValidationError):
    pass


class MultipleProducers(ValidationError):
    pass


class OrphanInput(ValidationError):
    pass


# --- planner ---------------------------------------------------------------

class PlanError(ContflowError):
    pass


class UnresolvableTransformation(PlanError):
    pass


class RuntimeUnavailable(PlanError):
    pass


class InconsistentPlacement(PlanError):
    pass


# --- simulator -------------------------------------------------------------

class SimError(ContflowError):
    pass


class UnmappedSite(SimError):
    pass


class MissingSize(SimError):
    pass


class DestinationUnwritable(SimError):
    pass
