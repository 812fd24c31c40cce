"""Exception taxonomy shared across the package.

All library errors derive from :class:`AdtPlanError` so callers (and the
command line front end) can distinguish domain failures from programming
errors.  Validation failures additionally derive from ``ValueError`` to stay
friendly to generic callers.
"""

from __future__ import annotations

__all__ = [
    "AdtPlanError",
    "ValidationError",
    "ConfigurationError",
    "ScenarioValidationError",
    "DegenerateVarianceError",
    "IndeterminateMarginError",
    "NoPositiveMedianError",
    "NonMonotoneMarginError",
    "OutOfRegimeError",
    "SingularDesignError",
    "InfeasibleDesignError",
]


class AdtPlanError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdtPlanError, ValueError):
    """An input violates a documented precondition or type invariant."""


class ConfigurationError(ValidationError):
    """Structurally inconsistent inputs, e.g. dimension mismatches."""


class ScenarioValidationError(ValidationError):
    """A scenario document failed validation.

    Collects every problem found rather than stopping at the first; each
    entry is a human-readable message prefixed with the offending field path.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DegenerateVarianceError(AdtPlanError):
    """The path variance vanishes where a positive value is required."""


class IndeterminateMarginError(AdtPlanError):
    """Zero variance and zero margin: the standardized margin is 0/0."""


class NoPositiveMedianError(AdtPlanError):
    """The aggregate path never crosses the threshold at a positive time."""


class NonMonotoneMarginError(AdtPlanError):
    """The quantile root may not be unique: the margin, sampled on the search bracket, does not rise.

    Only non-affine time bases can raise it; an affine margin turns at most
    once, so inside the quantile window its root is unique.
    """


class OutOfRegimeError(AdtPlanError):
    """Inputs fall outside the regime where the requested formula applies.

    Examples: an extrapolation target inside the design region, or a
    variance ratio that no admissible correlation can produce.
    """


class SingularDesignError(AdtPlanError):
    """A design's information matrix is singular for the requested solve."""


class InfeasibleDesignError(ValidationError):
    """A design violates a hard feasibility constraint such as a weight cap."""
