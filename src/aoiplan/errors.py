"""Exception types shared across the package."""


class AoiPlanError(Exception):
    """Base class for all package errors."""


class ScenarioParseError(AoiPlanError):
    """Raised when a scenario document cannot be parsed at all."""


class ScenarioValidationError(AoiPlanError):
    """Raised when a parsed scenario violates one or more invariants.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoFeasiblePlanError(AoiPlanError):
    """No sampling sequence satisfies the freshness bound for this input."""


class BudgetInfeasibleError(AoiPlanError):
    """No frontier point fits inside the requested load budget."""


class MonotonicityError(AoiPlanError):
    """A user-supplied objective map failed the strict-monotonicity check."""


class OracleBudgetError(AoiPlanError):
    """A brute-force oracle was invoked beyond its hard size caps."""


class PlanFormatError(AoiPlanError):
    """A plan file is malformed or violates its self-consistency checks."""


class BinaryRoundingError(AoiPlanError):
    """The binary plan extraction, or the relaxed mix of the one-sided
    limits, could not meet the rate target.

    Only reachable on adversarial instances where both limit supports are
    rate-deficient (under the per-slot power cap, or short of the target
    by more than the solver's rate tolerance at its water level); never
    observed on the randomized test suites.
    """
