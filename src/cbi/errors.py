"""Exception types shared across the package."""


class CbiError(Exception):
    """Base class for package-specific failures."""


class NumericRangeError(CbiError):
    """A computation left the representable floating-point range."""


class SolverError(CbiError):
    """An iterative solver failed (non-convergence, non-finite state,
    step-size underflow, or a clipped-negativity budget exceeded)."""


class ClassificationError(CbiError):
    """An operation requiring a critical irreducible model was called on
    something else."""


class ConsistencyError(CbiError):
    """Two mathematically equivalent evaluation routes disagreed beyond
    tolerance; indicates a numerics bug, not bad input."""


class DimensionError(CbiError, ValueError):
    """An argument's length or shape does not match the model's dimension d."""


class InadmissibleError(CbiError, ValueError):
    """A parameter tuple failed admissibility validation; `violations`
    lists every violated condition as `model.validate` words it."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("inadmissible parameters: " + "; ".join(self.violations))
