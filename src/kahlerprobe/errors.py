"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` used by the CLI to
produce ``{"error": code, "detail": ...}`` payloads and exit status 2.
"""

from __future__ import annotations


class KahlerProbeError(Exception):
    """Base class for all domain errors."""

    code = "error"


class OddDimension(KahlerProbeError):
    code = "odd_dimension"


class NotAComplexStructure(KahlerProbeError):
    code = "not_a_complex_structure"


class NotOrthogonal(KahlerProbeError):
    code = "not_orthogonal"


class NotOrthogonalGroupElement(KahlerProbeError):
    code = "not_orthogonal_group_element"


class CutLocusError(KahlerProbeError):
    """Principal matrix log undefined: an eigenvalue sits at -1."""

    code = "cut_locus"


class ComponentMismatch(KahlerProbeError):
    """The two structures lie in different connected components."""

    code = "component_mismatch"


class DegeneratePlane(KahlerProbeError):
    code = "degenerate_plane"


class ZeroProjection(KahlerProbeError):
    code = "zero_projection"


class DimensionTooSmall(KahlerProbeError):
    code = "dimension_too_small"


class DimensionMismatch(KahlerProbeError):
    code = "dimension_mismatch"


class ConvexityViolation(KahlerProbeError):
    code = "convexity_violation"


class ToleranceTooSmall(KahlerProbeError, ValueError):
    """A Karcher tolerance below the floor the iteration can reach."""

    code = "tolerance_too_small"


class IterationLimitTooSmall(KahlerProbeError, ValueError):
    """A Karcher iteration limit below one."""

    code = "iteration_limit_too_small"


class OutsideDomain(KahlerProbeError):
    code = "outside_domain"


class MetricNotInvertible(KahlerProbeError):
    code = "metric_not_invertible"


class StepTooCoarse(KahlerProbeError):
    code = "step_too_coarse"


class TooManySteps(KahlerProbeError):
    """An ODE step count above the transport's upper bound."""

    code = "too_many_steps"


class LoopEscapesDomain(KahlerProbeError):
    code = "loop_escapes_domain"


class InvalidLoopFamily(KahlerProbeError):
    """Fewer than one loop requested, an unknown loop family kind, a loop
    scale that does not move the base point, or a holonomy word length
    below one."""

    code = "invalid_loop_family"


class MalformedInput(KahlerProbeError):
    """An input file that cannot be read, is not JSON, or does not hold
    what its schema requires."""

    code = "malformed_input"


class OutputNotWritable(KahlerProbeError):
    """An output file (``--out``, ``--csv``) that cannot be written."""

    code = "output_not_writable"


class UnknownManifold(KahlerProbeError):
    code = "unknown_manifold"


class GridTooCoarse(KahlerProbeError):
    code = "grid_too_coarse"


class FormNotAntisymmetric(KahlerProbeError):
    code = "form_not_antisymmetric"


class DeterminantAnomaly(KahlerProbeError):
    """A holonomy sample has determinant -1; it cannot come from a
    connected manifold's restricted transport and would flip the
    orientation component."""

    code = "determinant_anomaly"
