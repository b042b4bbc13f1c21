"""Integrable circular billiards with a repelling Hooke potential on billiard books."""

from .dynamics import (
    Trajectory,
    flow_free,
    reflect,
    simulate,
    time_to_boundary,
)
from .linearization import (
    PencilSpectrum,
    SpectrumClass,
    certify_focus_focus,
    linearization_operators,
    pencil_eigenvalues,
)
from .model import (
    BookTable,
    ConvergenceError,
    MomentumValue,
    PhaseState,
    ValidationError,
)
from .momentum import (
    FIBER_TAGS,
    BifurcationDiagram,
    FiberClass,
    FiberTag,
    bifurcation_diagram,
    classify_fiber,
    classify_grid,
    gradients,
    in_image,
    inner_radius,
    momentum_map,
)
from .monodromy import (
    MoleculeLabels,
    MonodromyReport,
    PeriodSample,
    boundary_state,
    continue_theta,
    loop_around_origin,
    radial_period_quadrature,
    radial_period_simulated,
)

__version__ = "0.1.0"

__all__ = [
    "FIBER_TAGS",
    "BifurcationDiagram",
    "BookTable",
    "ConvergenceError",
    "FiberClass",
    "FiberTag",
    "MoleculeLabels",
    "MomentumValue",
    "MonodromyReport",
    "PencilSpectrum",
    "PeriodSample",
    "PhaseState",
    "SpectrumClass",
    "Trajectory",
    "ValidationError",
    "bifurcation_diagram",
    "boundary_state",
    "certify_focus_focus",
    "classify_fiber",
    "classify_grid",
    "continue_theta",
    "flow_free",
    "gradients",
    "in_image",
    "inner_radius",
    "linearization_operators",
    "loop_around_origin",
    "momentum_map",
    "pencil_eigenvalues",
    "radial_period_quadrature",
    "radial_period_simulated",
    "reflect",
    "simulate",
    "time_to_boundary",
]
