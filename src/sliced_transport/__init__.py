"""Sliced transport plans and distances for finite discrete measures.

Lift one-dimensional monotone transport plans along random directions back
to the ambient space and average them: the result is a genuine coupling of
the two measures whose cost upper-bounds the Wasserstein distance, computed
at one-dimensional prices.
"""

from .applications import (
    METHODS,
    EmbeddingMatrix,
    barycentric_projection,
    embedding_features,
    gaussian_pair,
    geodesic,
    interpolate,
    least_squares_accuracy,
    lot_embed,
    reference_measure,
    transport,
    two_class_task,
    weak_convergence_table,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidCoupling,
    InvalidT,
    MassImbalance,
    NonFiniteAtoms,
    NonPositiveTotalMass,
    NonUnitDirection,
    TransportError,
    WeightSumOutOfTolerance,
)
from .est import (
    EstResult,
    SliceSet,
    est_plan,
    est_plan_tempered,
    min_swgg,
    sigma_tau_weights,
)
from .lifting import lift_for_direction
from .measures import (
    DiscreteMeasure,
    TransportPlan,
    identity_coupling,
    make_measure,
    plan_cost,
    product_coupling,
    validate_coupling,
)
from .oracles import sinkhorn, wasserstein_1d, wasserstein_exact
from .slicing import ProjectedMeasure, project, sample_sphere

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "DiscreteMeasure",
    "EmbeddingMatrix",
    "EstResult",
    "IndexOutOfRange",
    "InstanceTooLarge",
    "InvalidCoupling",
    "InvalidT",
    "METHODS",
    "MassImbalance",
    "NonFiniteAtoms",
    "NonPositiveTotalMass",
    "NonUnitDirection",
    "ProjectedMeasure",
    "SliceSet",
    "TransportError",
    "TransportPlan",
    "WeightSumOutOfTolerance",
    "barycentric_projection",
    "embedding_features",
    "est_plan",
    "est_plan_tempered",
    "gaussian_pair",
    "geodesic",
    "identity_coupling",
    "interpolate",
    "least_squares_accuracy",
    "lift_for_direction",
    "lot_embed",
    "make_measure",
    "min_swgg",
    "plan_cost",
    "product_coupling",
    "project",
    "reference_measure",
    "sample_sphere",
    "sigma_tau_weights",
    "sinkhorn",
    "transport",
    "two_class_task",
    "validate_coupling",
    "wasserstein_1d",
    "wasserstein_exact",
    "weak_convergence_table",
]
