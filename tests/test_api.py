"""The public names of the package."""

import sliced_transport

PUBLIC = {
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
}


def test_all_lists_the_public_names_once():
    assert len(sliced_transport.__all__) == len(set(sliced_transport.__all__))
    assert set(sliced_transport.__all__) == PUBLIC


def test_every_public_name_resolves():
    # A name left in __all__ after its definition went would otherwise fail
    # only at "from sliced_transport import *".
    namespace = {}
    exec("from sliced_transport import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(sliced_transport, name)
