"""Desk-scale computational laboratory for two-dimensional normed spaces."""

from .errors import PreconditionError, SpecError
from .norms import (
    DiskIntersection,
    Hexagonal,
    Norm,
    PNorm,
    PolygonGauge,
    Pushforward,
    SphereStructure,
    cross2,
    norm_from_spec,
    rot90,
)
from .curves import (
    ConvexCurve,
    ExtremeSet,
    NaturalParam,
    SideDerivatives,
    build_natural_param,
    curve_from_spec,
    curve_to_spec,
    extreme_points,
    line_crossings,
    sampled_curve,
    target_params,
    unit_sphere,
)
from .birkhoff import OrthCone, birkhoff_margin, is_birkhoff_orth, orth_cone, perp_point
from .diffdetect import (
    DELTA_GRID,
    EPS_GRID,
    CornerBasis,
    FarFieldResult,
    MetricView,
    NDEntry,
    NDReport,
    build_metric_view,
    chord_partner,
    corner_basis,
    far_field_profile,
    far_field_test,
    far_slope_reference,
    metric_nd_test,
    nd_classify_metric,
    nd_oracle,
    report_to_dict,
)
from .isometry import (
    EquilateralResult,
    NonDiffSample,
    SphereMap,
    ZigzagResult,
    chord_triple,
    check_antipodes,
    check_isometry,
    distortion_profile,
    equilateral_triples,
    fit_affine,
    fit_linear,
    linear_map,
    map_from_spec,
    map_param,
    map_point,
    map_to_spec,
    nondiff_set,
    require_distinct_extremes,
    rigidity_verdict,
    staircase,
    table_map,
    two_corner_undetermined,
    zigzag,
)
from .corpus import base_norms, corpus_norms, double_drop_curve, drop_curve

__version__ = "0.1.0"
