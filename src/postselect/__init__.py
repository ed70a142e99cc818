"""Feasibility analysis of measurement statistics on postselected quantum ensembles.

Decides which triples (transition probability, success probability, outcome
distribution) are realizable by an intermediate projective or generalized
measurement with postselection, constructs explicit witnesses for feasible
triples, and maps the feasible regions numerically.
"""

__version__ = "0.1.0"

from .core import (
    EPS_FEAS,
    EPS_PROB,
    EPS_UNIT,
    DiversityProfile,
    GeneralizedWitness,
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
)
from .stats import diversity, diversity_profile, evaluate_witness
from .feasibility import (
    ConeDecomposition,
    FeasibilityVerdict,
    check_dichotomic,
    check_generalized,
    check_projective_chain,
    check_projective_raw,
    check_ternary_disk,
    check_ts_region,
    cone_decompose,
    witness_distribution,
)
from .construct import (
    ClosedPolygon,
    close_polygon,
    construct_generalized,
    construct_projective,
    factor_amplitudes,
)
from .oracle import (
    FuzzReport,
    default_rng,
    fuzz_projective,
    oracle_max_s,
    oracle_min_s,
    run_campaign,
)
from .regions import (
    RegionGrid,
    emit_ps_region,
    emit_pt_sections,
    emit_ternary,
    emit_ts_region,
)
from . import errors

__all__ = [
    "EPS_FEAS",
    "EPS_PROB",
    "EPS_UNIT",
    "DiversityProfile",
    "GeneralizedWitness",
    "OutcomeDistribution",
    "ProjectiveWitness",
    "ScenarioTriple",
    "diversity",
    "diversity_profile",
    "evaluate_witness",
    "ConeDecomposition",
    "FeasibilityVerdict",
    "check_dichotomic",
    "check_generalized",
    "check_projective_chain",
    "check_projective_raw",
    "check_ternary_disk",
    "check_ts_region",
    "cone_decompose",
    "witness_distribution",
    "ClosedPolygon",
    "close_polygon",
    "construct_generalized",
    "construct_projective",
    "factor_amplitudes",
    "FuzzReport",
    "default_rng",
    "fuzz_projective",
    "oracle_max_s",
    "oracle_min_s",
    "run_campaign",
    "RegionGrid",
    "emit_ps_region",
    "emit_pt_sections",
    "emit_ternary",
    "emit_ts_region",
    "errors",
]
