"""Packet-type coded caching: analysis, synthesis and bit-exact simulation
of low-subpacketization device-to-device schemes."""

from .combinat import binomial, integer_partitions, subsets
# engine, the largest module, is imported before designs: compiling it from
# source (no __pycache__) takes the most transient memory, so it runs while
# the fewest other modules are loaded, which lowers a fresh import's peak
from .engine import (
    SchemePlan,
    build_plan,
    decode_and_verify,
    measure,
    simulate,
)
from .jcm import run_jcm
from .designs import (
    DesignSpec,
    dpda_specials,
    jcm_design,
    special_designs,
    theorem1_design,
    theorem2_design,
    theorem3_design,
)
from .fscalc import (
    STAR,
    GlobalFS,
    NoLcmError,
    PlanError,
    analyze_layout,
    analyze_rules,
    jcm_baseline,
    local_fs,
    mc_check,
    subpacketization,
    vector_lcm,
)
from .search import exhaustive_search, sweep_ratios
from .typevec import (
    Grouping,
    TypeVector,
    enumerate_types,
    make_grouping,
    mgroup_structure,
    per_user_count,
    type_of,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "integer_partitions",
    "subsets",
    "DesignSpec",
    "dpda_specials",
    "jcm_design",
    "special_designs",
    "theorem1_design",
    "theorem2_design",
    "theorem3_design",
    "PlanError",
    "SchemePlan",
    "analyze_layout",
    "analyze_rules",
    "build_plan",
    "decode_and_verify",
    "measure",
    "run_jcm",
    "simulate",
    "STAR",
    "GlobalFS",
    "NoLcmError",
    "jcm_baseline",
    "local_fs",
    "mc_check",
    "subpacketization",
    "vector_lcm",
    "exhaustive_search",
    "sweep_ratios",
    "Grouping",
    "TypeVector",
    "enumerate_types",
    "make_grouping",
    "mgroup_structure",
    "per_user_count",
    "type_of",
    "__version__",
]
