"""Information-causality lower bounds on one-way communication complexity.

Library surface: truth tables and built-in function families (``boolfn``),
Shannon primitives on explicit joint tables (``infocalc``), the
partition-refinement bound evaluator with ordering strategies and closed
forms (``icbound``), the eight-class census for two-bit inputs
(``classify``), and the PR-box protocol layer (``prbox``).
"""

from .boolfn import (
    BIT_ORDER,
    FAMILIES,
    BooleanFunction,
    Disjointness,
    Equality,
    FunctionFamily,
    Index,
    InnerProduct,
    InputDistribution,
    KIntersect,
    apply_x_substitution,
    bits_to_index,
    build_family,
    index_to_bits,
    load_truth_table,
    save_truth_table,
)
from .classify import (
    CLASS_REPRESENTATIVES,
    ClassSignature,
    affine_x_maps,
    census,
    census_table,
    classify_function,
    hierarchy_check,
    per_ordering_signature,
    signature,
)
from .errors import (
    ArgumentError,
    CensusMismatchError,
    ExhaustiveSearchRefusal,
    FamilyParameterError,
    GreedySearchRefusal,
    HierarchyViolationError,
    IcboundsError,
    TableSizeRefusal,
    TruthTableFormatError,
    UnsupportedSizeError,
)
from .icbound import (
    CHANNEL_SEMANTICS,
    Asymmetric,
    BoundReport,
    ChannelModel,
    Deterministic,
    Ordering,
    Symmetric,
    compute_bound,
    direct_oracle,
    eq_closed_form_deterministic,
    eq_closed_form_one_sided,
    eq_closed_form_symmetric,
    kint_analytic_bound,
    make_ordering,
    oracle_check,
    standard_ordering,
)
from .infocalc import (
    TOLERANCE,
    JointTable,
    binary_entropy,
    binary_entropy_vec,
    conditional_mutual_information,
    entropy,
    merge_variables,
)
from .prbox import (
    VanDamDecomposition,
    ViolationReport,
    box_count,
    decompose,
    max_bias,
    success_probability,
    violation_check,
)

__version__ = "0.1.0"
