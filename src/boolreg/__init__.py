"""Fourier analysis of Boolean functions on the hypercube.

Dense truth-table functions, Walsh-Hadamard spectra, noise stability and
noisy influence, energy-increment decision-tree decompositions (plain and
homogeneous), quasirandomness testing, and Gaussian-quadrant stability
checks, with a JSON-emitting CLI.
"""

from .boolfn import (
    PM_ONE,
    REAL,
    ZERO_ONE,
    BooleanFunction,
    FourierExpansion,
    derivative,
    infer_range_tag,
    inverse_wht,
    load_table,
    mean,
    norm2,
    read_table,
    restrict,
    save_table,
    subset_sizes,
    wht,
    write_table,
)
from .dtree import (
    DecisionTree,
    EnergyLedger,
    Leaf,
    bad_leaf_mass,
    energy,
    evaluate,
    evaluate_table,
    leaves,
    singleton,
    split_leaves,
    to_dot,
    tree_depth,
)
from .errors import BudgetExceededError, PreconditionError
from .families import constant, dictator, majority, parity, random_pm_one, tribes
from .noise import (
    InfluenceVerdict,
    all_noisy_influences,
    has_small_noisy_influences,
    noisy_influence,
    stability,
    stability_mc,
    stability_mc_detail,
)
from .quasirandom import (
    QuasirandomnessVerdict,
    degree_cap,
    influence_quasirandom_bound,
    is_quasirandom,
    max_mean_shift,
)
from .regularity import (
    DecompositionResult,
    RegularityParams,
    decompose,
    decompose_homogeneous,
    decomposition_report,
    tower,
)
from .stablest import (
    MistReport,
    ParamSchedule,
    asymptotic_params,
    check_quasi_mist,
    gaussian_quantile,
    mist_slack,
    quadrant_prob,
    to_zero_one,
)

__version__ = "0.1.0"
