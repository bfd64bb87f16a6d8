"""Online sparse CP decomposition.

Each incoming tensor is a FiberSample, its non-zero mode-1 fibers and
their indices. The pipeline per sample: recover the fibers' sparse codes
by hard-thresholded gradient steps, split each code row into its two
paired factors via a rank-1 SVD of its non-zero block, then take one
approximate-gradient step on the dictionary. `run_online`
drives the whole loop; the submodules expose every stage separately.
"""

from .dict_update import SampleMode, gradient, step_and_normalize
from .linalg import (
    CollapsedColumnError,
    Rank1Svd,
    column_norms,
    normalize_columns,
    rank1_svd,
)
from .metrics import (
    Alignment,
    ColumnErrors,
    align_columns,
    align_rows,
    column_errors,
    data_fit,
    match_columns,
    normalized_column_errors,
    rel_frobenius,
    signed_support_equal,
)
from .runner import (
    FileSource,
    IterationRecord,
    RunMode,
    RunResult,
    SolverConfig,
    SyntheticSource,
    run_online,
)
from .sparse_coding import IhtParams, iht, init_code
from .synth import (
    Distribution,
    GroundTruth,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_sparse_factor,
    gen_tensor_instance,
    perturb_init,
)
from .tensor_core import (
    ColumnIndexMap,
    FiberSample,
    cp_compose,
    cp_fibers,
    extract_nonzero_columns,
    khatri_rao_transpose,
    mode1_unfold,
    scatter_columns,
)
from .tensorio import (
    emit_outputs,
    ingest_tensor,
    parse_config_file,
    preprocess_dynamic_range,
    read_matrix_csv,
    write_matrix_csv,
)
from .untangle import UntangledFactors, untangle_codes, untangle_krp

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CollapsedColumnError",
    "ColumnErrors",
    "ColumnIndexMap",
    "Distribution",
    "FiberSample",
    "FileSource",
    "GroundTruth",
    "IhtParams",
    "IterationRecord",
    "Rank1Svd",
    "RunMode",
    "RunResult",
    "SampleMode",
    "SolverConfig",
    "SparsityParams",
    "SyntheticSource",
    "UntangledFactors",
    "align_columns",
    "align_rows",
    "child_seed",
    "column_errors",
    "column_norms",
    "cp_compose",
    "cp_fibers",
    "data_fit",
    "emit_outputs",
    "extract_nonzero_columns",
    "gen_dictionary",
    "gen_sparse_factor",
    "gen_tensor_instance",
    "gradient",
    "iht",
    "ingest_tensor",
    "init_code",
    "khatri_rao_transpose",
    "match_columns",
    "mode1_unfold",
    "normalize_columns",
    "normalized_column_errors",
    "parse_config_file",
    "perturb_init",
    "preprocess_dynamic_range",
    "rank1_svd",
    "read_matrix_csv",
    "rel_frobenius",
    "run_online",
    "scatter_columns",
    "signed_support_equal",
    "step_and_normalize",
    "untangle_codes",
    "untangle_krp",
    "write_matrix_csv",
    "__version__",
]
