"""`import sparsecp` re-exports every library module's `__all__`, the one
place a public name is stated; `sparsecp.cli` is only the entry point, and
importing the package leaves it (and argparse) unloaded."""

import importlib
import inspect
import pkgutil

import pytest

import sparsecp

from child import run_python

LIBRARY = sorted(info.name for info in pkgutil.iter_modules(sparsecp.__path__)
                 if info.name != "cli")

# the names the package listed by hand before it re-exported the modules' lists
EXPORTED = [
    "Alignment", "CollapsedColumnError", "ColumnErrors", "ColumnIndexMap", "Distribution",
    "FiberSample", "FileSource", "GroundTruth", "IhtParams", "IterationRecord", "Rank1Svd",
    "RunMode", "RunResult", "SampleMode", "SolverConfig", "SparsityParams", "SyntheticSource",
    "UntangledFactors", "align_columns", "align_rows", "child_seed", "column_errors",
    "column_norms", "cp_compose", "cp_fibers", "data_fit", "emit_outputs",
    "extract_nonzero_columns", "gen_dictionary", "gen_sparse_factor", "gen_tensor_instance",
    "gradient", "iht", "ingest_tensor", "init_code", "khatri_rao_transpose", "match_columns",
    "mode1_unfold", "normalize_columns", "normalized_column_errors", "parse_config_file",
    "perturb_init", "preprocess_dynamic_range", "rank1_svd", "read_matrix_csv",
    "rel_frobenius", "run_online", "scatter_columns", "signed_support_equal",
    "step_and_normalize", "untangle_codes", "untangle_krp", "write_matrix_csv",
]


def _module(name):
    return importlib.import_module(f"sparsecp.{name}")


@pytest.mark.parametrize("name", LIBRARY)
def test_module_all_lists_its_public_definitions(name):
    module = _module(name)
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_all_is_the_modules_lists():
    listed = [attr for name in LIBRARY for attr in _module(name).__all__]
    assert len(sparsecp.__all__) == len(set(sparsecp.__all__))
    assert set(sparsecp.__all__) == {*listed, "__version__"}
    for name in LIBRARY:
        module = _module(name)
        assert all(getattr(sparsecp, attr) is getattr(module, attr) for attr in module.__all__)


def test_every_name_exported_before_resolves():
    assert len(EXPORTED) == 53
    assert [name for name in EXPORTED if not hasattr(sparsecp, name)] == []


def test_import_loads_neither_cli_nor_argparse(tmp_path):
    # a fresh interpreter: the test process has imported the CLI already
    code = "import sys, sparsecp; print(sorted({'sparsecp.cli', 'argparse'} & set(sys.modules)))"
    proc = run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
