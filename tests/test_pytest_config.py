"""The repository's pytest settings report a failing hypothesis test as one
failure, run the tests after it and exit 1. Hypothesis's failure report
raises a DeprecationWarning (mypy_extensions.TypedDict), and
filterwarnings = ["error"] alone turns it into an INTERNALERROR that ends
the session with exit 3, skipping every later test."""

from child import ROOT, run_python

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_is_one_failure(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    proc = run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", ROOT / "pyproject.toml",
         "--rootdir", tmp_path, "test_two.py"],
        tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert proc.returncode == 1, out
