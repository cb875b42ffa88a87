"""The docs checker's ``path.py::name`` code-reference rule.

``benchmarks/check_docs_links.py`` runs in CI before the tier-1 suite; these
tests pin down which code references it accepts and which it flags.
"""

import runpy
from pathlib import Path

import pytest

CHECKER = Path(__file__).resolve().parent.parent / "benchmarks" / "check_docs_links.py"


@pytest.fixture(scope="module")
def check_code_ref():
    return runpy.run_path(str(CHECKER))["check_code_ref"]


@pytest.mark.parametrize(
    "path,name",
    [
        ("formats/kernels.py", "dot_reference"),  # def, under src/repro/
        ("formats/kernels.py", "_CHUNK_ELEMENTS"),  # module assignment
        ("formats/kernels.py", "TableLayerKernel"),  # class
        ("formats/base.py", "compile_layer"),  # class member
        ("src/repro/formats/quire.py", "round_kept_bits"),  # repo-rooted
    ],
)
def test_resolving_references_pass(check_code_ref, path, name):
    assert check_code_ref(path, name) is None


def test_missing_file_is_flagged(check_code_ref):
    assert check_code_ref("core/no_such_module.py", "dot_reference") == (
        "missing file core/no_such_module.py"
    )


def test_undefined_name_is_flagged(check_code_ref):
    problem = check_code_ref("formats/kernels.py", "no_such_kernel")
    assert problem == "formats/kernels.py defines no no_such_kernel"
