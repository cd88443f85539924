from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest

# hypothesis imports this module in its report hook when a test fails; its
# libcst import warns (mypy_extensions.TypedDict is deprecated), and under
# -W error that warning would replace the falsifying example with an
# INTERNALERROR.  Importing it once here, with the warning ignored, keeps it
# out of the hook.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def singlet_equal_axes():
    from bell_lab.singlet import make_planar_singlet

    return make_planar_singlet("n1=0,n2=90", "n1=0,n2=90", name="singlet shared axes")


@pytest.fixture
def singlet_chsh():
    from bell_lab.singlet import make_planar_singlet

    return make_planar_singlet("a1=0,a2=90", "b1=45,b2=135", name="singlet chsh angles")


@pytest.fixture
def singlet_three_axes():
    from bell_lab.singlet import make_planar_singlet

    return make_planar_singlet(
        "n1=0,n2=60,n3=120", "n1=0,n2=60,n3=120", name="singlet three axes"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
