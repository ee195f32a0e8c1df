"""A failing property test reports its falsifying example under the warning
filters of both tier-1 commands: the ini list in ``pyproject.toml`` alone,
and the ``-W`` flags of CI's tier-1 step, which override it."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def _ci_warning_flags():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = [line for line in workflow.splitlines() if "python -m pytest" in line]
    args = shlex.split(line)
    return [arg for i, arg in enumerate(args) if arg == "-W" or args[i - 1] == "-W"]


@pytest.mark.parametrize("flags", [[], _ci_warning_flags()], ids=["ini", "ci"])
def test_failing_property_reports_its_example(tmp_path, flags):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), *flags,
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
