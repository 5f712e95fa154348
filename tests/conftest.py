"""``fresh_python``: a child interpreter that runs sqzlab as a user gets it.

Every test that starts a Python process goes through this fixture.  The
child imports sqzlab from outside the checkout's ``src/``: from the
installed package, if an isolated interpreter finds one that does not
resolve into ``src/``, or else from a copy of ``src/sqzlab``, bundled data
included, made once per session in a temporary directory.  So the tests of
a fresh interpreter also test the package's layout.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def fresh_python(tmp_path_factory):
    """Run ``python -W error::RuntimeWarning *args`` on sqzlab outside ``src/``.

    The child starts in an empty temporary directory, with
    OPENBLAS_NUM_THREADS unset unless ``environ`` sets it.  With ``check``,
    it must exit 0.
    """
    probe = subprocess.run(
        [sys.executable, "-I", "-c", "import sqzlab; print(sqzlab.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path_factory.getbasetemp(),
        timeout=60,
    )
    package = Path(probe.stdout.strip()).resolve().parent
    if probe.returncode != 0 or package.is_relative_to(SRC):
        package = tmp_path_factory.mktemp("relocated") / "sqzlab"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(SRC / "sqzlab", package, ignore=ignore)
    print(f"fresh interpreters import sqzlab from {package}")

    def run(*args, check=True, **environ):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(package.parent)
        with tempfile.TemporaryDirectory() as cwd:
            result = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", *args],
                env={**env, **environ},
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=300,
            )
        assert not check or result.returncode == 0, result.stderr
        return result

    return run
