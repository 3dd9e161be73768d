"""Start-up cost: no CLI checking path imports numpy.

numpy backs only ``repro.analysis`` (the rf distance matrix behind the
k-medoids study), so a ``repro check`` process on any pipeline must not
pay its import (tens of milliseconds per process).
Each probe runs in a fresh interpreter, because this test process may
already have numpy loaded.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.checker import PIPELINES
from repro.cli import main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def numpy_loaded_after(code: str, cwd) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    probe = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_import_cli_skips_numpy(tmp_path):
    assert not numpy_loaded_after("import repro.cli", tmp_path)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_default_check_skips_numpy(tmp_path, capsys, pipeline):
    dump = str(tmp_path / "dump.json")
    assert main(["run", "--threads", "2", "--ops", "20", "--addresses", "4",
                 "--iterations", "30", "-o", dump]) == 0
    capsys.readouterr()
    code = ("from repro.cli import main\n"
            "assert main(['check', %r, '--check-pipeline', %r]) == 0"
            % (dump, pipeline))
    assert not numpy_loaded_after(code, tmp_path)
