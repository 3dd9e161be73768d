"""Start-up cost: each subcommand imports only the modules it uses.

Package ``__init__`` modules re-export their names lazily (PEP 562,
:mod:`repro._lazy`) and the CLI imports each subsystem inside its
handler, so a ``repro check`` process loads no executor, generator,
linter or enumerator, and no checking path imports numpy (which backs
only ``repro.analysis``).  Each probe runs in a fresh interpreter,
because this test process has long since imported everything.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.checker import PIPELINES
from repro.cli import main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: packages whose ``__init__`` re-exports through :mod:`repro._lazy`
LAZY_PACKAGES = ("repro", "repro.checker", "repro.feasible", "repro.fleet",
                 "repro.harness", "repro.instrument", "repro.lint",
                 "repro.mutate", "repro.serve", "repro.sim", "repro.testgen")

#: modules (and their submodules) a static ``repro check`` must not load
CHECK_FORBIDDEN = ("repro.analysis", "repro.checker.baseline",
                   "repro.checker.delta", "repro.checker.poly",
                   "repro.feasible", "repro.fleet", "repro.harness.runner",
                   "repro.lint", "repro.mutate", "repro.serve",
                   "repro.sim.detailed", "repro.sim.executor",
                   "repro.testgen")
#: ... and ``repro run`` without telemetry (``-o`` included)
RUN_FORBIDDEN = ("repro.analysis", "repro.checker.baseline",
                 "repro.checker.poly", "repro.feasible", "repro.lint",
                 "repro.serve", "repro.sim.detailed")


def loaded_after(code: str, cwd) -> set:
    """Every module loaded once ``code`` ran in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def forbidden_in(modules: set, forbidden) -> list:
    return sorted(m for m in modules for f in forbidden
                  if m == f or m.startswith(f + "."))


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lazy") / "dump.json")
    assert main(["run", "--threads", "2", "--ops", "20", "--addresses", "4",
                 "--iterations", "30", "-o", path]) == 0
    return path


def test_import_cli_skips_numpy(tmp_path):
    assert "numpy" not in loaded_after("import repro.cli", tmp_path)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_default_check_skips_numpy(tmp_path, capsys, pipeline, dump):
    capsys.readouterr()
    code = ("from repro.cli import main\n"
            "assert main(['check', %r, '--check-pipeline', %r]) == 0"
            % (dump, pipeline))
    assert "numpy" not in loaded_after(code, tmp_path)


def test_check_loads_only_the_host_path(tmp_path, dump):
    code = ("from repro.cli import main\n"
            "assert main(['check', %r]) == 0" % dump)
    modules = loaded_after(code, tmp_path)
    assert forbidden_in(modules, CHECK_FORBIDDEN) == []
    assert "repro.checker.packed" in modules


def test_run_without_telemetry_skips_checkers_and_linter(tmp_path):
    out = str(tmp_path / "run.json")
    code = ("from repro.cli import main\n"
            "assert main(['run', '--threads', '2', '--ops', '20', "
            "'--addresses', '4', '--iterations', '30', '-o', %r]) == 0"
            % out)
    modules = loaded_after(code, tmp_path)
    assert forbidden_in(modules, RUN_FORBIDDEN) == []
    assert "repro.sim.executor" in modules


def test_lint_off_gate_skips_linter(tmp_path):
    code = ("from repro.harness import Campaign\n"
            "from repro.testgen import TestConfig\n"
            "config = TestConfig(threads=2, ops_per_thread=10, addresses=4)\n"
            "Campaign(config=config).run(5, lint='off')")
    assert forbidden_in(loaded_after(code, tmp_path), ("repro.lint",)) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_names_resolve(tmp_path, package):
    """Every ``__all__`` name imports by name and is listed by ``dir()``."""
    code = ("import importlib\n"
            "package = importlib.import_module(%r)\n"
            "assert len(package.__all__) == len(set(package.__all__))\n"
            "for name in package.__all__:\n"
            "    assert name in dir(package), name\n"
            "    scope = {}\n"
            "    exec('from %%s import %%s' %% (%r, name), scope)\n"
            "    assert scope[name] is getattr(package, name), name\n"
            % (package, package))
    loaded_after(code, tmp_path)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    import importlib

    module = importlib.import_module(package)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec("from %s import no_such_name" % package, {})
