"""The package holds only what the pipeline and the CLI run: every top-level
definition of a module is used somewhere else in src/certattack, so code
that only tests call lives in tests/oracles.py instead.  And a process
loads scipy only once it certifies or weights nodes by a logistic:
importing the package, training and uniform attacks load numpy alone."""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_experiment import write_config

SRC = Path(__file__).resolve().parents[1] / "src" / "certattack"


def _references(tree) -> Counter:
    """Identifiers read as names or attributes; docstrings do not count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(name, node) of each top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_top_level_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    # a definition's own body (a recursive call, an assignment's target)
    # does not count as a use
    unused = [f"{module}:{name}" for module, tree in trees.items()
              if module != "__init__.py"
              for name, node in _definitions(tree)
              if refs[name] == _references(node)[name]]
    assert unused == [], f"defined in src but used only outside it: {unused}"


def _scipy_modules(code: str) -> list:
    """The scipy modules in sys.modules after `code` runs in a fresh
    interpreter that imports the package from src/."""
    probe = (f"{code}\nimport sys\nprint(sorted(m for m in sys.modules "
             f"if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules("import certattack") == []


def _cell_code(config, value: str) -> str:
    return ("from certattack import parse_config\n"
            "from certattack.experiment import run_cell\n"
            f"row = run_cell(parse_config({str(config)!r}), 0, {value!r})\n"
            "assert row.status == 'ok', row.reason")


def test_uniform_evasion_cell_loads_no_scipy(tmp_path):
    assert _scipy_modules(_cell_code(write_config(tmp_path), "uniform")) == []


def test_train_command_loads_no_scipy(tmp_path):
    config = str(write_config(tmp_path))
    code = ("from certattack.cli import main\n"
            f"assert main(['train', '--config', {config!r}]) == 0")
    assert _scipy_modules(code) == []


@pytest.mark.parametrize("mode", ["evasion", "poisoning"])
def test_certified_cell_loads_scipy_special(tmp_path, mode):
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace(
        "mode = evasion", f"mode = {mode}"))
    assert "scipy.special" in _scipy_modules(_cell_code(config, "certified"))


def test_profile_loads_scipy_before_it_times(tmp_path):
    code = ("import sys\n"
            "from certattack import experiment, parse_config\n"
            "attack = experiment.run_attack\n"
            "def timed(*args):\n"
            "    assert 'scipy.special' in sys.modules\n"
            "    return attack(*args)\n"
            "experiment.run_attack = timed\n"
            "experiment.runtime_profile(parse_config("
            f"{str(write_config(tmp_path))!r}), [3])")
    assert "scipy.special" in _scipy_modules(code)
