"""The package holds only what the pipeline and the CLI run: every top-level
definition of a module is used somewhere else in src/certattack, so code
that only tests call lives in tests/oracles.py instead."""
import ast
from collections import Counter
from pathlib import Path

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
