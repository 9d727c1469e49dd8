"""Package surface: the export list, README's library tour, imports."""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import penalty_planner

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(penalty_planner.__file__).parent


def test_every_exported_name_resolves_once():
    names = penalty_planner.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(penalty_planner, name), name


def test_readme_library_tour_runs_and_gives_its_commented_values():
    readme = (ROOT / "README.md").read_text()
    source = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        # "expression  # value", where prose after " - " explains the value
        expected = lines[statement.end_lineno - 1].partition("#")[2].split(" - ")[0].strip()
        assert eval(code, namespace) == eval(expected, {"Fraction": Fraction}), code
        checked.append(expected)
    assert checked == ["Fraction(6, 1)", "True", "((0,),)", "Fraction(6, 1)", "(12, 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_modules_import_only_the_standard_library_and_the_package(module):
    tree = ast.parse((PACKAGE / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.partition(".")[0]]
        else:
            continue  # relative imports are the package itself
        for top in tops:
            assert top in sys.stdlib_module_names or top == "penalty_planner", (module, top)
