"""The public surface: one name per object, no test-only names, and the README examples run."""

import ast
import operator
import re
from pathlib import Path

import pytest

import hopfcon
from hopfcon import Octonion, Quaternion

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "hopfcon").glob("*.py"))


def test_every_exported_name_is_bound_to_its_own_object():
    names = {}
    for name in hopfcon.__all__:
        names.setdefault(id(getattr(hopfcon, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_every_name_defined_in_src_is_used_outside_its_def_line():
    # a def, method, property or class that only tests name is code nothing needs
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not re.fullmatch(r"__\w+__", node.name):
                defined[node.name] = defined.get(node.name, 0) + 1
    text = "\n".join(path.read_text() for path in
                     [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py")), README])
    unused = [name for name, defs in sorted(defined.items())
              if len(re.findall(rf"\b{name}\b", text)) <= defs]
    assert unused == []


def test_every_error_class_is_raised_in_src_and_exported():
    # a class with no raiser of its own is a second name for a condition another class reports
    errors = ast.parse((ROOT / "src" / "hopfcon" / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert "HopfconError" in classes
    assert sorted(classes - {"HopfconError"} - raised) == []
    assert sorted(classes - set(hopfcon.__all__)) == []


@pytest.mark.parametrize("algebra", [Quaternion, Octonion])
@pytest.mark.parametrize("operation", [
    lambda x: x + x, lambda x: x - x, operator.neg, lambda x: 2 * x, lambda x: x * 2.0,
], ids=["add", "sub", "neg", "scalar-left", "scalar-right"])
def test_elements_only_multiply_elements_of_their_algebra(algebra, operation):
    with pytest.raises(TypeError):
        operation(algebra(1.0))


def test_readme_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library quickstart)", "exec"), {})
