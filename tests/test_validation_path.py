"""A system is validated in one place: `equilibria.analysis` calls
`model.validate`, and every entry point reaches a checked system through
that `Analysis`."""

import ast
from pathlib import Path

import pytest

import bivirus

SRC = Path(bivirus.__file__).resolve().parent


def _model_aliases(tree):
    """(names bound to the model module, names bound to model.validate)."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "bivirus")):
                modules |= {a.asname or a.name for a in node.names
                            if a.name == "model"}
            elif (node.level, node.module) in ((1, "model"),
                                               (0, "bivirus.model")):
                functions |= {a.asname or a.name for a in node.names
                              if a.name == "validate"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.name == "bivirus.model" and a.asname}
    return modules, functions


def _calls_validate(call, modules, functions):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id in functions
    if not (isinstance(f, ast.Attribute) and f.attr == "validate"):
        return False
    value = f.value
    if isinstance(value, ast.Name):
        return value.id in modules
    # bivirus.model.validate
    return (isinstance(value, ast.Attribute) and value.attr == "model"
            and isinstance(value.value, ast.Name)
            and value.value.id == "bivirus")


def validate_callers(source, own):
    """'module.function' for every call of `model.validate` in the source
    of module `own`, named by its innermost enclosing function
    ('module.<module>' at top level)."""
    tree = ast.parse(source)
    modules, functions = _model_aliases(tree)
    if own == "model":
        functions.add("validate")
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and \
                    _calls_validate(child, modules, functions):
                found.append(f"{own}.{where}")
            visit(child, where)
    visit(tree, "<module>")
    return found


def test_only_analysis_validates():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += validate_callers(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["equilibria.analysis"]


@pytest.mark.parametrize("source, caller", [
    ("from . import model\ndef run(s):\n    model.validate(s)\n", "sim.run"),
    ("from . import equilibria, model as m\nm.validate(s)\n",
     "sim.<module>"),
    ("from .model import validate\ndef run(s):\n"
     "    def check():\n        return validate(s)\n", "sim.check"),
    ("from bivirus.model import validate as v\nv(s)\n", "sim.<module>"),
    ("import bivirus.model\nbivirus.model.validate(s)\n", "sim.<module>"),
])
def test_guard_catches_a_second_validation(source, caller):
    assert validate_callers(source, "sim") == [caller]


def test_guard_allows_other_validate_names():
    source = ("from . import equilibria, model\n"
              "def run(s, form):\n"
              "    form.validate(s)\n"
              "    model.validation_errors(s)\n"
              "    return equilibria.analysis(s).system\n")
    assert validate_callers(source, "sim") == []
