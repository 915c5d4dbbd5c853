"""No module of the package reads a private (`_`-prefixed) name of another:
what one module shares with another goes through its public names."""

import ast
from pathlib import Path

import pytest

import bivirus

SRC = Path(bivirus.__file__).resolve().parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _package_module(module, level):
    """The bivirus module an import names (None for the package itself or
    anything outside it)."""
    if level == 1:
        return module
    if module and module.startswith("bivirus."):
        return module[len("bivirus."):]
    return None


def cross_module_private_reads(source, own):
    """'module.name' for every private name of another bivirus module that
    the source of module `own` imports or reads as an attribute."""
    tree = ast.parse(source)
    aliases = {}      # local name -> the bivirus module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "bivirus")):
                for a in node.names:
                    if a.name in MODULES:
                        aliases[a.asname or a.name] = a.name
                continue
            mod = _package_module(node.module, node.level)
            if mod in MODULES and mod != own:
                found += [f"{mod}.{a.name}" for a in node.names
                          if _private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                mod = _package_module(a.name, 0)
                if mod in MODULES and a.asname:
                    aliases[a.asname] = mod
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Attribute) and \
                isinstance(value.value, ast.Name) and value.value.id == "bivirus":
            mod = value.attr          # bivirus.model._name
        elif isinstance(value, ast.Name):
            mod = aliases.get(value.id)
        else:
            continue
        if mod in MODULES and mod != own and _private(node.attr):
            found.append(f"{mod}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_names(path):
    source = path.read_text(encoding="utf-8")
    assert cross_module_private_reads(source, path.stem) == []


@pytest.mark.parametrize("source", [
    "from . import equilibria\nequilibria._endemic_profile(B, d)\n",
    "from . import equilibria as eq\nx = eq._KnownRoots\n",
    "from .equilibria import _dedup\n",
    "from bivirus import equilibria\nequilibria._endemic_profile(B, d)\n",
    "import bivirus.equilibria\nbivirus.equilibria._endemic_profile(B, d)\n",
])
def test_guard_catches_a_private_read(source):
    assert cross_module_private_reads(source, "cli") != []


def test_guard_allows_own_and_public_names():
    source = ("from . import equilibria, model\n"
              "equilibria.analysis(s)\nmodel.CONTAINMENT_TOL\n"
              "model.__name__\n")
    assert cross_module_private_reads(source, "cli") == []
    assert cross_module_private_reads("from .sim import _stop_rule\n",
                                      "sim") == []
