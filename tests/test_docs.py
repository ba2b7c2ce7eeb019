"""Names in the docs: every backquoted dotted name in README.md and in the
package's docstrings, alone or called, resolves by `getattr`, where its
first part is a package module (or the package) or a class or function
defined in one; and every backquoted bare CapWords name resolves in a
package module or in `builtins`, or is a message name."""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import lteadv_sim
from lteadv_sim.traffic import TIMER_NAME

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lteadv_sim"
MODULES = ("kernel", "model", "lte_nodes", "traffic", "netconfig", "trace", "cli")
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]")
# a backquoted name, alone or called, that starts upper case and has a
# lower-case letter: a class, or None, not a constant such as CHUNK_ROWS
CAPWORDS = re.compile(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)[`(]")


def _roots() -> dict:
    """The first parts a checked name may start with, and what each is."""
    roots = {"lteadv_sim": lteadv_sim}
    for name in MODULES:
        module = importlib.import_module(f"lteadv_sim.{name}")
        roots[name] = module
        for attr, value in vars(module).items():
            if ((inspect.isclass(value) or inspect.isfunction(value))
                    and value.__module__ == module.__name__):
                roots[attr] = value
    return roots


def _docstrings():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


ROOTS = _roots()
TEXTS = [("README.md", (ROOT / "README.md").read_text()), *_docstrings()]
REFERENCES = sorted({(where, name) for where, text in TEXTS
                     for name in DOTTED.findall(text) if name.split(".")[0] in ROOTS})
PACKAGE = [lteadv_sim, *(importlib.import_module(f"lteadv_sim.{name}") for name in MODULES)]
BARE = sorted({(where, name) for where, text in TEXTS for name in CAPWORDS.findall(text)})


def test_the_docs_name_package_objects():
    assert ("README.md", "Simulator.run") in REFERENCES
    assert ("lte_nodes.py:Forwarder", "lteadv_sim.kernel") in REFERENCES
    assert len(REFERENCES) >= 10


@pytest.mark.parametrize("where,name", REFERENCES, ids=[f"{w}:{n}" for w, n in REFERENCES])
def test_dotted_name_resolves(where, name):
    first, *rest = name.split(".")
    obj = ROOTS[first]
    for part in rest:
        assert hasattr(obj, part), f"{where}: `{name}` does not resolve at {part!r}"
        obj = getattr(obj, part)


def _is_message_name(name):
    """A name a message takes in a trace, which no module defines."""
    return name.endswith(("Msg", "Pck")) or name == TIMER_NAME


def test_the_docs_name_bare_classes():
    assert ("README.md", "HandlerError") in BARE
    assert ("README.md", "GenTimer") in BARE
    assert not any(name == "CHUNK_ROWS" for _, name in BARE)


@pytest.mark.parametrize("where,name", BARE, ids=[f"{w}:{n}" for w, n in BARE])
def test_bare_class_name_resolves(where, name):
    assert (_is_message_name(name) or hasattr(builtins, name)
            or any(hasattr(module, name) for module in PACKAGE)), (
                f"{where}: `{name}` names nothing")
