"""The README's list of public names is the package's public surface.

The list is the lines of the README's "Public names" section that start
with a dotted name in backquotes.  Each listed name must import; each
name that ``homlie`` exports must be listed; and each public function or
classmethod constructor of a package module that no package module
names must be listed too.  A name counts as named when it occurs as an
identifier or an attribute anywhere in the package, so an unrelated
attribute of the same name hides it: the check can miss such a name,
but it never asks for one that is called.

The README is read beside the ``src`` directory that ``homlie`` was
imported from, so a copy of the tree is checked against its own list.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import homlie

PACKAGE = Path(homlie.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _listed() -> list[str]:
    text = README.read_text()
    section = text[text.index("### Public names"):]
    section = section[:section.index("\n## ")] if "\n## " in section else section
    return re.findall(r"^- `(homlie(?:\.\w+)+)`", section, re.MULTILINE)


def _resolve(dotted: str):
    """The object a dotted name names: its longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _qualified(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def _uncalled() -> set[str]:
    """Public module-level functions and public classmethods of the
    package's modules whose name no package module uses, qualified."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for name, tree in trees.items() if name != "__init__"
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    found = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found.add((mod, node.name))
            elif isinstance(node, ast.ClassDef):
                found.update((mod, f"{node.name}.{f.name}") for f in node.body
                             if isinstance(f, ast.FunctionDef) and any(
                                 isinstance(d, ast.Name) and d.id == "classmethod"
                                 for d in f.decorator_list))
    return {f"homlie.{mod}.{name}" for mod, name in found
            if not name.split(".")[-1].startswith("_") and name.split(".")[-1] not in used}


def test_the_list_is_found_and_has_no_repeats():
    names = _listed()
    assert len(names) > 40
    assert len(names) == len(set(names))


def test_every_listed_name_imports():
    for name in _listed():
        _resolve(name)


def test_every_exported_name_is_listed():
    listed = set(_listed())
    exported = [name for name, obj in vars(homlie).items()
                if not name.startswith("__") and not isinstance(obj, types.ModuleType)]
    assert exported
    assert [name for name in exported if f"homlie.{name}" not in listed] == []


def test_every_public_name_no_package_module_uses_is_listed():
    listed = {_qualified(obj) for obj in map(_resolve, _listed())
              if hasattr(obj, "__qualname__")}
    uncalled = _uncalled()
    assert "homlie.spaces.hom_jordan_residual" in uncalled
    assert sorted(uncalled - listed) == []
