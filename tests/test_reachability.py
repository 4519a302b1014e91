"""Every named routine of the package is reached from the package or the
benchmark, not from tests alone.

The guard walks `src/suspvdp` with `ast` and collects each module-level
or class-level `def` and `class` that is not a dunder and not registered
by a decorator of its own module (the `identities` trial bodies are
reached through `ALL_CHECKS`).  Each such name must be used somewhere in
`src/` or `bench/` other than its own definition: as a name, an
attribute, an imported name, or a whole word of a string that is not a
docstring (`bench/layers.py` names its spans in strings).

Names are matched by whole word, not resolved to their definition: a
method that shares its name with another routine, such as `at`, counts as
used when any of them is used, so the guard cannot see it.

Data is held to the same rule.  Each class-level field (an annotated or
assigned name in a class body) and each `@property` that is not a dunder
must be read as an attribute, `.name`, somewhere in `src/` or `bench/`;
a keyword of a constructor call builds a field but does not read it.  A
class that serialises itself through `vars(self)` reads all its fields
there.  The match is again by name, so a field that shares its name with
another attribute that is read passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "suspvdp"
SEARCHED = sorted([*(ROOT / "src").rglob("*.py"),
                   *(ROOT / "bench").rglob("*.py")])

# documented in the README: the way to print a parsed scenario, and the
# quick start's way to write a field from coefficient texts
EXCEPTIONS = {"scenario.scenario_to_text", "fields.VectorField.from_texts"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _used_words(tree: ast.Module) -> set[str]:
    skip = _docstrings(tree)
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            words.update(re.findall(r"\w+", node.value))
    return words


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node, local: set[str]) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id in local for d in node.decorator_list)


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, name) of each module- and class-level definition
    that is not a dunder and not registered by a local decorator."""
    local = {n.name for n in tree.body if isinstance(n, _DEFINITIONS)}
    scopes = [(path.stem, tree.body)]
    scopes += [(f"{path.stem}.{n.name}", n.body) for n in tree.body
               if isinstance(n, ast.ClassDef)]
    for prefix, body in scopes:
        for node in body:
            if (isinstance(node, _DEFINITIONS) and not _is_dunder(node.name)
                    and not _registered(node, local)):
                yield f"{prefix}.{node.name}", node.name


def test_every_definition_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SEARCHED}
    used = set().union(*map(_used_words, trees.values()))
    unreached = [qualified
                 for path, tree in trees.items() if path.parent == PACKAGE
                 for qualified, name in _definitions(path, tree)
                 if name not in used and qualified not in EXCEPTIONS]
    assert not unreached, unreached


def _read_attributes(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _serialises_itself(cls: ast.ClassDef) -> bool:
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "vars"
               and any(isinstance(a, ast.Name) and a.id == "self"
                       for a in node.args)
               for node in ast.walk(cls))


def _members(path: Path, tree: ast.Module):
    """(qualified name, name) of each class-level field and property of
    the classes that do not serialise themselves, dunders left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or _serialises_itself(cls):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = []
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in node.decorator_list):
                names.append(node.name)
            for name in names:
                if not _is_dunder(name):
                    yield f"{path.stem}.{cls.name}.{name}", name


def test_every_field_and_property_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SEARCHED}
    read = set().union(*map(_read_attributes, trees.values()))
    unread = [qualified
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualified, name in _members(path, tree)
              if name not in read]
    assert not unread, unread
