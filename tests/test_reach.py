"""Every function and method under src/kzbar is named somewhere in src/
outside its own def, or is kept on purpose.  A def that only tests call
is a second copy of an API: its callers belong on the one the program
runs.  The scan is by name, so a def counts as reached when its name is
read anywhere else, as any def's; a name read only inside its own def
(recursion) does not count.  Names that perfbench/kztrace.py wraps and
names the oracle modules under tests/ read are allowed too."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kzbar"
TESTS = ROOT / "tests"

# Kept although nothing in src/ names them, each for a stated reason.
KEEP = {
    "algebras.free_map": "the free functor on maps, a paper construction",
    "dstructures.delta_prime": "the D-structure's delta', a paper construction",
    "dstructures.compose_morphisms": "composition of D-structure morphisms, a paper construction",
    "dstructures.bar_algebra_action": "the action on the bar complex, a paper construction",
    "trees.find_intertwiner": "tree intertwiners, acceptance criterion 02",
    "trees.is_intertwiner": "tree intertwiners, acceptance criterion 02",
    "trees.permute_successors": "tree intertwiners, acceptance criterion 02",
}


def _named(tree: ast.AST) -> Counter:
    """How often each identifier is read, as ("name", id) for a bare name
    and ("attr", attr) for an attribute."""
    return Counter(("name", node.id) if isinstance(node, ast.Name)
                   else ("attr", node.attr) for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _defs(tree: ast.AST, prefix: str, in_class: bool = False):
    """(qualified name, def node, whether it is a method) of every
    function, method and nested function."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node, in_class
            yield from _defs(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, prefix + node.name + ".", True)


def _traced() -> set[str]:
    """The bare names perfbench/kztrace.py wraps."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # perfbench/ stays as it is
    try:
        kztrace = importlib.import_module("kztrace")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "perfbench"))
    return {qual.split(".")[-1] for _, qual, *_ in kztrace.SPANS + kztrace.COUNTS}


def _oracle_reads() -> set[str]:
    """The names and attributes the oracle modules under tests/ read,
    properties included."""
    return {name for path in [*TESTS.glob("*_oracle.py"), TESTS / "suspension.py"]
            for _, name in _named(ast.parse(path.read_text()))}


def test_every_def_in_src_is_reached_or_kept():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    named = sum(map(_named, modules.values()), Counter())
    allowed = _traced() | _oracle_reads()
    unreached = []
    for mod, tree in modules.items():
        for qual, node, method in _defs(tree, ""):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if f"{mod}.{qual}" in KEEP or name in allowed:
                continue
            # a method is read as an attribute; a function by its name, or
            # as an attribute of its module
            kinds = ("attr",) if method else ("name", "attr")
            inside = _named(node)
            if all(named[k, name] <= inside[k, name] for k in kinds):
                unreached.append(f"{mod}.{qual}")
    assert not unreached, "named nowhere in src/: " + ", ".join(unreached)


def test_every_keep_names_a_def():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined = {f"{mod}.{qual}" for mod, tree in modules.items()
               for qual, *_ in _defs(tree, "")}
    assert set(KEEP) <= defined, set(KEEP) - defined
