"""Reports are written by serialize alone, in one walk, never by json's indenting encoder.

Each module of the package is parsed.  A call of json.dump or json.dumps with
indent= is reported in any module: an indent makes CPython's json fall back
to its pure-Python encoder, which canonical_json does without.  Any other
use of json's writing side (json.dump, json.dumps, JSONEncoder, an import
from json.encoder) is reported outside serialize; reading JSON is anyone's.
Inside serialize, the only functions that recurse are canonical_json's walk.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slopelab").glob("*.py"))
WRITERS = {"dump", "dumps", "JSONEncoder"}


def dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def json_writers(tree: ast.AST) -> list[tuple[int, str, bool]]:
    """(line, what, whether it passes indent=) for each use of json's writing side."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
            for alias in node.names:
                if node.module == "json.encoder" or alias.name in WRITERS:
                    found.append((node.lineno, f"import of {node.module}.{alias.name}", False))
        elif isinstance(node, ast.Import) and any(alias.name == "json.encoder" for alias in node.names):
            found.append((node.lineno, "import of json.encoder", False))
        elif isinstance(node, ast.Call):
            name = dotted(node.func)
            if name.rpartition(".")[2] in WRITERS and name.split(".")[0] in ("json", *WRITERS):
                indented = any(keyword.arg == "indent" for keyword in node.keywords)
                found.append((node.lineno, f"call to {name}()", indented))
    return found


def recursive_functions(tree: ast.Module) -> set[str]:
    """The module-level functions that reach themselves through calls to module-level functions."""
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = {
        name: {dotted(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)} & defined.keys()
        for name, node in defined.items()
    }

    def reaches(start: str) -> set[str]:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])
        return seen

    return {name for name in defined if name in reaches(name)}


def test_the_walks_find_each_kind_of_writer_and_recursion():
    source = (
        "import json, json.encoder\n"
        "from json import dumps, load\n"
        "from json.encoder import encode_basestring\n"
        "a = json.dumps(1, indent=2)\n"
        "b = dumps(1)\n"
        "c = json.JSONEncoder(indent=2)\n"
        "d = json.loads('1')\n"
        "def walk(x): return tour(x)\n"
        "def tour(x): return walk(x)\n"
        "def once(x): return tour(x)\n"
    )
    tree = ast.parse(source)
    assert [(line, indented) for line, _, indented in sorted(json_writers(tree))] == [
        (1, False), (2, False), (3, False), (4, True), (5, False), (6, True)
    ]
    assert recursive_functions(tree) == {"walk", "tour"}


def test_no_module_writes_json_with_an_indent():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what, indented in json_writers(ast.parse(path.read_text(encoding="utf-8")))
        if indented
    ]
    assert found == []


def test_only_serialize_writes_json():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        if path.name != "serialize.py"
        for line, what, _ in json_writers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_serialize_has_one_recursive_walk():
    (serialize,) = [path for path in SOURCES if path.name == "serialize.py"]
    walks = recursive_functions(ast.parse(serialize.read_text(encoding="utf-8")))
    descriptors = {"function_from_descriptor", "source_from_descriptor"}  # nested descriptors
    assert walks == {"_render", "_render_container", *descriptors}
