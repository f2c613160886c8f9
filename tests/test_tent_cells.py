"""The tent sum and the exclusion sweep read cells as integers; they build no cube or tent.

tentsystem.py is parsed.  A located stage is the integer triple (index,
scale, corner) that Partition.locate returns, and a tent's value comes
from the module's integer rule.  So the code that locates and values the
sum's points (the walk, its memo entry _Located, the sum, evaluate,
oscillation_check and the modulus audit) may not reference DyadicCube or
tent_for, nor call Block.cell, which builds a cube, or Block.corner, which
builds a corner tuple.  The exclusion sweep reads a visible cell's
coordinate along one axis straight from its block and is held to the same
rule.  Annotations do not count.  Cubes stay for the partition's
bookkeeping, and tent_for builds the standalone `tent` descriptor's
function from the same integer rule.  No tent class exists: BUILDERS still
names TentFunction, the one there was, so that a class of that name cannot
come back into the guarded code.
"""

import ast
from pathlib import Path

TENTSYSTEM = Path(__file__).resolve().parents[1] / "src" / "slopelab" / "tentsystem.py"
BUILDERS = {"DyadicCube", "TentFunction", "tent_for"}
GUARDED = {
    "Partition.locate",
    "TentSystem._walk",
    "TentSystem._located",
    "TentSystem.as_function",
    "TentSystem.evaluate",
    "TentSystem.oscillation_check",
    "TentSystem.modulus_audit",
    "TentSystem._exclusion_sweep",
    "_Located",
    "_stage_terms",
}


def builder_uses(tree: ast.AST) -> list[tuple[int, str | None, str]]:
    """(line, scope, name) for each reference to a cube or tent builder outside imports and annotations.

    The scope is the module-level function or class, or Class.method for a
    method; a function nested in either keeps its scope.  A call of an
    attribute `cell` is Block.cell, which builds a DyadicCube, and a call of
    an attribute `corner` is Block.corner; reading a cube's `corner` is no call.
    """
    found = []

    def visit(node: ast.AST, scope: str | None, in_class: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name) and node.id in BUILDERS:
            found.append((node.lineno, scope, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BUILDERS:
            found.append((node.lineno, scope, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("cell", "corner"):
            found.append((node.lineno, scope, f"Block.{node.func.attr}"))
        annotation = getattr(node, "returns" if isinstance(node, ast.FunctionDef) else "annotation", None)
        children = [child for child in ast.iter_child_nodes(node) if child is not annotation]
        if isinstance(node, ast.FunctionDef):
            if scope is None:
                scope = node.name
            elif in_class:
                scope = f"{scope}.{node.name}"
            in_class = False
        elif isinstance(node, ast.ClassDef):
            if scope is None:
                scope, in_class = node.name, True
        for child in children:
            visit(child, scope, in_class)

    visit(tree, None, False)
    return found


def guarded(scope: str | None) -> bool:
    return scope is not None and (scope in GUARDED or scope.split(".")[0] in GUARDED)


def test_the_walk_finds_each_kind_of_use():
    source = (
        "from .cubes import DyadicCube\n"
        "top = DyadicCube(1, 0, (0,))\n"
        "class _Located:\n"
        "    cells: dict[int, DyadicCube]\n"
        "    def terms(self, cube: DyadicCube) -> TentFunction:\n"
        "        return tent_for(cube, 0, 0)\n"
        "class TentSystem:\n"
        "    def _walk(self):\n"
        "        def inner():\n"
        "            return map(tent_for, [])\n"
        "        return block.cell(0), slopelab.tentsystem.TentFunction\n"
        "    def exclusion_visible(self):\n"
        "        return block.cell(0)\n"
        "    @cached_property\n"
        "    def _exclusion_sweep(self):\n"
        "        return block.source.corner[1], block.corner(0)\n"
        "def _stage_terms():\n"
        "    return DyadicCube\n"
    )
    uses = builder_uses(ast.parse(source))
    assert uses == [
        (2, None, "DyadicCube"),
        (6, "_Located.terms", "tent_for"),
        (10, "TentSystem._walk", "tent_for"),
        (11, "TentSystem._walk", "Block.cell"),
        (11, "TentSystem._walk", "TentFunction"),
        (13, "TentSystem.exclusion_visible", "Block.cell"),
        (16, "TentSystem._exclusion_sweep", "Block.corner"),
        (18, "_stage_terms", "DyadicCube"),
    ]
    assert [line for line, scope, _ in uses if guarded(scope)] == [6, 10, 11, 11, 16, 18]


def test_the_sum_builds_no_cube_or_tent():
    uses = builder_uses(ast.parse(TENTSYSTEM.read_text(encoding="utf-8")))
    scopes = {scope for _, scope, _ in uses}
    # the builders are still found
    assert {"Block.cell"} <= scopes and "Block.corner" in {name for _, _, name in uses}
    assert [f"tentsystem.py:{line} in {scope}: {name}" for line, scope, name in uses if guarded(scope)] == []
