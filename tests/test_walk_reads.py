"""A martingale is read through its two walks, and a bit source through its prefix rule.

The modules under src/slopelab are parsed.  The readers of a martingale,
check_fairness, run_bet, audit_monotone and slope_martingale, each hold it
as `m`, and may use it only as `m.levels` or `m.path`, as `m.label`, which
names their errors, or by handing it to another reader.  No module reads a
representation that is gone: a per-node `capital`, the optional walks
`level_walk` and `path_walk`, a bit source's `whole`, or a per-bit `.bit(`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slopelab"
READERS = {"check_fairness", "run_bet", "audit_monotone", "slope_martingale"}
ALLOWED = {"m.levels", "m.path", "m.label"}
GONE = {"capital", "level_walk", "path_walk", "whole"}


def martingale_uses(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, reader, use) for each load of `m` in a module-level reader, sorted.

    The use is `m.<attribute>` when an attribute is read, `<reader>(m)` when
    m is handed to a reader, and `m` for anything else.
    """
    found = []
    for function in ast.iter_child_nodes(tree):
        if not (isinstance(function, ast.FunctionDef) and function.name in READERS):
            continue
        parents = {child: node for node in ast.walk(function) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(function):
            if not (isinstance(node, ast.Name) and node.id == "m" and isinstance(node.ctx, ast.Load)):
                continue
            parent, use = parents[node], "m"
            if isinstance(parent, ast.Attribute):
                use = f"m.{parent.attr}"
            elif isinstance(parent, ast.Call) and node in parent.args:
                if isinstance(parent.func, ast.Name) and parent.func.id in READERS:
                    use = f"{parent.func.id}(m)"
            found.append((node.lineno, function.name, use))
    return sorted(found)


def gone_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each read of a gone attribute, and each call of an attribute `bit`, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "bit":
            found.append((node.lineno, "bit("))
    return sorted(found)


def misread(uses: list[tuple[int, str, str]]) -> list[tuple[int, str, str]]:
    return [(line, reader, use) for line, reader, use in uses if use not in ALLOWED and not use.endswith("(m)")]


def test_the_walks_find_each_kind_of_read():
    source = (
        "def check_fairness(m: Martingale, depth):\n"
        "    levels = m.levels(depth)\n"
        "    return m.capital(0, 0)\n"
        "def run_bet(m, source, depth):\n"
        "    bits = source.bit(0)\n"
        "    pairs = m.path(bits)\n"
        "    raise _negative(m.label, 0, 0, 0)\n"
        "    return m.path_walk, replace(m, label='x')\n"
        "def slope_martingale(f):\n"
        "    m = box_slope_martingale(f, 0, 0)\n"
        "    audit_monotone(m)\n"
        "    return Martingale(m.levels, m.path, 'slope'), m.at(())\n"
        "def other(m):\n"
        "    return m.capital, source.whole(3), m.level_walk\n"
    )
    tree = ast.parse(source)
    uses = martingale_uses(tree)
    assert uses == [
        (2, "check_fairness", "m.levels"),
        (3, "check_fairness", "m.capital"),
        (6, "run_bet", "m.path"),
        (7, "run_bet", "m.label"),
        (8, "run_bet", "m"),
        (8, "run_bet", "m.path_walk"),
        (11, "slope_martingale", "audit_monotone(m)"),
        (12, "slope_martingale", "m.at"),
        (12, "slope_martingale", "m.levels"),
        (12, "slope_martingale", "m.path"),
    ]
    assert misread(uses) == [
        (3, "check_fairness", "m.capital"),
        (8, "run_bet", "m"),
        (8, "run_bet", "m.path_walk"),
        (12, "slope_martingale", "m.at"),
    ]
    assert gone_reads(tree) == [
        (3, "capital"), (5, "bit("), (8, "path_walk"), (14, "capital"), (14, "level_walk"), (14, "whole")
    ]


def test_the_readers_read_a_martingale_only_through_its_walks():
    uses = martingale_uses(ast.parse((SRC / "martingales.py").read_text(encoding="utf-8")))
    # every reader is found, and reads a walk
    assert {reader for _, reader, use in uses if use in ("m.levels", "m.path")} == READERS
    assert [f"martingales.py:{line} in {reader}: {use}" for line, reader, use in misread(uses)] == []


def test_no_module_reads_a_representation_that_is_gone():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "martingales.py" in modules and SRC / "bits.py" in modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in gone_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
