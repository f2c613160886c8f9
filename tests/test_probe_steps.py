"""The probes step by integer pairs; pow2 builds only the Fractions a report holds.

derivatives.py is parsed.  Every probe step ±2**-k is the integer pair
(±1, 2**k), with 2**k from pow2_scale, which refuses the exponents pow2
refuses.  So a reference to pow2 is allowed in two places only: as the
whole value of class B's "epsilon" and "delta" witness fields, and in
dir_derivative_via_basis, whose panel steps are Fractions.  Any other use,
a call or a bare reference such as map(pow2, ...), is reported.
"""

import ast
from pathlib import Path

DERIVATIVES = Path(__file__).resolve().parents[1] / "src" / "slopelab" / "derivatives.py"
WITNESS_FIELDS = {"diff_class_b": {"epsilon", "delta"}}
ANYWHERE_IN = {"dir_derivative_via_basis"}


def is_pow2(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "pow2") or (
        isinstance(node, ast.Attribute) and node.attr == "pow2"
    )


def pow2_uses(tree: ast.AST) -> list[tuple[int, str | None, str | None]]:
    """(line, module-level function, dict key) for each use of pow2 outside imports.

    The key is the string key of the dict entry whose whole value is the call
    pow2(...), else None; a bare reference never has a key.
    """
    found = []

    def visit(node: ast.AST, function: str | None, key: str | None) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Call) and is_pow2(node.func):
            found.append((node.lineno, function, key))
            children = node.args + [keyword.value for keyword in node.keywords]
        else:
            if is_pow2(node):
                found.append((node.lineno, function, None))
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.FunctionDef) and function is None:
            function = node.name
        keys = {}
        if isinstance(node, ast.Dict):
            keys = {id(v): k.value for k, v in zip(node.keys, node.values) if isinstance(k, ast.Constant)}
        for child in children:
            visit(child, function, keys.get(id(child)))

    visit(tree, None, None)
    return found


def allowed(function: str | None, key: str | None) -> bool:
    return function in ANYWHERE_IN or key in WITNESS_FIELDS.get(function, ())


def test_the_walk_finds_each_kind_of_use():
    source = (
        "from .rationals import pow2\n"
        "import slopelab.rationals as r\n"
        "top = pow2(-1)\n"
        "def diff_class_b():\n"
        "    w = {'epsilon': pow2(-2), 'h': pow2(-3), 'delta': 2 * pow2(-4)}\n"
        "    return map(pow2, range(3)), r.pow2(1)\n"
        "def dir_derivative_via_basis():\n"
        "    return [pow2(-k) for k in range(3)]\n"
    )
    assert pow2_uses(ast.parse(source)) == [
        (3, None, None),
        (5, "diff_class_b", "epsilon"),
        (5, "diff_class_b", "h"),
        (5, "diff_class_b", None),
        (6, "diff_class_b", None),
        (6, "diff_class_b", None),
        (8, "dir_derivative_via_basis", None),
    ]
    assert [line for line, function, key in pow2_uses(ast.parse(source)) if not allowed(function, key)] == [
        3, 5, 5, 6, 6
    ]


def test_derivatives_calls_pow2_only_for_witness_fields_and_the_basis_panel():
    uses = pow2_uses(ast.parse(DERIVATIVES.read_text(encoding="utf-8")))
    assert {key for _, function, key in uses if function == "diff_class_b"} == {"epsilon", "delta"}
    assert [f"derivatives.py:{line} in {function}" for line, function, key in uses if not allowed(function, key)] == []
