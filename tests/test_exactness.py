"""The library never computes with floats: every value is an exact rational.

Each module of the package is parsed, and any float literal, any call to
float(), round() or a math.* function, and any import from math of a function
that is not integer-exact is reported with its file and line.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slopelab").glob("*.py"))
INTEGER_MATH = {"isqrt", "gcd", "lcm", "comb", "perm", "factorial"}


def inexact_nodes(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("float", "round"):
                found.append((node.lineno, f"call to {func.id}()"))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "math":
                found.append((node.lineno, f"call to math.{func.attr}()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    found.append((node.lineno, f"import of math.{alias.name}"))
    return found


def test_the_walk_finds_each_kind_of_inexact_code():
    source = (
        "from math import isqrt, sqrt\n"
        "x = 0.5\n"
        "y = float(1)\n"
        "z = round(x)\n"
        "w = math.floor(x)\n"
        "v = isqrt(4)\n"
    )
    assert sorted(line for line, _ in inexact_nodes(ast.parse(source))) == [1, 2, 3, 4, 5]


def test_the_package_has_no_float_arithmetic():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
