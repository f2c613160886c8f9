"""Every name the package exports has a reader besides its own module.

`slopelab/__init__.py` is parsed, and each name it imports from a submodule
must be read somewhere outside that submodule: by another module of the
package, as a target of the benchmark tracer, by the benchmark's job code, or
by the acceptance suite.  A name that only tests read is not public API; it
leaves the package or moves out of `__init__`.  The allowlist names the
exceptions, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slopelab"
READERS = (ROOT / "perfbench" / "jobs.py", ROOT / "tests" / "test_acceptance.py")
ALLOWED = {
    "replay": "test oracle that re-evaluates probe witnesses (ROADMAP aim 3)",
    "dore_maleva_measure_by_sweep": "test oracle for the lattice measures (ROADMAP aim 3)",
    "box_slope_martingale": "Theorem 1's n-variable strategy, the open ROADMAP item 3",
}


def exported_names(init: Path) -> dict[str, str]:
    """Name -> submodule for every relative import of the package's __init__."""
    names = {}
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                names[alias.asname or alias.name] = node.module
    return names


def identifiers(path: Path) -> set[str]:
    """Every name a file reads, as a bare name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def tracer_targets(tracer: Path) -> set[str]:
    """The top-level names that perfbench/tracer.py's TARGETS wraps, read without importing it."""
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {pair.elts[1].value.split(".")[0] for pair in node.value.values}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unread_exports(
    init: Path, modules: list[Path], readers: list[Path], targets: set[str]
) -> list[str]:
    """module.name for each export that no module but its own, and no reader, reads."""
    outside = {path: identifiers(path) for path in modules + readers}
    unread = []
    for name, module in exported_names(init).items():
        if name in targets or name in ALLOWED:
            continue
        if not any(name in names for path, names in outside.items() if path.stem != module):
            unread.append(f"{module}.{name}")
    return sorted(unread)


def test_the_check_finds_an_export_that_only_its_module_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused, traced\n")
    (tmp_path / "a.py").write_text("def used(): pass\ndef unused(): used()\ndef traced(): pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_exports(tmp_path / "__init__.py", modules, [], {"traced"}) == ["a.unused"]


def test_every_export_has_a_reader_outside_its_module():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    targets = tracer_targets(ROOT / "perfbench" / "tracer.py")
    assert unread_exports(PACKAGE / "__init__.py", modules, list(READERS), targets) == []


def test_the_allowlist_names_only_exports():
    assert set(ALLOWED) <= set(exported_names(PACKAGE / "__init__.py"))
