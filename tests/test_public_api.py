"""Every name the package exports has a reader besides its own module.

`slopelab/__init__.py` is parsed, and each name it imports from a submodule
must be read from that submodule somewhere outside it: by another module of
the package, as a target of the benchmark tracer, by the benchmark's job code,
or by the acceptance suite.  A name that only tests read is not public API; it
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


def package_module(node: ast.expr) -> str | None:
    """M for the expression `slopelab.M`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "slopelab":
        return node.attr
    return None


def module_reads(path: Path) -> set[tuple[str, str]]:
    """(M, x) for each name x a file reads from a module M of the package.

    x counts as read from M only where the file imports it from M
    (`from .M import x`, `from slopelab.M import x`) or reads it as an
    attribute of M itself: `slopelab.M.x`, or `alias.x` for a name bound to M
    by `from . import M as alias` or `alias = slopelab.M`.  The same name
    read off any other object, such as a method, is not a read of M.x.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, str] = {}  # local name -> the module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and package_module(value):
                        bound[name.id] = package_module(value)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level == 1 else None
            if node.level == 0 and node.module.startswith("slopelab."):
                module = node.module.removeprefix("slopelab.")
            if module:
                found.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = bound.get(node.value.id) if isinstance(node.value, ast.Name) else package_module(node.value)
            if owner:
                found.add((owner, node.attr))
    return found


def tracer_targets(tracer: Path) -> set[tuple[str, str]]:
    """(M, x) for each x that perfbench/tracer.py's TARGETS wraps in module M, read without importing it.

    A method target `Class.method` reads the method, which the tracer reaches
    through M whatever the package exports, so it is no read of `Class`.
    """
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {(pair.elts[0].value, pair.elts[1].value) for pair in node.value.values}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unread_exports(
    init: Path, modules: list[Path], readers: list[Path], targets: set[tuple[str, str]]
) -> list[str]:
    """module.name for each export that no module but its own, and no reader, reads."""
    outside = {path: module_reads(path) for path in modules + readers}
    unread = []
    for name, module in exported_names(init).items():
        if (module, name) in targets or name in ALLOWED:
            continue
        if not any((module, name) in reads for path, reads in outside.items() if path.stem != module):
            unread.append(f"{module}.{name}")
    return sorted(unread)


def test_the_check_finds_an_export_that_only_its_module_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused, traced\n")
    (tmp_path / "a.py").write_text("def used(): pass\ndef unused(): used()\ndef traced(): pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_exports(tmp_path / "__init__.py", modules, [], {("a", "traced")}) == ["a.unused"]


def test_a_same_named_method_is_not_a_read_of_the_export(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Stream, unused, aliased, assigned, dotted\n")
    (tmp_path / "a.py").write_text(
        "class Stream:\n    def take(self): pass\n"
        "def unused(): pass\ndef aliased(): pass\ndef assigned(): pass\ndef dotted(): pass\n"
    )
    (tmp_path / "b.py").write_text("def call(obj):\n    obj.unused()\n")
    (tmp_path / "c.py").write_text(
        "from . import a as m\n"
        "def call(slopelab):\n"
        "    m.aliased()\n"
        "    n = slopelab.a\n"
        "    n.assigned()\n"
        "    slopelab.a.dotted()\n"
    )
    modules = [tmp_path / "a.py", tmp_path / "b.py", tmp_path / "c.py"]
    targets = {("a", "Stream.take")}
    assert unread_exports(tmp_path / "__init__.py", modules, [], targets) == ["a.Stream", "a.unused"]


def test_every_export_has_a_reader_outside_its_module():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    targets = tracer_targets(ROOT / "perfbench" / "tracer.py")
    assert unread_exports(PACKAGE / "__init__.py", modules, list(READERS), targets) == []


def test_the_allowlist_names_only_exports():
    assert set(ALLOWED) <= set(exported_names(PACKAGE / "__init__.py"))
