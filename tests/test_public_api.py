"""Every public name of the package has a reader besides its own definition.

`slopelab/__init__.py` is parsed, and each name it imports from a submodule
must be read from that submodule somewhere outside it: by another module of
the package, as a target of the benchmark tracer, by the benchmark's job code,
or by the acceptance suite.  A name that only tests read is not public API; it
leaves the package or moves out of `__init__`.

Every public function, class and method of every module must be read outside
its own definition by the same readers, or by its own module.  A method
counts as read where any of them reads an attribute of its name.

The allowlist names the exceptions, each with its reason.

Every parameter with a default of a public function or method must be passed,
by position or by keyword, by some call in the same readers or the package:
a default that no caller overrides is a constant, not a parameter.

No module reads a `_`-prefixed name of another module of the package: what
one module needs from another is public there, and dunders are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slopelab"
READERS = (ROOT / "perfbench" / "jobs.py", ROOT / "tests" / "test_acceptance.py")
ALLOWED = {
    "derivatives.replay": "test oracle that re-evaluates probe witnesses (ROADMAP aim 3)",
    "cubes.DyadicCube.contains_point": "membership test of the grid oracle brute_grid_measure",
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
        if (module, name) in targets or f"{module}.{name}" in ALLOWED:
            continue
        if not any((module, name) in reads for path, reads in outside.items() if path.stem != module):
            unread.append(f"{module}.{name}")
    return sorted(unread)


def public_definitions(path: Path) -> list[tuple[str, ast.AST]]:
    """(name, node) for each public function and class of a module and each public method of its classes."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                )
    return found


def name_reads(path: Path) -> list[tuple[str, int, bool]]:
    """(name, line, is_attribute) for each name a file loads and each attribute it reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, True))
    return found


def unread_definitions(
    modules: list[Path], readers: list[Path], targets: set[tuple[str, str]], allowed=ALLOWED
) -> list[str]:
    """module.name for each public definition that nothing reads outside the definition itself.

    A function or class is read where another file reads it from its module
    (see module_reads) or where its own module loads its name.  A method is
    read where any file reads an attribute of its name.
    """
    files = modules + readers
    imports = {path: module_reads(path) for path in files}
    reads = {path: name_reads(path) for path in files}
    unread = []
    for path in modules:
        for name, node in public_definitions(path):
            def outside(other: Path, line: int) -> bool:
                return other != path or not node.lineno <= line <= node.end_lineno

            owner, _, leaf = name.rpartition(".")
            if owner:
                read = any(
                    attribute and n == leaf and outside(other, line)
                    for other in files
                    for n, line, attribute in reads[other]
                )
            else:
                read = any((path.stem, name) in imports[other] for other in files if other != path) or any(
                    not attribute and n == name and outside(path, line) for n, line, attribute in reads[path]
                )
            if not read and (path.stem, name) not in targets and f"{path.stem}.{name}" not in allowed:
                unread.append(f"{path.stem}.{name}")
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


def test_the_check_finds_a_definition_that_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(): pass\n"
        "def recursive(): recursive()\n"
        "def helper(): pass\n"
        "def caller(): helper()\n"
        "class Box:\n"
        "    def read(self): pass\n"
        "    def unread(self): self.unread()\n"
        "    def traced(self): pass\n"
        "def make(): return Box()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used, caller, make\ndef call(box):\n    box.read()\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_definitions(modules, [], {("a", "Box.traced")}) == ["a.Box.unread", "a.recursive", "b.call"]


def test_every_public_definition_has_a_reader():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    targets = tracer_targets(ROOT / "perfbench" / "tracer.py")
    assert unread_definitions(modules, list(READERS), targets) == []


def test_the_allowlist_names_only_public_definitions_without_a_reader():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    targets = tracer_targets(ROOT / "perfbench" / "tracer.py")
    assert sorted(ALLOWED) == unread_definitions(modules, list(READERS), targets, allowed={})


def defaulted_parameters(path: Path) -> list[tuple[str, ast.FunctionDef, str, int | None]]:
    """(name, node, parameter, position) for each defaulted parameter of a public function or method.

    position counts the arguments a call passes before it, `self` or `cls`
    not counted; it is None for a keyword-only parameter.
    """
    found = []
    for name, node in public_definitions(path):
        if not isinstance(node, ast.FunctionDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        if "." in name and not static:
            positional = positional[1:]
        first = len(positional) - len(node.args.defaults)
        found.extend((name, node, arg, first + k) for k, arg in enumerate(positional[first:]))
        found.extend(
            (name, node, arg.arg, None)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        )
    return found


def calls(path: Path) -> list[tuple[str, int, int, bool, set[str | None]]]:
    """(callee, line, positional count, has *args, keywords) for each call of a name or an attribute.

    The callee is the called name, or the attribute read for `obj.name(...)`;
    a `**kwargs` shows as the keyword None.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            found.append((callee, node.lineno, len(node.args), starred, {k.arg for k in node.keywords}))
    return found


def unpassed_defaults(modules: list[Path], readers: list[Path]) -> list[str]:
    """module.name.parameter for each defaulted parameter that no call outside its definition passes.

    A call of the definition's name, or of an attribute of that name, passes
    a parameter when it has an argument at its position, a *args, the
    parameter's keyword or a **kwargs.
    """
    files = modules + readers
    found = {path: calls(path) for path in files}
    unpassed = []
    for path in modules:
        for name, node, parameter, position in defaulted_parameters(path):
            leaf = name.rpartition(".")[2]
            passed = any(
                callee == leaf
                and not (other == path and node.lineno <= line <= node.end_lineno)
                and ((position is not None and (count > position or starred)) or {parameter, None} & keywords)
                for other in files
                for callee, line, count, starred, keywords in found[other]
            )
            if not passed:
                unpassed.append(f"{path.stem}.{name}.{parameter}")
    return sorted(unpassed)


def test_the_check_finds_a_default_that_no_caller_passes(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x, y=1): pass\n"
        "def h(x=1): h(2)\n"
        "class Box:\n"
        "    def m(self, a=1): pass\n"
        "    @staticmethod\n"
        "    def s(a=1): pass\n"
        "    def k(self, a=1, b=2): pass\n"
        "    def n(self, a=1): pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import f, g\n"
        "def use(box, args, opts):\n"
        "    f(0, z=3)\n"
        "    g(0)\n"
        "    box.m(2)\n"
        "    box.s(1)\n"
        "    box.k(a=1)\n"
        "    box.n(**opts)\n"
    )
    (tmp_path / "c.py").write_text("def call(g, args):\n    g(*args)\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unpassed_defaults(modules, [tmp_path / "c.py"]) == ["a.Box.k.b", "a.f.y", "a.h.x"]


def test_every_default_is_passed_by_some_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert unpassed_defaults(modules, list(READERS)) == []


def private_reads(modules: list[Path]) -> list[str]:
    """reader: M.x for each `_`-prefixed, non-dunder x that a module reads from another module M."""
    return sorted(
        f"{path.stem}: {module}.{name}"
        for path in modules
        for module, name in module_reads(path)
        if module != path.stem and name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    )


def test_the_check_finds_a_private_name_read_across_modules(tmp_path):
    (tmp_path / "a.py").write_text("def _helper(): pass\ndef _own(): _helper()\n__all__ = []\n")
    (tmp_path / "b.py").write_text("from .a import _helper, __all__\n")
    (tmp_path / "c.py").write_text("from . import a as m\ndef call():\n    m._own()\n    m.__name__\n")
    modules = [tmp_path / "a.py", tmp_path / "b.py", tmp_path / "c.py"]
    assert private_reads(modules) == ["b: a._helper", "c: a._own"]


def test_no_module_reads_another_modules_private_names():
    assert private_reads(sorted(PACKAGE.glob("*.py"))) == []
