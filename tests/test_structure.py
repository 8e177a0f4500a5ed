"""The boundaries between failcast's modules, read from their source."""

import ast
import inspect
import textwrap
from pathlib import Path

import failcast
from failcast import cli

SOURCE = Path(failcast.__file__).parent
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def failcast_imports(nodes: list[ast.AST]) -> tuple[dict, dict]:
    """What the ``from`` imports among ``nodes`` bind of failcast: {alias: module} for
    ``from . import ingestion``, and {alias: (module, name)} for a name of a module."""
    aliases, names = {}, {}
    for node in nodes:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            package = node.module or ""
        elif (node.module or "").startswith("failcast"):
            package = node.module.removeprefix("failcast").lstrip(".")
        else:
            continue
        for alias in node.names:
            if not package and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif package in MODULES:
                names[alias.asname or alias.name] = (package, alias.name)
    return aliases, names


def foreign_private_names(source: str, own: str) -> list[str]:
    """``module._name``, once each, for every underscore name of another failcast module
    that the module ``own`` with this ``source`` imports by name or reads as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    aliases, names = failcast_imports(nodes)
    found = [f"{module}.{name}" for module, name in names.values()
             if module != own and _private(name)]
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, own) != own and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return list(dict.fromkeys(found))


def test_the_check_finds_imported_and_read_names():
    source = (
        "from .tables import _lines, read_body\n"
        "from failcast.tables import _LEAD\n"
        "from . import ingestion as ing, tables\n"
        "def f():\n"
        "    return ing._bin_pieces, ing._bin_pieces, ing.__name__, tables.read_table, _own()\n"
    )
    assert foreign_private_names(source, "features") == [
        "tables._lines", "tables._LEAD", "ingestion._bin_pieces",
    ]
    assert foreign_private_names("from .tables import _lines\n", "tables") == []


def test_no_module_uses_another_modules_underscore_names():
    found = {
        path.name: names
        for path in sorted(SOURCE.glob("*.py"))
        if (names := foreign_private_names(path.read_text(), path.stem))
    }
    assert found == {}


def others_private_attributes(source: str, own: str) -> list[str]:
    """``line: expression`` of each underscore attribute that the module ``own`` with this
    ``source`` reads of anything but ``self``, ``cls`` or the module itself."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and _private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls", own))
    ]


def test_the_check_finds_private_attributes_of_other_objects():
    source = (
        "import argparse\n"
        "class Stage:\n"
        "    def flags(self, parser):\n"
        "        return self._own, cls._all, cli._seed, parser.__doc__, parser._actions\n"
        "(sub,) = (a for a in build()._actions if isinstance(a, argparse._SubParsersAction))\n"
    )
    assert sorted(others_private_attributes(source, "cli")) == [
        "4: parser._actions", "5: argparse._SubParsersAction", "5: build()._actions",
    ]


def test_no_module_reads_private_attributes_of_other_objects():
    found = {
        path.name: reads
        for path in sorted(SOURCE.glob("*.py"))
        if (reads := others_private_attributes(path.read_text(), path.stem))
    }
    assert found == {}


def statement_reads(source: str, own: str) -> list[tuple[ast.stmt, set[tuple[str, str]]]]:
    """Each top-level statement of the module ``own`` with this ``source``, with the
    (module, name) pairs it reads: a bare name is ``own``'s unless it was imported by name
    from a failcast module, and ``alias.name`` is of the module imported as ``alias``."""
    tree = ast.parse(source)
    modules, names = failcast_imports(list(ast.walk(tree)))
    reads = []
    for stmt in tree.body:
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                read.add(names.get(node.id, (own, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
        reads.append((stmt, read))
    return reads


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's, or each name
    an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def unneeded_definitions(sources: dict[str, str], exported) -> list[str]:
    """``module.name`` of each module-level function, class and assigned name in
    ``sources`` (module name to source) that no statement but its own definition reads,
    unless the name is ``exported`` or a dunder such as a module's ``__getattr__``."""
    reads = {module: statement_reads(source, module) for module, source in sources.items()}
    found = []
    for module, statements in reads.items():
        for stmt, _ in statements:
            for name in defined_names(stmt):
                if name in exported or name.startswith("__"):
                    continue
                if not any((module, name) in read for pairs in reads.values()
                           for other, read in pairs if other is not stmt):
                    found.append(f"{module}.{name}")
    return found


def test_the_check_finds_definitions_nothing_reads():
    sources = {
        "tables": "def used():\n    return 1\ndef own_caller():\n    return own_caller()\n"
                  "class Exported:\n    pass\ndef __getattr__(name):\n    pass\n"
                  "READ, (PAIR, UNREAD) = 1, (2, 3)\nTYPED: int = READ\n__all__ = []\n",
        "cli": "from . import tables as t\nfrom .features import helper as h\n"
               "def main():\n    return t.used(), h(), used(), t.PAIR\n",
        "features": "def helper():\n    pass\ndef used():\n    pass\n",
    }
    assert unneeded_definitions(sources, exported={"Exported"}) == [
        "tables.own_caller", "tables.UNREAD", "tables.TYPED", "cli.main", "features.used",
    ]


def test_src_holds_no_code_that_nothing_in_it_needs():
    """Every module-level function, class and assigned name is read by other code in
    ``src/failcast`` or is public through ``failcast.__all__``."""
    sources = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert unneeded_definitions(sources, exported=set(failcast.__all__)) == []


def unread_flags(stages: dict) -> list[str]:
    """``stage --flag`` of each flag of ``stages`` (name to ``cli.Stage``) that its stage
    does not read. A flag is read if it is ``--config``, if it gives a config field and
    the stage's work function reads ``given``, or if that function reads ``ns.<dest>``."""
    found = []
    for name, stage in stages.items():
        work = ast.parse(textwrap.dedent(inspect.getsource(stage.work))).body[0]
        ns, given = (arg.arg for arg in work.args.args)
        read = {node.attr for node in ast.walk(work) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == ns}
        reads_given = any(isinstance(node, ast.Name) and node.id == given
                          for node in ast.walk(work))
        found += [f"{name} --{flag.dest}" for flag in stage.flags
                  if flag.dest != "config" and flag.dest not in read
                  and not (flag.field and reads_given)]
    return found


def test_the_check_finds_flags_nothing_reads():
    def reads_a_and_given(ns, given):
        return ns.a, given

    def reads_a(args, settings):
        return args.a

    flags = (cli.Flag("a", {}), cli.Flag("b", {}), cli.Flag("c", {}, int, field="c"))
    stages = {"x": cli.Stage("", reads_a_and_given, flags), "y": cli.Stage("", reads_a, flags)}
    assert unread_flags(stages) == ["x --b", "y --b", "y --c"]


def test_every_declared_flag_is_read():
    assert unread_flags(cli.STAGES) == []


def unread_parameters(source: str, own: str) -> list[str]:
    """``module.function(parameter)`` of each parameter of a ``def`` in the module ``own``
    with this ``source`` that its function's body does not read. A lambda is left out:
    its parameters are those of the callback it stands for."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)}
        found += [f"{own}.{node.name}({param.arg})" for param in params
                  if param and param.arg not in read]
    return found


def test_the_check_finds_parameters_nothing_reads():
    source = (
        "class Config:\n"
        "    def scaled(self, by, *rest, unit=1, **extra):\n"
        "        return lambda spare: self.value * by\n"
        "def outer(a, b):\n"
        "    def inner(c):\n"
        "        return a\n"
        "    return inner\n"
    )
    assert sorted(unread_parameters(source, "cli")) == [
        "cli.inner(c)", "cli.outer(b)", "cli.scaled(extra)", "cli.scaled(rest)",
        "cli.scaled(unit)",
    ]


def test_every_parameter_is_read():
    """Each stage's work function takes ``(ns, given)``, whether or not it has settings."""
    interface = {f"cli.{stage.work.__name__}({param})"
                 for stage in cli.STAGES.values() for param in ("ns", "given")}
    found = [unread for path in sorted(SOURCE.glob("*.py"))
             for unread in unread_parameters(path.read_text(), path.stem)]
    assert [unread for unread in found if unread not in interface] == []
