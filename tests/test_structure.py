"""The boundaries between failcast's modules, read from their source."""

import ast
from pathlib import Path

import failcast

SOURCE = Path(failcast.__file__).parent
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source: str, own: str) -> list[str]:
    """``module._name``, once each, for every underscore name of another failcast module
    that the module ``own`` with this ``source`` imports by name or reads as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    found, aliases = [], {}
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
            if not package and alias.name in MODULES:  # from . import ingestion
                aliases[alias.asname or alias.name] = alias.name
            elif package in MODULES and package != own and _private(alias.name):
                found.append(f"{package}.{alias.name}")
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
