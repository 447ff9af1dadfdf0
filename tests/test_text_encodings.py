"""Every text file the package and its scripts open names its encoding, so
that no input or output depends on the locale: each text-mode open(),
read_text() and write_text() call passes encoding=."""

import ast
from pathlib import Path

import pvseval

PACKAGE = Path(pvseval.__file__).parent
SCRIPTS = Path(__file__).parents[1] / "scripts"


def unnamed_encodings(source: str) -> list[int]:
    """Line numbers of the text-mode open(), read_text() and write_text()
    calls in source that do not pass encoding=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and "b" in m.value for m in modes):
                lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_and_scripts_name_every_text_encoding():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(sources) > 5
    found = {f"{p.parent.name}/{p.name}": unnamed_encodings(p.read_text(encoding="utf-8"))
             for p in sources}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_guard_catches_a_text_open_without_encoding():
    source = 'open(p, "w")\nopen(p, "rb")\nopen(p, mode="wb")\nopen(p)\n' \
             'open(p, "w", encoding="utf-8")\np.read_text()\n' \
             'p.write_text(s, encoding="utf-8")\nread_text(p)\n'
    assert unnamed_encodings(source) == [1, 4, 6]
