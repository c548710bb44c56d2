"""The README's "Modules" table names only API that exists, and its quick
start prints what it shows.

Every backticked name in a row resolves, attribute by attribute, in the
module the row is about, so a deleted or renamed function cannot stay
listed.
"""

import contextlib
import dataclasses
import io
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def module_rows():
    """(module, [backticked names]) for each row of the Modules table."""
    section = README.read_text().split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        m = re.match(r"\|\s*`(coralign(?:\.\w+)*)`\s*\|(.*)", line)
        if m:
            rows.append((m.group(1), re.findall(r"`([^`]+)`", m.group(2))))
    return rows


def resolve(module_name, dotted):
    """The object a dotted name denotes: submodules are imported, and a
    dataclass field without a default resolves to its Field."""
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        if dataclasses.is_dataclass(obj) and not hasattr(obj, part):
            obj = {f.name: f for f in dataclasses.fields(obj)}[part]
        else:
            obj = getattr(obj, part)
    return obj


def test_every_module_table_name_resolves():
    rows = module_rows()
    assert {m for m, _ in rows} >= {
        "coralign.linalg", "coralign.coral", "coralign.lda",
        "coralign.classify", "coralign.deep", "coralign.bench",
    }
    missing = []
    for module_name, names in rows:
        for name in names:
            try:
                resolve(module_name, name)
            except (AttributeError, ImportError, KeyError):
                missing.append(f"{module_name}: {name}")
    assert sum(len(names) for _, names in rows) > 20
    assert missing == []


def test_quick_start_prints_the_accuracies_it_shows():
    section = README.read_text().split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends with a comment holding the value it prints
    shown = re.findall(r"^print\(.*#\s*(\S+)$", code, re.M)
    assert shown == ["0.956", "0.875"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    printed = [line.rsplit(" ", 1)[1] for line in out.getvalue().splitlines()]
    assert printed == shown
