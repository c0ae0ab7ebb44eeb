import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _module_map_names():
    # (module, name) for each backticked Python name in a module-map row that
    # contains an underscore or starts with a capital; that skips attributes
    # such as `spectrum` and subcommand words such as `solve`
    pairs = []
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(trslab\.\w+)` +\|(.*)\|$", line)
        if row is None:
            continue
        for name in re.findall(r"`([^`]+)`", row.group(2)):
            if name.isidentifier() and ("_" in name or name[0].isupper()):
                pairs.append((row.group(1), name))
    return pairs


def test_module_map_names_resolve():
    pairs = _module_map_names()
    assert pairs, "no module-map rows found in README.md"
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
