import importlib
import re
import shlex
from pathlib import Path

from trslab import cli

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


def test_library_quickstart_runs(capsys):
    # the quickstart reads record fields by name, so running it keeps them in
    # step with ConvergenceRecord
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4


def test_command_line_examples_parse():
    # a removed or renamed flag in the README's examples is an argparse error
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in commands if words and words[0] == "trslab"]
    assert len(commands) == 6
    for words in commands:
        cli._build_parser().parse_args(words[1:])
