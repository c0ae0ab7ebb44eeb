import ast
import importlib
import math
import re
import shlex
from pathlib import Path

from trslab import cli, lanczos

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _ordinal(k):
    return f"{k}{'th' if 10 <= k % 100 <= 20 else {1: 'st', 2: 'nd', 3: 'rd'}.get(k % 10, 'th')}"


def test_threads_section_states_the_split_threshold():
    # README's figures for lanczos.SPLIT_BYTES, derived from the constant: its
    # size in MiB, here and in the module map, and the first Lanczos step
    # whose basis (one column per step) reaches it at n = 100 000
    text = " ".join(README.read_text(encoding="utf-8").split())
    threads = text.split("## Threads", 1)[1].split("## ", 1)[0]
    mib = f"{lanczos.SPLIT_BYTES / 2**20:g} MiB"
    step = _ordinal(math.ceil(lanczos.SPLIT_BYTES / (8 * 100_000)))
    assert f"`lanczos.SPLIT_BYTES` ({mib}) of basis" in threads
    assert f"at n = 100 000 is from the {step} Lanczos step on" in threads
    stated = re.findall(r"`(?:lanczos\.)?SPLIT_BYTES` \(([^)]*)\)", text)
    assert len(stated) == 2 and set(stated) == {mib}


def test_stated_reservation_follows_the_constant():
    # README's figure for lanczos.RESERVE_BYTES, derived from the constant
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.findall(r"`(?:lanczos\.)?RESERVE_BYTES` \(([^)]*)\)", text)
    assert stated == [f"{lanczos.RESERVE_BYTES / 2**20:g} MiB"]


def test_stated_skip_threshold_follows_the_constant():
    # the eta that README (module map and Threads section) and the lanczos
    # docstring state, derived from lanczos.ORTH_ETA: a power of two, so
    # that eta ||r|| rounds exactly, and its multiple of the unit roundoff
    exponent = math.log2(lanczos.ORTH_ETA)
    assert exponent.is_integer(), "ORTH_ETA is stated as a power of two"
    power = f"2^{exponent:.0f}"
    units = f"{lanczos.ORTH_ETA / 2.0**-53:g} unit roundoffs"
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.findall(r"`(?:lanczos\.)?ORTH_ETA` \(([^)]*)\)", text)
    assert len(stated) == 2 and set(stated) == {power}
    threads = text.split("## Threads", 1)[1].split("## ", 1)[0]
    assert f"`lanczos.ORTH_ETA` ({power})" in threads
    assert f"ORTH_ETA = {power}, {units}" in " ".join(lanczos.__doc__.split())


def test_command_line_examples_parse():
    # a removed or renamed flag in the README's examples is an argparse error
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in commands if words and words[0] == "trslab"]
    assert len(commands) == 6
    for words in commands:
        cli._build_parser().parse_args(words[1:])


def _bindings():
    # (module, name) of each literal (module, name, span) tuple in perfbench/layers.py's BINDINGS
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"]
    ]
    return {
        (node.elts[0].value, node.elts[1].value)
        for node in ast.walk(value)
        if isinstance(node, ast.Tuple)
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    }


def _imported_from_trslab():
    # (module, name) for every `from trslab.mod import name` (or relative
    # `from .mod import name`) and every `mod.name` read through a module bound
    # by `from trslab import mod` (or `from . import mod`), under src/ and perfbench/
    pairs = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = node.module or ""
            if node.level:  # relative imports occur only inside src/trslab
                base = f"trslab.{base}".rstrip(".")
            if base == "trslab":
                modules.update({a.asname or a.name: f"trslab.{a.name}" for a in node.names})
            if base.startswith("trslab"):
                pairs.update((base, a.name) for a in node.names)
        pairs.update(
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    return pairs


def test_unused_imports_are_marked_and_accounted_for():
    # an import a module does not use (a Name it never reads, nor lists in its
    # __all__, as pyflakes counts uses) must sit on a `# noqa: F401` line and
    # be there for a reason: perfbench rebinds it in that module, or another
    # module imports it from there.  Such a name is dead once its reason goes
    bindings, imported = _bindings(), _imported_from_trslab()
    problems = []
    for path in sorted((ROOT / "src" / "trslab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        module = "trslab" if path.stem == "__init__" else f"trslab.{path.stem}"
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(importlib.import_module(module), "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used:
                    continue
                where = f"{path.name}:{alias.lineno}: {name}"
                if "# noqa: F401" not in text.splitlines()[alias.lineno - 1]:
                    problems.append(f"{where} is unused and not marked noqa: F401")
                elif (module, name) not in bindings | imported:
                    problems.append(f"{where} is neither bound in BINDINGS nor imported elsewhere")
    assert problems == []
