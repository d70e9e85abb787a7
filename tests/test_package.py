"""The package's public namespace."""

import ast
import importlib
import re
from pathlib import Path

import crowdscore
from crowdscore.csvio import save_trajectory_csv
from crowdscore.quality import fit_reference_from_crowds, save_reference_stats
from crowdscore.simulator import Scenario, simulate

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(crowdscore.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in crowdscore.__all__ if not hasattr(crowdscore, name)]
    assert missing == []
    assert len(set(crowdscore.__all__)) == len(crowdscore.__all__)


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``, then look up the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_dotted_name_in_the_readme_resolves():
    names = sorted(set(re.findall(r"\bcrowdscore(?:\.\w+)+", README.read_text(encoding="utf-8"))))
    assert len(names) >= 12
    assert [name for name in names if not _resolves(name)] == []


def test_readme_library_examples_run(tmp_path, monkeypatch):
    """Every python block of "Library use", in order and in one namespace, on a
    small simulated crowd saved under the file names the first block loads."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) >= 2

    crowd = simulate(Scenario(kind="circle", agent_count=6, radius=3.0, seed=0), duration=4.0)
    (tmp_path / "golden").mkdir()
    save_trajectory_csv(crowd, tmp_path / "golden" / "run0.csv")
    save_reference_stats(fit_reference_from_crowds([crowd]), tmp_path / "stats.txt")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    """A module of the package reads only the public names of the others:
    no ``from .other import _name`` and no ``other._name``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # local names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("crowdscore")
            ):
                for alias in node.names:
                    if node.module in (None, "crowdscore"):
                        if alias.name in modules:
                            aliases.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        found.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == []


def test_only_shares_forks_pins_or_maps_memory():
    """One way to use several CPUs: ``os.fork``, ``os.sched_setaffinity`` and
    ``mmap`` appear in ``crowdscore/shares.py`` and in no other module."""
    names = {"fork", "sched_setaffinity", "mmap"}
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Import):
                used = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                used = {(node.module or "").split(".")[0]} | {a.name for a in node.names}
            else:
                continue
            for name in used & names:
                uses.setdefault(path.name, []).append(f"{node.lineno} {name}")
    assert sorted({u.split()[1] for u in uses.pop("shares.py", [])}) == sorted(names)
    assert uses == {}
