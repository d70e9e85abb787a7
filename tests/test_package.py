"""The package's public namespace."""

import importlib
import re
from pathlib import Path

import crowdscore

README = Path(__file__).resolve().parent.parent / "README.md"


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
