import builtins
import re
from pathlib import Path

import spechtex

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def library_names():
    """Dotted names the README's `## Library` section puts in backticks."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return [span for span in spans if DOTTED_NAME.fullmatch(span)]


def resolves(dotted):
    """True iff ``dotted`` names an attribute, or a dataclass field, of spechtex."""
    obj = spechtex
    *path, last = dotted.split(".")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return hasattr(obj, last) or last in getattr(obj, "__dataclass_fields__", {})


def test_readme_library_names_resolve_on_the_package():
    names = [n for n in library_names() if n.split(".")[0] not in vars(builtins)]
    assert "triple_verdict" in names and "RelationSystem.rows" in names
    assert [n for n in names if not resolves(n)] == []


def test_every_exported_name_resolves():
    assert [n for n in spechtex.__all__ if not hasattr(spechtex, n)] == []
