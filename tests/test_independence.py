"""The independence rules, read off the sources with ``ast``.

The closed form and the oracle give two answers to one question, so
neither may lean on the other: the oracle (``coherence.py``) takes no
part of the classifier and of the partition module only ``Partition``;
the reference transcription (``tests/oracles.py``) uses the standard
library alone; and the witness check, ``is_coherent``, reaches neither
the oracle's build nor the triple blocks read off it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COHERENCE = ROOT / "src" / "spechtex" / "coherence.py"
ORACLES = ROOT / "tests" / "oracles.py"


def imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module, names) of every import in ``path``; a relative module keeps its dots."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((module, [alias.name for alias in node.names]))
    return found


def test_coherence_imports_no_classifier_and_only_partition_from_partitions():
    seen = set()
    for module, names in imports(COHERENCE):
        last = module.rsplit(".", 1)[-1]
        assert "classifier" not in (last, *names), (module, names)
        if last == "partitions":
            assert names == ["Partition"], names
        assert "partitions" not in names, (module, names)
        seen.add(last)
    assert "partitions" in seen


def test_oracles_import_only_the_standard_library():
    found = imports(ORACLES)
    assert found
    for module, names in found:
        assert not module.startswith("."), module
        assert module.split(".")[0] in sys.stdlib_module_names, (module, names)


def test_witness_check_reaches_neither_the_build_nor_the_blocks():
    # Every function and class of coherence.py that is_coherent names,
    # and those they name in turn; a class brings in all its methods.
    tree = ast.parse(COHERENCE.read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def named(node: ast.AST) -> set[str]:
        return {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }

    reached, todo = set(), ["is_coherent"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = named(defs[name])
        assert not names & {"build_relation_system", "_triple_block"}, name
        todo += sorted(names & defs.keys())
    assert {"_rows_hold", "_local_rows_hold", "_commuting_classes", "_tags_touching"} <= reached
    assert not reached & {"build_relation_system", "_triple_block", "_settle"}
