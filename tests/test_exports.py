"""The package re-exports only names that code outside the tests uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chunkcrf"


def test_every_re_export_is_used_outside_the_tests():
    # A use is any mention in the package (outside ``__init__.py``) or in the
    # benchmark, except the line that defines the name.
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    lines = [line for path in sources + sorted((ROOT / "perfbench").glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in exported:
        mention = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*(?::[^=]*)?=")
        if not any(mention.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert exported and unused == []
