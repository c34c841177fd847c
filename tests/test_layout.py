"""``src/repro`` is the library and nothing else.

Every module under ``src/repro`` must be reached by the imports of the
library's users: ``repro`` itself (whose ``__init__`` imports each name of
``repro.__all__`` from the module defining it), and the modules that
``examples/``, ``bench/`` and ``tools/`` import.  An import reaches the
modules it names and, for ``from package import name``, that package's
``__init__``; the parent packages Python initialises on the way are not
followed, or every ``__init__`` would pull in all of its subpackage.  A
module reached only from ``tests/`` or ``benchmarks/`` is test or bench
scaffolding and lives there instead.

Every module-level import of a library module is used, too: no linter is
installed, so an ``ast`` scan holds the rule.  An import kept for its side
effects or for a lookup by name carries ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported(importer: str, tree: ast.Module) -> Iterator[str]:
    """The library modules and packages the imports in ``tree`` reach."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = importer if importer in PACKAGES else importer.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def library_closure() -> Set[str]:
    pending = ["repro"]
    for top in ("examples", "bench", "tools"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            pending.extend(imported(top, parse(path)))
    seen: Set[str] = set()
    while pending:
        module = pending.pop()
        if module in MODULES and module not in seen:
            seen.add(module)
            pending.extend(imported(module, parse(MODULES[module])))
    return seen


def test_every_library_module_is_reached_by_its_users():
    unreached = sorted(set(MODULES) - PACKAGES - library_closure())
    assert not unreached, (
        "modules under src/repro that neither repro nor an example, bench or "
        f"tool reaches (test or bench scaffolding belongs outside src/): {unreached}"
    )


def test_the_closure_does_not_follow_parent_packages():
    closure = library_closure()
    assert "repro.index.two_table" in closure  # TwoTableIndex, Section 4.1
    assert "repro.relational.join" in closure  # reached only through imports
    # ``repro.core.backend`` is imported, but ``repro.core``'s own
    # ``__init__`` never is by name, so it must not count.
    assert "repro.core" not in closure


def names_used(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including those inside string
    annotations and ``__all__`` entries."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            used.update(name.id for name in ast.walk(expression) if isinstance(name, ast.Name))
    return used


def unused_imports(path: Path) -> Iterator[str]:
    """``name (line)`` for each module-level import ``path`` never uses."""
    lines = path.read_text().splitlines()
    tree = parse(path)
    used = names_used(tree)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                yield f"{name} (line {node.lineno})"


def test_library_modules_use_every_import():
    unused = {
        name: found
        for name, path in sorted(MODULES.items())
        if (found := list(unused_imports(path)))
    }
    assert not unused, f"unused module-level imports (mark a deliberate one # noqa: F401): {unused}"


def test_the_import_scan_honours_noqa(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List\n"
        "import os  # noqa: F401\n"
        "import sys\n"
        "value: 'List[int]' = []\n"
        "print(sys.argv)\n"
    )
    assert list(unused_imports(module)) == ["Dict (line 1)"]
