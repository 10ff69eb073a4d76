"""Report imports that a module never uses, in src/, tests/ and scripts/.

    python3 scripts/check_imports.py

A name bound by an import counts as used when the module reads it anywhere
(also inside a quoted annotation) or lists it in `__all__`; `__future__`
imports are exempt.  Prints one line per unused import and exits 1 when
there is any, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import ast
import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests", "scripts")


def _imports(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                e.value
                for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _imports(tree) if name not in used)


def main() -> int:
    found = 0
    for directory in DIRECTORIES:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path.relative_to(ROOT)}:{line}: {name!r} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
