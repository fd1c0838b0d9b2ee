"""Every function, class and method in ``src/ffc`` has a caller outside the
unit tests.

A name-reference walk over the source: the roots are the command line
(``ffc/cli.py``), the benchmark harness and the experiment scripts, the
acceptance criteria, the oracles in ``tests/support.py``, and the names that
the benchmark tracer wraps.  A definition is reached when its name appears
in reached code, and then its own body is walked.  Names are matched alone,
not with their module or class, so a method that shares its name with a
reached one is reached too; and the walk only reads the files.

Dunder methods run implicitly (operators, ``dataclass`` hooks), so they are
walked with their class and never reported.  Imports inside the package
reach nothing by themselves: a re-export is not a caller.
"""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "ffc"

# Kept on purpose although nothing reaches them; each with its reason.
ALLOWED = {
    "sturm.interlaces": "the exact descent's interlacing check will call it",
    "sturm._root_positions_with_mult": "the exact descent's interlacing check will call it",
}


def _root_files() -> list[Path]:
    bench = [p for p in sorted((REPO / "bench").glob("*.py")) if p.name != "test_harness.py"]
    return [
        PACKAGE / "cli.py",
        *bench,
        *sorted((REPO / "scripts").glob("*.py")),
        REPO / "tests" / "test_acceptance.py",
        REPO / "tests" / "support.py",
    ]


def _names(node: ast.AST, imports: bool = True) -> set[str]:
    """Every name that ``node`` reads: bare names, attributes and, unless
    ``imports`` is False, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif imports and isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _tracer_targets() -> set[str]:
    """The attribute leaves that ``bench/tracing.py``'s ``TARGETS`` wraps."""
    tree = ast.parse((REPO / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return {
                const.value.rsplit(".", 1)[-1]
                for pair in ast.walk(node.value)
                if isinstance(pair, ast.Tuple) and len(pair.elts) == 2
                for const in pair.elts[1:]
                if isinstance(const, ast.Constant)
            }
    raise AssertionError("bench/tracing.py has no TARGETS")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached() -> list[str]:
    """``module.qualname`` of every definition in the package that the walk
    does not reach, sorted."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    seeds: set[str] = set(_tracer_targets())
    roots = {path.resolve() for path in _root_files()}
    for path in _root_files():
        seeds |= _names(ast.parse(path.read_text()))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.resolve() in roots:
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                seeds |= _names(node, imports=False)
    # methods are defined under their own names; a reached class walks its
    # dunders and the rest of its body at once
    for name, entries in list(defs.items()):
        for qualname, node in entries:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not _is_dunder(item.name):
                        defs.setdefault(item.name, []).append((f"{qualname}.{item.name}", item))

    reached: set[str] = set()
    todo = list(seeds)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs.get(name, ()):
            if isinstance(node, ast.ClassDef):
                body = [
                    item for item in node.body
                    if not isinstance(item, _DEFS) or _is_dunder(item.name)
                ]
                found = set().union(*(_names(item, imports=False) for item in body))
                found |= set().union(*(_names(d) for d in node.decorator_list + node.bases))
            else:
                found = _names(node, imports=False)
            todo.extend(found - reached)
    return sorted(
        qualname
        for name, entries in defs.items()
        if name not in reached
        for qualname, _ in entries
    )


def test_every_definition_is_reached_or_allowed():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_every_allowed_name_exists_and_is_unreached():
    # an allow-list entry that gained a caller, or lost its definition, goes
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(unreached()))
