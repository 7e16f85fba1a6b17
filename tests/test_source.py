"""Source guards over ``src/kgsum``.  With the standard library's ``ast``:
every imported name is used in its module, every private module-level
name (one leading underscore) is referenced somewhere in the package
outside its own definition, every option a subcommand declares is read by
that subcommand, every parameter of a function or lambda is read by its
body, a private attribute is assigned and read through ``self`` alone, and
only ``graph`` and ``rules`` read a graph's CSR rows.  And the modules every
command imports leave out the heavy standard-library modules."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgsum"
MODULES = sorted(PACKAGE.glob("*.py"))


def used_names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, as a variable, an attribute or an import."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds, imports aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
    rest = set().union(*(used_names(s) for s in tree.body if s not in imports))
    bound = [
        (a.asname or a.name).split(".")[0]
        for s in imports
        if not (isinstance(s, ast.ImportFrom) and s.module == "__future__")
        for a in s.names
    ]
    assert [name for name in bound if name not in rest] == []


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    uses = [(stmt, used_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in defined_names(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # references from anywhere in the package but the definition itself
                if not any(name in names for s, names in uses if s is not stmt):
                    unused.append(f"{module}: {name}")
    assert unused == []


def test_the_command_modules_import_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 1 MB of RSS in every command, perturb and evaluate included.  -S keeps a
    # site hook from importing them or hiding them.
    code = (
        "import sys\n"
        "import kgsum.cli, kgsum.miner, kgsum.anomaly, kgsum.evalharness\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_every_option_of_a_subcommand_is_read_by_it():
    # an option that its command never reads is accepted and does nothing
    from kgsum import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {s.name: s for s in tree.body if isinstance(s, ast.FunctionDef)}

    def reads(name: str, seen: set[str]) -> set[str]:
        """The ``args`` attributes that the cli function ``name`` and every cli
        function it calls read."""
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        out = set()
        for n in ast.walk(functions[name]):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args":
                out.add(n.attr)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                out |= reads(n.func.id, seen)
        return out

    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in commands.choices.items():
        read = reads(parser.get_default("func").__name__, set())
        unread += [
            f"{command} {a.option_strings[0]}"
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction) and a.dest not in read
        ]
    assert unread == []


# parameters that stay unread on purpose, each with its reason
UNREAD_PARAMETERS = {
    ("encoding.py", "assertions_cost", "g"):
        "the benchmark harness (bench/trace_run.py) calls assertions_cost(aset, g) positionally",
}


def unread_parameters(path: Path) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter of a function or
    lambda in ``path`` that its body never reads."""
    unread = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        unread += [(path.name, name, p) for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    # a parameter its function never reads is an argument every caller passes for nothing
    unread = [u for path in MODULES for u in unread_parameters(path)]
    assert [u for u in unread if u not in UNREAD_PARAMETERS] == []
    assert sorted(UNREAD_PARAMETERS) == sorted(set(unread) & UNREAD_PARAMETERS.keys())


def test_private_attributes_are_assigned_through_self_alone():
    # an object's private fields are its own to set: one function writing
    # another object's private fields splits building that object in two
    writes = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            writes += [
                f"{path.name}:{t.lineno}: {ast.unparse(t)}"
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Attribute)
                and t.attr.startswith("_")
                and not t.attr.startswith("__")
                and not (isinstance(t.value, ast.Name) and t.value.id == "self")
                and isinstance(t.ctx, ast.Store)
            ]
    assert writes == []


def test_private_attributes_are_read_through_self_alone():
    # an object's private fields are its own to read: a module reading another
    # object's private fields (a graph's ``_rows``, say) depends on a layout
    # that its owner may change; it asks the owner through a public name
    reads = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        and not isinstance(node.ctx, ast.Store)
    ]
    assert reads == []


def test_only_graph_and_rules_read_csr_rows():
    # rules.child_rows is the one reader of a node's rows for a rule child;
    # another module reading the columns would decide on its own how rows are
    # bisected and filtered
    calls = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in MODULES
        if path.name not in ("graph.py", "rules.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "csr"
    ]
    assert calls == []
