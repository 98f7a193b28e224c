"""Mutation testing for one module of the package, standard library only.

One mutant per site: + and - swap (binary, unary, augmented), so do << and
>>, & and |; a comparison is negated (< to >=, == to !=, in to not in, ...);
an integer constant moves by +1 or -1.  Annotations are left alone.  Each
mutant is written to a copy of the package in a temporary directory, never
to the source tree.  The files the test command reads beside the package
(tests/, scripts/ and pyproject.toml of the working directory, the root)
are copied there once, at the start, and the command runs in that copy,
one subprocess at a time, so that a long run checks one fixed state of the
tests.  The unmutated copy runs first, untimed, and must pass; each mutant
gets ten times its run time plus 5 s, and every process of a run at most
MEMORY_LIMIT bytes of address space, so that a mutant that never ends fails
early.  Survivors (exit 0 in time) are printed with their line and
function, then killed/total.  From the root:

    python3 scripts/mutants.py src/oddsum/bitcore.py -- \\
        python -m pytest -x -q -p no:cacheprovider tests/test_bitcore.py
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

PAIRS = ((ast.Add, ast.Sub), (ast.UAdd, ast.USub), (ast.LShift, ast.RShift),
         (ast.BitAnd, ast.BitOr), (ast.Lt, ast.GtE), (ast.Gt, ast.LtE),
         (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot), (ast.In, ast.NotIn))  # fmt: skip
SWAPS = {**dict(PAIRS), **{b: a for a, b in PAIRS}}

# what the test command reads beside the package, copied from the root
SNAPSHOT = ("tests", "scripts", "pyproject.toml")

# the address space of each process of the test command, in bytes: the whole
# tier-1 suite peaks near 110 MB, and mutants that never end took up to 6.5 GB
MEMORY_LIMIT = 1 << 30


def code_nodes(node: ast.AST) -> list[ast.AST]:
    """node and every node below it outside annotations, in a fixed order."""
    nodes = [node]
    for field, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST) and field not in ("annotation", "returns"):
                nodes += code_nodes(child)
    return nodes


def sites(nodes: list[ast.AST]) -> list[tuple[int, str, object]]:
    """(node index, field, mutated value) of every mutation of the nodes."""
    found = []
    for i, node in enumerate(nodes):
        if type(getattr(node, "op", None)) in SWAPS:
            found.append((i, "op", SWAPS[type(node.op)]()))
        for k, op in enumerate(getattr(node, "ops", ())):
            found.append((i, "ops", [*node.ops[:k], SWAPS[type(op)](), *node.ops[k + 1 :]]))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(i, "value", node.value + 1), (i, "value", node.value - 1)]
    return found


def _limit_memory() -> None:  # in the child, before it runs the command
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def passes(command: list[str], path: str, cwd: str, timeout: float | None) -> bool:
    """Whether command, run in cwd, exits 0 within timeout (None: unlimited)
    and MEMORY_LIMIT, path first on PYTHONPATH."""
    paths = os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=paths, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:  # stop the command and all it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a .py file inside a package directory")
    parser.add_argument("command", nargs="+", help="the test command, after --")
    args = parser.parse_args()
    source = open(args.module, encoding="utf-8").read()
    package = os.path.relpath(os.path.dirname(os.path.abspath(args.module)))
    if package.startswith(os.pardir):
        sys.exit("run from the root, which holds the module's package")
    scopes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
    todo = sites(code_nodes(ast.parse(source)))
    killed, timeout = 0, None
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__")
        for name in filter(os.path.exists, SNAPSHOT):
            if os.path.isdir(name):
                shutil.copytree(name, os.path.join(tmp, name), ignore=ignore)
            else:
                shutil.copy2(name, tmp)
        copy = os.path.join(tmp, package)
        shutil.copytree(package, copy, ignore=ignore)
        target = os.path.join(copy, os.path.basename(args.module))
        for number, site in enumerate([None, *todo]):
            tree = ast.parse(source)  # the unmutated copy first: it must pass
            node = code_nodes(tree)[site[0]] if site else tree
            before = ast.unparse(node)
            if site:
                setattr(node, *site[1:])
            with open(target, "w", encoding="utf-8") as f:
                f.write(ast.unparse(tree))
            start = time.monotonic()
            survived = passes(args.command, os.path.dirname(copy), tmp, timeout)
            if not site and not survived:
                sys.exit("the test command fails on the unmutated copy")
            timeout = timeout or 10 * (time.monotonic() - start) + 5
            if site and survived:
                where = [f.name for f in scopes if f.lineno <= node.lineno <= f.end_lineno]
                print(f"survived {args.module}:{node.lineno} ({(where or ['module'])[-1]}):"
                      f" {before} -> {ast.unparse(node)}", flush=True)  # fmt: skip
            killed += bool(site) and not survived
            print(f"{number}/{len(todo)} run, {killed} killed", file=sys.stderr, flush=True)
    print(f"{killed}/{len(todo)} mutants killed")


if __name__ == "__main__":
    main()
