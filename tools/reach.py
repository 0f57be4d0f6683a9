#!/usr/bin/env python3
"""Reach census: which ``src/repro`` functions the system's runs execute.

``python tools/reach.py`` runs ``bench/run.py --quick``, ``pytest benchmarks/``
(the figure scripts), every ``examples/*.py`` and the tier-1 tests; a
``sitecustomize`` ``settrace`` hook makes every process, forked ones too,
record the code it enters.  Prints per module its function lines (each
owned by its innermost ``def``) reached by the first three, by the tests
only and by nothing, then those last two by function name."""

import ast
import collections
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "repro"
POPULATIONS = {
    "bench": [[sys.executable, "bench/run.py", "--quick"]],
    "figures": [[sys.executable, "-m", "pytest", "benchmarks/", "-q", "--benchmark-disable"]],
    "examples": [[sys.executable, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))],
    "tests": [[sys.executable, "-m", "pytest", "tests/", "-q"]],
}
HOOK = '''import atexit, os, sys, threading
_src, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], {}
def _call(frame, event, arg, _seen=_seen, _src=_src, _abs=os.path.abspath):
    if (code := frame.f_code) not in _seen:
        _seen[code] = _abs(code.co_filename).startswith(_src)
def _dump():
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "a") as f:
        f.writelines(f"{os.path.abspath(c.co_filename)}:{c.co_firstlineno}\\n"
                     for c, mine in dict(_seen).items() if mine)
os._exit = lambda code, _real=os._exit: (_dump(), _real(code))
atexit.register(_dump), sys.settrace(_call), threading.settrace(_call)
'''
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def functions(path: Path) -> tuple[dict, dict]:
    """Qualified name and own lines per function, keyed by ``co_firstlineno``."""
    names, owner = {}, {}
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES[:2]):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[first] = prefix + child.name
                owner.update(dict.fromkeys(range(first, child.end_lineno + 1), first))
            walk(child, f"{prefix}{child.name}." if isinstance(child, SCOPES) else prefix)

    walk(ast.parse(path.read_text()), "")
    return names, collections.Counter(owner.values())


def run(tmp: Path) -> dict[str, set]:
    """``population -> {(file, first line)}`` of the functions it entered."""
    (tmp / "sitecustomize.py").write_text(HOOK)
    reached = {}
    for pop, commands in POPULATIONS.items():
        (out := tmp / pop).mkdir()
        env = dict(os.environ, REACH_SRC=str(PKG), REACH_OUT=str(out),
                   PYTHONPATH=os.pathsep.join([str(tmp), str(ROOT / "src")]))
        for cmd in commands:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
            print(f"{pop}: {' '.join(cmd[1:])} -> exit {code}", file=sys.stderr)
        hits = (s.rpartition(":") for dump in out.iterdir() for s in dump.read_text().split())
        reached[pop] = {(f, int(line)) for f, _, line in hits}
    return reached


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reached = run(Path(tmp))
    tests, system = reached.pop("tests"), set().union(*reached.values())
    print("| module | def lines | reached | tests only | by nothing |\n|---|---:|---:|---:|---:|")
    totals, named = [0] * 4, {1: {}, 2: {}, 3: {}}
    for path in sorted(PKG.rglob("*.py")):
        names, lines = functions(path)
        rel, row = path.relative_to(PKG).as_posix(), [0] * 4
        for f in sorted(names):
            kind = 1 if (str(path), f) in system else 2 if (str(path), f) in tests else 3
            row[0], row[kind] = row[0] + lines[f], row[kind] + lines[f]
            named[kind].setdefault(rel, []).append(f"`{names[f]}`")
        for kind in (2, 3):  # a whole module in one phrase
            if len(named[kind].get(rel, ())) == len(names) > 1:
                named[kind][rel] = [f"all {len(names)} functions"]
        totals = [t + r for t, r in zip(totals, row)]
        if names:  # a module without functions has nothing to reach
            print(f"| `{rel}` | " + " | ".join(map(str, row)) + " |")
    print("| **total** | " + " | ".join(f"**{t}**" for t in totals) + " |")
    for kind, who in ((2, "only the tests reach"), (3, "nothing reaches")):
        print(f"\nFunctions {who}:\n")
        for rel, fns in named[kind].items():
            print(f"- `{rel}`: " + ", ".join(fns))


if __name__ == "__main__":
    main()
