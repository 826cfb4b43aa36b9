"""Source hygiene of the package, checked with the standard library's ast.

Five kinds of dead code are rejected: an import a module never reads (the
package ``__init__`` re-exports by importing, so it is exempt), a
module-level private function or class that nothing in the package
references, a name the package ``__init__`` exports that no demo, test,
benchmark script or the README names, a defaulted parameter that no call
in the package, tests, demos or benchmark sets, and a parameter its own
function never reads. A sixth check keeps the
benchmark runnable: every name ``bench/workload.py`` reads from a package
module must exist, and every keyword it passes must be a parameter. A
seventh keeps one integer rule: no module but ``core.py``, whose ``_count``
it is, tests ``isinstance(..., bool)`` or names ``np.integer``. An eighth
keeps one row-block loop: exactly one ``for`` statement in the package
iterates over ``_ROW_BLOCK``-row blocks, and no other steps through a
``range`` by an integer literal. A ninth keeps the closed-form
kernels atom-major: none of them reduces along ``axis=1`` or ``axis=-1``,
the short rows of a row-major block.
"""

import ast
import inspect
import math
import re
from pathlib import Path

from sdot import cli, core, hardness, noise, solver

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdot"
BENCH_MODULES = {"cli": cli, "core": core, "hardness": hardness, "noise": noise,
                 "solver": solver}


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(node):
    """Names a subtree reads: plain names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unused_imports(modules):
    found = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a.asname or a.name, a.name) for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {orig}" for local, orig in bound
                      if local not in read]
    return found


def unreferenced_private_defs(modules):
    # a reference counts only from outside the definition's own statement
    refs = []
    for name, tree in modules.items():
        for stmt in tree.body:
            refs.append((name, stmt, _referenced(stmt)))
    found = []
    for name, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_") or stmt.name.startswith("__"):
                continue
            if not any(stmt.name in names for _, other, names in refs if other is not stmt):
                found.append(f"{name}:{stmt.lineno} {stmt.name}")
    return found


def unused_exports(init_tree, texts):
    """Names the package ``__init__`` imports that none of ``texts`` names."""
    names = [alias.asname or alias.name for node in init_tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return [name for name in names
            if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]


def unset_defaults(modules, trees):
    """``module:line name(param=)`` for each defaulted parameter of a
    function in ``modules`` that no call in ``trees`` sets, by keyword or by
    position. A call matches every function of its (last) name; a ``*args``
    sets every position and a ``**kwargs`` every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.setdefault(name, []).append((math.inf if starred else len(node.args),
                                               {kw.arg for kw in node.keywords}))
    found = []
    for name, tree in modules.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            pos = [a.arg for a in args.posonlyargs + args.args]
            # a method's self or cls is never passed by position at its call
            bound = id(node) in methods and pos[:1] in (["self"], ["cls"])
            defaulted = [(i - bound, p) for i, p in enumerate(pos)
                         if i >= len(pos) - len(args.defaults)]
            defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(index < npos or param in kws or None in kws
                           for npos, kws in calls.get(node.name, [])):
                    found.append(f"{name}:{node.lineno} {node.name}({param}=)")
    return found


def unread_parameters(modules):
    """``module:line name(param)`` for each parameter, ``self``, ``*args`` and
    ``**kwargs`` included, that its function's body never reads."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found += [f"{name}:{node.lineno} {node.name}({p})" for p in params if p not in read]
    return found


def integer_checks_outside_core(modules):
    """``module:line`` for each ``isinstance`` test against ``bool`` and each
    ``np.integer`` in a module other than ``core.py``."""
    found = []
    for name, tree in modules.items():
        if name == "core.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _dotted(node) in (["np", "integer"],
                                                                    ["numpy", "integer"]):
                found.append(f"{name}:{node.lineno} np.integer")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    found.append(f"{name}:{node.lineno} isinstance(..., bool)")
    return sorted(found)


def _literal_step_range(node) -> bool:
    """True when ``node`` is ``range(start, stop, step)`` with an integer
    literal step, a block loop that spells its block size out."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range" and len(node.args) == 3
            and isinstance(node.args[2], ast.Constant) and type(node.args[2].value) is int)


def row_block_loops(modules):
    """``module:line`` of each ``for`` statement, or comprehension, whose
    iterable names ``_ROW_BLOCK`` or is a ``range`` with an integer literal
    step."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.comprehension)) and (
                    _literal_step_range(node.iter) or "_ROW_BLOCK" in {
                        sub.id for sub in ast.walk(node.iter) if isinstance(sub, ast.Name)}):
                found.append(f"{name}:{getattr(node, 'lineno', node.iter.lineno)}")
    return sorted(found)


# the atom-major kernels and what reduces their blocks
ATOM_MAJOR = ("_atom_sum", "_kernel", "_softmax", "_sparsemax", "_sparsemax_row", "_bisection",
              "_one_row_probs", "_clip_probs", "averaged_choice_jacobian")
REDUCTIONS = {"sum", "max", "min", "argmax", "argmin", "mean", "prod", "any", "all", "reduce",
              "accumulate", "cumsum", "cumprod", "count_nonzero", "ptp"}


def _int_literal(node):
    """The value of an int literal, negated ones included; None otherwise."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


def row_axis_reductions(tree, names):
    """``name:line`` of each reduction in the module-level functions
    ``names`` of ``tree`` along axis 1 or -1, by keyword or by position."""
    found = []
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name in names):
            continue
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call) and getattr(
                    sub.func, "attr", getattr(sub.func, "id", None)) in REDUCTIONS):
                continue
            axes = sub.args + [kw.value for kw in sub.keywords if kw.arg == "axis"]
            if any(_int_literal(a) in (1, -1) for a in axes):
                found.append(f"{node.name}:{sub.lineno}")
    return found


def _call_trees():
    paths = [p for folder in ("src", "tests", "demos", "bench")
             for p in sorted((ROOT / folder).rglob("*.py"))]
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _dotted(node):
    """``["noise", "MarginalModel", "from_json"]`` for an attribute chain on
    a plain name; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def missing_bench_names(tree, modules):
    """Attribute chains on ``modules`` that do not resolve, and keywords a
    call passes that its callable does not take."""
    found = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if not chain or chain[0] not in modules:
            continue
        obj = modules[chain[0]]
        for i, attr in enumerate(chain[1:], start=2):
            if not hasattr(obj, attr):
                found.add(f"{'.'.join(chain[:i])} does not exist")
                break
            obj = getattr(obj, attr)
    for node in ast.walk(tree):
        chain = _dotted(node.func) if isinstance(node, ast.Call) else None
        if not chain or chain[0] not in modules:
            continue
        try:
            obj = modules[chain[0]]
            for attr in chain[1:]:
                obj = getattr(obj, attr)
        except AttributeError:
            continue  # reported above
        params = inspect.signature(obj).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        names = {p.name for p in params}
        found.update(f"{'.'.join(chain)} takes no keyword '{kw.arg}'"
                     for kw in node.keywords if kw.arg is not None and kw.arg not in names)
    return sorted(found)


def _usage_texts():
    paths = [ROOT / "README.md", *(ROOT / "tests").glob("*.py"),
             *(p for folder in ("demos", "bench") for p in (ROOT / folder).rglob("*")
               if p.suffix in (".py", ".md"))]
    return [p.read_text() for p in paths if p.resolve() != Path(__file__).resolve()]


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_defs(_modules()) == []


def test_no_unused_exports():
    assert unused_exports(_modules()["__init__.py"], _usage_texts()) == []


def test_every_default_is_set_by_some_call():
    assert unset_defaults(_modules(), _call_trees()) == []


def test_every_parameter_is_read():
    assert unread_parameters(_modules()) == []


def test_integer_checks_live_in_core_alone():
    assert integer_checks_outside_core(_modules()) == []


def test_one_row_block_loop():
    loops = row_block_loops(_modules())
    assert len(loops) == 1 and loops[0].startswith("noise.py:"), loops


def test_row_block_check_flags_planted_loops():
    source = ("def one(U):\n    for start in range(0, len(U), _ROW_BLOCK):\n        pass\n\n"
              "def two(U):\n    return [U[s:s + _ROW_BLOCK] for s in range(0, len(U), _ROW_BLOCK)]\n\n"
              "def fine(U):\n    size = min(len(U), _ROW_BLOCK)\n    for row in U:\n        pass\n\n"
              "def three(U):\n    for start in range(0, len(U), 4096):\n        pass\n\n"
              "def four(U):\n    return [U[s:s + 512] for s in range(0, len(U), 512)]\n\n"
              "def also_fine(U, k):\n    for start in range(0, len(U), k):\n        pass\n"
              "    return [i for i in range(1, 4)]\n")
    planted = {"noise.py": ast.parse(source), "solver.py": ast.parse(source)}
    assert row_block_loops(planted) == [
        "noise.py:14", "noise.py:18", "noise.py:2", "noise.py:6",
        "solver.py:14", "solver.py:18", "solver.py:2", "solver.py:6"]


def test_kernels_reduce_over_atoms():
    tree = _modules()["noise.py"]
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ATOM_MAJOR) <= defined
    assert row_axis_reductions(tree, ATOM_MAJOR) == []


def test_row_axis_check_flags_planted_reductions():
    source = ("def _softmax(Z):\n    return Z / Z.sum(axis=1)\n\n"
              "def _sparsemax(V):\n    return np.add.reduce(V, axis=-1) + V.max(-1)\n\n"
              "def averaged_choice_jacobian(G):\n    return np.sum(G, 1) + G.sum(axis=0)\n\n"
              "def _kernel(U):\n"
              "    return np.add(U.max(axis=0), 1) + np.repeat(U, 2, axis=1)\n\n"
              "def _bisection(U, buf, mass):\n"
              "    return np.add.reduce(buf, axis=1, keepdims=True, out=mass) + U.min(0)\n\n"
              "def _bisection_rows(P):\n    return P.sum(axis=1)\n")
    assert row_axis_reductions(ast.parse(source), ATOM_MAJOR) == [
        "_softmax:2", "_sparsemax:5", "_sparsemax:5", "averaged_choice_jacobian:8",
        "_bisection:14"]


def test_bench_workload_names_exist():
    tree = ast.parse((ROOT / "bench" / "workload.py").read_text())
    assert missing_bench_names(tree, BENCH_MODULES) == []


def test_checks_flag_planted_dead_code():
    planted = ast.parse("import os\nfrom math import pi\n\n"
                        "def _dead():\n    return _dead()\n\n"
                        "def _used():\n    return 1\n\n"
                        "VALUE = _used()\n")
    modules = {"planted.py": planted}
    assert unused_imports(modules) == ["planted.py:1 os", "planted.py:2 pi"]
    assert unreferenced_private_defs(modules) == ["planted.py:4 _dead"]
    init = ast.parse("from pkg.mod import used, unused_name, aliased as shown\n")
    texts = ["used(1)", "shown = 2  # unused_names", "aliased"]
    assert unused_exports(init, texts) == ["unused_name"]
    planted = ast.parse("def solve(x, tol=1e-8, *, steps=10, log=None):\n    return x\n\n"
                        "class Box:\n    def fill(self, n=1, m=2):\n        return n\n\n"
                        "def _dead(k=3):\n    return k\n")
    calls = ast.parse("solve(1, log=print)\nBox().fill(5)\nsolve(*args)\n"
                      "_dead(**options)\n")
    assert unset_defaults({"planted.py": planted}, [calls]) == [
        "planted.py:1 solve(steps=)", "planted.py:5 fill(m=)"]
    # a parameter a nested function reads is read; one only assigned is not
    planted = ast.parse("def run(x, y, *rest, scale=1, **opts):\n"
                        "    def inner(z):\n        return z * scale\n"
                        "    y = 2\n    return inner(x)\n\n"
                        "class Box:\n    def size(self, unit):\n        return 1\n")
    assert unread_parameters({"planted.py": planted}) == [
        "planted.py:1 run(y)", "planted.py:1 run(rest)", "planted.py:1 run(opts)",
        "planted.py:8 size(self)", "planted.py:8 size(unit)"]


def test_integer_check_flags_planted_copies():
    source = ("def is_count(v):\n"
              "    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)\n\n"
              "def flag(v):\n    return isinstance(v, bool) or isinstance(v, (float, str))\n")
    planted = {"core.py": ast.parse(source), "solver.py": ast.parse(source)}
    assert integer_checks_outside_core(planted) == [
        "solver.py:2 isinstance(..., bool)", "solver.py:2 np.integer",
        "solver.py:5 isinstance(..., bool)"]


def test_bench_check_flags_planted_names():
    planted = ast.parse("noise.bisection_probs(u, model, 1e-6)\n"
                        "noise.MarginalModel.from_yaml(entry)\n"
                        "solver.averaged_sgd(spec, nu, c, None, cfg, seed=3)\n"
                        "hardness.QuadratureSpec(**quad)\n"
                        "core.draw(spec, n=5)\n"
                        "other.anything(x=1)\n")
    assert missing_bench_names(planted, BENCH_MODULES) == [
        "noise.MarginalModel.from_yaml does not exist",
        "noise.bisection_probs does not exist",
        "solver.averaged_sgd takes no keyword 'seed'",
    ]
