"""The package as a whole: its public names, the size of its modules,
where the memory budget is read and work refused, which module owns P
and the recurrence, which rule accepts it, where holonomic loads numpy,
which private names a module reads and what the tree oracle, refine and
a resumed exact eval import."""

import ast
import pathlib
import tokenize

import pytest

import foldrate
import foldrate.engine
from helpers import MIXED_EXAMPLE, fresh_python


def test_every_public_name_resolves():
    # names load lazily from bounds, cache and trees (foldrate.__getattr__)
    for name in foldrate.__all__:
        assert getattr(foldrate, name) is not None, name
    namespace = {}
    exec("from foldrate import *", namespace)
    assert set(foldrate.__all__) <= set(namespace)
    assert set(foldrate._LAZY) <= set(foldrate.__all__)
    assert set(foldrate.__all__) <= set(dir(foldrate))
    assert foldrate.load_cache is foldrate.engine.load_cache
    assert foldrate.save_cache is foldrate.engine.save_cache
    with pytest.raises(AttributeError):
        foldrate.no_such_name
    with pytest.raises(AttributeError):
        foldrate.engine.no_such_name


def test_every_module_parses_to_fewer_than_4096_tokens():
    # CPython 3.11's parser doubles its token array past 4,096 tokens,
    # which adds about 0.25 MB to the peak RSS of a run that compiles the
    # module.  COMMENT and NL tokens never reach the parser.
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                        for tok in tokenize.generate_tokens(fh.readline))
        assert count < 4096, (path.name, count)


def test_tree_oracle_shares_no_code_with_the_engine():
    # foldrate.trees reads the parsed spec and nothing else from the
    # package, so its agreement with the engine is evidence, not circularity
    path = pathlib.Path(foldrate.__file__).parent / "trees.py"
    relative, absolute = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {alias.name for alias in node.names}
    assert not any(name.startswith("foldrate") for name in absolute), absolute
    assert {module for module, _ in relative} <= {"recurrence"}, relative


def test_point_evaluator_imports_nothing_from_bounds():
    # foldrate.lagrange rounds ln Phi_0 outward with scalars._ln_outward;
    # bounds loads lagrange, never the other way round
    path = pathlib.Path(foldrate.__file__).parent / "lagrange.py"
    imported = set()  # module and imported names: "from . import bounds" names it
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None)} | {alias.name for alias in node.names}
    assert not {"bounds", "foldrate.bounds"} & imported, imported
    assert "scalars" in imported, imported


def _evaluated_at_import(node):
    """node and the nodes under it that run when its module is imported:
    all but function bodies, whose defaults and decorators run then."""
    yield node
    for field, value in ast.iter_fields(node):
        if field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.Lambda)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _evaluated_at_import(child)


def test_no_module_binds_a_copy_of_the_memory_budget():
    # every check reads foldrate.engine.DEFAULT_MEMORY_LIMIT when it runs; a
    # from-import, a default argument or any other read at import binds
    # the value of that moment, and lowering the budget would not reach
    # the check.
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _evaluated_at_import(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            assert "DEFAULT_MEMORY_LIMIT" not in names, (path.name, node.lineno)


def _scoped(node, scope=""):
    """(the dotted name of the innermost class or function around it, or
    "", node) for node and every node under it."""
    yield scope, node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}".lstrip(".")
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def test_one_gate_refuses_work_and_only_the_engine_reads_the_budget():
    # engine.check_budget reads the budget and refuses work before it
    # starts; SequenceTable.extend reports a table that stopped short.  No
    # other code builds a MemoryBudgetError, and no module but engine.py
    # reads the budget in code.
    refusals, reads = set(), []
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "MemoryBudgetError" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                refusals.add((path.name, scope))
            if path.name == "engine.py":
                continue
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = {node.attr}
            else:
                continue
            if "DEFAULT_MEMORY_LIMIT" in names:
                reads.append((path.name, node.lineno))
    assert refusals == {("engine.py", "check_budget"), ("engine.py", "SequenceTable.extend")}, \
        refusals
    assert not reads, reads


def test_holonomic_owns_p_and_the_recurrence():
    # holonomic reads P from the spec, is the only evaluation of (R), and
    # writes, admits and proves a stored (R): engine.py reads no recurrence
    # coefficients and divides by no p_0(n), neither holonomic.py nor
    # cache.py reads an exact table's weight pairs, and cache.py reads no
    # field of a Recurrence and neither the search's cap nor its windows.
    # A name counts as an attribute, a bare name or an imported name.  No
    # module but holonomic.py constructs a Recurrence, and engine.py calls
    # holonomic.find with the table's s and the spec alone (find takes W
    # as len(s) - 1)
    root, hits = pathlib.Path(foldrate.__file__).parent, []
    for name, names, calls in (("engine.py", {"coeffs"}, {"divmod"}),
                               ("holonomic.py", {"pairs"}, set()),
                               ("cache.py", {"pairs", "coeffs", "start", "window", "CAP",
                                             "WINDOWS"}, set())):
        for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8"))):
            read = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            if (read & names
                    or isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls):
                hits.append((name, node.lineno))
    assert not hits, hits
    finds = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "Recurrence" and path.name != "holonomic.py":
                hits.append((path.name, node.lineno))
            if called == "find" and path.name == "engine.py":
                owner = getattr(getattr(node.func, "value", None), "id", None)
                finds.append((owner, len(node.args), len(node.keywords)))
    assert not hits, hits
    assert finds == [("holonomic", 2, 0)], finds


def test_one_rule_accepts_a_recurrence():
    # holonomic.proved is called from Recurrence.holds alone, so find and a
    # cache load accept (R) by the same rule, root check included
    callers = set()
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "proved" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add((path.name, scope))
    assert callers == {("holonomic.py", "Recurrence.holds")}, callers


def test_only_the_search_block_loads_numpy_in_holonomic():
    # numpy is imported only inside _matrix and _eliminate, and no other
    # function names np, so proving, running and resuming a recurrence
    # load no numpy (holonomic docstring, "Find.")
    path = pathlib.Path(foldrate.__file__).parent / "holonomic.py"
    imports, names = set(), set()
    for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(module.split(".")[0] == "numpy" for module in modules):
            imports.add(scope)
        if isinstance(node, ast.Name) and node.id == "np":
            names.add(scope)
    assert imports == {"_matrix", "_eliminate"}, imports
    assert names <= {"_matrix", "_eliminate"}, names


def test_no_module_reads_another_objects_private_names():
    # x._name is read only where x is self or cls, so no module reaches
    # into another's objects; a private name imported from a module
    # (from .series import _low) is not an attribute read
    hits = []
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__")):
                continue
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                hits.append((path.name, node.lineno, node.attr))
    assert not hits, hits


def test_refine_builds_no_table_and_the_cli_loads_no_point_evaluator():
    # a fresh interpreter, so that no other test has loaded the modules
    code = """
import contextlib, io, sys
import foldrate.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert foldrate.cli.main(["rate", "--spec-text", "sum 2 2"]) == 0
loaded = {"numpy", "foldrate.lagrange"} & set(sys.modules)
assert not loaded, loaded
from foldrate import parse_spec, refine
report = refine(parse_spec("sum 2 2\\nsum 3 3\\nsum 4 4\\nmax 5 5\\nmax 6 6"), epsilon=0.5)
assert report.converged and report.max_n == 4290, report
assert "foldrate.lagrange" in sys.modules
assert "foldrate.logdomain" not in sys.modules
"""
    done = fresh_python("-c", code, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_bounds_builds_no_table_and_reads_no_cache():
    # a fresh interpreter, so that no other test has loaded the modules:
    # bounds reads certified points, as refine does
    code = """
import contextlib, io, sys
import foldrate.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert foldrate.cli.main(["bounds", "--spec-text", "sum 2 1\\nmax 3 1", "--n", "64"]) == 0
assert "foldrate.lagrange" in sys.modules
loaded = {"foldrate.logdomain", "foldrate.cache"} & set(sys.modules)
assert not loaded, loaded
"""
    done = fresh_python("-c", code, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_resumed_exact_eval_loads_no_numpy(tmp_path):
    # a table cached at n = 128 is on its proved recurrence; a fresh
    # process resumes it to 256 without numpy, proof included, and prints
    # the bytes of a cold run
    code = """
import sys
import foldrate.cli
code = foldrate.cli.main(sys.argv[1:])
assert "numpy" not in sys.modules
sys.exit(code)
"""
    cache = str(tmp_path / "mix.seq")

    def run(*argv, prog=("-m", "foldrate.cli")):
        done = fresh_python(*prog, "eval", "--domain", "exact", "--spec-text", MIXED_EXAMPLE,
                            *argv, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    run("--n", "128", "--cache", cache)
    resumed = run("--n", "256", "--cache", cache, prog=("-c", code))
    assert resumed == run("--n", "256")
