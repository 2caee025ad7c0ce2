"""Static checks on the growthlab sources: no unused top-level import, no
private top-level function that nothing in the package calls, every
function the benchmark hooks into still exists, no reader expands a
group descriptor, only fiber_mod_p builds a FiberModule, only the
Frobenius certificate closes an algebra basis, one candidate loop serves
both characteristics, one elimination serves every Smith form, and the CLI
imports no module it does not need at start-up."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import growthlab

PACKAGE = Path(growthlab.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(nodes):
    """Names loaded or attributes read anywhere under `nodes`."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_top_level_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__"
            for alias in stmt.names
        ]
        used = _referenced(s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom)))
        unused += [f"{name}: {alias}" for alias in imported if alias not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_function_is_called():
    orphans = []
    for name, tree in TREES.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_"):
                # a function's references to itself do not count
                elsewhere = [s for t in TREES.values() for s in t.body if s is not fn]
                if fn.name not in _referenced(elsewhere):
                    orphans.append(f"{name}: {fn.name}")
    assert not orphans, f"private functions referenced nowhere in the package: {orphans}"


def test_benchmark_hooks_resolve():
    # perfbench/tracer.py rebinds the TRACED functions and perfbench/child.py
    # calls a few more; read TRACED without importing the benchmark
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    assign = next(
        s for s in ast.parse(tracer.read_text()).body
        if isinstance(s, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in s.targets)
    )
    hooks = list(ast.literal_eval(assign.value)) + [
        "modules.joint_spectrum.cache_info",
        "cli.load_spec",
        "modules.count_max_submodules",
    ]
    missing = []
    for path in hooks:
        module, *attrs = path.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"growthlab.{module}"))
        except (ImportError, AttributeError):
            missing.append(path)
    assert not missing, f"benchmark hooks missing from growthlab: {missing}"


def test_no_function_calls_expand():
    # WreathCyclic is a SemidirectFgAbelian and every reader takes it as
    # given; its expand() is only a benchmark hook
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "expand"
    ]
    assert not calls, f"calls to .expand() in growthlab: {calls}"


def test_only_fiber_mod_p_builds_a_fiber_module():
    # FiberModule does not check that its actions commute: MatrixAction
    # checked that, and fiber_mod_p reduces one
    def calls(root):
        return [
            node for node in ast.walk(root)
            if isinstance(node, ast.Call) and "FiberModule" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]

    allowed = {
        id(node)
        for fn in TREES["modules.py"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "fiber_mod_p"
        for node in calls(fn)
    }
    elsewhere = [f"{name}:{node.lineno}" for name, tree in TREES.items() for node in calls(tree) if id(node) not in allowed]
    assert len(allowed) == 1 and not elsewhere, f"FiberModule built outside fiber_mod_p: {elsewhere}"


def test_only_the_frobenius_certificate_closes_an_algebra():
    # _generic_operator tests a candidate by its powers, so an algebra
    # basis is closed only over F_p, for _frobenius_fixed_space
    callers = [
        f"{name}:{fn.name}"
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and "_algebra_basis" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == ["modules.py:_spectrum_of_component"], f"_algebra_basis called from {callers}"


def test_one_candidate_loop_serves_both_characteristics():
    # _generic_operator (over Q) and prime_profile (over F_p) hand their
    # actions to modules._generator, which alone builds the candidates c and
    # tests them; prime_profile takes no min poly of its own
    functions = {fn.name: fn for fn in TREES["modules.py"].body if isinstance(fn, ast.FunctionDef)}

    def calls(name):
        return {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
        }

    candidate_work = {"chain", "count", "identity_matrix", "mat_mul", "min_poly_of_vector", "smith_normal_form_poly", "x_minus_matrix"}
    for name in ("_generic_operator", "prime_profile"):
        loops = [node.lineno for node in ast.walk(functions[name]) if isinstance(node, ast.While)]
        assert "_generator" in calls(name), f"{name} does not call _generator"
        assert not calls(name) & candidate_work and not loops, f"{name} tests candidates itself: {calls(name) & candidate_work}"
    assert "min_poly_of_matrix" not in calls("prime_profile")
    builders = [name for name in functions if calls(name) & {"min_poly_of_vector", "x_minus_matrix"}]
    assert builders == ["_generator"], f"candidates built in {builders}"


def test_one_smith_elimination_serves_every_ring():
    # the Smith forms over Z and over F[x] only hand their ring's operations
    # to linalg._smith, which holds the one elimination
    functions = {fn.name: fn for fn in TREES["linalg.py"].body if isinstance(fn, ast.FunctionDef)}
    for name in ("smith_normal_form_int", "smith_normal_form_poly"):
        nodes = list(ast.walk(functions[name]))
        loops = [node.lineno for node in nodes if isinstance(node, (ast.For, ast.While))]
        calls = {getattr(node.func, "id", None) for node in nodes if isinstance(node, ast.Call)}
        assert not loops and "_smith" in calls, f"{name} eliminates by itself: loops at {loops}"


def test_one_fraction_free_elimination_serves_the_determinant():
    # the determinant over Z[x] only hands its ring's operations to
    # linalg._bareiss, which holds the one fraction-free elimination
    functions = {fn.name: fn for fn in TREES["linalg.py"].body if isinstance(fn, ast.FunctionDef)}
    nodes = list(ast.walk(functions["det_int_poly"]))
    loops = [node.lineno for node in nodes if isinstance(node, (ast.For, ast.While))]
    calls = {getattr(node.func, "id", None) for node in nodes if isinstance(node, ast.Call)}
    assert not loops and "_bareiss" in calls, f"det_int_poly eliminates by itself: loops at {loops}"


def test_both_fields_offer_one_protocol():
    # every kernel runs over F_p and over Q through the same field methods,
    # so neither field may grow a method the other lacks
    from growthlab.poly import PrimeField, RationalField

    def protocol(cls):
        slots = set(getattr(cls, "__slots__", ()))  # PrimeField's p is data, not protocol
        return {name for name in vars(cls) if not name.startswith("_") and name not in slots}

    assert protocol(PrimeField) == protocol(RationalField) == {"zero", "one", "from_int", "inv", "reduce"}


def test_cli_import_loads_no_slow_modules():
    # every command pays for what `growthlab.cli` imports; -S keeps site's
    # .pth files from importing these modules themselves and hiding a regression
    slow = ("dataclasses", "inspect", "typing", "growthlab.oracle")
    code = f"import growthlab.cli, sys; print([m for m in {slow!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
