import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import growthlab
from growthlab import cli, groups, modules
from growthlab.cli import SpecError, main, parse_spec
from growthlab.groups import MAX_NILPOTENT_ELL, MAX_PRESENTED_GENS, MAX_WREATH_ORDER
from growthlab.poly import MAX_EXPONENT, QQ, poly_to_str


WREATH = {"type": "wreath_cyclic", "m": 3}
ZX = {"type": "module_presented", "gens": 1, "relations": []}
ZKZ = {"type": "zk_by_z", "matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
HEIS = {"type": "nilpotent_gf", "ell": 2, "f": {"1,2": [1]}}

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = {"table", "mdeg", "asymptote", "growth-type", "check", "irreducibles"}


def _spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _child_env():
    """Environment whose children import the same growthlab as this process."""
    src = str(Path(growthlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _declared_script():
    """Target of the `growthlab` console script, e.g. "growthlab.cli:main".

    Read from pyproject.toml; an installed growthlab must declare the same.
    Without tomllib (Python 3.10) an install's metadata is the declaration.
    """
    try:
        dist = metadata.distribution("growthlab")
    except metadata.PackageNotFoundError:
        installed = None
    else:
        scripts = dist.entry_points.select(group="console_scripts", name="growthlab")
        targets = [ep.value for ep in scripts]
        assert targets, "installed growthlab has no growthlab console script"
        installed = targets[0]
    if installed is not None and importlib.util.find_spec("tomllib") is None:
        return installed
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "growthlab" in scripts, "pyproject.toml declares no growthlab script"
    if installed is not None:
        assert installed == scripts["growthlab"], "installed growthlab is stale"
    return scripts["growthlab"]


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv(tmp_path, capsys):
    spec = _spec(tmp_path, WREATH)
    code, out, _ = _run(["table", spec, "--max-n", "10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,k,count,mtriv,mnontriv,exact"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert set(rows) == {2, 3, 4, 5, 7, 8, 9}
    assert rows[3][3] == "4"
    assert rows[7][3] == "15"
    assert rows[7][6] in ("true", "false")


def test_table_json(tmp_path, capsys):
    spec = _spec(tmp_path, WREATH)
    code, out, _ = _run(["table", spec, "--max-n", "10", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert any(r["n"] == 7 and r["count"] == 15 for r in doc["rows"])
    # the keys keep the fields' order, so the text does not move
    assert doc["rows"] and all(
        list(r) == ["n", "p", "k", "count", "mtriv", "mnontriv", "exact"] for r in doc["rows"]
    )
    assert list(doc["mdeg"]) == ["value", "provenance", "exactness"]


def test_mdeg(tmp_path, capsys):
    spec = _spec(tmp_path, ZKZ)
    code, out, _ = _run(["mdeg", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mdeg"] == 1
    # modules are rejected with exit 3
    mspec = _spec(tmp_path, ZX, "m.json")
    code2, _, _ = _run(["mdeg", mspec], capsys)
    assert code2 == 3


def test_asymptote(tmp_path, capsys):
    spec = _spec(tmp_path, ZKZ)
    code, out, _ = _run(["asymptote", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rho1"] == 3 and doc["d"] == 1
    # the JSON table carries the same leading term
    code3, table, _ = _run(["table", spec, "--max-n", "5", "--format", "json"], capsys)
    assert code3 == 0 and json.loads(table)["asymptotic"] == doc
    wspec = _spec(tmp_path, WREATH, "w.json")
    code2, _, _ = _run(["asymptote", wspec], capsys)
    assert code2 == 3


def test_growth_type(tmp_path, capsys):
    spec = _spec(
        tmp_path,
        {"type": "module_presented", "gens": 1, "relations": ["x^2 + 1"]},
    )
    code, out, _ = _run(["growth-type", spec], capsys)
    assert code == 0
    assert "bounded" in out
    # groups and modules with two or more actions are not in one variable
    two = {"type": "module_matrix", "actions": [[[1, 1], [0, 1]], [[1, 0], [0, 1]]]}
    for doc in (ZKZ, two):
        code2, _, err = _run(["growth-type", _spec(tmp_path, doc, "g.json")], capsys)
        assert code2 == 3 and err.startswith("error: the growth type needs a module in one variable"), doc


def _presented_doc(A, torsion):
    """The module_presented spec of [xI - A | t_j e_(k+j)], one relation per
    column."""
    dim, k = len(A), len(A) - len(torsion)
    columns = [[[-A[r][c], 1] if r == c else [-A[r][c]] for r in range(dim)] for c in range(dim)]
    columns += [[[t] if r == k + j else [] for r in range(dim)] for j, t in enumerate(torsion)]
    return {"type": "module_presented", "gens": dim,
            "relations": [[poly_to_str(f) for f in col] for col in columns]}


@pytest.mark.parametrize("A, torsion", [
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], []),
    ([[1, 1], [0, 1]], []),
    ([[1, 0], [0, 1]], []),
    ([[2, 0], [1, 1]], [3]),
    ([[1, 0, 0], [0, 1, 0], [1, 1, -1]], [4]),
    ([[-1, 0, 0], [1, 1, 0], [2, 0, 5]], [2, 6]),
    ([[1, 0], [0, 2]], [2, 4]),
])
def test_growth_type_of_one_action_is_that_of_its_presentation(tmp_path, capsys, A, torsion):
    matrix_spec = _spec(tmp_path, {"type": "module_matrix", "actions": [A], "torsion": torsion}, "m.json")
    code, out, err = _run(["growth-type", matrix_spec], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["r_max"] == 0
    presented_spec = _spec(tmp_path, _presented_doc(A, torsion), "p.json")
    assert _run(["growth-type", presented_spec], capsys) == (0, out, "")
    # their JSON tables agree, growth type included; with a second action the
    # module is not in one variable and its table has no growth type
    tables = [_run(["table", spec, "--max-n", "30", "--format", "json"], capsys) for spec in (matrix_spec, presented_spec)]
    assert tables[0] == tables[1] and tables[0][0] == 0
    assert json.loads(tables[0][1])["growth_type"] == json.loads(out)["growth_type"]
    identity = [[int(r == c) for c in range(len(A))] for r in range(len(A))]
    two_spec = _spec(tmp_path, {"type": "module_matrix", "actions": [A, identity], "torsion": torsion}, "two.json")
    code, two_table, _ = _run(["table", two_spec, "--max-n", "30", "--format", "json"], capsys)
    assert code == 0 and "growth_type" not in json.loads(two_table)


def test_check(tmp_path, capsys):
    spec = _spec(tmp_path, {"type": "module_matrix", "k": 2, "actions": [[[0, 1], [1, 0]]]})
    code, out, _ = _run(["check", spec, "--max-n", "9"], capsys)
    assert code == 0
    assert "MISMATCH" not in out


def test_check_builds_one_profile_per_prime(tmp_path, capsys):
    # Z x| Z by inversion has a 1 x 1 module, so every n <= 30 is checked;
    # the counts at p, p^2, ... read one cached profile
    spec = _spec(tmp_path, {"type": "zk_by_z", "matrix": [[-1]]})
    modules.prime_profile.cache_clear()
    code, out, _ = _run(["check", spec, "--max-n", "30"], capsys)
    assert code == 0 and out.count(": ok") == 16
    assert modules.prime_profile.cache_info().misses == 10  # the primes <= 30


def test_check_reduces_only_the_fibers_the_oracle_enumerates(tmp_path, capsys, monkeypatch):
    # Z wr Z/3 has a module of dimension 3, and p^3 <= 81 only at p = 2, 3:
    # those fibers are reduced once each, every other prime power is
    # skipped unreduced, no n is decomposed, and the lines go by n
    reduced, decomposed = [], []
    fiber = cli.fiber_mod_p
    monkeypatch.setattr(cli, "fiber_mod_p", lambda m, p: reduced.append(p) or fiber(m, p))
    for module in (cli, modules):
        monkeypatch.setattr(module, "prime_power_decompose", decomposed.append, raising=False)
    code, out, err = _run(["check", _spec(tmp_path, WREATH), "--max-n", "1000"], capsys)
    assert (code, err, reduced, decomposed) == (0, "", [2, 3], [])
    primes = [p for p in range(2, 1001) if all(p % d for d in range(2, p))]
    powers = sorted(p ** k for p in primes for k in range(1, 10) if p ** k <= 1000)
    lines = out.splitlines()
    assert [int(line[2:line.index(":")]) for line in lines] == powers
    assert sum(": ok (" in line for line in lines) == 9 + 6  # 2 .. 512 and 3 .. 729
    assert sum(": skipped (p^dim > 81)" in line for line in lines) == len(powers) - 15


def test_table_and_check_refuse_a_max_n_out_of_range(tmp_path, capsys):
    # 10^20 would overflow the sieve's bytearray and 10^11 allocate 100 GB;
    # check would loop to either.  10^20 goes first: it fails before any
    # allocation where the bound is missing.  Below 2 there is no n: the
    # spec is valid, so both exit 3, as above the bound
    spec = _spec(tmp_path, WREATH)
    for n in (10 ** 20, 10 ** 11, groups.MAX_TABLE_N + 1):
        assert _run(["table", spec, "--max-n", str(n)], capsys) == (
            3, "", f"error: n_max must be <= {groups.MAX_TABLE_N}, got {n}\n")
        assert _run(["check", spec, "--max-n", str(n)], capsys) == (
            3, "", f"error: --max-n must be <= {groups.MAX_TABLE_N}, got {n}\n")
    for n in (1, 0, -5):
        assert _run(["table", spec, "--max-n", str(n)], capsys) == (3, "", f"error: n_max must be >= 2, got {n}\n")
        assert _run(["check", spec, "--max-n", str(n)], capsys) == (3, "", f"error: --max-n must be >= 2, got {n}\n")


def test_check_exit4_on_a_mismatch(tmp_path, capsys, monkeypatch):
    # an oracle that is one off at n = 4 fails one of the seven comparisons
    from growthlab import oracle

    count = oracle.oracle_count_max_submodules
    monkeypatch.setattr(oracle, "oracle_count_max_submodules", lambda fib, n: count(fib, n) + (n == 4))
    spec = _spec(tmp_path, {"type": "module_matrix", "actions": [[[0, 1], [1, 0]]]})
    code, out, err = _run(["check", spec, "--max-n", "9"], capsys)
    assert (code, err) == (4, "1 of 7 comparisons disagree\n")
    assert [line for line in out.splitlines() if "MISMATCH" in line] == ["n=4: MISMATCH (engine=0 oracle=1)"]


def test_check_exit4_when_nothing_checked(tmp_path, capsys):
    # every prime p <= 50 has p^9 > 81, so the oracle skips every n
    spec = _spec(tmp_path, {"type": "wreath_cyclic", "m": 9})
    code, out, err = _run(["check", spec, "--max-n", "50"], capsys)
    assert code == 4 and err == "nothing verified: every n was skipped\n"
    assert out.startswith("n=2: skipped (p^dim > 81)\n")


def test_bad_spec_exit2(tmp_path, capsys):
    spec = _spec(tmp_path, {"type": "nonsense"})
    code, _, err = _run(["table", spec, "--max-n", "10"], capsys)
    assert code == 2
    missing = str(tmp_path / "missing.json")
    code2, _, _ = _run(["table", missing, "--max-n", "10"], capsys)
    assert code2 == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code3, out3, err3 = _run(["table", str(broken), "--max-n", "10"], capsys)
    assert (code3, out3) == (2, "") and err3.startswith("spec error: spec file is not valid JSON: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "zk_by_z", "matrix": [[1]], "torsion": 5},
        {"type": "semidirect", "acting_rank": 1, "actions": [[[1]]], "torsion": 5},
        {"type": "module_matrix", "actions": [[[1]]], "torsion": 5},
        {"type": "semidirect", "acting_rank": 0, "actions": [[[1]]], "acting_torsion": 3},
        {"type": "nilpotent_gf", "ell": 2, "f": {"1,2": 3}},
    ],
)
def test_integer_array_fields_exit2(tmp_path, capsys, doc):
    code, out, err = _run(["table", _spec(tmp_path, doc), "--max-n", "5"], capsys)
    assert code == 2
    assert err.startswith("spec error: field ") and "must be an array of integers" in err
    assert out == ""


@pytest.mark.parametrize(
    "doc, prefix",
    [
        ({"type": "nilpotent_gf", "ell": 100000, "f": {}}, "spec error: ell must be <= "),
        (
            {"type": "module_presented", "gens": 1, "relations": [["x^99999999999"]]},
            "spec error: relations[0]: exponent 99999999999 ",
        ),
        (
            {"type": "module_presented", "gens": 1, "relations": [[f"x^{MAX_EXPONENT + 1} - 1"]]},
            f"spec error: relations[0]: exponent {MAX_EXPONENT + 1} ",
        ),
        (
            {"type": "module_presented", "gens": 100000000, "relations": []},
            f"spec error: gens must be <= {MAX_PRESENTED_GENS}, got 100000000",
        ),
        (
            {"type": "wreath_cyclic", "m": MAX_WREATH_ORDER + 1},
            f"spec error: wreath order m must be <= {MAX_WREATH_ORDER}, got {MAX_WREATH_ORDER + 1}",
        ),
    ],
)
def test_oversized_specs_exit2(tmp_path, capsys, doc, prefix):
    code, out, err = _run(["table", _spec(tmp_path, doc), "--max-n", "5"], capsys)
    assert code == 2
    assert err.startswith(prefix)
    assert out == ""


def test_specs_at_the_size_bounds_yield_a_table(tmp_path, capsys):
    top = {"type": "module_presented", "gens": 1, "relations": [[f"x^{MAX_EXPONENT} - 1"]]}
    code, out, _ = _run(["table", _spec(tmp_path, top), "--max-n", "2"], capsys)
    assert code == 0
    # MAX_EXPONENT is a power of 2, so the relation is (x - 1)^MAX_EXPONENT mod 2
    assert out.splitlines()[1] == "2,2,1,1,1,0,true"
    # the largest ell: G/G^p[G,G] has rank u = ell + C(ell, 2), and the
    # count at 199 has over 4300 digits, so it is printed in full
    widest = {"type": "nilpotent_gf", "ell": MAX_NILPOTENT_ELL, "f": {}}
    code, out, _ = _run(["table", _spec(tmp_path, widest), "--max-n", "200"], capsys)
    assert code == 0
    u = MAX_NILPOTENT_ELL * (MAX_NILPOTENT_ELL + 1) // 2
    assert out.splitlines()[-1] == f"199,199,1,{(199 ** u - 1) // 198},{(199 ** u - 1) // 198},0,true"
    # free rank r: at n = 2 each of the two linear irreducibles gives 2^r - 1
    free = {"type": "module_presented", "gens": MAX_PRESENTED_GENS, "relations": []}
    code, out, _ = _run(["table", _spec(tmp_path, free), "--max-n", "2"], capsys)
    assert code == 0
    r = MAX_PRESENTED_GENS
    assert out.splitlines()[1] == f"2,2,1,{2 * (2 ** r - 1)},{2 ** r - 1},{2 ** r - 1},true"
    # Z wr Z/32: x^32 - 1 has 16 linear factors mod 17, x - 1 among them
    assert MAX_WREATH_ORDER == 32
    widest_wreath = {"type": "wreath_cyclic", "m": MAX_WREATH_ORDER}
    code, out, _ = _run(["table", _spec(tmp_path, widest_wreath), "--max-n", "17"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"17,17,1,{1 + 17 * 15},1,15,true"


def _timed_run(argv, capsys, budget_s=10):
    start = time.perf_counter()
    code, out, err = _run(argv, capsys)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{argv[0]} took {elapsed:.1f} s"
    return code, out, err


def test_table_of_x512_minus_x_reads_only_factor_degrees(tmp_path, capsys):
    # x^512 - x = x (x^511 - 1), and mod p, x^511 - 1 = (x^m' - 1)^(p^a)
    # with m' = 511 without its p-part.  The module is cyclic, so each
    # irreducible factor is one simple quotient: count(p^k) = N_k + [k = 1],
    # N_k = sum of phi(d)/k over d | m' with ord_d(p) = k, and x - 1 is the
    # one trivial quotient.  Splitting each fiber into its irreducible
    # factors took about 78 s here.
    def irreducible_factor_count(p, k):
        m = 511
        while m % p == 0:
            m //= p
        total = 0
        for d in (d for d in range(1, m + 1) if m % d == 0):
            order, power = 1, p % d
            while power != 1 % d:
                order, power = order + 1, power * p % d
            if order == k:
                total += sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
        return total // k

    spec = _spec(tmp_path, {"type": "module_presented", "gens": 1, "relations": [["x^512 - x"]]})
    code, out, err = _timed_run(["table", spec, "--max-n", "5"], capsys)
    assert (code, err) == (0, "")
    expected = ["n,p,k,count,mtriv,mnontriv,exact"]
    for n, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)):
        count = irreducible_factor_count(p, k) + (k == 1)
        mtriv = int(k == 1)
        expected.append(f"{n},{p},{k},{count},{mtriv},{count - mtriv},true")
    assert out.splitlines() == expected


def test_degree_128_relation_takes_no_fraction_euclid(tmp_path, capsys):
    # gcd(f, f') over Q by Euclid in Fraction arithmetic ran past 100 s on
    # this relation.  The module Z[x]/(f) has a root of f mod 2 per simple
    # quotient of index 2, f(1) = 0 mod 2 marks the trivial one, and f has
    # content 1, so no fiber has free rank: bounded growth
    rng = random.Random(5)
    f = [rng.choice((-1, 0, 1)) for _ in range(128)] + [1]
    spec = _spec(tmp_path, {"type": "module_presented", "gens": 1, "relations": [[poly_to_str(f)]]})
    code, out, err = _timed_run(["table", spec, "--max-n", "2"], capsys)
    assert (code, err) == (0, "")
    roots = [a for a in (0, 1) if sum(c * a ** i for i, c in enumerate(f)) % 2 == 0]
    mtriv = int(1 in roots)
    assert out.splitlines()[1] == f"2,2,1,{len(roots)},{mtriv},{len(roots) - mtriv},true"
    code, out, err = _timed_run(["growth-type", spec], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"growth_type": "bounded", "kind": "PolyDegree", "degree": 0, "d": 1, "r_max": 0, "r0": 0}


def test_acting_torsion_order_is_checked_without_a_stall(tmp_path, capsys):
    # [[2,1],[1,1]] has infinite order: it is refused before any power is
    # taken, where A^(10^8) over Z grew without bound
    infinite = {"type": "semidirect", "acting_rank": 0, "actions": [[[2, 1], [1, 1]]], "acting_torsion": [100000000]}
    code, out, err = _run(["table", _spec(tmp_path, infinite), "--max-n", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "spec error: acting torsion generator 0 has order 100000000 but its action matrix does not\n"
    # a rotation of order 4: Z/10^8 has one map onto Z/5, and
    # x^2 + 1 = (x - 2)(x + 2) mod 5
    rotation = dict(infinite, actions=[[[0, -1], [1, 0]]])
    code, out, _ = _run(["table", _spec(tmp_path, rotation), "--max-n", "5"], capsys)
    assert code == 0 and out.splitlines()[-1] == "5,5,1,11,0,2,true"
    # 2 has order 6 on Z/9; the torsion row is reduced mod 9 at every step
    doubling = dict(infinite, actions=[[[2]]], torsion=[9], acting_torsion=[6 * 10 ** 8])
    code, out, _ = _run(["table", _spec(tmp_path, doubling), "--max-n", "5"], capsys)
    assert code == 0 and out.startswith("n,p,k,count,mtriv,mnontriv,exact\n")


def _cyclotomic(n):
    """Phi_n over Z, ascending: x^n - 1 divided by each Phi_d, d | n, d < n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = _cyclotomic(d)
            q = [0] * (len(f) - len(g) + 1)
            for i in reversed(range(len(q))):
                q[i] = f[i + len(g) - 1]
                for j, c in enumerate(g):
                    f[i + j] -= q[i] * c
            assert not any(f)
            f = q
    return f


# phi(n) >= sqrt(n/2), so every n with phi(n) <= 6 is below 73
SMALL_PHI = [n for n in range(2, 73) if sum(math.gcd(n, i) == 1 for i in range(n)) <= 6]


@pytest.mark.parametrize("n", SMALL_PHI)
def test_cyclotomic_companion_has_order_n(tmp_path, capsys, n):
    # the companion of Phi_n acts with order exactly n
    f = _cyclotomic(n)
    size = len(f) - 1
    companion = [[int(r == c + 1) for c in range(size - 1)] + [-f[r]] for r in range(size)]
    doc = {"type": "semidirect", "acting_rank": 0, "actions": [companion], "acting_torsion": [n]}
    code, out, err = _run(["mdeg", _spec(tmp_path, doc)], capsys)
    assert (code, err) == (0, "") and out
    code, out, err = _run(["mdeg", _spec(tmp_path, dict(doc, acting_torsion=[n + 1]))], capsys)
    assert (code, out) == (2, "")
    assert err == f"spec error: acting torsion generator 0 has order {n + 1} but its action matrix does not\n"


def test_non_squarefree_min_poly_is_refused_before_any_power(tmp_path, capsys, monkeypatch):
    # [[1, 1], [0, 1]] has min poly (x - 1)^2: a cyclotomic factor, but not
    # squarefree, so its order is infinite
    def no_power(*args):
        raise AssertionError("a power was taken")

    monkeypatch.setattr(groups, "_endo_pow", no_power)
    doc = {"type": "semidirect", "acting_rank": 0, "actions": [[[1, 1], [0, 1]]], "acting_torsion": [2]}
    code, out, err = _run(["table", _spec(tmp_path, doc), "--max-n", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "spec error: acting torsion generator 0 has order 2 but its action matrix does not\n"


def test_two_action_mdeg_is_exact(tmp_path, capsys):
    def block_diag(A, B):
        return [r + [0] * len(B) for r in A] + [[0] * len(A) + r for r in B]

    pair_a = block_diag([[0, -1], [1, 3]], [[0, -1], [1, 33]])
    pair_b = block_diag([[1, 1], [4, 5]], [[-5, 1], [-6, 1]])
    unipotents = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]]
    for actions, value in ((unipotents, 3), ([pair_a, pair_a], 1), ([pair_b, pair_b], 1)):
        spec = _spec(tmp_path, {"type": "semidirect", "actions": actions, "acting_rank": 2})
        code, out, _ = _run(["mdeg", spec], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["mdeg"], doc["provenance"], doc["exactness"]) == (value, "exact-theorem", "exact")
        code, out, _ = _run(["table", spec, "--max-n", "5"], capsys)
        assert code == 0 and out.startswith("n,p,k,count,mtriv,mnontriv,exact\n")
    code, out, _ = _run(["mdeg", _spec(tmp_path, WREATH)], capsys)
    assert (code, json.loads(out)["exactness"]) == (0, "exact")


def test_unimodular_12x12_needs_no_factoring(tmp_path, capsys):
    # the Q[x] Smith form of xI - A meets integers too large for a
    # deterministic primality test; no command factors them, whether the
    # module is given by A or presented by the columns of xI - A
    rng = random.Random(1)
    A = [[int(r == c) for c in range(12)] for r in range(12)]
    for _ in range(36):
        i, j = rng.sample(range(12), 2)
        m = rng.choice([-2, -1, 1, 2])
        A[i] = [a + m * b for a, b in zip(A[i], A[j])]
    assert A[0] == [1, 0, 0, 0, 0, 0, 2, 0, 0, 0, -2, 0]
    spec = _spec(tmp_path, {"type": "zk_by_z", "matrix": A})
    code, out, err = _run(["mdeg", spec], capsys)
    assert (code, err) == (0, "")
    code, out, err = _run(["table", spec, "--max-n", "5"], capsys)
    assert (code, err) == (0, "")
    relations = [
        [poly_to_str([-A[r][j], 1] if r == j else [-A[r][j]]) for r in range(12)]
        for j in range(12)
    ]
    spec = _spec(tmp_path, {"type": "module_presented", "gens": 12, "relations": relations})
    code, out, err = _run(["growth-type", spec], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["growth_type"] == "bounded"
    code, out, err = _run(["table", spec, "--max-n", "5"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "relation, commands",
    [
        # N is past the deterministic primality range; x + N is N at x = 0
        # and N + 1 at x = 1, whose gcd is 1
        ("x + 100000000000880000000001887", (["growth-type"], ["table", "--max-n", "5"])),
        # 2^512 - 2 at x = 2 has a cofactor past that range; the gcd of
        # n^512 - n over the points taken is 2
        ("x^512 - x", (["growth-type"],)),
    ],
)
def test_growth_type_factors_no_single_point_value(tmp_path, capsys, relation, commands):
    spec = _spec(tmp_path, {"type": "module_presented", "gens": 1, "relations": [relation]})
    for command in commands:
        code, out, err = _run([command[0], spec, *command[1:]], capsys)
        assert (code, err) == (0, "")
    code, out, _ = _run(["growth-type", spec], capsys)
    assert json.loads(out)["growth_type"] == "bounded"


# commuting neither over Z nor modulo any torsion
UNIPOTENT_PAIR = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]

# N = 10000000000037 * 10000000000051 is past the deterministic primality
# range; no certificate factors it
BIG_SEMIPRIME = 100000000000880000000001887


@pytest.mark.parametrize(
    "relations",
    [
        # N x: the fiber at each prime of N is F_p[x], free of rank 1
        [f"{BIG_SEMIPRIME}x"],
        # determinant N: rank 1 mod each prime of N
        [["1", "x"], ["x", f"x^2 + {BIG_SEMIPRIME}"]],
    ],
)
def test_growth_type_r_max_at_a_large_semiprime(tmp_path, capsys, relations):
    spec = _spec(tmp_path, {"type": "module_presented", "gens": len(relations), "relations": relations})
    code, out, err = _run(["growth-type", spec], capsys)
    assert (code, err) == (0, "")
    assert (json.loads(out)["growth_type"], json.loads(out)["r_max"]) == ("n^1/log n", 1)
    code, out, err = _run(["table", spec, "--max-n", "5"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "doc, commands",
    [
        (
            {"type": "zk_by_z", "matrix": [[1, 0], [0, 1]], "torsion": [BIG_SEMIPRIME]},
            (["mdeg"], ["table", "--max-n", "5"]),
        ),
        (
            {"type": "module_matrix", "actions": [[[1, 0], [0, 1]]], "torsion": [BIG_SEMIPRIME], "group_action": True},
            (["table", "--max-n", "5"],),
        ),
    ],
)
def test_group_action_with_a_large_semiprime_torsion(tmp_path, capsys, doc, commands):
    spec = _spec(tmp_path, doc)
    for command, *options in commands:
        code, _, err = _run([command, spec, *options], capsys)
        assert (code, err) == (0, ""), command


def test_group_action_refusal_names_the_action(tmp_path, capsys):
    # 3 is not a unit mod 9, and 2 is not a unit on the free part
    for doc in (
        {"type": "module_matrix", "actions": [[[1, 0], [0, 3]]], "torsion": [9], "group_action": True},
        {"type": "zk_by_z", "matrix": [[2]]},
    ):
        code, out, err = _run(["table", _spec(tmp_path, doc), "--max-n", "5"], capsys)
        assert (code, out, err) == (2, "", "spec error: actions[0] is not an automorphism (group_action)\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "module_presented", "gens": 1, "relations": [[5]]}, "relations[0] must contain only polynomial strings"),
        ({"type": "module_matrix", "actions": [[[1]]], "group_action": "false"}, "field 'group_action' must be true or false"),
        ({"type": "module_matrix", "actions": UNIPOTENT_PAIR}, "actions[0] and actions[1] do not commute"),
        ({"type": "semidirect", "actions": UNIPOTENT_PAIR, "acting_rank": 2}, "actions[0] and actions[1] do not commute"),
        # on (Z/3)^2 these differ even mod 3
        (
            {"type": "module_matrix", "torsion": [3, 3], "actions": [[[0, 1], [1, 0]], [[1, 1], [0, 1]]]},
            "actions[0] and actions[1] do not commute",
        ),
        ({"type": "zk_by_z", "matrix": [[1]], "torsion": [2, 3]}, "field 'torsion' is longer than the action matrix size"),
        # two spellings of one pair, which a dict of pairs would merge
        ({"type": "nilpotent_gf", "ell": 3, "f": {"1,2": [1, 0, 0], "1, 2": [0, 0, 0]}}, "duplicate f key (1, 2)"),
        ({"type": "zk_by_z"}, "zk_by_z spec is missing required field 'matrix'"),
        ({"type": "zk_by_z", "matrix": [[1.5]]}, "field 'matrix' must contain only integers"),
    ],
)
def test_malformed_fields_exit2(tmp_path, capsys, doc, message):
    code, out, err = _run(["table", _spec(tmp_path, doc), "--max-n", "5"], capsys)
    assert (code, out, err) == (2, "", f"spec error: {message}\n")


# the second action is the identity on (Z/2)^2: the actions commute as
# endomorphisms, though not as integer matrices
SWAP_AND_IDENTITY_MOD_2 = {"torsion": [2, 2], "actions": [[[0, 1], [1, 0]], [[1, 2], [0, 1]]]}


@pytest.mark.parametrize(
    "doc, commands",
    [
        ({"type": "module_matrix", **SWAP_AND_IDENTITY_MOD_2}, (["table", "--max-n", "100"],)),
        (
            {"type": "semidirect", "acting_rank": 2, **SWAP_AND_IDENTITY_MOD_2},
            (["table", "--max-n", "100"], ["table", "--max-n", "100", "--format", "json"], ["mdeg"]),
        ),
    ],
)
def test_actions_commuting_modulo_torsion_match_their_twin(tmp_path, capsys, doc, commands):
    twin = dict(doc, actions=[doc["actions"][0], [[1, 0], [0, 1]]])
    for command, *options in commands:
        got = _run([command, _spec(tmp_path, doc), *options], capsys)
        want = _run([command, _spec(tmp_path, twin, "twin.json"), *options], capsys)
        assert got == want and want[0] == 0 and want[1], command


_SMALL_INTS = st.integers(-3, 6)
_JSON_SCALARS = (
    st.none() | st.booleans() | _SMALL_INTS | st.floats(-2, 2)
    | st.sampled_from(["", "x", "x^2 - 1", "2x + 1", "x^", "y", "1,2", "true"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1,2", "1,3", "2,3", "1", "a,b"]), inner, max_size=3),
    max_leaves=10,
)
_SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_SMALL_INTS, min_size=n, max_size=n), min_size=n, max_size=n)
)
_ACTIONS = st.lists(_SQUARE, min_size=1, max_size=2)
_ORDERS = st.lists(st.integers(-1, 6), max_size=2)
_POLYS = st.sampled_from(["0", "1", "x", "x - 1", "x^2 + 1", "3", "x^3 - x"]) | _JSON_SCALARS


def _relations(gens):
    column = st.lists(_POLYS, min_size=max(gens, 0), max_size=max(gens, 0))
    return st.fixed_dictionaries({"gens": st.just(gens), "relations": st.lists(column, max_size=2)})


# the fields of each spec type, well shaped though not always valid
_SHAPED = {
    "zk_by_z": st.fixed_dictionaries({"matrix": _SQUARE, "torsion": _ORDERS}),
    "semidirect": st.fixed_dictionaries({
        "actions": _ACTIONS, "torsion": _ORDERS, "acting_rank": _SMALL_INTS, "acting_torsion": _ORDERS,
    }),
    "wreath_cyclic": st.fixed_dictionaries({"m": _SMALL_INTS}),
    "nilpotent_gf": st.fixed_dictionaries({
        "ell": _SMALL_INTS,
        "f": st.dictionaries(st.sampled_from(["1,2", "1,3", "2,3", "2,1", "1"]), _ORDERS, max_size=3),
    }),
    "module_matrix": st.fixed_dictionaries({"actions": _ACTIONS, "torsion": _ORDERS, "group_action": _JSON_SCALARS}),
    "module_presented": st.integers(-1, 2).flatmap(_relations),
}
_FIELD_NAMES = st.sampled_from(["acting_rank", "acting_torsion", "actions", "ell", "f", "gens",
                                "group_action", "m", "matrix", "relations", "torsion"])


def _spec_docs(typename):
    """Well-shaped docs of a type, with up to two fields overwritten by any JSON value."""
    return st.tuples(_SHAPED[typename], st.dictionaries(_FIELD_NAMES, _JSON_VALUES, max_size=2)).map(
        lambda shaped_and_noise: {"type": typename, **shaped_and_noise[0], **shaped_and_noise[1]}
    )


_SPEC_DOCS = {typename: _spec_docs(typename) for typename in _SHAPED}
_SPEC_DOCS["untyped"] = st.fixed_dictionaries({"type": _JSON_SCALARS}) | _JSON_VALUES


@pytest.mark.parametrize("kind", sorted(_SPEC_DOCS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_spec_raises_only_spec_errors(kind, data):
    try:
        parse_spec(data.draw(_SPEC_DOCS[kind]))
    except SpecError:
        pass


_FUZZ_COMMANDS = [
    ["mdeg"], ["asymptote"], ["growth-type"], ["table", "--max-n", "12"], ["check", "--max-n", "8"],
]


@pytest.mark.parametrize("argv", _FUZZ_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", sorted(_SPEC_DOCS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_documented_code(kind, argv, data):
    doc = data.draw(_SPEC_DOCS[kind])
    command, *options = argv
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path, *options])
    assert code in (0, 2, 3, 4)


@st.composite
def _valid_zk_by_z(draw):
    """An accepted zk_by_z spec: a unimodular free block made from at most
    four elementary row operations on I, free columns mapped anywhere, and
    +-1 on the diagonal of the torsion block."""
    k = draw(st.integers(0, 3))
    torsion = draw(st.lists(st.sampled_from([2, 3, 4, 6, 9]), min_size=1 if k == 0 else 0, max_size=2))
    dim = k + len(torsion)
    A = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for _ in range(draw(st.integers(0, 4)) if k >= 2 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        A[i][:k] = [a + c * b for a, b in zip(A[i][:k], A[j][:k])]
    for r in range(dim):
        if r < k and draw(st.booleans()):
            A[r] = [-a for a in A[r]]
        elif r >= k:
            A[r][:k] = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            A[r][r] = draw(st.sampled_from([-1, 1]))
    return {"type": "zk_by_z", "matrix": A, "torsion": torsion}


@settings(max_examples=25, deadline=None)
@given(doc=_valid_zk_by_z())
def test_valid_group_specs_yield_mdeg_and_table(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["mdeg", path], ["table", path, "--max-n", "30"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), (argv, doc)


def _squared(M):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*M)] for row in M]


@st.composite
def _valid_commuting_semidirect(draw):
    """An accepted semidirect spec with two commuting actions: (A, A^2),
    (A, I) or (A, -I) for a zk_by_z matrix A, or (P, P^2) for a cyclic
    permutation P of order m on at most three coordinates.  A second action
    built from A may have multiples of t_j added to its torsion row k + j:
    the same endomorphism, which need not commute with A as an integer
    matrix."""
    if draw(st.booleans()):
        doc = draw(_valid_zk_by_z())
        A, torsion = doc["matrix"], doc["torsion"]
        dim = len(A)
        kind = draw(st.sampled_from(["square", "identity", "negation"]))
        if kind == "square":
            B = _squared(A)
        else:
            B = [[(1 if kind == "identity" else -1) * (r == c) for c in range(dim)] for r in range(dim)]
        k = dim - len(torsion)
        for j, t in enumerate(torsion):
            shift = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
            B[k + j] = [b + t * s for b, s in zip(B[k + j], shift)]
        shape = {"acting_rank": 1, "acting_torsion": [2]} if kind == "negation" else {"acting_rank": 2}
        return {"type": "semidirect", "actions": [A, B], "torsion": torsion, **shape}
    k = draw(st.integers(2, 3))
    m = draw(st.integers(2, k))
    cycle = draw(st.permutations(range(k)))[:m]
    image = {c: cycle[(i + 1) % m] for i, c in enumerate(cycle)}
    P = [[int(image.get(c, c) == r) for c in range(k)] for r in range(k)]
    return {"type": "semidirect", "actions": [P, _squared(P)], "acting_rank": 0, "acting_torsion": [m, m]}


@settings(max_examples=25, deadline=None)
@given(doc=_valid_commuting_semidirect())
def test_valid_two_action_specs_yield_mdeg_and_table(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["mdeg", path], ["table", path, "--max-n", "30"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), (argv, doc)


def test_broken_frobenius_invariant_is_raised_not_mapped(tmp_path, monkeypatch):
    # a broken internal invariant is a bug in growthlab, not in the spec: it
    # leaves main as a RuntimeError rather than exit 2 or 3.  No candidate
    # generates the algebra of I + E_12 and I + E_13, so joint_spectrum runs
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    unipotents = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]]
    monkeypatch.setattr(modules, "_frobenius_fixed_space", lambda F, alg, dim: [identity, identity])
    modules.joint_spectrum.cache_clear()
    modules.prime_profile.cache_clear()
    spec = _spec(tmp_path, {"type": "module_matrix", "actions": unipotents})
    with pytest.raises(RuntimeError, match="no fixed element splits"):
        main(["table", spec, "--max-n", "5"])


def test_irreducibles(capsys):
    code, out, _ = _run(["irreducibles", "--p", "2", "--k", "4"], capsys)
    assert code == 0
    assert out.strip() == "3"
    code2, out2, _ = _run(["irreducibles", "--p", "5", "--k", "1"], capsys)
    assert out2.strip() == "5"


def test_irreducibles_refuses_a_non_prime(capsys):
    for p, k in (("4", "1"), ("1", "2"), ("-3", "2")):
        assert _run(["irreducibles", "--p", p, "--k", k], capsys) == (3, "", f"error: {p} is not prime\n")


def test_irreducibles_bounds_the_bits_of_the_count(capsys, monkeypatch):
    # k * p.bit_length() bounds the bits of the printed count; 2 has 2 bits
    bound = cli.MAX_IRREDUCIBLES_BITS
    assert _run(["irreducibles", "--p", "2", "--k", str(bound // 2 + 1)], capsys) == (
        3, "", f"error: --k times the bit length of --p must be <= {bound}, got {bound + 2}\n")
    monkeypatch.setattr(cli, "MAX_IRREDUCIBLES_BITS", 12)
    assert _run(["irreducibles", "--p", "2", "--k", "6"], capsys) == (0, "9\n", "")
    assert _run(["irreducibles", "--p", "7", "--k", "4"], capsys) == (0, "588\n", "")
    for p, k, bits in (("2", "7", 14), ("7", "5", 15)):
        assert _run(["irreducibles", "--p", p, "--k", k], capsys) == (
            3, "", f"error: --k times the bit length of --p must be <= 12, got {bits}\n")


def _assert_one_qx_smith_form(monkeypatch, capsys, commands):
    """Each command exits 0 after exactly one Smith form over Q[x]."""
    calls = []
    smith = modules.smith_normal_form_poly

    def counted(F, rows, ncols):
        calls.append(F is QQ)
        return smith(F, rows, ncols)

    monkeypatch.setattr(modules, "smith_normal_form_poly", counted)
    for argv in commands:
        modules.module_invariants.cache_clear()
        calls.clear()
        code, _, _ = _run(argv, capsys)
        assert code == 0 and calls.count(True) == 1, argv


def _char0_work(monkeypatch, capsys, commands):
    """(Q[x] Smith forms, Z[x] determinants) that each command takes; each
    exits 0."""
    calls = []
    smith, det = modules.smith_normal_form_poly, modules.det_int_poly
    monkeypatch.setattr(modules, "smith_normal_form_poly", lambda F, rows, ncols: calls.append(F is QQ) or smith(F, rows, ncols))
    monkeypatch.setattr(modules, "det_int_poly", lambda rows: calls.append("det") or det(rows))
    work = []
    for argv in commands:
        modules.module_invariants.cache_clear()
        modules._squarefree_det.cache_clear()
        calls.clear()
        code, _, _ = _run(argv, capsys)
        assert code == 0, argv
        work.append((calls.count(True), calls.count("det")))
    return work


def test_zk_by_z_takes_one_determinant(tmp_path, capsys, monkeypatch):
    # mdeg and the asymptote read the same cached module_invariants, and
    # x^3 - 1 is squarefree, so no Q[x] Smith form is taken
    spec = _spec(tmp_path, ZKZ)
    commands = [["mdeg", spec], ["table", spec, "--max-n", "20"]]
    assert _char0_work(monkeypatch, capsys, commands) == [(0, 1)] * 2


def test_one_action_takes_one_qx_smith_form(tmp_path, capsys, monkeypatch):
    # one cached Smith form, keyed on the presentation, serves each command
    A, torsion = [[2, 0], [1, 1]], [3]
    matrix_spec = _spec(tmp_path, {"type": "module_matrix", "actions": [A], "torsion": torsion})
    group_spec = _spec(tmp_path, {"type": "zk_by_z", "matrix": [[-1, 0], [1, 1]], "torsion": torsion}, "g.json")
    _assert_one_qx_smith_form(monkeypatch, capsys, [
        ["growth-type", matrix_spec], ["mdeg", group_spec], ["table", group_spec, "--max-n", "20"],
    ])


def test_presented_takes_one_determinant(tmp_path, capsys, monkeypatch):
    # the growth type reads r0 and d off the cached module_invariants, and
    # the determinant 2x^2 - 8 is squarefree
    spec = _spec(tmp_path, {"type": "module_presented", "gens": 2, "relations": [["x", "2"], ["4", "2x"]]})
    commands = [["growth-type", spec], ["table", spec, "--max-n", "20"]]
    assert _char0_work(monkeypatch, capsys, commands) == [(0, 1)] * 2


def test_repeated_determinant_takes_one_qx_smith_form(tmp_path, capsys, monkeypatch):
    # the 3-cycle doubled has determinant (x^3 - 1)^2, so its one
    # characteristic-zero computation is still the Q[x] Smith form
    C = ZKZ["matrix"]
    doubled = [row + [0] * 3 for row in C] + [[0] * 3 + row for row in C]
    spec = _spec(tmp_path, {"type": "zk_by_z", "matrix": doubled})
    commands = [["mdeg", spec], ["table", spec, "--max-n", "20"]]
    assert _char0_work(monkeypatch, capsys, commands) == [(1, 1)] * 2


def test_deterministic_output(tmp_path):
    spec = _spec(tmp_path, ZKZ)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "growthlab.cli", "table", str(spec), "--max-n", "30"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_entry_point_installed():
    target = _declared_script()
    script = shutil.which("growthlab")
    if script:
        cmd = [script]
    else:
        # what the wrapper that an install generates for the script runs
        cmd = [
            sys.executable,
            "-c",
            "import sys; from importlib.metadata import EntryPoint; "
            "sys.argv[0] = 'growthlab'; "
            f"sys.exit(EntryPoint('growthlab', {target!r}, 'console_scripts').load()())",
        ]
    r = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: growthlab")
    choices = re.search(r"\{([^}]*)\}", r.stdout)
    assert choices and set(choices.group(1).split(",")) == SUBCOMMANDS
