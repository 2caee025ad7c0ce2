"""Command-line front end.

Specs are single JSON documents with a "type" field; see parse_spec.
Commands: table, mdeg, asymptote, growth-type, check, irreducibles.
Exit codes: 0 success, 2 spec validation failure, 3 command/spec mismatch,
4 nothing verified (check).  Any other exit status, a traceback included,
reports a bug in growthlab, not in the spec: a RuntimeError from a broken
internal invariant is let through rather than mapped to 2 or 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import primes_up_to
from .groups import (
    MAX_PRESENTED_GENS,
    MAX_TABLE_N,
    GroupDescriptor,
    NilpotentGf,
    SemidirectFgAbelian,
    WreathCyclic,
    ZkByZ,
    asymptotic_leading,
    growth_table,
    mdeg,
)
from .modules import (
    MatrixAction,
    Presented,
    fiber_mod_p,
    growth_type_classify,
    prime_profile,
)
from .poly import count_irreducibles, parse_poly

# Largest k * p.bit_length() accepted by `irreducibles`, a bound on the bits
# of the count, about p^k / k, which is printed in full decimal at a cost
# quadratic in its length: at this bound --p 2^61 - 1 --k 16393 took 1.7 s
# for 301,019 digits, and --p 2 --k 500000 0.4 s; --p 2 --k 3000000 took
# 13.5 s (Python 3.11, 2-vCPU x86-64 VM).
MAX_IRREDUCIBLES_BITS = 10 ** 6


class SpecError(ValueError):
    """Spec file failed validation; message names the offending field."""


SPEC_TYPES = (
    "zk_by_z",
    "semidirect",
    "wreath_cyclic",
    "nilpotent_gf",
    "module_matrix",
    "module_presented",
)


def _require(doc, field, kind, typename):
    if field not in doc:
        raise SpecError(f"{typename} spec is missing required field '{field}'")
    value = doc[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SpecError(f"field '{field}' must be an integer")
    if kind is list and not isinstance(value, list):
        raise SpecError(f"field '{field}' must be an array")
    return value


def _int_matrix(value, field):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SpecError(f"field '{field}' must be an array of integer rows")
    for r in value:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SpecError(f"field '{field}' must contain only integers")
    return tuple(tuple(r) for r in value)


def _int_array(value, field):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise SpecError(f"field '{field}' must be an array of integers")
    return tuple(value)


def _actions(doc, typename):
    actions = _require(doc, "actions", list, typename)
    return tuple(_int_matrix(a, f"actions[{i}]") for i, a in enumerate(actions))


def _matrix_action(actions, doc, group_action):
    """The module of parsed action matrices and the spec's 'torsion'."""
    torsion = _int_array(doc.get("torsion", []), "torsion")
    size = len(actions[0]) if actions else 0
    if size < len(torsion):
        raise SpecError("field 'torsion' is longer than the action matrix size")
    return MatrixAction(
        k=size - len(torsion), torsion=torsion, actions=actions, group_action=group_action
    )


def parse_spec(doc) -> GroupDescriptor | MatrixAction | Presented:
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    typename = doc.get("type")
    if typename not in SPEC_TYPES:
        raise SpecError(
            f"field 'type' must be one of {', '.join(SPEC_TYPES)}; got {typename!r}"
        )
    try:
        if typename == "zk_by_z":
            matrix = _int_matrix(_require(doc, "matrix", list, typename), "matrix")
            return ZkByZ(_matrix_action((matrix,), doc, group_action=True))
        if typename == "semidirect":
            module = _matrix_action(_actions(doc, typename), doc, group_action=True)
            return SemidirectFgAbelian(
                module=module,
                acting_rank=_require(doc, "acting_rank", int, typename),
                acting_torsion=_int_array(doc.get("acting_torsion", []), "acting_torsion"),
            )
        if typename == "wreath_cyclic":
            return WreathCyclic(m=_require(doc, "m", int, typename))
        if typename == "nilpotent_gf":
            ell = _require(doc, "ell", int, typename)
            f_raw = doc.get("f", {})
            if not isinstance(f_raw, dict):
                raise SpecError("field 'f' must be an object mapping 'i,j' to vectors")
            f_vectors = []
            for key, vec in f_raw.items():
                parts = key.split(",")
                if len(parts) != 2:
                    raise SpecError(f"f key {key!r} is not of the form 'i,j'")
                try:
                    pair = (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise SpecError(f"f key {key!r} is not a pair of integers") from exc
                f_vectors.append((pair, _int_array(vec, f"f[{key}]")))
            return NilpotentGf(ell=ell, f_vectors=f_vectors)
        if typename == "module_matrix":
            group_action = doc.get("group_action", False)
            if not isinstance(group_action, bool):
                raise SpecError("field 'group_action' must be true or false")
            return _matrix_action(_actions(doc, typename), doc, group_action)
        # module_presented
        gens = _require(doc, "gens", int, typename)
        if gens > MAX_PRESENTED_GENS:
            raise SpecError(f"gens must be <= {MAX_PRESENTED_GENS}, got {gens}")
        raw = doc.get("relations", [])
        if not isinstance(raw, list):
            raise SpecError("field 'relations' must be an array")
        columns = []
        for i, rel in enumerate(raw):
            if isinstance(rel, str):
                rel = [rel]
            if not isinstance(rel, list) or len(rel) != gens:
                raise SpecError(
                    f"relations[{i}] must give one polynomial per generator"
                )
            if not all(isinstance(s, str) for s in rel):
                raise SpecError(f"relations[{i}] must contain only polynomial strings")
            try:
                columns.append([tuple(parse_poly(s)) for s in rel])
            except ValueError as exc:
                raise SpecError(f"relations[{i}]: {exc}") from exc
        rows = tuple(
            tuple(columns[c][r] for c in range(len(columns))) for r in range(gens)
        )
        return Presented(gens=gens, relations=rows)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def load_spec(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    return parse_spec(doc)


def cmd_table(args) -> int:
    report = growth_table(load_spec(args.spec), args.max_n)
    if args.format == "csv":
        # every count is certified, so `exact` is constant here and in JSON
        lines = ["n,p,k,count,mtriv,mnontriv,exact"]
        for r in report.rows:
            lines.append(f"{r.n},{r.p},{r.k},{r.count},{r.mtriv},{r.mnontriv},true")
        out = "\n".join(lines) + "\n"
    else:
        # the row and mdeg keys are the record fields, in their order,
        # then a row's "exact"
        doc = {"rows": [{**r._asdict(), "exact": True} for r in report.rows], "exactness": "exact"}
        if report.mdeg is not None:
            doc["mdeg"] = report.mdeg._asdict()
        if report.asymptotic is not None:
            doc["asymptotic"] = {
                "rho1": report.asymptotic[0],
                "d": report.asymptotic[1],
            }
        if report.growth_type is not None:
            doc["growth_type"] = str(report.growth_type)
        out = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(out)
    return 0


def cmd_mdeg(args) -> int:
    desc = load_spec(args.spec)
    if not isinstance(desc, GroupDescriptor):
        sys.stderr.write("mdeg applies to group specs, not bare modules\n")
        return 3
    result = mdeg(desc)
    doc = {"mdeg": result.value, "provenance": result.provenance, "exactness": result.exactness}
    if isinstance(desc, ZkByZ):
        doc["rho1"], doc["d"] = asymptotic_leading(desc)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


def cmd_asymptote(args) -> int:
    desc = load_spec(args.spec)
    if not isinstance(desc, ZkByZ):
        sys.stderr.write("asymptote applies only to zk_by_z specs\n")
        return 3
    rho1, d = asymptotic_leading(desc)
    sys.stdout.write(json.dumps({"rho1": rho1, "d": d}) + "\n")
    return 0


def cmd_growth_type(args) -> int:
    gt = growth_type_classify(load_spec(args.spec))
    if gt is None:
        sys.stderr.write("error: the growth type needs a module in one variable: presented, or one action\n")
        return 3
    sys.stdout.write(
        json.dumps(
            {
                "growth_type": str(gt),
                "kind": gt.kind,
                "degree": gt.degree,
                "d": gt.d,
                "r_max": gt.r_max,
                "r0": gt.r0,
            }
        )
        + "\n"
    )
    return 0


def cmd_check(args) -> int:
    # only `check` runs the oracle, so no other command pays for its import
    from .oracle import SUBSPACE_STATE_BOUND, oracle_count_max_submodules

    desc = load_spec(args.spec)
    if isinstance(desc, SemidirectFgAbelian):
        module = desc.module
    elif isinstance(desc, MatrixAction):
        module = desc
    else:
        sys.stderr.write(
            "check needs a descriptor with an explicit matrix module\n"
        )
        return 3
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    if args.max_n > MAX_TABLE_N:
        raise ValueError(f"--max-n must be <= {MAX_TABLE_N}, got {args.max_n}")
    lines = []
    checked = 0
    failed = 0
    # the oracle enumerates F_p^dim, so the fiber is reduced, and the
    # profile built, only at the primes where p^dim is within its bound
    for p in primes_up_to(args.max_n):
        dim = module.k + sum(1 for t in module.torsion if t % p == 0)
        fits = p ** dim <= SUBSPACE_STATE_BOUND
        if fits:
            fib, profile = fiber_mod_p(module, p), prime_profile(module, p)
        n, k = p, 1
        while n <= args.max_n:
            if not fits:
                lines.append((n, f"n={n}: skipped (p^dim > {SUBSPACE_STATE_BOUND})"))
            else:
                want = oracle_count_max_submodules(fib, n)
                got = profile.count(k)
                checked += 1
                if got == want:
                    lines.append((n, f"n={n}: ok (engine={got} oracle={want})"))
                else:
                    failed += 1
                    lines.append((n, f"n={n}: MISMATCH (engine={got} oracle={want})"))
            n, k = n * p, k + 1
    lines = [line for _, line in sorted(lines)]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    if checked == 0:
        sys.stderr.write("nothing verified: every n was skipped\n")
        return 4
    if failed:
        sys.stderr.write(f"{failed} of {checked} comparisons disagree\n")
        return 4
    return 0


def cmd_irreducibles(args) -> int:
    bits = args.k * args.p.bit_length()
    if bits > MAX_IRREDUCIBLES_BITS:
        raise ValueError(f"--k times the bit length of --p must be <= {MAX_IRREDUCIBLES_BITS}, got {bits}")
    sys.stdout.write(f"{count_irreducibles(args.p, args.k)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Exact maximal subgroup/submodule growth computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_max_n=False):
        p.add_argument("spec", help="path to a JSON spec file")
        if needs_max_n:
            p.add_argument("--max-n", type=int, required=True, help="largest index")

    p = sub.add_parser("table", help="growth table for all prime powers <= N")
    common(p, needs_max_n=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("mdeg", help="degree of polynomial growth")
    common(p)
    p.set_defaults(func=cmd_mdeg)

    p = sub.add_parser("asymptote", help="leading term (rho1, d) for zk_by_z")
    common(p)
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("growth-type", help="growth trichotomy for module_presented or one-action module_matrix")
    common(p)
    p.set_defaults(func=cmd_growth_type)

    p = sub.add_parser("check", help="compare engine counts against the oracle")
    common(p, needs_max_n=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("irreducibles", help="count monic irreducibles over F_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_irreducibles)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # counts are printed in full decimal
    try:
        return args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
