"""Timing wrappers rebound over growthlab's public functions.

`install` replaces each traced function, in every loaded `growthlab.*`
namespace that holds it, by a wrapper that records a span around the call.
Spans are folded into per-name totals as they close: calls, inclusive time,
and self time (inclusive time minus the time of wrapped calls made inside).
The program itself is not changed; only its module globals are rebound in
the traced child process.
"""

from __future__ import annotations

import functools
import sys
import time

# growthlab module and attribute of each traced function.  A span is named
# <module>.<function>, so WreathCyclic.expand is reported as groups.expand,
# and smith_normal_form_poly is reported per coefficient field.
TRACED = (
    "cli.parse_spec",
    "groups.WreathCyclic.expand",
    "groups.growth_table",
    "groups.mdeg",
    "modules.fiber_mod_p",
    "modules.joint_spectrum",
    "modules.count_max_submodules",
    "modules.split_triv_nontriv",
    "modules.chain_count",
    "modules.module_invariants",
    "linalg.min_poly_of_matrix",
    "linalg.kernel_basis",
    "linalg.solve",
    "linalg.row_space_basis",
    "linalg.mat_mul",
    "linalg.poly_of_matrix",
    "linalg.smith_normal_form_int",
    "linalg.smith_normal_form_poly",
    "poly.factor_mod_p",
    "arith.prime_power_decompose",
)
SNF_POLY = "linalg.smith_normal_form_poly"
SNF_QQ = "linalg.snf_poly_qq"
SNF_FP = "linalg.snf_poly_fp"
JOINT_SPECTRUM = "modules.joint_spectrum"


def _span_name(path: str) -> str:
    module, *_, fn = path.split(".")
    return f"{module}.{fn}"


def span_names() -> list[str]:
    names = []
    for path in TRACED:
        names += [SNF_QQ, SNF_FP] if path == SNF_POLY else [_span_name(path)]
    return names


class Tracer:
    """Span stack with per-name totals.  `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.active: dict[str, int] = {}  # name -> open spans of that name
        self._stack: list[list] = []  # [name, start, time in wrapped children]
        self.split_attempts = 0
        self.split_hits = 0
        self.rows = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self.active[name] = self.active.get(name, 0) + 1

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.active[name] -= 1
        t = self.totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += duration
        t[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_split(self, result) -> None:
        # split yield of the locality search: factorizations requested while
        # a joint spectrum is being computed, and how many of them split
        if self.active.get(JOINT_SPECTRUM):
            self.split_attempts += 1
            self.split_hits += len(result.factors) >= 2

    def _count_rows(self, report) -> None:
        self.rows += len(report.rows)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the trace files of its children."""
    out = {}
    for name in span_names():
        for i, suffix in enumerate((".calls", ".s", ".self_s")):
            out[name + suffix] = sum(t["totals"].get(name, (0, 0.0, 0.0))[i] for t in traces)
    records = sum(t["records"] for t in traces)
    attempts = sum(t["split_attempts"] for t in traces)
    out["groups.rows"] = sum(t["rows"] for t in traces)
    # per output record: a table row, or one query of the query stream
    out["modules.count_max_submodules.per_row"] = (
        out["modules.count_max_submodules.calls"] / records)
    out["modules.fiber_mod_p.per_row"] = out["modules.fiber_mod_p.calls"] / records
    out["modules.joint_spectrum.cache_hits"] = sum(t["cache_hits"] for t in traces)
    out["modules.joint_spectrum.split_attempts"] = attempts
    out["modules.joint_spectrum.split_yield"] = (
        sum(t["split_hits"] for t in traces) / attempts if attempts else 0.0)
    return out


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every loaded growthlab namespace."""
    import growthlab.cli  # noqa: F401  (loads every traced module)
    from growthlab.poly import PrimeField

    loaded = [m for k, m in sys.modules.items() if k == "growthlab" or k.startswith("growthlab.")]
    for path in TRACED:
        module, attr = path.split(".", 1)
        mod = sys.modules[f"growthlab.{module}"]
        if attr == "WreathCyclic.expand":
            mod.WreathCyclic.expand = tracer.wrap(_span_name(path), mod.WreathCyclic.expand)
            continue
        orig = getattr(mod, attr)
        if path == SNF_POLY:
            name = lambda args: SNF_FP if isinstance(args[0], PrimeField) else SNF_QQ  # noqa: E731
        else:
            name = _span_name(path)
        on_result = {"factor_mod_p": tracer._count_split,
                     "growth_table": tracer._count_rows}.get(attr)
        # calling `orig` keeps joint_spectrum's lru_cache in the call path
        wrapped = tracer.wrap(name, orig, on_result)
        for m in loaded:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
