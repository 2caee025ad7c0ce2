"""Child-process entry points of the benchmark.  Each runs in a fresh
interpreter with the checkout's `src` on PYTHONPATH.

  setup SPEC                    print the seconds taken to import growthlab,
                                load SPEC and build its validated descriptor
  calibrate                     a fixed piece of pure-Python arithmetic that
                                runs no growthlab code; its wall time gauges
                                the host's speed
  queries JOBS                  JOBS is a JSON list of [spec path, prime]; for
                                each, count_max_submodules at p and at p^2;
                                print the counts and per-query milliseconds
  trace OUT table SPEC MAX_N    the CLI table command with tracing installed
  trace OUT queries JOBS        the query stream with tracing installed

The trace modes write their span totals and counters to OUT as JSON.
"""

from __future__ import annotations

import json
import sys
import time

CALIBRATION_DRAWS = 25


def setup(spec_path: str) -> None:
    start = time.perf_counter()
    from growthlab.cli import load_spec
    from growthlab.groups import WreathCyclic

    desc = load_spec(spec_path)
    if isinstance(desc, WreathCyclic):
        desc.expand()
    print(repr(time.perf_counter() - start))


def calibrate() -> None:
    # the benchmark's own factorization patterns of seeded matrices and
    # primes: big-integer polynomial arithmetic like the program's, in code
    # that no change to the program can speed up
    import workloads

    workloads.pattern_sample(CALIBRATION_DRAWS)


def queries(jobs_path: str) -> int:
    """Run the query stream; return the number of queries."""
    from growthlab.cli import load_spec
    from growthlab.modules import count_max_submodules

    with open(jobs_path) as fh:
        jobs = [(load_spec(path), p) for path, p in json.load(fh)]
    counts, ms = [], []
    for module, p in jobs:
        start = time.perf_counter()
        pair = [count_max_submodules(module, p), count_max_submodules(module, p * p)]
        ms.append((time.perf_counter() - start) * 1000.0)
        counts.append(pair)
    json.dump({"counts": counts, "ms": ms}, sys.stdout)
    sys.stdout.write("\n")
    return len(jobs)


def trace(out_path: str, kind: str, args: list[str]) -> None:
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    import growthlab.modules

    if kind == "table":
        from growthlab.cli import main

        spec, max_n = args
        code = main(["table", spec, "--max-n", max_n])
        if code:
            raise SystemExit(code)
        records = tracer.rows
    else:
        records = queries(args[0])
    # the wrapper calls through the original lru_cache object, so its
    # statistics are the program's own
    cache = growthlab.modules.joint_spectrum.__wrapped__.cache_info()
    with open(out_path, "w") as fh:
        json.dump({
            "totals": tracer.totals,
            "rows": tracer.rows,
            "records": records,
            "cache_hits": cache.hits,
            "split_attempts": tracer.split_attempts,
            "split_hits": tracer.split_hits,
        }, fh)


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
    elif mode == "calibrate":
        calibrate()
    elif mode == "queries":
        queries(argv[1])
    elif mode == "trace":
        trace(argv[1], argv[2], argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
