#!/usr/bin/env python3
"""growthlab benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

A pass of a workload is a fixed list of fresh child processes, each running
`python -m growthlab.cli table` or a query stream through the public API,
with `src` on PYTHONPATH.  Passes repeat, one child at a time (a closed loop
with one client), until S seconds have gone.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates plain passes with passes that have
timing wrappers installed, and reports per-layer metrics.  Every output row
and query is checked against an independent answer outside the timed runs.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from stats import fast, tail
from tracer import layer_metrics, span_names

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# A run ends within this many seconds or is abandoned with a non-zero exit.
HARD_LIMIT_S = 170
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Set-ups take at most this share of a run's time, and at least MIN_SETUPS
# of them run.  They are interleaved with the passes, so they sample the
# whole run, but they leave most of it to the passes: on wreath_table a
# set-up costs a third of a pass.
SETUP_SHARE = 0.1
MIN_SETUPS = 3
# The host's speed moves between states up to 1.8x apart that last minutes,
# longer than a run, so no statistic of one run's repetitions removes it
# (README.md, "Host noise").  A calibration process that runs no growthlab
# code is timed between the children throughout the run, in the same way as
# the set-ups, and every timing is reported as it would read at the host
# speed at which the calibration takes REFERENCE_CALIBRATION_S.
CALIBRATION_SHARE = 0.05
MIN_CALIBRATIONS = 5
REFERENCE_CALIBRATION_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "query_ms.p50": "ms",
    "query_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "groups.rows": "count",
        "modules.count_max_submodules.per_row": "1/row",
        "modules.fiber_mod_p.per_row": "1/row",
        "modules.joint_spectrum.cache_hits": "count",
        "modules.joint_spectrum.split_attempts": "count",
        "modules.joint_spectrum.split_yield": "ratio",
        "trace.overhead": "ratio",
    })
    return units


class ChildFailed(Exception):
    pass


class Runner:
    """Runs one child at a time and reports its wall time and peak RSS."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.current: subprocess.Popen | None = None

    def run(self, argv: list[str]) -> dict:
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            self.current = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            _, status, usage = os.wait4(self.current.pid, 0)
            wall = time.perf_counter() - start
            self.current.returncode = code = os.waitstatus_to_exitcode(status)
            self.current = None
        with open(out_path) as fh:
            stdout = fh.read()
        if code:
            with open(err_path) as fh:
                sys.stderr.write(f"child {argv[:3]} exited {code}: {fh.read()[-2000:]}\n")
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": code, "stdout": stdout}

    def stop(self) -> None:
        if self.current is not None and self.current.returncode is None:
            self.current.kill()
            self.current.wait()


class Job:
    """One child of a pass: its command, how its output is read, and its
    independent answer (the rows themselves, or a command computing them)."""

    def __init__(self, argv, is_table, traced_args, reference):
        self.argv = argv
        self.is_table = is_table
        self.traced_args = traced_args
        self._reference = reference

    def parse(self, stdout: str):
        """Comparable records: table rows, or (count at p, count at p^2) per
        query; None when the output is malformed."""
        if self.is_table:
            return wl.parse_rows(stdout)
        try:
            return [tuple(pair) for pair in json.loads(stdout)["counts"]]
        except (ValueError, KeyError, TypeError):
            return None

    def latencies_ms(self, result: dict) -> list[float]:
        """Latency of each request of one run, in order: the CLI command
        itself, or each count pair of the query stream."""
        if self.is_table:
            return [result["wall"] * 1000.0]
        return json.loads(result["stdout"])["ms"]

    def reference(self, runner: Runner):
        if not isinstance(self._reference[0], str):
            return self._reference
        result = runner.run(self._reference)
        want = self.parse(result["stdout"]) if result["code"] == 0 else None
        if want is None:
            raise ChildFailed(f"reference command {self._reference[:3]} failed")
        return want


class Workload:
    """The jobs of one pass for one seed, and the spec that `setup_s` loads."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.work = work
        self.jobs: list[Job] = []
        self.setup_spec = os.path.join(work, "0.json")
        if name == "wreath_table":
            spec = self._write("0.json", wl.wreath_spec())
            self._table(spec, wl.WREATH_MAX_N, wl.wreath_rows(wl.WREATH_M, wl.WREATH_MAX_N))
        elif name == "presented_table":
            for i, a in enumerate(wl.seeded_matrices(name, seed, wl.PRESENTED_SPECS)):
                spec = self._write(f"{i}.json", wl.presented_spec(a))
                # the same module as MatrixAction(A): joint spectrum, not the
                # F_p[x] Smith form and invariant-factor chain
                matrix = self._write(f"matrix{i}.json", wl.matrix_spec([a]))
                self._table(spec, wl.PRESENTED_MAX_N, self._cli_table(matrix, wl.PRESENTED_MAX_N))
        elif name == "big_primes":
            queries = wl.query_inputs(seed)
            size = len(queries) // wl.QUERY_CHILDREN
            for c in range(wl.QUERY_CHILDREN):
                jobs, reference = [], []
                for i in range(c * size, (c + 1) * size):
                    a, p = queries[i]
                    spec = self._write(f"{i}.json", wl.matrix_spec([a, wl.second_action(a)]))
                    jobs.append([spec, p])
                    # the same module as Presented(xI - A); valid because the
                    # second action is a polynomial in A
                    reference.append([self._write(f"r{i}.json", wl.presented_spec(a)), p])
                jobs_path = self._write(f"queries{c}.json", jobs)
                reference_path = self._write(f"reference{c}.json", reference)
                self.jobs.append(Job([CHILD, "queries", jobs_path], False, ["queries", jobs_path],
                                     [CHILD, "queries", reference_path]))
        else:
            raise ValueError(f"unknown workload {name!r}")

    def _write(self, filename: str, doc) -> str:
        path = os.path.join(self.work, filename)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    @staticmethod
    def _cli_table(spec: str, max_n: int) -> list[str]:
        return ["-m", "growthlab.cli", "table", spec, "--max-n", str(max_n)]

    def _table(self, spec: str, max_n: int, reference) -> None:
        self.jobs.append(Job(self._cli_table(spec, max_n), True,
                             ["table", spec, str(max_n)], reference))


def passed(results: list[dict]) -> bool:
    return all(r["code"] == 0 for r in results)


def check(workload: Workload, runner: Runner, passes: list[list[dict]]) -> tuple[int, int]:
    """(attempted, failed) records over every pass."""
    attempted = failed = 0
    for i, job in enumerate(workload.jobs):
        want = job.reference(runner)
        for results in passes:
            r = results[i]
            attempted += len(want)
            failed += wl.failed_rows(job.parse(r["stdout"]) if r["code"] == 0 else None, want)
    return attempted, failed


def another_pass(started: float, seconds: float, last_pass: float,
                 done: int, minimum: int) -> bool:
    """Whether to start another pass: always until `minimum` are done, then
    while one is expected to end no later than half a pass after the run's
    time is up."""
    if done < minimum:
        return True
    return time.perf_counter() + last_pass / 2 <= started + seconds


class Interleaved:
    """Short fresh processes run between the children of the passes: one
    after a child whenever those so far have taken at most `share` of the
    run's time, and at least `minimum` in all."""

    def __init__(self, argv: list[str], share: float, minimum: int):
        self.argv = argv
        self.share = share
        self.minimum = minimum
        self.results: list[dict] = []
        self.time = 0.0

    def run(self, runner: Runner) -> None:
        self.results.append(runner.run(self.argv))
        self.time += self.results[-1]["wall"]

    def after_child(self, runner: Runner, elapsed: float) -> None:
        if self.time <= self.share * elapsed:
            self.run(runner)

    def finish(self, runner: Runner) -> None:
        while len(self.results) < self.minimum:
            self.run(runner)


def measure(workload: Workload, runner: Runner, seconds: float) -> dict:
    setups = Interleaved([CHILD, "setup", workload.setup_spec], SETUP_SHARE, MIN_SETUPS)
    calibrations = Interleaved([CHILD, "calibrate"], CALIBRATION_SHARE, MIN_CALIBRATIONS)
    argvs = [job.argv for job in workload.jobs]
    started = time.perf_counter()
    passes = []
    last_pass = 0.0
    while another_pass(started, seconds, last_pass, len(passes), MIN_PASSES):
        pass_start = time.perf_counter()
        results = []
        for argv in argvs:
            results.append(runner.run(argv))
            for side in (setups, calibrations):
                side.after_child(runner, time.perf_counter() - started)
        passes.append(results)
        last_pass = time.perf_counter() - pass_start
    for side in (setups, calibrations):
        side.finish(runner)
    if not passed(calibrations.results):
        raise ChildFailed("the calibration process failed")
    attempted, failed = check(workload, runner, passes)
    attempted += len(setups.results)
    failed += sum(1 for r in setups.results if r["code"])
    ok = [p for p in passes if passed(p)]
    setup_s = [float(r["stdout"]) for r in setups.results if r["code"] == 0]
    if not ok or not setup_s:
        return {"attempted": attempted, "failed": failed, "metrics": None}
    # Each timing is the first quartile of its repetitions in the run (see
    # stats.fast and README.md, "Host noise"); set-up time is their median.
    walls = [fast([p[i]["wall"] for p in ok]) for i in range(len(argvs))]
    latencies = []
    for i, job in enumerate(workload.jobs):
        latencies += [fast(ms) for ms in zip(*(job.latencies_ms(p[i]) for p in ok))]
    tail_label, tail_ms = tail(latencies)
    calibration = statistics.median(r["wall"] for r in calibrations.results)
    measured = {
        "wall_s": sum(walls),
        "setup_s": statistics.median(setup_s),
        "query_ms.p50": statistics.median(latencies),
        "query_ms.tail": tail_ms,
    }
    sys.stdout.write(
        f"{workload.name}: {len(passes)} passes of {len(argvs)} children, "
        f"{len(setups.results)} set-ups, {len(calibrations.results)} calibrations, "
        f"{len(latencies)} distinct requests, query_ms.tail = {tail_label}\n"
        f"calibration median {calibration!r} s; unscaled: "
        + ", ".join(f"{k} = {v!r}" for k, v in measured.items()) + "\n"
    )
    scale = REFERENCE_CALIBRATION_S / calibration
    metrics = {k: v * scale for k, v in measured.items()}
    metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for p in ok for r in p)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith(".self_s")


def measure_traced(workload: Workload, runner: Runner, seconds: float) -> dict:
    out_path = os.path.join(workload.work, "trace.json")
    argvs = [job.argv for job in workload.jobs]
    traced_argvs = [[CHILD, "trace", out_path, *job.traced_args] for job in workload.jobs]
    started = time.perf_counter()
    plain, traced, layers, ratios = [], [], [], []
    last_pass = 0.0
    while another_pass(started, seconds, last_pass, len(traced), MIN_TRACED_PASSES):
        pass_start = time.perf_counter()
        # each child runs plain and traced back to back, so the pair sees
        # the same stretch of host speed; the order alternates between
        # passes, so a steady drift in host speed cancels in the median ratio
        plain_first = len(traced) % 2 == 0
        plain_results, results, traces = [], [], []
        for argv, traced_argv in zip(argvs, traced_argvs):
            if plain_first:
                q = runner.run(argv)
                r = runner.run(traced_argv)
            else:
                r = runner.run(traced_argv)
                q = runner.run(argv)
            plain_results.append(q)
            results.append(r)
            if r["code"] == 0:
                with open(out_path) as fh:
                    traces.append(json.load(fh))
            if r["code"] == 0 and q["code"] == 0:
                ratios.append(r["wall"] / q["wall"])
        plain.append(plain_results)
        traced.append(results)
        layers.append(layer_metrics(traces) if passed(results) else None)
        last_pass = time.perf_counter() - pass_start
    attempted, failed = check(workload, runner, plain + traced)
    ok_plain = [p for p in plain if passed(p)]
    ok_traced = [(p, m) for p, m in zip(traced, layers) if m is not None]
    if not ok_plain or not ok_traced:
        return {"attempted": attempted, "failed": failed, "metrics": None}
    # traced output must equal plain output, and counts must repeat exactly;
    # query output carries timings, so there only the counts are compared
    reference = ok_plain[0]
    faithful = all(
        p[i]["stdout"] == reference[i]["stdout"] if job.is_table
        else job.parse(p[i]["stdout"]) == job.parse(reference[i]["stdout"])
        for p in traced for i, job in enumerate(workload.jobs))
    counts = [{k: v for k, v in m.items() if not _is_time(k)} for _, m in ok_traced]
    repeatable = len(ok_traced) == len(traced) and all(c == counts[0] for c in counts)
    # per-layer times come from the fastest traced pass, so they add up
    _, metrics = min(ok_traced, key=lambda pm: sum(r["wall"] for r in pm[0]))
    metrics["trace.overhead"] = statistics.median(ratios)
    sys.stdout.write(
        f"{workload.name}: {len(plain)} plain and {len(traced)} traced passes; "
        f"traced output equals plain: {faithful}; counts repeat: {repeatable}\n"
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "faithful": faithful and repeatable}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "growthlab", "cli.py")):
        sys.stderr.write("src/growthlab not found: run from the root of a growthlab checkout\n")
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(root, work)

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {HARD_LIMIT_S} s")

    def on_term(signum, frame):
        raise TimeoutError("terminated")

    # both end the run through the `finally` below, which stops the child
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(HARD_LIMIT_S)
    try:
        workload = Workload(args.workload, args.seed, work)
        if runner.run(["-c", "import growthlab"])["code"]:  # byte-compiles once
            raise ChildFailed("growthlab does not import")
        if args.trace:
            outcome = measure_traced(workload, runner, args.seconds)
            units = per_layer_units()
        else:
            outcome = measure(workload, runner, args.seconds)
            units = END_TO_END_UNITS
    except (ChildFailed, TimeoutError) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    finally:
        signal.alarm(0)
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if outcome["metrics"] is None:
        sys.stderr.write("no successful run to measure\n")
        return 1
    metrics = {k: {"value": outcome["metrics"][k], "unit": u} for k, u in units.items()}
    for name, m in metrics.items():
        sys.stdout.write(f"  {name} = {m['value']!r} {m['unit']}\n")
    print(json.dumps({
        "correct": outcome["failed"] == 0 and outcome.get("faithful", True),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
