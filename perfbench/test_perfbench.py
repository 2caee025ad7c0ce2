"""Tests of the benchmark's own logic.  Run: python -m pytest perfbench"""

import json
import os
import subprocess
import sys

import pytest

import workloads as wl
from stats import fast, tail
from tracer import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def _primes(bound):
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def _count(m, n):
    return wl.wreath_row(m, n)[3]


def test_closed_form_matches_criterion_1_for_m3():
    # acceptance criterion 1: m_p = 1 + 2p or 1, m_{p^2} = p^2 or 0, m_3 = 4
    assert _count(3, 3) == 4
    assert _count(3, 9) == 0
    assert _count(3, 27) == 0
    for p in _primes(1000):
        if p == 3:
            continue
        assert _count(3, p) == (1 + 2 * p if p % 3 == 1 else 1), p
        assert _count(3, p * p) == (0 if p % 3 == 1 else p * p), p
        assert _count(3, p ** 3) == 0, p
    assert wl.wreath_row(3, 12) is None


def test_closed_form_splits_trivial_and_nontrivial():
    # m = 9 at p = 19: x^9 - 1 splits into 9 linear factors over F_19
    assert wl.wreath_row(9, 19) == (19, 19, 1, 1 + 19 * 8, 1, 8)
    # p = 2, m = 9: one irreducible of degree 2 (from d = 3), one of degree 6
    assert wl.wreath_row(9, 4) == (4, 2, 2, 4, 0, 1)
    assert wl.wreath_row(9, 64) == (64, 2, 6, 64, 0, 1)


@pytest.mark.parametrize(
    "n, label, rank",
    [(1, "max", 1), (19, "max", 19), (20, "p50", 10), (40, "p75", 30),
     (100, "p90", 90), (1009, "p99", 999), (1010, "p99", 1000)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, label, rank):
    values = list(range(n, 0, -1))  # order must not matter
    assert tail(values) == (label, rank)


def test_fast_is_first_quartile_of_repetitions():
    assert fast([7.0, 2.0]) == 2.0  # fewer than three: the minimum
    assert fast([3.0, 1.0, 2.0]) == 1.0
    assert fast([5.0, 4.0, 6.0, 1.0, 2.0]) == 1.5  # a lone fast repetition is damped
    assert fast([4.0] * 4 + [9.0] * 2) == 4.0  # slow repetitions are ignored


def test_interleaved_processes_keep_their_share_and_minimum():
    from run import Interleaved

    class FakeRunner:
        def run(self, argv):
            return {"wall": 1.0, "code": 0}

    runner, side = FakeRunner(), Interleaved(["x"], share=0.1, minimum=3)
    for elapsed in range(1, 40):  # a child ends every second
        side.after_child(runner, float(elapsed))
    assert len(side.results) == 4  # at 1, 10, 20 and 30 seconds
    side.finish(runner)
    assert len(side.results) == 4
    short = Interleaved(["x"], share=0.1, minimum=3)
    short.after_child(runner, 1.0)
    short.finish(runner)
    assert len(short.results) == 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and b [5, 9]; the second b holds c [6, 8]
    clock = FakeClock()
    t = Tracer(clock)
    events = [(0, "a"), (1, "b"), (4, None), (5, "b"), (6, "c"), (8, None), (9, None), (10, None)]
    for at, name in events:
        clock.now = at
        if name:
            t.enter(name)
        else:
            t.exit()
    assert t.totals["a"] == [1, 10.0, 10.0 - 3 - 4]
    assert t.totals["b"] == [2, 7.0, 7.0 - 2]
    assert t.totals["c"] == [1, 2.0, 2.0]


def test_wrapper_passes_results_through_and_counts():
    t = Tracer(FakeClock())
    seen = []
    f = t.wrap("x", lambda a, b=1: a + b, on_result=seen.append)
    assert f(2, b=3) == 5
    assert seen == [5]
    assert t.totals["x"][0] == 1


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)


def test_traced_run_is_faithful_and_repeatable(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"type": "wreath_cyclic", "m": 3}))
    plain = _run(["-m", "growthlab.cli", "table", str(spec), "--max-n", "60"], tmp_path).stdout
    layers = []
    for i in range(2):
        out = tmp_path / f"trace{i}.json"
        traced = _run([CHILD, "trace", str(out), "table", str(spec), "60"], tmp_path).stdout
        assert traced == plain
        layers.append(layer_metrics([json.loads(out.read_text())]))
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in layers]
    assert calls[0] == calls[1]
    assert calls[0]["groups.expand.calls"] == 1
    assert layers[0]["groups.rows"] == len(plain.splitlines()) - 1
    assert layers[0]["modules.count_max_submodules.per_row"] == 2.0
    # the p^2 rows re-use the spectra cached at p
    assert layers[0]["modules.joint_spectrum.cache_hits"] > 0


def test_char_poly():
    # companion matrix of x^3 - 2x + 5: columns are images of the basis
    companion = [[0, 0, -5], [1, 0, 2], [0, 1, 0]]
    assert wl.char_poly(companion) == [5, -2, 0, 1]
    assert wl.char_poly([[1, 0], [0, 2]]) == [2, -3, 1]


def test_factor_pattern():
    x5_minus_1 = [-1, 0, 0, 0, 0, 1]
    assert wl.factor_pattern(x5_minus_1, 11) == (1, 1, 1, 1, 1)  # 5 | 11 - 1
    assert wl.factor_pattern(x5_minus_1, 2) == (1, 4)  # ord_5(2) = 4
    assert wl.factor_pattern(x5_minus_1, 5) is None  # (x - 1)^5 mod 5
    assert wl.factor_pattern([1, 0, 1], 3) == (2,)  # x^2 + 1 is irreducible mod 3


def test_query_inputs_follow_the_pattern_mix():
    queries = wl.query_inputs(3)
    patterns = [wl.factor_pattern(wl.char_poly(a), p) for a, p in queries]
    assert sorted(patterns) == sorted(pat for pat, k in wl.PATTERN_MIX.items() for _ in range(k))
    assert [p.bit_length() for _, p in queries] == [p.bit_length() for _, p in wl.query_inputs(4)]
    assert queries == wl.query_inputs(3)


def test_share_slots_by_largest_remainder():
    assert wl.share_slots({"a": 2, "b": 1}, 3) == {"a": 2, "b": 1}
    # exact shares 1.8, 1.2, 0.6, 0.4: floors 1, 1, 0, 0 and the two largest
    # remainders (0.8 and 0.6) get the last two slots
    assert wl.share_slots({"a": 9, "b": 6, "c": 3, "d": 2}, 4) == {"a": 2, "b": 1, "c": 1}
    assert sum(wl.PATTERN_MIX.values()) == wl.QUERIES
    assert None not in wl.PATTERN_MIX  # non-squarefree draws are too rare for a slot


def test_pattern_sample_is_seeded():
    small = wl.pattern_sample(50)
    assert small == wl.pattern_sample(50)
    assert sum(small.values()) == 50
