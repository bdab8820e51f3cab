"""Seeded runs are a function of the seed, never of the wall clock.

Every timestamp a chaos schedule or a recorded history prints is
simulated; wall-clock readings only feed timings (traces, histograms,
EXPLAIN ANALYZE).  This runs a short seeded ``repro.chaos`` schedule and
a ``repro.history record`` twice — once normally, once with
``time.perf_counter`` and ``time.time`` replaced, before ``repro`` is
imported, by skewed and randomly jittered clocks — and requires
byte-identical stdout and JSONL.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: ``python -c SKEWED <module> <args...>``: run ``<module>`` as __main__
#: under a clock that is offset, runs 3.7x fast and jitters by up to
#: 250 ms (perf_counter stays monotonic; time.time does not).
SKEWED = """
import random, runpy, sys, time
rng, perf, last = random.Random(), time.perf_counter, [0.0]
def skewed():
    last[0] = max(last[0], 5e5 + 3.7 * perf() + 0.25 * rng.random())
    return last[0]
time.perf_counter = skewed
time.time = lambda: 2e9 + 1e4 * rng.random()
module = sys.argv[1]
sys.argv = [module] + sys.argv[2:]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

RUNS = [
    ["repro.chaos", "--workload", "ledger", "--seed", "5", "--duration", "15",
     "--partitions", "2"],
    ["repro.history", "record", "--workload", "ledger", "--seed", "5",
     "--duration", "15", "--out", "history.jsonl"],
]


def run(cwd, argv, skewed):
    cwd.mkdir()
    prefix = ["-c", SKEWED] if skewed else ["-m"]
    out = subprocess.run(
        [sys.executable, *prefix, *argv], cwd=cwd, env={"PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    history = cwd / "history.jsonl"
    return out.stdout, history.read_bytes() if history.exists() else None


@pytest.mark.parametrize("argv", RUNS, ids=["chaos", "history-record"])
def test_skewed_wall_clock_changes_no_byte(tmp_path, argv):
    normal = run(tmp_path / "normal", argv, skewed=False)
    skewed = run(tmp_path / "skewed", argv, skewed=True)
    assert normal[0].startswith("# ")
    assert skewed == normal
