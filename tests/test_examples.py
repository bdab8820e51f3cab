"""Every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    p.name for p in (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    path = pathlib.Path(__file__).parent.parent / "examples" / name
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{name} produced no output"


def test_expected_examples_present():
    # The README promises at least these scenarios.
    required = {
        "quickstart.py",
        "bookstore.py",
        "tpcd_cache.py",
        "timeline_session.py",
    }
    assert required <= set(EXAMPLES)


class TestExampleOutputs:
    def run(self, name):
        path = pathlib.Path(__file__).parent.parent / "examples" / name
        proc = subprocess.run(
            [sys.executable, str(path)], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_quickstart_shows_guarded_plan(self):
        out = self.run("quickstart.py")
        assert "guarded(products_copy)" in out
        assert "remote" in out

    def test_bookstore_shows_constraint_classes(self):
        out = self.run("bookstore.py")
        assert "class (b, r) within 600s" in out
        assert "class (b, r, s) within 300s" in out

    def test_timeline_shows_anomaly_and_fix(self):
        out = self.run("timeline_session.py")
        assert "time moved backwards" in out
        assert "150.00" in out

    def test_tpcd_plan_choices(self):
        out = self.run("tpcd_cache.py")
        assert "q2: hashjoin(remote, remote)" in out
        assert "q7: guarded(cust_prj)" in out
