"""One untraced pass of each benchmark workload against the current package.

``bench/run.py`` calls dpl by name through ``bench/workloads.py``.  A
renamed function, a changed option or a wrong result makes an operation
fail or a check reject, so this test fails here rather than only in a
benchmark run.  The workloads are built on the dpl modules this session
has already imported: ``run.fresh_import`` would leave a second copy of
the package to the tests that follow.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    dpl = types.SimpleNamespace(**{m: importlib.import_module("dpl." + m)
                                   for m in run.MODULES})
    return run, workloads, dpl


@pytest.mark.parametrize("name", ["census", "mutate", "query"])
def test_one_pass_runs_and_checks(bench, name, tmp_path):
    run, workloads, dpl = bench
    wl = workloads.WORKLOADS[name](dpl, 1, tmp_path / "work")
    wl.warm_up()
    p = workloads.Pass()
    wl.run_pass(p)
    p.close()
    failures = []
    run.run_checks(p, failures)
    assert p.attempted > 0
    assert (p.failed, p.errors) == (0, {})
    assert failures == []
