"""The benchmark's tracer against the current package.

``bench/spans.py`` patches dpl's public functions, methods and properties
by name at run time.  A renamed or moved target makes its ``install``
fail, so this test fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import dpl.cli
import dpl.flags
import dpl.mutation

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_removes(capsys):
    spans = _load_spans()
    originals = {path: vars(dpl.mutation).get(path) for path in
                 ("act_words", "moebius_census", "projective_census")}
    init = dpl.flags.FlagComplex.__dict__["__init__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dpl.flags.FlagComplex.__dict__["__init__"] is not init
        # through the module attributes, which are what the tracer patches
        dpl.mutation.projective_census(2)
        dpl.mutation.moebius_census(2)
        dpl.cyclic_thin(3).complex.canonical_key()
        assert dpl.cli.main(["validate", "C04"]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    assert dpl.flags.FlagComplex.__dict__["__init__"] is init
    assert {path: vars(dpl.mutation).get(path)
            for path in originals} == originals

    metrics = spans.derive(tracer.names, tracer.records)
    assert metrics["mutation.SimpleState.builds"] > 0
    assert metrics["flags.FlagComplex.builds"] > 0
    assert metrics["flags.canonical_key.calls"] > 0
    assert metrics["mutation.walk.states"] > 0
    assert metrics["arrangement.validate.calls"] > 0
