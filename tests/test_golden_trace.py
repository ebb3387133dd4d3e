"""Golden-trace regression tests for the simulator's timing semantics.

A small SymmSquareCube run's :class:`Trace` records are serialized to
checked-in JSON fixtures (one healthy run, one chaos run under a fixed
:class:`FaultPlan`) and compared span for span.  Any refactor of
``sim/engine.py``, ``mpi/progress.py``, the fabric, or the fault layer that
changes *when* things happen — even by one event-ordering tie-break — fails
these tests instead of silently shifting every reported number.

Regenerating the fixtures (only after an *intentional* timing-semantics
change, with the diff reviewed)::

    PYTHONPATH=src python tests/test_golden_trace.py --regen

``--dump DIR`` writes the two traces to an arbitrary directory instead;
the CI determinism job runs it twice and diffs the outputs.
"""

from __future__ import annotations

import json
import pathlib

from repro.kernels.symmsquarecube import run_ssc
from repro.sim.faults import (
    FaultPlan,
    LinkDegradation,
    MessageDrop,
    NicJitter,
    StragglerSlowdown,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"
FIXTURES = {
    "healthy": DATA_DIR / "golden_trace_ssc.json",
    "chaos": DATA_DIR / "golden_trace_ssc_faults.json",
}


def _chaos_plan() -> FaultPlan:
    """The fixed >= 3-fault-kind plan locked into the chaos fixture."""
    return FaultPlan([
        LinkDegradation(node=1, t_start=5e-5, t_end=2e-4, factor=0.4),
        StragglerSlowdown(rank=3, t_start=0.0, t_end=1e-3, factor=2.5),
        NicJitter(node=0, t_start=0.0, t_end=1e-3, max_extra_latency=5e-6),
        MessageDrop(probability=0.2, max_drops=4),
    ], seed=2019)


def golden_run(scenario: str, record: bool = False):
    """The reference run whose trace is pinned (modeled mode: no numerics)."""
    faults = _chaos_plan() if scenario == "chaos" else None
    res = run_ssc(2, 8, "optimized", n_dup=2, ppn=2, iterations=1,
                  trace=True, faults=faults, record=record)
    return res.world.trace.to_jsonable()


def _assert_span_for_span(actual: list[dict], expected: list[dict], name: str):
    for idx, (a, e) in enumerate(zip(actual, expected)):
        assert a == e, (
            f"{name}: trace diverges at span {idx}:\n"
            f"  actual:   {a}\n  expected: {e}"
        )
    assert len(actual) == len(expected), (
        f"{name}: span count changed: {len(actual)} != {len(expected)}"
    )


def test_golden_trace_healthy():
    expected = json.loads(FIXTURES["healthy"].read_text())
    _assert_span_for_span(golden_run("healthy"), expected, "healthy")


def test_golden_trace_chaos():
    expected = json.loads(FIXTURES["chaos"].read_text())
    _assert_span_for_span(golden_run("chaos"), expected, "chaos")


def test_recording_is_trace_invisible():
    """Event-graph recording must not move a single simulated event.

    Both golden scenarios re-run with ``record=True`` (graph hooks armed in
    the engine, fabric, transport, progress and collective layers) and must
    emit traces bit-for-bit identical to the committed fixtures — recording
    observes the run, it never participates in it.
    """
    for scenario, fixture in FIXTURES.items():
        expected = json.loads(fixture.read_text())
        _assert_span_for_span(golden_run(scenario, record=True), expected,
                              f"{scenario}+record")


def test_fixture_round_trips_through_trace_records():
    """records_from_jsonable is the exact inverse of to_jsonable."""
    from repro.sim.trace import Trace

    data = json.loads(FIXTURES["chaos"].read_text())
    records = Trace.records_from_jsonable(data)
    t = Trace(enabled=True)
    t.records = records
    assert t.to_jsonable() == data
    # The chaos fixture really exercises the fault layer.
    assert any(r.label.startswith("drop+retry") for r in records)


def _write(dir_path: pathlib.Path) -> None:
    dir_path.mkdir(parents=True, exist_ok=True)
    for scenario, fixture in FIXTURES.items():
        out = dir_path / fixture.name
        out.write_text(json.dumps(golden_run(scenario), indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _write(DATA_DIR)
    elif "--dump" in sys.argv:
        _write(pathlib.Path(sys.argv[sys.argv.index("--dump") + 1]))
    else:
        sys.exit("usage: test_golden_trace.py --regen | --dump DIR")
