"""Self-test of the benchmark harness.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/suite``.

Runs the real runner on a 5-slot ``tiny_scenario`` workload (both
controllers, both S1 selectors) and checks the record against
``BENCHMARK.json``; checks self time on a synthetic span tree and the
comparison verdicts on synthetic records.
"""

from __future__ import annotations

import json
import re
import time

import pytest

import compare
import hostref
import run
import spans
from workloads import SimRun, Workload
from repro.config import tiny_scenario
from repro.types import SchedulerKind

SPEC = json.loads(run.BENCHMARK.read_text())


def _tiny_runs(seed: int):
    params = tiny_scenario(num_slots=5, seed=seed)
    return [
        SimRun("integral", params),
        SimRun("relaxed", params, relaxed=True),
        SimRun("greedy", params, scheduler=SchedulerKind.GREEDY),
    ]


TINY = Workload("tiny", _tiny_runs, setup_reps=2)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    line, record = run.run_workload(TINY, seed=3, seconds=0.0, trace=True, out_dir=out_dir)
    return line, record, out_dir


def test_every_benchmark_metric_is_emitted_with_its_unit(traced_run):
    _, record, _ = traced_run
    for block in ("end_to_end", "per_layer"):
        emitted = {name: m["unit"] for name, m in record[block].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[block]}
        assert all(isinstance(m["value"], float) for m in record[block].values())


def test_result_line_shape(traced_run):
    line, record, _ = traced_run
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] == 2 * len(_tiny_runs(3))
    assert line["metrics"] == record["per_layer"]


def test_traced_pass_reproduces_the_untraced_hash(traced_run):
    _, record, _ = traced_run
    assert record["traced_hash"] == record["hash"]
    assert record["consistent"] is True


def test_spans_cover_the_slot(traced_run):
    _, record, out_dir = traced_run
    assert record["per_layer"]["trace.coverage"]["value"] >= 0.9
    trace = json.loads((out_dir / "trace-tiny.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"setup", "step", "observe", "decide", "apply", "metrics", "s1", "s4"} <= names
    assert {"s1.power", "s1.sf", "lp.solve"} <= names


def test_invariant_violation_fails_the_run():
    class Broken:
        q = run.np.zeros((2, 2))
        g = run.np.array([1.0, -1.0])
        battery_level = run.np.zeros(2)
        capacity_j = run.np.ones(2)

        def z_values_array(self):
            return self.battery_level

    with pytest.raises(run.InvariantError, match="negative g"):
        run.check_state(Broken(), slot=4)


def test_normalized_slot_time_scales_by_the_reference(monkeypatch):
    ref = hostref.HostReference()
    slow_unit_ns = 2 * hostref.REF_UNIT_MS * 1e6  # the host at half speed
    ref.last_ns = slow_unit_ns
    monkeypatch.setattr(ref, "unit", lambda: time.sleep(slow_unit_ns / 1e9))
    out = []
    ref.add(20 * slow_unit_ns, out)
    ref.sample()
    assert out == [pytest.approx(10 * slow_unit_ns, rel=0.2)]


def _span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "run": "", "slot": 0}


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("step", 0, 100, -1),
        _span("observe", 10, 30, 0),
        _span("decide", 25, 60, 0),  # overlaps observe by 5
        _span("s1", 30, 50, 2),
        _span("apply", 90, 120, 0),  # sticks out of the parent by 20
    ]
    assert spans.self_times(tree) == [100 - (60 - 10) - 10, 20, 35 - 20, 20, 30]


def test_power_counters_follow_the_drop_loop():
    tracer = spans.Tracer()
    spans._record_power(tracer, n=5, kept=3, dropped=2)
    spans._record_power(tracer, n=2, kept=0, dropped=2)
    assert tracer.counts["s1.power.solves"] == 3 + 2
    assert tracer.counts["s1.power.flops"] == pytest.approx(
        2 / 3 * (5**3 + 4**3 + 3**3 + 2**3 + 1**3)
    )
    assert tracer.maxima["s1.power.max_set"] == 5


def test_compare_improved_and_unresolved():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [80.0 + i for i in range(10)], "lower", 0.1) == "improved"
    assert compare.verdict(parent, [98.0 + i for i in range(10)], "lower", 0.1) == "no change"
    assert compare.verdict(parent, [130.0 + i for i in range(10)], "lower", 0.1) == "worse"
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [120.0 + i for i in range(10)], "higher", 0.1) == "improved"


def test_compare_reads_record_files(tmp_path):
    def records(values):
        return {
            "runs": [
                {"workload": "w", "end_to_end": {"slots_per_s": {"value": v, "unit": "slots/s"}}}
                for v in values
            ]
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(records([10.0 + 0.01 * i for i in range(10)])))
    b.write_text(json.dumps(records([5.0 + 0.01 * i for i in range(10)])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_benchmark_json_follows_its_format():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    every = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in every}) == len(every)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
