"""Micro-benchmarks of the per-slot hot paths.

These measure the individual subproblem solvers on realistic states so
regressions in the per-slot cost (the quantity that bounds experiment
wall time) are caught: S1 sequential fix, the full controller slot,
and the relaxed LP slot.
"""

from pathlib import Path

import numpy as np

from repro.analysis.callgraph import Program
from repro.analysis.cli import analyze_paths
from repro.analysis.equations import audit_equations
from repro.contracts import ContractChecker
from repro.sim import SlotSimulator

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _warm_simulator(base, slots=10):
    simulator = SlotSimulator.integral(base)
    for slot in range(slots):
        simulator.step(slot)
    return simulator


def test_controller_slot(benchmark, bench_base):
    simulator = _warm_simulator(bench_base)
    observation = simulator.state.observe(99)

    benchmark(
        lambda: simulator.controller.decide(observation, simulator.state)
    )


def test_controller_slot_contracts_off(benchmark, bench_base):
    # Must be indistinguishable from test_controller_slot: an attached
    # checker at strictness "off" short-circuits on a single bool.
    simulator = _warm_simulator(bench_base)
    simulator.controller.attach_contracts(ContractChecker("off"))
    observation = simulator.state.observe(99)

    benchmark(
        lambda: simulator.controller.decide(observation, simulator.state)
    )


def test_controller_slot_contracts_strict(benchmark, bench_base):
    # The price of full per-slot invariant validation (S1-S4 hooks +
    # the assembly checks) relative to the two baselines above.
    simulator = _warm_simulator(bench_base)
    simulator.controller.attach_contracts(ContractChecker("strict"))
    observation = simulator.state.observe(99)

    benchmark(
        lambda: simulator.controller.decide(observation, simulator.state)
    )


def test_scheduler_sequential_fix(benchmark, bench_base):
    simulator = _warm_simulator(bench_base)
    observation = simulator.state.observe(99)
    h = simulator.state.h_backlogs()
    rng = np.random.default_rng(0)
    # Load every link so the SF LP is non-trivial.
    loaded = h + rng.uniform(1, 50, size=h.shape[0])

    support = np.flatnonzero(loaded)

    benchmark(
        lambda: simulator.controller.scheduler.schedule(observation, loaded, support)
    )


def test_relaxed_lp_slot(benchmark, bench_base):
    relaxed = SlotSimulator.relaxed(bench_base)
    for slot in range(5):
        relaxed.step(slot)
    observation = relaxed.state.observe(99)

    benchmark(lambda: relaxed.controller.decide(observation, relaxed.state))


def test_energy_manager_slot(benchmark, bench_base):
    simulator = _warm_simulator(bench_base)
    observation = simulator.state.observe(99)
    decision = simulator.controller.decide(observation, simulator.state)
    del decision  # built only to exercise identical state

    from repro.control.energy_manager import NodeEnergyBatch, NodeEnergyInputs

    arrays = simulator.state.arrays
    z = arrays.z_values_array()
    charge_cap = arrays.max_charge_j_array()
    discharge_cap = np.minimum(arrays.discharge_cap_j, arrays.battery_level)
    batch = NodeEnergyBatch.from_inputs([
        NodeEnergyInputs(
            node=node,
            is_base_station=node < bench_base.num_base_stations,
            demand_j=bench_base.node_params(node).fixed_energy_j(
                bench_base.slot_seconds
            ),
            renewable_j=observation.renewable_j[node],
            grid_connected=observation.grid_connected[node],
            grid_cap_j=arrays.grid_cap_j[node],
            charge_cap_j=charge_cap[node],
            discharge_cap_j=discharge_cap[node],
            z=z[node],
        )
        for node in range(simulator.model.num_nodes)
    ])

    benchmark(lambda: simulator.controller.energy_manager.manage(batch))


def test_analysis_runtime_full_tree(benchmark):
    # The static analyzer gates every CI run, scripts/check.sh and the
    # pre-commit hooks, so the whole-program pass — call-graph build,
    # units propagation, determinism and hot-path sweeps — over the
    # full library must stay cheap.
    src = str(_REPO_ROOT / "src")

    findings = benchmark(lambda: analyze_paths([src]))
    assert findings == []


def test_callgraph_build_runtime(benchmark):
    # The graph build is the fixed cost every whole-program rule
    # shares; track it separately so a parsing/resolution regression
    # is distinguishable from a slow rule.
    src = str(_REPO_ROOT / "src")

    program = benchmark(lambda: Program.load([src]))
    assert program.functions


def test_equation_audit_full_tree(benchmark):
    manifest = _REPO_ROOT / "docs" / "equations.toml"
    src_root = _REPO_ROOT / "src" / "repro"

    result = benchmark(lambda: audit_equations(manifest, src_root))
    assert result.findings == []
