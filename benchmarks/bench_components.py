"""Micro-benchmarks of the per-slot hot paths.

These measure the individual subproblem solvers on realistic states so
regressions in the per-slot cost (the quantity that bounds experiment
wall time) are caught: S1 sequential fix and power control, the full
controller slot, and the relaxed LP slot.
"""

from pathlib import Path

import numpy as np

from repro.analysis.callgraph import Program
from repro.analysis.equations import audit_equations
from repro.config import paper_scenario
from repro.contracts import ContractChecker
from repro.lint.cli import main as lint_main, parse_paths
from repro.phy import gain_matrix, minimal_power_assignment_vec
from repro.phy.propagation import DensePairGains
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


def test_power_control_loaded_band(benchmark):
    # One co-band set the size of the largest on loaded-u1k (354 links):
    # 354 short links around 40 hot spots in the U=1000 constant-density
    # square, at the paper's Gamma, noise and caps.  Pairs of nearby
    # links certify most of the set infeasible, so the search keeps a
    # few dozen links after one or a few solves.
    params = paper_scenario()
    rng = np.random.default_rng(2014)
    n, side = 354, 2000.0 * np.sqrt(1000 / 20.0)
    centers = rng.uniform(0.0, side, (40, 2))
    tx = centers[rng.integers(0, 40, n)] + rng.normal(0.0, 600.0, (n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    length = rng.uniform(20.0, 400.0, n)
    rx = tx + np.stack([np.cos(angle), np.sin(angle)], axis=1) * length[:, None]
    points = np.concatenate([tx, rx])
    dist = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(axis=2))
    gains = DensePairGains(
        gain_matrix(dist, params.propagation_constant, params.path_loss_exponent)
    )
    noise_w = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    caps = np.full(n, params.user_node.max_tx_power_w)
    priorities = rng.uniform(0.0, 100.0, n)
    link_tx, link_rx = np.arange(n), np.arange(n, 2 * n)

    kept, _, dropped = benchmark(
        lambda: minimal_power_assignment_vec(
            link_tx, link_rx, gains, noise_w, params.sinr_threshold, caps, priorities
        )
    )
    assert 0 < kept.size < n and len(dropped) == n - kept.size


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
    dt = bench_base.slot_seconds
    fixed_j = simulator.model.node_vector(
        bench_base.bs_node.fixed_energy_j(dt), bench_base.user_node.fixed_energy_j(dt)
    )
    batch = NodeEnergyBatch.from_inputs([
        NodeEnergyInputs(
            node=node,
            is_base_station=node < bench_base.num_base_stations,
            demand_j=fixed_j[node],
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


def test_analysis_runtime_full_tree(benchmark, monkeypatch):
    # The checker gates every CI run, scripts/check.sh and the
    # pre-commit hook, so its one uncached pass — every file parsed
    # once, per-file rules, call-graph build, hot-path sweep and
    # equation audit — over the tree CI checks must stay cheap.
    monkeypatch.chdir(_REPO_ROOT)
    status = benchmark(lambda: lint_main(["src", "tests", "benchmarks"]))
    assert status == 0


def test_callgraph_build_runtime(benchmark):
    # The graph build is the fixed cost the hot-path rules share;
    # track it separately so a resolution regression is
    # distinguishable from a slow rule.
    files, _ = parse_paths([str(_REPO_ROOT / "src")])

    program = benchmark(lambda: Program(files))
    assert program.functions


def test_equation_audit_full_tree(benchmark):
    manifest = _REPO_ROOT / "docs" / "equations.toml"
    src_root = _REPO_ROOT / "src" / "repro"

    result = benchmark(lambda: audit_equations(manifest, src_root))
    assert result.findings == []
