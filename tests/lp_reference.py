"""The LP oracles: named-variable builders and a ``linprog`` solver.

The relaxed Theorem-5 program P3bar and the S1 sequential-fix
relaxations were once built one variable and one constraint at a time
over structured keys (``("a", tx, rx, band)``, ``("l", tx, rx, sid)``,
...), then converted to the matrix form HiGHS takes.  The library now
assembles those matrices as arrays; this module keeps the keyed
builders as an independent oracle.  ``standard_form`` returns exactly
what :meth:`repro.solvers.linprog.LinearProgram.standard_form` must
return for the same problem: ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``
after row equilibration and objective normalisation.

:func:`linprog_solve` is the reference for
:meth:`~repro.solvers.linprog.LinearProgram.solve`: it hands the same
``standard_form()`` to :func:`scipy.optimize.linprog` and maps its
status to the same solution or error.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import InfeasibleError, SolverError
from repro.phy.capacity import max_link_capacity_bps
from repro.control.scheduler import big_m_coefficient
from repro.solvers.linprog import LPSolution
from tests.helpers import common_bands, in_neighbors, link_tuples

LE, GE, EQ = "<=", ">=", "=="


def node_class(params, node):
    """``(radio, energy)`` parameters of ``node``'s class; stations hold the low ids."""
    if node < params.num_base_stations:
        return params.bs_node, params.bs_energy
    return params.user_node, params.user_energy


def linprog_solve(lp):
    """Solve ``lp.standard_form()`` with ``linprog``: HiGHS, then HiGHS-IPM.

    The IPM pass runs when the first ends in neither success nor a
    certificate of infeasibility or unboundedness.  The objective is
    mapped back through the cost normalisation.

    Raises:
        InfeasibleError: infeasible or unbounded.
        SolverError: any other failure.
    """
    if lp.num_variables == 0:
        return LPSolution(objective=0.0, x=np.zeros(0))
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp.standard_form()
    for method in ("highs", "highs-ipm"):
        result = linprog(
            c=c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method=method
        )
        if result.status in (0, 2, 3):
            break
    if result.status == 2:
        raise InfeasibleError("linear program is infeasible")
    if result.status == 3:
        raise InfeasibleError("linear program is unbounded")
    if not result.success:
        raise SolverError(f"linprog failed: {result.message}")
    scale = float(np.abs(lp.cost).max()) or 1.0
    return LPSolution(objective=float(result.fun) * scale, x=result.x)


class KeyedLP:
    """Minimisation LP over named variables (insertion order kept)."""

    def __init__(self):
        self.objective = {}
        self.bounds = {}
        self.constraints = []

    def add_variable(self, key, objective=0.0, lower=0.0, upper=None):
        assert key not in self.objective, key
        self.objective[key] = objective
        self.bounds[key] = (lower, upper)

    def has_variable(self, key):
        return key in self.objective

    def add_constraint(self, coeffs, sense, rhs, name=""):
        clean = {k: v for k, v in coeffs.items() if v != 0.0}
        assert all(k in self.objective for k in clean), name
        self.constraints.append((clean, sense, rhs, name))

    def standard_form(self):
        """``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as HiGHS receives it."""
        order = list(self.objective)
        index = {key: i for i, key in enumerate(order)}
        cost = np.array([self.objective[k] for k in order])
        ub_rows, eq_rows = [], []
        for coeffs, sense, rhs, _ in self.constraints:
            if sense == LE:
                ub_rows.append((dict(coeffs), rhs))
            elif sense == GE:
                ub_rows.append(({k: -v for k, v in coeffs.items()}, -rhs))
            else:
                eq_rows.append((dict(coeffs), rhs))

        def to_matrix(rows):
            if not rows:
                return None, None
            data, row_idx, col_idx, rhs = [], [], [], []
            for r, (coeffs, bound) in enumerate(rows):
                scale = max((abs(c) for c in coeffs.values()), default=0.0)
                if scale <= 0.0:
                    scale = 1.0
                rhs.append(bound / scale)
                for key, coeff in coeffs.items():
                    data.append(coeff / scale)
                    row_idx.append(r)
                    col_idx.append(index[key])
            matrix = sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), len(order))
            )
            return matrix, np.array(rhs)

        a_ub, b_ub = to_matrix(ub_rows)
        a_eq, b_eq = to_matrix(eq_rows)
        bounds = np.array(
            [
                (lo, np.inf if hi is None else hi)
                for lo, hi in (self.bounds[k] for k in order)
            ],
            dtype=float,
        ).reshape(-1, 2)
        scale = float(np.abs(cost).max()) if order else 1.0
        if scale <= 0.0:
            scale = 1.0
        return cost / scale, a_ub, b_ub, a_eq, b_eq, bounds


def relaxed_lp(controller, observation, state, num_cost_segments=24):
    """The keyed P3bar of one slot (the historical per-key builder)."""
    model = controller._model
    params = model.params
    constants = controller._constants
    lp = KeyedLP()
    dt = params.slot_seconds
    threshold = params.admission_lambda * params.control_v
    destinations = {s.session_id: s.destination for s in model.sessions}
    q = state.arrays.q  # session ``sid`` is column ``sid``
    topology = model.topology
    links = link_tuples(topology)
    h = dict(zip(links, state.h_backlogs().tolist()))
    gains = observation.pair_gains(model)
    link_gains = gains.pairs(topology.link_tx, topology.link_rx).tolist()

    def service_pkts(band):
        bps = max_link_capacity_bps(
            observation.bands.bandwidth(band), params.sinr_threshold
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    link_bands = {}
    for (tx, rx), gain in zip(links, link_gains):
        entries = []
        for band in common_bands(observation, model, tx, rx):
            noise = model.noise_power_w(observation.bands.bandwidth(band))
            power = params.sinr_threshold * noise / gain
            if power > model.max_power_w[tx]:
                continue
            service = service_pkts(band)
            lp.add_variable(
                ("a", tx, rx, band),
                objective=-constants.beta * h.get((tx, rx), 0.0) * service,
                lower=0.0,
                upper=1.0,
            )
            entries.append((band, service, power))
        if entries:
            link_bands[(tx, rx)] = entries

    per_node = {n: {} for n in range(model.num_nodes)}
    for (tx, rx), entries in link_bands.items():
        for band, _, _ in entries:
            per_node[tx][("a", tx, rx, band)] = 1.0
            per_node[rx][("a", tx, rx, band)] = 1.0
    for node, coeffs in per_node.items():
        if coeffs:
            lp.add_constraint(
                coeffs, LE, float(node_class(params, node)[0].num_radios)
            )

    for (tx, rx), entries in link_bands.items():
        cap_coeffs = {("a", tx, rx, band): -service for band, service, _ in entries}
        any_l = False
        for session in model.sessions:
            sid = session.session_id
            if tx == destinations[sid]:
                continue
            q_tx = float(q[tx, sid])
            q_rx = 0.0 if rx == destinations[sid] else float(q[rx, sid])
            coeff = -q_tx + q_rx + constants.beta * h.get((tx, rx), 0.0)
            lp.add_variable(("l", tx, rx, sid), objective=coeff, lower=0.0)
            cap_coeffs[("l", tx, rx, sid)] = 1.0
            any_l = True
        if any_l:
            lp.add_constraint(cap_coeffs, LE, 0.0)

    for session in model.sessions:
        sid = session.session_id
        dest = session.destination
        coeffs = {
            ("l", i, dest, sid): 1.0
            for i in in_neighbors(topology, dest)
            if lp.has_variable(("l", i, dest, sid))
        }
        if coeffs:
            lp.add_constraint(coeffs, EQ, float(session.demand(observation.slot)))

    for session in model.sessions:
        sid = session.session_id
        total = {}
        for bs in model.bs_ids:
            lp.add_variable(
                ("k", sid, bs),
                objective=float(q[bs, sid]) - threshold,
                lower=0.0,
                upper=float(session.k_max),
            )
            total[("k", sid, bs)] = 1.0
        lp.add_constraint(total, LE, float(session.k_max))

    bs_set = set(model.bs_ids)
    z = dict(enumerate(state.arrays.z_values_array().tolist()))
    renewables = observation.renewable_j.tolist()
    grid_connected = observation.grid_connected.tolist()
    p_coeffs = {}
    arrays = state.arrays
    for node in range(model.num_nodes):
        radio, energy = node_class(params, node)
        connected = grid_connected[node]
        grid_cap = energy.grid_cap_j if connected else 0.0
        renewable = renewables[node]
        eta_c = energy.charge_efficiency
        eta_d = energy.discharge_efficiency
        # Constraints (11)/(12) on the node's battery level, scalar.
        level = float(arrays.battery_level[node])
        max_charge = min(
            energy.charge_cap_j, (energy.battery_capacity_j - level) / eta_c
        )
        max_discharge = min(energy.discharge_cap_j, level)
        lp.add_variable(("r", node), lower=0.0, upper=renewable)
        lp.add_variable(
            ("cr", node), objective=z[node] * eta_c, lower=0.0, upper=renewable
        )
        lp.add_variable(("g", node), lower=0.0, upper=grid_cap)
        lp.add_variable(
            ("cg", node), objective=z[node] * eta_c, lower=0.0, upper=grid_cap
        )
        lp.add_variable(
            ("d", node),
            objective=-z[node] / eta_d,
            lower=0.0,
            upper=eta_d * max_discharge,
        )
        lp.add_variable(("slack", node), lower=0.0)
        lp.add_constraint({("r", node): 1.0, ("cr", node): 1.0}, LE, renewable)
        lp.add_constraint(
            {("cr", node): 1.0, ("cg", node): 1.0}, LE, max_charge
        )
        lp.add_constraint({("g", node): 1.0, ("cg", node): 1.0}, LE, grid_cap)
        lp.add_variable(("w", node), objective=1.0, lower=0.0)
        net_lo = -max_discharge
        net_hi = eta_c * max_charge
        span = max(net_hi - net_lo, 1.0)
        for k in range(9):
            point = net_lo + span * k / 8
            lp.add_constraint(
                {
                    ("w", node): 1.0,
                    ("cr", node): -point * eta_c,
                    ("cg", node): -point * eta_c,
                    ("d", node): point / eta_d,
                },
                GE,
                -0.5 * point * point,
            )
        balance = {
            ("g", node): 1.0,
            ("r", node): 1.0,
            ("d", node): 1.0,
            ("slack", node): 1.0,
        }
        for (tx, rx), entries in link_bands.items():
            for band, _, power in entries:
                key = ("a", tx, rx, band)
                if tx == node:
                    balance[key] = balance.get(key, 0.0) - power * dt
                elif rx == node:
                    balance[key] = (
                        balance.get(key, 0.0) - radio.recv_power_w * dt
                    )
        lp.add_constraint(balance, EQ, radio.fixed_energy_j(dt))
        if node in bs_set:
            p_coeffs[("g", node)] = 1.0
            p_coeffs[("cg", node)] = 1.0

    p_cap = model.total_grid_cap_j()
    lp.add_variable(("P",), lower=0.0, upper=p_cap)
    row = dict(p_coeffs)
    row[("P",)] = -1.0
    lp.add_constraint(row, EQ, 0.0)
    lp.add_variable(("phi",), objective=params.control_v, lower=0.0)
    for k in range(num_cost_segments + 1):
        point = p_cap * k / num_cost_segments
        slot_cost = model.cost_at(observation.slot)
        slope = slot_cost.derivative(point)
        intercept = slot_cost.value(point) - slope * point
        lp.add_constraint({("phi",): 1.0, ("P",): -slope}, GE, intercept)
    return lp


def candidate_weights(scheduler, observation, grid):
    """The ``{(tx, rx, band): weight}`` candidates of an S1 grid."""
    model = scheduler._model
    active, keep, weight = grid
    links = link_tuples(model.topology)
    weights = {}
    for i, pos in enumerate(active.tolist()):
        tx, rx = links[pos]
        for band in common_bands(observation, model, tx, rx):
            if keep[band, i]:  # the grid is band-major
                weights[(tx, rx, band)] = weight[band, i]
    return weights


def _radio_constraints(lp, keys, radios):
    per_node, per_node_band = {}, {}
    for tx, rx, band in keys:
        key = (tx, rx, band)
        for node in (tx, rx):
            per_node.setdefault(node, []).append(key)
            per_node_band.setdefault((node, band), []).append(key)
    for node, involved in per_node.items():
        lp.add_constraint({key: 1.0 for key in involved}, LE, float(radios[node]))
    for (node, band), involved in per_node_band.items():
        if radios[node] > 1 and len(involved) > 1:
            lp.add_constraint({key: 1.0 for key in involved}, LE, 1.0)


def sequential_fix_lp(weights, radios):
    """The keyed SF relaxation with no fixings."""
    keys = sorted(weights)
    lp = KeyedLP()
    for key in keys:
        lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
    _radio_constraints(lp, keys, radios)
    return lp


def sequential_fix_sinr_lp(weights, radios, model, observation, gains):
    """The keyed SF relaxation with big-M SINR rows, no fixings."""
    keys = sorted(weights)
    params = model.params
    lp = KeyedLP()
    for key in keys:
        lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
    for key in keys:
        lp.add_variable(("P", key), lower=0.0, upper=model.max_power_w[key[0]])
    _radio_constraints(lp, keys, radios)
    by_band = {}
    for key in keys:
        by_band.setdefault(key[2], []).append(key)
    for band, members in by_band.items():
        noise = model.noise_power_w(observation.bands.bandwidth(band))
        for key in members:
            tx, rx, _ = key
            big_m = big_m_coefficient(
                gains, tx, rx, noise, params.sinr_threshold, model.max_power_w
            )
            coeffs = {("P", key): gains[tx, rx], key: -big_m}
            for other in members:
                if other == key or other[0] in (tx, rx):
                    continue
                coeffs[("P", other)] = -params.sinr_threshold * gains[other[0], rx]
            lp.add_constraint(
                {("P", key): 1.0, key: -model.max_power_w[tx]}, LE, 0.0
            )
            lp.add_constraint(coeffs, GE, params.sinr_threshold * noise - big_m)
    return lp
