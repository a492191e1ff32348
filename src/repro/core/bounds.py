"""Optimality bounds on ``psi*_P1`` (Theorems 4 and 5).

* **Upper bound** — the time-averaged energy cost ``psi_P3`` achieved
  by the decomposition controller itself (Theorem 4).
* **Lower bound** — ``psi*_P3bar - B/V`` (Theorem 5), where ``P3bar``
  relaxes P3: binary activations become ``[0, 1]``, the single-source
  constraint (19) and the charge-xor-discharge constraint (9) are
  dropped, and each slot's drift-plus-penalty is minimised *exactly*
  as one joint linear program.

The LP linearises the two non-linear pieces conservatively so the
bound stays valid:

* the convex cost ``f(P)`` enters through its epigraph supported by
  tangent lines (an under-approximation of a convex function);
* transmit powers are lower-bounded by their zero-interference minima
  ``Gamma eta W / g_ij`` (under-approximating energy demand).

Both substitutions can only *decrease* the LP optimum, preserving
``LP <= psi-hat*_P3bar`` and hence the final lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

import numpy as np
from scipy import sparse

from repro.axes import AnyArray, LinkBandMat, LinkIds, LinkVec, NodeJoules

from repro.control.decisions import (
    AdmissionDecision,
    BatchAllocation,
    EnergyManagementDecision,
    RoutingDecision,
    ScheduleDecision,
    SlotDecision,
    SlotObservation,
)
from repro.core.arraystate import seq_sum
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.solvers.linprog import LinearProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.state import NetworkState


@dataclass(frozen=True)
class BoundReport:
    """Paired bounds on ``psi*_P1`` for one configuration.

    Attributes:
        control_v: the Lyapunov weight the bounds were computed for.
        upper: achieved time-averaged cost of the controller (Thm. 4).
        lower: ``psi*_P3bar - B/V`` (Thm. 5).
        relaxed_penalty: the time-averaged relaxed penalty
            ``avg[f(P) - lambda sum_s k_s]`` before subtracting B/V.
        drift_b: the Eq. (34) constant used.
    """

    control_v: float
    upper: float
    lower: float
    relaxed_penalty: float
    drift_b: float

    @property
    def gap(self) -> float:
        """Absolute bound gap (upper - lower)."""
        return self.upper - self.lower


def lower_bound_cost(
    relaxed_penalty_avg: float, drift_b: float, control_v: float
) -> float:
    """Theorem 5: ``psi*_P1 >= psi*_P3bar - B/V``."""
    if control_v <= 0:
        raise ValueError(f"V must be positive for the bound, got {control_v}")
    return relaxed_penalty_avg - drift_b / control_v


class _Layout(NamedTuple):
    """Column blocks of one slot's P3bar (see ``_build_lp``).

    Attributes:
        a_link / a_band / a_service: ``(A,)`` link position, band and
            packets per activation column.
        links: link positions with at least one activation column,
            ascending.
        l_pos / l_col: ``(R,)`` link position and session column per
            routing column.
        k_start: first admission column (``S x B``, session-major).
        node_start: first per-node column; seven per node, interleaved
            ``r, cr, g, cg, d, slack, w``.  ``P`` and ``phi`` close.
    """

    a_link: LinkIds
    a_band: AnyArray
    a_service: AnyArray
    links: LinkIds
    l_pos: LinkIds
    l_col: AnyArray
    k_start: int
    node_start: int


#: Per-node columns of P3bar, in their interleaved order.
_NODE_COLS = ("r", "cr", "g", "cg", "d", "slack", "w")
#: Per-node ``<=`` rows: renewable, charge cap, grid cap, 9 tangents.
_NODE_UB_ROWS = 12


class RelaxedLpController:
    """Per-slot exact solver of the relaxed problem ``P3bar``.

    Presents the same ``decide(observation, state)`` interface as the
    integral controller so the simulation engine can run either; the
    engine must apply its decisions with
    ``enforce_complementarity=False`` (constraint (9) is relaxed).
    """

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        num_cost_segments: int = 24,
    ) -> None:
        """Freeze the per-node and per-session tables of the LP.

        Cold path: runs once per simulation, before the slot loop.
        """
        if num_cost_segments < 1:
            raise ValueError(
                f"need at least one tangent segment, got {num_cost_segments}"
            )
        self._model = model
        self._constants = constants
        self._segments = num_cost_segments
        #: f(P(t)) - lambda*sum(k) of the most recent slot, for bounds.
        self.last_penalty: float = 0.0
        #: ``(N,)`` demand slack of the most recent slot (J), mirroring
        #: the integral controller's deficit accounting: slack above
        #: 1e-9 J, and exactly 0.0 elsewhere.
        self.last_deficit_j: NodeJoules = np.zeros(model.num_nodes)

        dt = model.params.slot_seconds
        bs, user = model.params.bs_node, model.params.user_node
        self._radios = model.node_vector(bs.num_radios, user.num_radios)
        self._recv_power = model.node_vector(bs.recv_power_w, user.recv_power_w)
        self._fixed_energy_j = model.node_vector(
            bs.fixed_energy_j(dt), user.fixed_energy_j(dt)
        )
        self._max_power = model.max_power_w
        self._bs = np.asarray(model.bs_ids, dtype=np.intp)
        sessions = model.sessions
        self._dest = model.destination_rows
        self._k_max = model.k_max_rows
        # v_s(t) depends on t only through t mod the session's period,
        # so one period of each profile is tabulated here.
        self._periods = np.array([s.period_slots for s in sessions], dtype=np.intp)
        self._demand = np.zeros((len(sessions), int(self._periods.max(initial=1))))
        for row, session in enumerate(sessions):
            for phase in range(session.period_slots):
                self._demand[row, phase] = float(session.demand(phase))

    # -- LP construction -------------------------------------------------

    def _min_power_w(
        self, observation: SlotObservation, link_gain: LinkVec
    ) -> LinkBandMat:
        """``(L, M)`` zero-interference minimal powers ``Gamma eta W_m / g``."""
        noise = observation.band_noise_w(self._model)
        threshold = self._model.params.sinr_threshold
        return (threshold * noise)[None, :] / link_gain[:, None]

    def _build_lp(
        self, observation: SlotObservation, state: NetworkState
    ) -> Tuple[LinearProgram, _Layout]:
        """Assemble the slot's P3bar as sparse COO blocks.

        Columns: activations ``a`` (link-major, then ascending band —
        the common-band frozenset order the pinned runs were recorded
        in, as long as every band id is below 8; all pinned scenarios
        and workloads have M = 5), routing
        ``l`` (link-major, then session, skipping links out of the
        session's destination), admissions ``k`` (session-major, then
        base station), seven per-node energy columns, then ``P`` and
        ``phi``.  ``<=`` rows: radio budgets per node, link capacities,
        admission caps per session, twelve rows per node (renewable,
        charge cap, grid cap, nine drift tangents), then the cost
        tangents; ``>=`` rows enter negated.  ``==`` rows: session
        demands, per-node energy balances, total draw.
        """
        model = self._model
        params = model.params
        constants = self._constants
        arrays = state.arrays
        dt = params.slot_seconds
        num_nodes = model.num_nodes
        link_tx, link_rx = arrays.link_tx, arrays.link_rx
        h = state.h_backlogs()
        q = arrays.q
        dest = self._dest
        bs = self._bs
        num_sessions, num_bs = dest.shape[0], bs.shape[0]

        # Activation columns with their Psi-hat_1 coefficients: every
        # usable band whose zero-interference power fits the cap.
        gains = observation.pair_gains(model)
        power = self._min_power_w(observation, gains.pairs(link_tx, link_rx))
        keep = observation.link_band_member(model) & (
            power <= self._max_power[link_tx][:, None]
        )
        a_link, a_band = np.nonzero(keep)
        a_tx, a_rx = link_tx[a_link], link_rx[a_link]
        a_service = observation.band_service_pkts(model)[a_band]
        a_cost = -constants.beta * h[a_link] * a_service
        num_a = a_link.shape[0]
        a_cols = np.arange(num_a)

        # Routing columns on links with an activation column, for every
        # session whose destination is not the transmitter (17).
        links = np.unique(a_link)
        eligible = link_tx[links][:, None] != dest[None, :]
        l_row, l_col = np.nonzero(eligible)
        l_pos = links[l_row]
        l_rx = link_rx[l_pos]
        q_rx = np.where(l_rx == dest[l_col], 0.0, q[l_rx, l_col])
        l_cost = (-q[link_tx[l_pos], l_col] + q_rx) + constants.beta * h[l_pos]
        num_l = l_pos.shape[0]
        l_start = num_a
        k_start = l_start + num_l
        node_start = k_start + num_sessions * num_bs
        p_col = node_start + len(_NODE_COLS) * num_nodes
        phi_col = p_col + 1

        # Per-node energy columns (the d variable is *delivered*
        # discharge; the battery level drops by 1/eta_d of it).
        z = arrays.z_values_array()
        eta_c, eta_d = arrays.charge_efficiency, arrays.discharge_efficiency
        renewable = observation.renewable_j
        grid_cap = np.where(observation.grid_connected, arrays.grid_cap_j, 0.0)
        max_charge = arrays.max_charge_j_array()
        node_cost = np.zeros((num_nodes, len(_NODE_COLS)))
        node_cost[:, 1] = node_cost[:, 3] = z * eta_c
        node_cost[:, 4] = -z / eta_d
        node_cost[:, 6] = 1.0
        node_upper = np.full((num_nodes, len(_NODE_COLS)), np.inf)
        node_upper[:, 0] = node_upper[:, 1] = renewable
        node_upper[:, 2] = node_upper[:, 3] = grid_cap
        node_upper[:, 4] = arrays.max_deliverable_j_array()
        node_col = node_start + len(_NODE_COLS) * np.arange(num_nodes)

        threshold = params.admission_lambda * params.control_v
        p_cap = model.total_grid_cap_j()
        cost = np.concatenate(
            (
                a_cost,
                l_cost,
                (q[bs].T - threshold).ravel(),
                node_cost.ravel(),
                [0.0, params.control_v],
            )
        )
        upper = np.concatenate(
            (
                np.ones(num_a),
                np.full(num_l, np.inf),
                np.repeat(self._k_max, num_bs),
                node_upper.ravel(),
                [p_cap, np.inf],
            )
        )
        bounds = np.stack((np.zeros(upper.shape[0]), upper), axis=1)

        ub = _Rows()
        # Radio constraint (22), relaxed; the budget is the node's
        # radio count (1 in the paper — a tighter rhs would invalidate
        # the lower bound for multi-radio scenarios).
        used = np.zeros(num_nodes, dtype=bool)
        used[a_tx] = used[a_rx] = True
        node_row = np.cumsum(used) - 1
        ub.add(node_row[a_tx], a_cols, 1.0)
        ub.add(node_row[a_rx], a_cols, 1.0)
        ub.close(self._radios[used])

        # Link-capacity constraint (25) on links that carry a session.
        has_l = eligible.any(axis=1)
        cap_row = np.cumsum(has_l) - 1
        a_li = np.searchsorted(links, a_link)
        on_cap = has_l[a_li]
        ub.add(cap_row[a_li][on_cap], a_cols[on_cap], -a_service[on_cap])
        ub.add(cap_row[l_row], l_start + np.arange(num_l), 1.0)
        ub.close(np.zeros(int(has_l.sum())))

        # Relaxed admission: per-BS k_{s,b} with total cap K_max; the
        # Psi-hat_2 coefficient is (Q_b^s - lambda V).
        ub.add(
            np.repeat(np.arange(num_sessions), num_bs),
            k_start + np.arange(num_sessions * num_bs),
            1.0,
        )
        ub.close(self._k_max)

        # Per node: renewable, charge and grid caps, then the epigraph
        # of the exact quadratic battery-drift term (net^2 / 2, net =
        # eta_c (cr + cg) - d / eta_d) supported by 9 tangents
        # w >= point * net - point^2 / 2 — an under-approximation, so
        # the lower bound stays valid while matching the integral
        # controller's objective.
        net_lo = -np.minimum(arrays.discharge_cap_j, arrays.battery_level)
        net_hi = eta_c * max_charge
        span = np.maximum(net_hi - net_lo, 1.0)
        points = net_lo[:, None] + span[:, None] * np.arange(9.0)[None, :] / 8
        node_rows = _NODE_UB_ROWS * np.arange(num_nodes)
        for row, cols in ((0, (0, 1)), (1, (1, 3)), (2, (2, 3))):
            for col in cols:
                ub.add(node_rows + row, node_col + col, 1.0)
        tangent_rows = (node_rows[:, None] + 3 + np.arange(9)[None, :]).ravel()
        tangent_cols = np.repeat(node_col, 9)
        # The tangents are ">=" rows, negated into "<=" form.
        ub.add(tangent_rows, tangent_cols + 6, -1.0)
        ub.add(tangent_rows, tangent_cols + 1, (points * eta_c[:, None]).ravel())
        ub.add(tangent_rows, tangent_cols + 3, (points * eta_c[:, None]).ravel())
        ub.add(tangent_rows, tangent_cols + 4, (-points / eta_d[:, None]).ravel())
        node_rhs = np.empty((num_nodes, _NODE_UB_ROWS))
        node_rhs[:, 0] = renewable
        node_rhs[:, 1] = max_charge
        node_rhs[:, 2] = grid_cap
        node_rhs[:, 3:] = -(-0.5 * points * points)
        ub.close(node_rhs.ravel())

        # Total draw P and the epigraph of V * f(P), negated ">=" rows.
        slot_cost = model.cost_at(observation.slot)
        slopes, intercepts = [], []
        for k in range(self._segments + 1):
            point = p_cap * k / self._segments
            slope = slot_cost.derivative(point)
            slopes.append(slope)
            intercepts.append(slot_cost.value(point) - slope * point)
        tangents = np.arange(self._segments + 1)
        ub.add(tangents, phi_col, -1.0)
        ub.add(tangents, p_col, np.array(slopes))
        ub.close(-np.array(intercepts))

        eq = _Rows()
        # Demand-satisfaction equality (18) per session with an in-link
        # into its destination.  Constraint (16) — no incoming traffic
        # at the source — is dropped: the relaxed source assignment is
        # fractional, so there is no single node to apply it to.
        # Dropping a constraint enlarges the feasible set and can only
        # lower the LP optimum, which keeps the final lower bound valid.
        into_dest = l_rx == dest[l_col]
        has_demand = np.zeros(num_sessions, dtype=bool)
        has_demand[l_col[into_dest]] = True
        demand_row = np.cumsum(has_demand) - 1
        eq.add(
            demand_row[l_col[into_dest]],
            l_start + np.flatnonzero(into_dest),
            1.0,
        )
        slot = observation.slot
        demand = self._demand[np.arange(num_sessions), slot % self._periods]
        eq.close(demand[has_demand])

        # Demand balance: g + r + d + slack - (tx/rx energy) = fixed.
        nodes = np.arange(num_nodes)
        for col in (2, 0, 4, 5):
            eq.add(nodes, node_col + col, 1.0)
        eq.add(a_tx, a_cols, -(power[a_link, a_band] * dt))
        eq.add(a_rx, a_cols, -(self._recv_power[a_rx] * dt))
        eq.close(self._fixed_energy_j)

        eq.add(0, node_col[bs] + 2, 1.0)
        eq.add(0, node_col[bs] + 3, 1.0)
        eq.add(0, p_col, -1.0)
        eq.close(np.zeros(1))

        num_cols = cost.shape[0]
        lp = LinearProgram(
            cost, bounds, *ub.matrix(num_cols), *eq.matrix(num_cols)
        )
        layout = _Layout(
            a_link=a_link,
            a_band=a_band,
            a_service=a_service,
            links=links,
            l_pos=l_pos,
            l_col=l_col,
            k_start=k_start,
            node_start=node_start,
        )
        return lp, layout

    # -- decision extraction --------------------------------------------

    def _extract(
        self,
        x: AnyArray,
        observation: SlotObservation,
        state: NetworkState,
        layout: _Layout,
    ) -> SlotDecision:
        model = self._model
        arrays = state.arrays
        num_a, num_l = layout.a_link.shape[0], layout.l_pos.shape[0]

        # Fractional service only: the bound schedules no transmissions.
        # Each link's bands are summed in band order, as the LP lists
        # them (adding the 0.0 of an absent band is exact).
        alpha = x[:num_a]
        per_band = np.zeros((layout.links.shape[0], model.spectrum.num_bands))
        per_band[np.searchsorted(layout.links, layout.a_link), layout.a_band] = (
            np.where(alpha > 1e-9, layout.a_service * alpha, 0.0)
        )
        service = np.zeros(layout.links.shape[0])
        for band in range(per_band.shape[1]):
            service = service + per_band[:, band]
        served = service > 0
        schedule = ScheduleDecision(
            service_pos=layout.links[served],
            service_pkts=service[served],
            link_tx=arrays.link_tx,
            link_rx=arrays.link_rx,
        )

        # Routed entries in LP column order; no (link, session) repeats.
        flows = x[num_a : num_a + num_l]
        routed = flows > 1e-9
        routing = RoutingDecision(
            link_pos=layout.l_pos[routed],
            session_col=layout.l_col[routed],
            pkts=flows[routed],
            link_tx=arrays.link_tx,
            link_rx=arrays.link_rx,
        )

        # Per-session admissions split across base stations; the source
        # is the base station admitting most (the first on ties).
        bs = self._bs
        amounts = x[layout.k_start : layout.node_start].reshape(-1, bs.shape[0])
        admits = amounts > 1e-9
        counts = admits.sum(axis=1)
        total = np.zeros(amounts.shape[0])
        for col in range(bs.shape[0]):
            total = total + np.where(admits[:, col], amounts[:, col], 0.0)
        admitted = total.astype(object)
        admitted[counts == 0] = 0  # nothing admitted reads 0, as in S2
        source_rows = bs[np.where(admits, amounts, -np.inf).argmax(axis=1)]
        rows, cols = np.nonzero(admits)
        pairs = np.fromiter(
            zip(bs[cols].tolist(), amounts[rows, cols].tolist()),
            dtype=object,
            count=rows.shape[0],
        )
        sessions = range(source_rows.shape[0])  # session ids are Q columns
        admission = AdmissionDecision(
            sources=dict(zip(sessions, source_rows.tolist())),
            admitted=dict(zip(sessions, admitted.tolist())),
            source_rows=source_rows,
            split=dict(
                zip(sessions, map(tuple, np.split(pairs, np.cumsum(counts)[:-1])))
            ),
        )

        node_end = layout.node_start + len(_NODE_COLS) * model.num_nodes
        node_x = x[layout.node_start : node_end].reshape(-1, len(_NODE_COLS))
        r, cr, g, cg, d, slack, _ = node_x.T.copy()
        allocation = BatchAllocation(
            renewable_serve_j=r,
            renewable_charge_j=cr,
            grid_serve_j=g,
            grid_charge_j=cg,
            discharge_j=d,
            spill_j=np.maximum(0.0, observation.renewable_j - r - cr),
        )
        total_draw = seq_sum(allocation.grid_draw_j[np.sort(bs)])
        energy = EnergyManagementDecision(
            allocation=allocation,
            bs_grid_draw_j=total_draw,
            cost=model.cost_at(observation.slot).value(total_draw),
        )
        self.last_deficit_j = np.where(slack > 1e-9, slack, 0.0)
        return SlotDecision(
            schedule=schedule,
            admission=admission,
            routing=routing,
            energy=energy,
        )

    def decide(
        self, observation: SlotObservation, state: NetworkState
    ) -> SlotDecision:
        """Solve the slot's relaxed LP exactly and extract the decision."""
        lp, layout = self._build_lp(observation, state)
        decision = self._extract(lp.solve().x, observation, state, layout)
        lam = self._model.params.admission_lambda
        self.last_penalty = (
            decision.energy.cost - lam * decision.admission.total_admitted()
        )
        return decision


class _Rows:
    """COO entries of one row block, appended a row group at a time.

    ``add`` takes the entries of the current group with group-relative
    rows; ``close`` ends the group with its right-hand sides, so the
    next group's rows start after it.
    """

    def __init__(self) -> None:
        self._rows: List[AnyArray] = []
        self._cols: List[AnyArray] = []
        self._vals: List[AnyArray] = []
        self._rhs: List[AnyArray] = []
        self._offset = 0

    def add(self, rows: object, cols: object, vals: object) -> None:
        """Entries ``(rows, cols) = vals`` of the open group (broadcast)."""
        rows_b, cols_b, vals_b = np.broadcast_arrays(rows, cols, vals)
        self._rows.append(self._offset + rows_b.ravel())
        self._cols.append(cols_b.ravel())
        self._vals.append(vals_b.ravel().astype(np.float64))

    def close(self, rhs: AnyArray) -> None:
        """End the open group; ``rhs`` holds one bound per row."""
        self._rhs.append(np.asarray(rhs, dtype=np.float64))
        self._offset += self._rhs[-1].shape[0]

    def matrix(self, num_cols: int) -> Tuple[sparse.coo_matrix, AnyArray]:
        """The block as a sparse matrix and its right-hand sides."""
        matrix = sparse.coo_matrix(
            (
                np.concatenate(self._vals),
                (np.concatenate(self._rows), np.concatenate(self._cols)),
            ),
            shape=(self._offset, num_cols),
        )
        return matrix, np.concatenate(self._rhs)
