"""The assembled network model: everything static about a scenario.

``NetworkModel`` bundles the validated parameters, topology, spectrum
model, sessions, and cost function, plus the derived Lyapunov constants
(``beta``, ``gamma_max``, ``B``) that the controller and the bound
computations share.  Build one with :func:`build_network_model`; the
simulator, controller, and experiment drivers all consume it.

Nodes are rows: the network is ``N = B ∪ U``, two node classes with one
parameter set each, and base stations hold rows ``0..B-1``.  A per-node
constant is an ``(N,)`` vector built from the two class values by
:meth:`NetworkModel.node_vector`; there is no per-node object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.axes import AnyArray, LinkBandMat, NodeBandMat, NodeVec, SessionToNode
from repro.config import ScenarioParameters, validate_parameters
from repro.energy.cost import QuadraticCost, TimeOfUseCost
from repro.network.geometry import node_positions
from repro.network.session import Session, build_sessions
from repro.network.spectrum import SpectrumModel, build_spectrum_model
from repro.network.topology import Topology, build_topology
from repro.types import NodeId


@dataclass
class NetworkModel:
    """Static model of one scenario (no per-slot state).

    Attributes:
        params: the validated scenario parameters.
        topology: node positions, candidate links and pair gains.
        spectrum: bands, access sets, bandwidth process.
        sessions: downlink sessions.
        cost: the provider's generation-cost function ``f``.
    """

    params: ScenarioParameters
    topology: Topology
    spectrum: SpectrumModel
    sessions: Tuple[Session, ...]
    cost: QuadraticCost
    #: Optional time-of-use schedule wrapping ``cost``.
    cost_schedule: Optional[TimeOfUseCost] = None

    def cost_at(self, slot: int) -> QuadraticCost:
        """The generation cost function in force during ``slot``."""
        if self.cost_schedule is None:
            return self.cost
        return self.cost_schedule.at_slot(slot)

    def max_marginal_cost(self) -> float:
        """``gamma_max``: the worst marginal cost over slots and draws."""
        cap = self.total_grid_cap_j()
        if self.cost_schedule is None:
            return self.cost.max_derivative(cap)
        return self.cost_schedule.max_derivative(cap)

    @property
    def num_nodes(self) -> int:
        """Total node count ``N``."""
        return self.topology.num_nodes

    @property
    def positions(self) -> AnyArray:
        """``(N, 2)`` node coordinates (m): the topology's buffer."""
        return self.topology.positions

    def node_vector(
        self, bs_value: object, user_value: object, dtype: type = float
    ) -> NodeVec:
        """``(N,)`` per-node constant: ``bs_value`` on the base-station
        rows ``0..B-1``, ``user_value`` on the user rows."""
        num_bs = self.params.num_base_stations
        values = np.empty(self.num_nodes, dtype=dtype)
        values[:num_bs] = bs_value
        values[num_bs:] = user_value
        return values

    @cached_property
    def max_power_w(self) -> NodeVec:
        """``(N,)`` transmit power caps (W), for power control."""
        return self.node_vector(
            self.params.bs_node.max_tx_power_w, self.params.user_node.max_tx_power_w
        )

    @property
    def bs_ids(self) -> Tuple[NodeId, ...]:
        """Base-station ids."""
        return tuple(self.params.base_station_ids())

    @property
    def user_ids(self) -> Tuple[NodeId, ...]:
        """Mobile-user ids."""
        return tuple(self.params.user_ids())

    @property
    def band_access(self) -> NodeBandMat:
        """``(N, M)`` bool table of the static access sets ``M_i``.

        The spectrum model's own table, shared by S1, S3 and the
        Lyapunov constants; the sets are drawn at construction and
        never change (dynamic availability arrives per slot instead).
        """
        return self.spectrum.band_access

    @cached_property
    def link_band_member(self) -> LinkBandMat:
        """``(L, M)`` bool form of the common-band sets ``M_i ∩ M_j``.

        Cold path: built once over the frozen link index by indexing
        :attr:`band_access` with the link endpoints.
        """
        link_tx, link_rx = self.topology.link_tx, self.topology.link_rx
        return self.band_access[link_tx] & self.band_access[link_rx]

    @cached_property
    def destination_rows(self) -> SessionToNode:
        """``(S,)`` destination node per session, in ``Q`` column order.

        Cold path: built once; roles never change mid-run.
        """
        return np.fromiter(
            (s.destination for s in self.sessions),
            dtype=np.intp,
            count=len(self.sessions),
        )

    def total_grid_cap_j(self) -> float:
        """Aggregate base-station grid draw cap (bounds ``P(t)``).

        Summed station by station, which is not always ``B * cap``.
        """
        params = self.params
        return sum([params.bs_energy.grid_cap_j] * params.num_base_stations)

    def noise_power_w(self, bandwidth_hz: float) -> float:
        """Thermal-noise power ``eta * W`` for a band realisation."""
        return self.params.noise_density_w_per_hz * bandwidth_hz

    def session_destinations(self) -> Dict[int, NodeId]:
        """Session id -> destination node id."""
        return {s.session_id: s.destination for s in self.sessions}  # noqa: R040 - S-sized dict (S stays O(10)); the engine builds it once at construction and caches it


def build_network_model(
    params: ScenarioParameters, rng: np.random.Generator
) -> NetworkModel:
    """Validate ``params`` and assemble the full static model.

    The passed ``rng`` drives node placement, spectrum access draws and
    session destinations; stream separation for the per-slot processes
    is handled by the simulator's RNG manager.
    """
    validate_parameters(params)
    topology = build_topology(params, node_positions(params, rng))
    spectrum = build_spectrum_model(params, rng)
    sessions = build_sessions(params, rng, positions=topology.positions)
    cost = QuadraticCost.from_unit_coefficients(
        params.cost_a, params.cost_b, params.cost_c, params.cost_energy_unit_j
    )
    schedule = None
    if params.tou_multipliers is not None:
        schedule = TimeOfUseCost(cost, params.tou_multipliers)
    return NetworkModel(
        params=params,
        topology=topology,
        spectrum=spectrum,
        sessions=tuple(sessions),
        cost=cost,
        cost_schedule=schedule,
    )
