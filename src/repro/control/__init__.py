"""Control plane: the four per-slot subproblems and their orchestrator."""

from repro.control.decisions import (
    AdmissionDecision,
    BatchAllocation,
    EnergyManagementDecision,
    RoutingDecision,
    ScheduleDecision,
    SlotDecision,
    SlotObservation,
)
from repro.control.scheduler import LinkScheduler
from repro.control.admission import ResourceAllocator
from repro.control.router import BackpressureRouter
from repro.control.energy_manager import EnergyManager
from repro.control.controller import DriftPlusPenaltyController

__all__ = [
    "AdmissionDecision",
    "BatchAllocation",
    "EnergyManagementDecision",
    "RoutingDecision",
    "ScheduleDecision",
    "SlotDecision",
    "SlotObservation",
    "LinkScheduler",
    "ResourceAllocator",
    "BackpressureRouter",
    "EnergyManager",
    "DriftPlusPenaltyController",
]
