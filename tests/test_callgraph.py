"""Call-graph construction: resolution and hot-cone reachability.

The graph is the substrate the hot-path rules stand on, so these tests pin the resolution cases the
builder promises: free functions through imports, methods through
``self`` and annotated parameters, constructor-initialized attributes,
module aliases, and the name-based fallback that bridges factory
indirection.  They also pin the hot-cone reachability query.
"""

from __future__ import annotations

import textwrap
from typing import Dict

from repro.analysis.callgraph import (
    FALLBACK_EXCLUDED_METHODS,
    Program,
    module_name_for,
)
from repro.lint.cli import parse_paths


def _program(sources: Dict[str, str]) -> Program:
    return Program.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name_for("src/repro/control/router.py") == (
            "repro.control.router"
        )

    def test_package_init(self):
        assert module_name_for("src/repro/control/__init__.py") == (
            "repro.control"
        )

    def test_last_repro_component_wins(self):
        assert module_name_for("/tmp/x/repro/phy/sinr.py") == "repro.phy.sinr"


class TestResolution:
    def test_imported_free_function_edge(self):
        program = _program(
            {
                "src/repro/a.py": """
                def helper() -> int:
                    return 1
                """,
                "src/repro/b.py": """
                from repro.a import helper

                def caller() -> int:
                    return helper()
                """,
            }
        )
        assert "repro.a.helper" in program.callgraph.callees("repro.b.caller")

    def test_module_alias_call_edge(self):
        program = _program(
            {
                "src/repro/a.py": """
                def helper() -> int:
                    return 1
                """,
                "src/repro/b.py": """
                from repro import a

                def caller() -> int:
                    return a.helper()
                """,
            }
        )
        assert "repro.a.helper" in program.callgraph.callees("repro.b.caller")

    def test_self_method_edge(self):
        program = _program(
            {
                "src/repro/c.py": """
                class Widget:
                    def outer(self) -> int:
                        return self.inner()

                    def inner(self) -> int:
                        return 2
                """
            }
        )
        assert "repro.c.Widget.inner" in program.callgraph.callees(
            "repro.c.Widget.outer"
        )

    def test_constructor_attribute_edge(self):
        program = _program(
            {
                "src/repro/d.py": """
                class Engine:
                    def spin(self) -> int:
                        return 3
                """,
                "src/repro/e.py": """
                from repro.d import Engine

                class Car:
                    def __init__(self) -> None:
                        self.engine = Engine()

                    def drive(self) -> int:
                        return self.engine.spin()
                """,
            }
        )
        assert "repro.d.Engine.spin" in program.callgraph.callees(
            "repro.e.Car.drive"
        )

    def test_annotated_parameter_method_edge(self):
        program = _program(
            {
                "src/repro/f.py": """
                class Pump:
                    def push(self) -> int:
                        return 4

                def use(pump: Pump) -> int:
                    return pump.push()
                """
            }
        )
        assert "repro.f.Pump.push" in program.callgraph.callees("repro.f.use")

    def test_fallback_name_edge_bridges_indirection(self):
        # The receiver's type is opaque, so the edge falls back to
        # every function of the same name.
        program = _program(
            {
                "src/repro/g.py": """
                class Controller:
                    def decide(self) -> int:
                        return 5
                """,
                "src/repro/h.py": """
                def drive(controller) -> int:
                    return controller.decide()
                """,
            }
        )
        assert "repro.g.Controller.decide" in program.callgraph.callees(
            "repro.h.drive"
        )

    def test_fallback_excludes_protocol_names(self):
        assert "get" in FALLBACK_EXCLUDED_METHODS
        program = _program(
            {
                "src/repro/i.py": """
                class Store:
                    def get(self, key):
                        return key
                """,
                "src/repro/j.py": """
                def read(table: dict):
                    return table.get("k")
                """,
            }
        )
        assert "repro.i.Store.get" not in program.callgraph.callees(
            "repro.j.read"
        )


class TestReachability:
    def test_hot_cone_follows_the_chain(self):
        program = _program(
            {
                "src/repro/sim/engine.py": """
                from repro.control.mini import decide

                class SlotSimulator:
                    def step(self) -> int:
                        return decide()
                """,
                "src/repro/control/mini.py": """
                def decide() -> int:
                    return helper()

                def helper() -> int:
                    return 6

                def unreached() -> int:
                    return 7
                """,
            }
        )
        hot = program.hot_functions()
        assert "repro.control.mini.decide" in hot
        assert "repro.control.mini.helper" in hot
        assert "repro.control.mini.unreached" not in hot

    def test_syntax_error_becomes_parse_finding(self):
        program = _program({"src/repro/broken.py": "def f(:\n"})
        assert [f.rule_id for f in program.parse_findings] == ["E999"]


class TestRealTree:
    def test_engine_step_reaches_control_and_phy(self):
        files, errors = parse_paths(["src/repro"])
        assert errors == []
        program = Program(files)
        hot = program.hot_functions()
        for expected in (
            "repro.control.controller.DriftPlusPenaltyController.decide",
            "repro.control.router.BackpressureRouter.route",
            "repro.control.scheduler.big_m_coefficient",
            "repro.phy.power_control.minimal_power_assignment_vec",
        ):
            assert expected in hot
