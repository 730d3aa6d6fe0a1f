"""Tests for the ServerProfile registry and the declarative experiment engine.

The key property under test is pluggability: a brand-new "sixth server" —
defined entirely inside this test module — registers a profile and runs
through every engine workload shape with zero edits to any harness module.
"""

import pytest

from repro.harness.engine import ENGINE, ExperimentEngine, ScenarioSpec, SecurityCell
from repro.harness.stability import run_stability_experiment
from repro.servers import SERVER_CLASSES
from repro.servers.base import Request, Response, Server, ServerError
from repro.servers.profile import (
    PROFILES,
    ServerProfile,
    get_profile,
    profile_names,
    register_profile,
    unregister_profile,
)


# ---------------------------------------------------------------------------
# The toy sixth server: a tiny key-value store with no memory errors at all.
# ---------------------------------------------------------------------------


class ToyKvServer(Server):
    """A sixth server the harness has never heard of."""

    name = "toy-kv"

    def startup(self) -> None:
        self.store = dict(self.config.get("initial", {}))

    def handle(self, request: Request) -> Response:
        if request.kind == "put":
            self.store[request.payload["key"]] = request.payload["value"]
            return Response.ok(detail="stored")
        if request.kind == "get":
            key = request.payload["key"]
            if key not in self.store:
                raise ServerError(f"no such key {key!r}")
            return Response.ok(body=self.store[key])
        raise ServerError(f"unknown request kind {request.kind!r}")


def _toy_request(kind: str, index: int) -> Request:
    if kind == "put":
        return Request(kind="put", payload={"key": f"k{index}", "value": b"v"})
    return Request(kind="get", payload={"key": "seed"})


def _toy_profile(name: str = "toy-kv") -> ServerProfile:
    return ServerProfile(
        name=name,
        server_cls=ToyKvServer,
        figure_rows=("get", "put"),
        benchmark_config=lambda scale: {"initial": {"seed": b"x" * max(int(8 * scale), 1)}},
        request_factory=_toy_request,
        # The "attack" is an anticipated error: the server rejects it and
        # keeps serving, so every build survives it.
        attack_request=lambda: Request(
            kind="get", payload={"key": "missing"}, is_attack=True
        ),
        follow_ups=lambda: [Request(kind="get", payload={"key": "seed"})],
        description="toy sixth server used by the engine tests",
    )


@pytest.fixture
def toy_profile():
    profile = register_profile(_toy_profile())
    yield profile
    unregister_profile(profile.name)


class TestRegistryRoundTrip:
    def test_register_get_unregister(self):
        profile = _toy_profile("toy-roundtrip")
        assert "toy-roundtrip" not in profile_names()
        register_profile(profile)
        try:
            assert get_profile("toy-roundtrip") is profile
            assert "toy-roundtrip" in profile_names()
            assert PROFILES["toy-roundtrip"] is profile
        finally:
            removed = unregister_profile("toy-roundtrip")
        assert removed is profile
        assert "toy-roundtrip" not in profile_names()
        with pytest.raises(KeyError):
            get_profile("toy-roundtrip")

    def test_every_paper_server_has_a_profile(self):
        for server_name, server_cls in SERVER_CLASSES.items():
            profile = get_profile(server_name)
            assert profile.server_cls is server_cls
            assert profile.figure_rows
            assert profile.attack_request is not None
            assert profile.make_follow_ups()

    def test_registration_does_not_widen_the_paper_scope(self, toy_profile):
        # SERVER_CLASSES (and the default security matrix scope) stay at the
        # paper's five servers even while a plugin profile is registered.
        assert toy_profile.name not in SERVER_CLASSES
        cells = ENGINE.run_security_matrix(policies=("failure-oblivious",), scale=0.1)
        assert {cell.server for cell in cells} == set(SERVER_CLASSES)

    def test_unknown_profile_error_names_the_known_servers(self):
        with pytest.raises(KeyError, match="pine"):
            get_profile("nginx")


class TestEngineDispatch:
    def test_engine_shapes_are_performance_and_attack(self):
        assert ENGINE.workload_names() == ["attack", "performance"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="performance"):
            ENGINE.run(ScenarioSpec(server="pine", workload="chaos"))

    def test_workload_registration(self, toy_profile):
        engine = ExperimentEngine()
        engine.register_workload(
            "boot-only",
            lambda eng, spec: eng.build_server(spec.server, spec.policy).start(),
        )
        assert "boot-only" in engine.workload_names()
        boot = engine.run(ScenarioSpec(server=toy_profile.name, workload="boot-only"))
        assert not boot.fatal

    def test_spec_with_replaces_fields(self):
        spec = ScenarioSpec(server="pine")
        attack = spec.with_(workload="attack", scale=0.1)
        assert attack.server == "pine" and attack.workload == "attack"
        assert spec.workload == "performance"  # original untouched

    def test_performance_stops_measured_servers(self, monkeypatch):
        stopped = []
        original_stop = Server.stop

        def tracking_stop(self):
            stopped.append(self)
            original_stop(self)

        monkeypatch.setattr(Server, "stop", tracking_stop)
        ENGINE.run(
            ScenarioSpec(server="apache", workload="performance",
                         repetitions=2, scale=0.1, kinds=("small",))
        )
        # One warm-up server plus one server per (kind, policy) cell.
        assert len(stopped) == 3
        assert all(not server.alive for server in stopped)


class TestToySixthServer:
    """A new server runs through every shape with zero harness edits."""

    def test_performance_figure(self, toy_profile):
        rows = ENGINE.run(
            ScenarioSpec(server=toy_profile.name, workload="performance",
                         repetitions=3, scale=0.5)
        )
        assert [row.request_kind for row in rows] == ["get", "put"]
        for row in rows:
            assert row.baseline.all_served
            assert row.failure_oblivious.all_served

    def test_attack_scenario(self, toy_profile):
        scenario = ENGINE.run(
            ScenarioSpec(server=toy_profile.name, policy="failure-oblivious",
                         workload="attack", scale=0.5)
        )
        assert scenario.survived_attack
        assert scenario.continued_service
        assert not scenario.vulnerable

    def test_attack_scenario_under_every_build(self, toy_profile):
        # The toy server has no memory errors, so every build survives.
        for policy in ("standard", "bounds-check", "failure-oblivious"):
            scenario = ENGINE.run(
                ScenarioSpec(server=toy_profile.name, policy=policy, workload="attack")
            )
            assert scenario.continued_service, policy

    def test_security_matrix_cell(self, toy_profile):
        cells = ENGINE.run_security_matrix(
            servers=[toy_profile.name], policies=("failure-oblivious",), scale=0.5
        )
        assert len(cells) == 1
        assert cells[0].server == toy_profile.name
        assert cells[0].continued_service


class TestServerStop:
    def test_stop_refuses_further_requests_but_keeps_introspection(self):
        server = ENGINE.build_server("apache", "failure-oblivious", scale=0.1)
        assert not server.start().fatal
        server.stop()
        assert not server.alive
        result = server.process(Request(kind="get", payload={"url": "/index.html"}))
        assert result.fatal
        assert server.memory_error_count() == 0  # error log still readable

    def test_stability_shim_matches_direct_call(self, toy_profile):
        direct = run_stability_experiment(
            toy_profile.name, "failure-oblivious", total_requests=12, attack_every=4,
            scale=0.5,
        ).instances[0]
        assert direct.flawless
        assert direct.attack_requests > 0
        assert direct.attacks_survived == direct.attack_requests


class TestRunMany:
    """The pooled fan-out must be observably identical to the serial path."""

    def test_serial_and_parallel_results_identical(self):
        specs = [
            ScenarioSpec(server=name, policy=policy, workload="attack", scale=0.1)
            for name in sorted(SERVER_CLASSES)
            for policy in ("standard", "bounds-check", "failure-oblivious")
        ]
        serial = ENGINE.run_many(specs)
        parallel = ENGINE.run_many(specs, workers=4)
        assert len(parallel) == len(specs)
        serial_cells = [SecurityCell.from_scenario(s) for s in serial]
        parallel_cells = [SecurityCell.from_scenario(s) for s in parallel]
        assert serial_cells == parallel_cells

    def test_security_matrix_parallel_matches_serial(self):
        serial = ENGINE.run_security_matrix(scale=0.1)
        parallel = ENGINE.run_security_matrix(scale=0.1, workers=3)
        assert serial == parallel

    def test_timed_results_carry_positive_wall_clock(self):
        specs = [ScenarioSpec(server="mutt", workload="attack", scale=0.1)]
        pairs = ENGINE.run_many(specs, timed=True)
        assert len(pairs) == 1
        result, seconds = pairs[0]
        assert result.server == "mutt"
        assert seconds > 0

    def test_workers_one_is_the_serial_path(self):
        specs = [ScenarioSpec(server="pine", workload="attack", scale=0.1)]
        assert ENGINE.run_many(specs, workers=1)[0].server == "pine"

    def test_custom_workload_survives_the_fork(self, toy_profile):
        engine = ExperimentEngine()
        engine.register_workload(
            "boot-only",
            lambda eng, spec: eng.build_server(spec.server, spec.policy).start().outcome.value,
        )
        specs = [
            ScenarioSpec(server=toy_profile.name, workload="boot-only"),
            ScenarioSpec(server="mutt", workload="boot-only", scale=0.1),
        ]
        assert engine.run_many(specs, workers=2) == ["served", "served"]
