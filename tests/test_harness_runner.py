"""Tests for the engine's figure and security-matrix experiments."""

import pytest

from repro.errors import RequestOutcome
from repro.harness.engine import ENGINE, ScenarioSpec
from repro.harness.report import format_figure_table, format_security_matrix, format_simple_table
from repro.servers import SERVER_CLASSES
from repro.servers.profile import get_profile


def attack_spec(server_name, policy_name):
    return ScenarioSpec(server=server_name, policy=policy_name, workload="attack", scale=0.1)


class TestBuildServer:
    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_builds_and_boots_every_server(self, server_name):
        server = ENGINE.build_server(server_name, "failure-oblivious", scale=0.1)
        assert not server.start().fatal

    def test_unknown_server_rejected(self):
        with pytest.raises(KeyError):
            ENGINE.build_server("nginx", "failure-oblivious")

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            ENGINE.build_server("apache", "asan")

    def test_plant_attack_merges_trigger(self):
        server = ENGINE.build_server("pine", "failure-oblivious", plant_attack=True)
        boot = server.start()
        assert not boot.fatal
        assert server.memory_error_count() > 0

    def test_config_override_wins(self):
        server = ENGINE.build_server("apache", "failure-oblivious",
                              config={"files": {"/only.html": b"x"}})
        server.start()
        assert list(server.files) == ["/only.html"]

    def test_benchmark_config_scales(self):
        small = get_profile("midnight-commander").build_config(0.1)
        big = get_profile("midnight-commander").build_config(1.0)
        small_bytes = sum(len(v) for v in small["vfs_files"].values())
        big_bytes = sum(len(v) for v in big["vfs_files"].values())
        assert small_bytes < big_bytes


class TestPerformanceFigure:
    def test_figure_rows_cover_all_request_kinds(self):
        rows = ENGINE.run(ScenarioSpec(server="mutt", repetitions=3, scale=0.2))
        assert [row.request_kind for row in rows] == ["read", "move"]

    def test_failure_oblivious_is_not_faster_than_standard(self):
        rows = ENGINE.run(ScenarioSpec(server="sendmail", repetitions=6, scale=0.2,
                                       kinds=("recv_small",)))
        assert rows[0].slowdown > 0.8  # allow noise, but FO must not be dramatically faster

    def test_single_kind_selection(self):
        rows = ENGINE.run(ScenarioSpec(server="apache", repetitions=3, kinds=("small",)))
        assert len(rows) == 1

    def test_table_formatting(self):
        rows = ENGINE.run(ScenarioSpec(server="apache", repetitions=3, kinds=("small",)))
        table = format_figure_table(rows)
        assert "Slowdown" in table and "small" in table

    def test_empty_rows_formatting(self):
        assert format_figure_table([]) == "(no rows)"

    def test_figure_numbers_cover_every_server(self):
        numbers = {get_profile(name).figure_number for name in SERVER_CLASSES}
        assert numbers == {2, 3, 4, 5, 6}


class TestSecurityMatrix:
    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_failure_oblivious_always_keeps_serving(self, server_name):
        scenario = ENGINE.run(attack_spec(server_name, "failure-oblivious"))
        assert scenario.survived_attack
        assert scenario.continued_service
        assert not scenario.vulnerable

    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_standard_build_is_vulnerable(self, server_name):
        scenario = ENGINE.run(attack_spec(server_name, "standard"))
        assert scenario.vulnerable
        assert not scenario.continued_service

    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_bounds_check_build_denies_service(self, server_name):
        scenario = ENGINE.run(attack_spec(server_name, "bounds-check"))
        outcomes = [scenario.boot.outcome]
        if scenario.attack is not None:
            outcomes.append(scenario.attack.outcome)
        assert RequestOutcome.TERMINATED_BY_CHECK in outcomes
        assert not scenario.continued_service

    def test_matrix_has_one_cell_per_combination(self):
        cells = ENGINE.run_security_matrix(servers=["apache", "mutt"],
                                           policies=("standard", "failure-oblivious"),
                                           scale=0.1)
        assert len(cells) == 4

    def test_matrix_formatting(self):
        cells = ENGINE.run_security_matrix(servers=["apache"], policies=("failure-oblivious",),
                                           scale=0.1)
        table = format_security_matrix(cells)
        assert "apache" in table and "failure-oblivious" in table

    def test_simple_table_formatting(self):
        table = format_simple_table(["a", "b"], [[1, "x"], [22, "yy"]], title="T")
        assert "T" in table and "22" in table
