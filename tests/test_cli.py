"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.harness.experiments import EXPERIMENTS


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(EXPERIMENTS)


class TestRun:
    def test_runs_a_figure(self, capsys):
        assert main(["run", "fig3", "--repetitions", "3"]) == 0
        out = capsys.readouterr().out
        assert "Slowdown" in out

    def test_runs_the_security_matrix(self, capsys):
        assert main(["run", "tab-security"]) == 0
        out = capsys.readouterr().out
        assert "failure-oblivious" in out

    def test_unknown_experiment_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])


class TestAttack:
    def test_failure_oblivious_attack_scenario_succeeds(self, capsys):
        assert main(["attack", "apache", "--policy", "failure-oblivious"]) == 0
        out = capsys.readouterr().out
        assert "continued service : yes" in out

    def test_standard_attack_scenario_reports_failure(self, capsys):
        assert main(["attack", "apache", "--policy", "standard"]) == 0
        out = capsys.readouterr().out
        assert "survived attack   : no" in out

    def test_unknown_server_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack", "nginx"])


MINIC_DEMO = """
char buf[16];

int copy(char *src) {
    char *d;
    char *s;
    d = buf;
    s = src;
    while ((*d++ = *s++) != 0) { }
    return d - buf;
}

int main() {
    return copy("a deliberately over-long folder name payload");
}
"""


class TestMinicRun:
    """`repro minic run FILE.c` — compile-and-run with an error-log summary."""

    @staticmethod
    def write_demo(tmp_path):
        path = tmp_path / "demo.c"
        path.write_text(MINIC_DEMO)
        return str(path)

    def test_failure_oblivious_run_summarizes_the_overflow(self, tmp_path, capsys):
        assert main(["minic", "run", self.write_demo(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "build             : failure-oblivious" in out
        assert "span-lowered" in out
        assert "out-of-bounds" in out
        assert "site demo.c:main" in out
        assert "bounds checks" in out

    def test_bounds_check_fault_exits_nonzero(self, tmp_path, capsys):
        code = main(["minic", "run", self.write_demo(tmp_path),
                     "--policy", "bounds-check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "BoundsCheckViolation" in out

    def test_call_with_arguments_and_tree_walk(self, tmp_path, capsys):
        code = main(["minic", "run", self.write_demo(tmp_path),
                     "--policy", "standard", "--call", "copy",
                     "--arg", "short", "--no-lower"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-byte loops, not lowered (lower=False)" in out
        assert "copy(short) -> 6" in out

    def test_trace_exports_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main(["minic", "run", self.write_demo(tmp_path),
                     "--trace", str(trace)]) == 0
        assert trace.exists()
        assert trace.read_text().strip()

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["minic", "run", str(tmp_path / "nope.c")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compile_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main(["minic", "run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "compile error" in err
