"""Tests for the `repro trace` CLI: export, offline summary, filter."""

import json

import pytest

from repro.cli import main
from repro.telemetry.summary import iter_records, summarize_trace


@pytest.fixture(scope="module")
def exported_figure(tmp_path_factory):
    """One small figure run exported serially (shared by the read-only tests)."""
    out = tmp_path_factory.mktemp("trace") / "fig6.jsonl"
    code = main(["trace", "export", "fig6", "--repetitions", "2",
                 "--scale", "0.1", "--out", str(out)])
    assert code == 0
    return out


class TestExport:
    def test_export_writes_jsonl_and_prints_summary(self, exported_figure, capsys):
        records = list(iter_records(str(exported_figure)))
        assert records, "export should write events"
        assert all("event" in record for record in records)

    def test_offline_summary_matches_export_counts(self, exported_figure, capsys):
        """Acceptance: re-summarizing the export reproduces its aggregate counts."""
        summary = summarize_trace(str(exported_figure))
        assert summary.total_events == len(list(iter_records(str(exported_figure))))
        assert main(["trace", "summary", str(exported_figure)]) == 0
        out = capsys.readouterr().out
        first_line = next(line for line in out.splitlines() if line.startswith("events"))
        assert first_line.split()[-1] == str(summary.total_events)

    def test_parallel_export_has_identical_aggregate_counts(
        self, exported_figure, tmp_path
    ):
        """Acceptance: a --workers > 1 figure export re-summarizes identically."""
        out = tmp_path / "fig6-parallel.jsonl"
        code = main(["trace", "export", "fig6", "--repetitions", "2",
                     "--scale", "0.1", "--workers", "2", "--out", str(out)])
        assert code == 0
        assert summarize_trace(str(out)) == summarize_trace(str(exported_figure))

    def test_unknown_experiment_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "export", "fig99", "--out", str(tmp_path / "x.jsonl")])


class TestSummaryFilters:
    def test_server_filter_keeps_scoped_events_only(self, exported_figure):
        everything = summarize_trace(str(exported_figure))
        mutt_only = summarize_trace(str(exported_figure), server="mutt")
        assert mutt_only.total_events > 0
        assert set(mutt_only.servers) == {"mutt"}
        assert mutt_only.total_events <= everything.total_events

    def test_kind_filter_selects_request_events(self, exported_figure):
        records = list(iter_records(str(exported_figure)))
        request_kinds = {r["kind"] for r in records if r["event"] == "request-end"}
        kind = next(k for k in request_kinds if k != "__startup__")
        filtered = summarize_trace(str(exported_figure), kind=kind)
        assert filtered.total_events > 0
        assert set(filtered.by_type) <= {"request-start", "request-end"}

    def test_policy_filter(self, exported_figure):
        standard = summarize_trace(str(exported_figure), policy="standard")
        assert set(standard.policies) == {"standard"}


class TestFilterCommand:
    def test_filter_to_stdout(self, exported_figure, capsys):
        assert main(["trace", "filter", str(exported_figure),
                     "--policy", "standard"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["scope"]["policy"] == "standard"

    def test_filter_to_file_round_trips(self, exported_figure, tmp_path, capsys):
        subset = tmp_path / "subset.jsonl"
        assert main(["trace", "filter", str(exported_figure),
                     "--server", "mutt", "--out", str(subset)]) == 0
        direct = summarize_trace(str(exported_figure), server="mutt")
        assert summarize_trace(str(subset)) == direct
