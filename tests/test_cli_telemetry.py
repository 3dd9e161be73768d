"""CLI tests for the repro.obs v2 surface: run artifacts, stats on
event logs, the trace/events/bench commands."""

import json
import pathlib

import pytest

from repro import obs
from repro.cli import main
from repro.obs.traceviz import trace_span_names, validate_trace

RESULTS_DIR = str(pathlib.Path(__file__).parent.parent
                  / "benchmarks" / "results")

RUN_ARGS = ["run", "--threads", "2", "--ops", "10", "--addresses", "8",
            "--iterations", "40"]


@pytest.fixture(autouse=True)
def _reset_observability():
    """CLI commands install a global obs instance; isolate each test."""
    yield
    obs.disable()


def run_with_artifacts(tmp_path, *extra):
    report_path = tmp_path / "report.json"
    events_path = tmp_path / "events.jsonl"
    trace_path = tmp_path / "trace.json"
    code = main(RUN_ARGS + ["--metrics-out", str(report_path),
                            "--events-out", str(events_path),
                            "--trace-out", str(trace_path), *extra])
    assert code == 0
    return report_path, events_path, trace_path


class TestRunArtifacts:
    def test_trace_out_matches_report_span_tree(self, tmp_path, capsys):
        report_path, _events, trace_path = run_with_artifacts(tmp_path)
        out = capsys.readouterr().out
        assert "trace written to" in out and "perfetto" in out
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        report = obs.read_report(str(report_path))
        # acceptance: the trace's span slices ARE the report phase tree
        assert trace_span_names(trace) == obs.span_names(report)

    def test_events_out_is_a_parseable_run_log(self, tmp_path, capsys):
        from repro.obs.events import read_events

        _report, events_path, _trace = run_with_artifacts(tmp_path)
        events = read_events(events_path)
        kinds = {e.kind for e in events}
        assert {"campaign.plan", "block.done", "campaign.result"} <= kinds
        assert all(e.scope == "run" for e in events)    # serial: no host

    @pytest.mark.parametrize("extra", [(), ("--jobs", "2", "--block", "20")],
                             ids=["serial", "fleet"])
    def test_run_report_checks_without_the_baseline(self, tmp_path, capsys,
                                                    extra):
        """Telemetry observes the run's own check; it does not add the
        conventional baseline checker the run never asked for."""
        report_path, _events, _trace = run_with_artifacts(tmp_path, *extra)
        names = obs.span_names(obs.read_report(str(report_path)))
        assert "check" in names
        assert "checker.baseline" not in names

    def test_fleet_trace_includes_shard_slices(self, tmp_path, capsys):
        _r, _e, trace_path = run_with_artifacts(tmp_path, "--jobs", "2",
                                                "--block", "20")
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        shard_slices = [e for e in trace["traceEvents"]
                        if e.get("cat") == "shard"]
        assert len(shard_slices) == 2

    def test_progress_needs_jobs(self, capsys):
        assert main(RUN_ARGS + ["--progress"]) == 0
        assert "--jobs" in capsys.readouterr().err

    def test_progress_renders_on_fleet_runs(self, capsys):
        assert main(RUN_ARGS + ["--progress", "--jobs", "2",
                                "--block", "10"]) == 0
        err = capsys.readouterr().err
        assert "fleet" in err and "it/s" in err


class TestStats:
    def test_stats_renders_event_logs(self, tmp_path, capsys):
        _r, events_path, _t = run_with_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["stats", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign.result" in out

    def test_stats_validate_recognizes_both_kinds(self, tmp_path, capsys):
        report_path, events_path, _t = run_with_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--validate", str(report_path)]) == 0
        assert "valid repro.run-report report" \
               in capsys.readouterr().out
        assert main(["stats", "--validate", str(events_path)]) == 0
        assert "valid repro.events event log" in capsys.readouterr().out

    def test_stats_exit_2_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_exit_2_on_schema_mismatch(self, tmp_path, capsys):
        future_report = tmp_path / "future.json"
        future_report.write_text(json.dumps(
            {"schema": "repro.run-report", "version": 99, "meta": {},
             "summary": {}, "metrics": {}, "spans": []}))
        assert main(["stats", str(future_report)]) == 2
        err = capsys.readouterr().err
        assert "version" in err and "99" in err

        future_event = tmp_path / "future.jsonl"
        future_event.write_text(json.dumps(
            {"v": 7, "seq": 0, "ts": 0.0, "kind": "campaign.plan",
             "scope": "run", "data": {}}) + "\n")
        assert main(["stats", str(future_event)]) == 2
        assert "version 7" in capsys.readouterr().err


class TestTraceCommand:
    def test_converts_report_and_event_log(self, tmp_path, capsys):
        report_path, events_path, _t = run_with_artifacts(tmp_path)
        capsys.readouterr()
        out_a = tmp_path / "a.json"
        assert main(["trace", str(report_path), "-o", str(out_a)]) == 0
        assert "run report" in capsys.readouterr().out
        validate_trace(json.loads(out_a.read_text()))
        out_b = tmp_path / "b.json"
        assert main(["trace", str(events_path), "-o", str(out_b)]) == 0
        assert "event log" in capsys.readouterr().out
        validate_trace(json.loads(out_b.read_text()))

    def test_exit_2_on_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["trace", str(bad),
                     "-o", str(tmp_path / "out.json")]) == 2


class TestEventsCommand:
    def test_table_and_markdown(self, capsys):
        assert main(["events"]) == 0
        out = capsys.readouterr().out
        assert "campaign.result" in out and "fleet.heartbeat" in out
        assert main(["events", "--markdown"]) == 0
        md = capsys.readouterr().out
        assert "### `campaign.result`" in md


class TestBenchCommands:
    BASELINE = {"configs": {"A": {"graphs": 10, "check_ms": 100.0}}}

    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_diff_detects_synthetic_regression(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASELINE)
        worse = self._write(tmp_path / "cur.json",
                            {"configs": {"A": {"graphs": 10,
                                               "check_ms": 120.0}}})
        assert main(["bench", "diff", base, worse]) == 1
        out = capsys.readouterr().out
        assert "1.20x" in out
        assert "BENCH REGRESSION: 1 regressed leaves, 0 shape changes" \
               in out

    def test_diff_passes_on_identical_snapshots(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASELINE)
        same = self._write(tmp_path / "same.json", self.BASELINE)
        assert main(["bench", "diff", base, same]) == 0
        assert "bench diff ok" in capsys.readouterr().out

    def test_diff_json_output(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASELINE)
        worse = self._write(tmp_path / "cur.json",
                            {"configs": {"A": {"graphs": 9,
                                               "check_ms": 100.0}}})
        assert main(["bench", "diff", "--json", base, worse]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] is True
        assert doc["deltas"][0]["key"] == "configs.A.graphs"

    def test_check_passes_on_committed_snapshots(self, capsys):
        assert main(["bench", "diff", "--check",
                     "--results", RESULTS_DIR]) == 0
        assert "bench diff ok" in capsys.readouterr().out

    def test_bad_argument_combinations_exit_2(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", self.BASELINE)
        assert main(["bench", "diff"]) == 2
        assert main(["bench", "diff", "--check", base, base]) == 2

    def test_record_appends_history(self, tmp_path, capsys):
        snap = self._write(tmp_path / "snap.json", self.BASELINE)
        history = tmp_path / "history.jsonl"
        assert main(["bench", "record", snap, "--history", str(history),
                     "--note", "test"]) == 0
        assert "recorded" in capsys.readouterr().out
        (entry,) = [json.loads(line) for line
                    in history.read_text().splitlines()]
        assert entry["note"] == "test"
        assert entry["digest"]["count_leaves"] == 1
