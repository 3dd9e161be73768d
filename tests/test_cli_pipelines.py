"""The CLI's pipeline/cross-check surface matches the checker registry.

``--check-pipeline`` and ``--cross-check`` appear on several
subcommands; their choices must come from the single registry in
:mod:`repro.checker.dispatch` — not hand-maintained copies that drift
(the pre-poly tree shipped run/check/serve with three different help
strings and choice sets).  These tests introspect the built argparse
tree and pin every occurrence to the registry tuples.
"""

import inspect
import json

import pytest

from repro.checker import (
    CROSS_CHECKS,
    DEFAULT_PIPELINE,
    PIPELINES,
    SERVE_PIPELINES,
)
from repro.cli import build_parser, main


def subcommands(parser):
    action = parser._subparsers._group_actions[0]
    return action.choices


def option(parser, flag):
    for action in parser._actions:
        if flag in action.option_strings:
            return action
    return None


@pytest.fixture(scope="module")
def commands():
    return subcommands(build_parser())


class TestRegistry:
    def test_registry_shape(self):
        assert PIPELINES == ("graphs", "delta", "packed", "poly", "auto")
        # serve sessions stream deltas; the batch-only graphs pipeline
        # cannot finalize a stream
        assert set(SERVE_PIPELINES) <= set(PIPELINES)
        assert "poly" in SERVE_PIPELINES and "auto" in SERVE_PIPELINES
        assert CROSS_CHECKS == ("feasible", "poly")


class TestCheckPipelineFlag:
    @pytest.mark.parametrize("command", ("run", "suite", "check"))
    def test_batch_subcommands_use_full_registry(self, commands, command):
        action = option(commands[command], "--check-pipeline")
        assert action is not None, command
        assert tuple(action.choices) == PIPELINES, command

    def test_serve_uses_stream_registry(self, commands):
        action = option(commands["serve"], "--check-pipeline")
        assert action is not None
        assert tuple(action.choices) == SERVE_PIPELINES

    def test_every_occurrence_is_registry_backed(self, commands):
        """No subcommand may carry a hand-rolled pipeline choice set."""
        for name, sub in commands.items():
            action = option(sub, "--check-pipeline")
            if action is None:
                continue
            assert tuple(action.choices) in (PIPELINES, SERVE_PIPELINES), \
                name


class TestCrossCheckFlag:
    @pytest.mark.parametrize("command", ("run", "check", "mutate"))
    def test_cross_check_choices(self, commands, command):
        action = option(commands[command], "--cross-check")
        assert action is not None, command
        assert tuple(action.choices) == CROSS_CHECKS, command

    def test_cross_check_defaults_off(self, commands):
        for command in ("run", "check", "mutate"):
            action = option(commands[command], "--cross-check")
            assert action.default is None, command


class TestParsing:
    def test_run_accepts_poly(self, commands):
        args = build_parser().parse_args(
            ["run", "--check-pipeline", "poly", "--cross-check", "poly"])
        assert args.check_pipeline == "poly"
        assert args.cross_check == "poly"

    def test_run_rejects_unknown_pipeline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--check-pipeline", "polynomial"])

    def test_serve_rejects_batch_only_graphs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--check-pipeline", "graphs"])


class TestDefaultPipeline:
    """One default, ``packed``, behind every checking entry point."""

    def test_default_is_packed(self):
        assert DEFAULT_PIPELINE == "packed"
        assert DEFAULT_PIPELINE in PIPELINES
        assert DEFAULT_PIPELINE in SERVE_PIPELINES

    def test_every_flag_defaults_to_it(self, commands):
        for name, sub in commands.items():
            action = option(sub, "--check-pipeline")
            if action is not None:
                assert action.default == DEFAULT_PIPELINE, name

    def test_every_library_default_is_it(self):
        from repro.checker.stream import StreamingCollectiveChecker
        from repro.fleet.remote import TcpWorkerPool
        from repro.harness import Campaign, SuiteRunner, check_campaign_result
        from repro.serve import CampaignSession, ServeConfig

        for fn in (check_campaign_result, Campaign.check, SuiteRunner,
                   StreamingCollectiveChecker.finalize, CampaignSession,
                   TcpWorkerPool.check_remote):
            default = inspect.signature(fn).parameters["pipeline"].default
            assert default == DEFAULT_PIPELINE, fn
        assert ServeConfig().check_pipeline == DEFAULT_PIPELINE


class TestDefaultMatchesDelta:
    """Switching the default from ``delta`` to ``packed`` changes no
    output: the report, rendered witness cycles included, is byte for
    byte what ``--check-pipeline delta`` prints."""

    @pytest.fixture(scope="class")
    def violating_dump(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("sb") / "sb.json")
        assert main(["run", "--isa", "x86", "--threads", "4", "--ops", "30",
                     "--addresses", "8", "--seed", "11",
                     "--iterations", "400", "--mutation", "tso-sb-reorder",
                     "-o", path]) == 0
        return path

    def check(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().out

    def test_stdout_byte_identical(self, violating_dump, capsys):
        code, default = self.check(capsys, ["check", violating_dump])
        delta_code, delta = self.check(
            capsys, ["check", violating_dump, "--check-pipeline", "delta"])
        assert code == delta_code == 1
        assert default.count("memory consistency violation") >= 1
        assert default == delta

    def test_json_summary_identical(self, violating_dump, capsys):
        summaries = []
        for extra in ([], ["--check-pipeline", "delta"]):
            code, out = self.check(
                capsys, ["check", violating_dump, "--json"] + extra)
            assert code == 1
            summaries.append(json.loads(out)["summary"])
        assert summaries[0] == summaries[1]
        assert summaries[0]["violations"] >= 1
