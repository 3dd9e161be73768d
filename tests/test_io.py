"""Unit tests for JSON persistence (device -> host signature transfer)."""

import copy
import json

import pytest

from repro import io as repro_io
from repro.checker import PIPELINES
from repro.cli import main
from repro.harness import Campaign
from repro.testgen import TestConfig


@pytest.fixture
def finished_campaign():
    cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20, addresses=8, seed=3)
    campaign = Campaign(config=cfg, seed=4)
    return campaign, campaign.run(150)


class TestProgramRoundTrip:
    def test_program_dump_load(self, small_program):
        doc = repro_io.dump_program(small_program)
        again = repro_io.load_program(doc)
        assert [op.describe() for op in again.all_ops] == \
               [op.describe() for op in small_program.all_ops]

    def test_missing_listing_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.load_program({"name": "x"})


class TestCampaignRoundTrip:
    def test_signature_counts_preserved(self, finished_campaign):
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        assert loaded.signature_counts == result.signature_counts
        assert loaded.iterations == result.iterations

    def test_decoded_rf_matches_original(self, finished_campaign):
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        for signature, execution in loaded.representatives.items():
            assert execution.rf == result.representatives[signature].rf

    def test_ws_preserved_when_included(self, finished_campaign):
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result, include_ws=True))
        for signature, execution in loaded.representatives.items():
            assert execution.ws == result.representatives[signature].ws

    def test_ws_omitted_when_excluded(self, finished_campaign):
        campaign, result = finished_campaign
        dump = repro_io.dump_campaign(result, include_ws=False)
        assert '"ws"' not in dump
        loaded = repro_io.load_campaign(dump)
        assert all(e.ws == {} for e in loaded.representatives.values())

    def test_host_side_checking_from_dump(self, finished_campaign):
        """The full host flow: load dump, decode, build, check."""
        from repro.checker import CollectiveChecker
        from repro.graph import GraphBuilder
        from repro.mcm import WEAK

        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        builder = GraphBuilder(loaded.program, WEAK, ws_mode="observed")
        graphs = [builder.build(loaded.codec.decode(sig),
                                loaded.representatives[sig].ws)
                  for sig in loaded.sorted_signatures()]
        report = CollectiveChecker().check(graphs)
        assert not report.violations

    def test_file_round_trip(self, finished_campaign, tmp_path):
        campaign, result = finished_campaign
        path = tmp_path / "dump.json"
        repro_io.save_campaign(result, path)
        loaded = repro_io.read_campaign(path)
        assert loaded.signature_counts == result.signature_counts


class TestFormatValidation:
    def test_garbage_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.load_campaign("{not json")

    def test_wrong_version_rejected(self, finished_campaign):
        _, result = finished_campaign
        doc = json.loads(repro_io.dump_campaign(result))
        doc["format"] = 999
        with pytest.raises(repro_io.FormatError):
            repro_io.load_campaign(json.dumps(doc))


class TestTruncationDiagnostics:
    def test_truncated_dump_names_the_byte_offset(self, finished_campaign):
        _, result = finished_campaign
        dump = repro_io.dump_campaign(result)
        cut = dump[: len(dump) // 2]
        with pytest.raises(repro_io.TruncatedPayloadError) as err:
            repro_io.load_campaign(cut)
        assert err.value.offset <= len(cut)
        assert "truncated at byte" in str(err.value)

    def test_truncation_is_a_format_error_subclass(self):
        assert issubclass(repro_io.TruncatedPayloadError,
                          repro_io.FormatError)
        with pytest.raises(repro_io.FormatError):
            repro_io.parse_json_payload('{"a": 1')

    def test_unterminated_string_counts_as_truncation(self):
        with pytest.raises(repro_io.TruncatedPayloadError):
            repro_io.parse_json_payload('{"listing": "ld r0')

    def test_mid_document_garbage_is_not_truncation(self):
        with pytest.raises(repro_io.FormatError) as err:
            repro_io.parse_json_payload('{"a": zap, "b": 1}')
        assert not isinstance(err.value, repro_io.TruncatedPayloadError)

    def test_non_object_payload_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.parse_json_payload("[1, 2, 3]")


class TestSignatureEntries:
    def test_entry_round_trip(self, finished_campaign):
        _, result = finished_campaign
        for signature, count in result.signature_counts.items():
            entry = repro_io.signature_to_entry(signature, count)
            again, n = repro_io.signature_from_entry(entry)
            assert again == signature and n == count

    def test_count_defaults_to_one(self, finished_campaign):
        _, result = finished_campaign
        signature = next(iter(result.signature_counts))
        entry = repro_io.signature_to_entry(signature)
        words = entry["words"]
        _, n = repro_io.signature_from_entry({"words": words})
        assert n == 1

    def test_bad_entry_is_a_format_error(self):
        for entry in ({}, {"words": "zap"}, {"words": [["x"]]},
                      {"words": [[1]], "count": "many"}):
            with pytest.raises(repro_io.FormatError):
                repro_io.signature_from_entry(entry)


def _drop(*path):
    def mutate(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        del doc[key]
    return mutate


def _set(value, *path):
    def mutate(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return mutate


#: structural mutants of a valid dump that once escaped as tracebacks
DUMP_MUTANTS = {
    "no-program": _drop("program"),
    "no-signatures": _drop("signatures"),
    "register-width-string": _set("x", "register_width"),
    "register-width-null": _set(None, "register_width"),
    "entry-without-count": _drop("signatures", 0, "count"),
    "words-not-a-list": _set(5, "signatures", 0, "words"),
    "ws-not-an-object": _set([1, 2], "signatures", 0, "ws"),
    "program-not-an-object": _set([1], "program"),
    "listing-not-a-string": _set(7, "program", "listing"),
    "register-width-huge": _set(2 ** 70, "register_width"),
    "iterations-string": _set("x", "iterations"),
    "iterations-negative": _set(-1, "iterations"),
    "crashes-list": _set([1], "crashes"),
    "skipped-iterations-object": _set({}, "skipped_iterations"),
    "signature-asserts-list": _set([], "signature_asserts"),
}


class TestDumpBoundary:
    @pytest.fixture(scope="class")
    def valid_dump(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dump") / "valid.json"
        assert main(["run", "--threads", "2", "--ops", "10",
                     "--addresses", "4", "--iterations", "30",
                     "-o", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize("mutant", sorted(DUMP_MUTANTS))
    def test_check_exits_two_on_corrupt_dump(self, mutant, valid_dump,
                                             tmp_path, capsys):
        doc = copy.deepcopy(valid_dump)
        DUMP_MUTANTS[mutant](doc)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: "), err

    @pytest.mark.parametrize("mutant", sorted(DUMP_MUTANTS))
    def test_merge_exits_two_on_corrupt_dump(self, mutant, valid_dump,
                                             tmp_path, capsys):
        doc = copy.deepcopy(valid_dump)
        DUMP_MUTANTS[mutant](doc)
        good, bad = tmp_path / "good.json", tmp_path / "corrupt.json"
        good.write_text(json.dumps(valid_dump))
        bad.write_text(json.dumps(doc))
        merged = tmp_path / "merged.json"
        capsys.readouterr()
        assert main(["merge", str(good), str(bad), "-o", str(merged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert not merged.exists()

    @pytest.mark.parametrize("word", [-1, 2 ** 70])
    @pytest.mark.parametrize("pipeline", [None] + list(PIPELINES))
    def test_out_of_range_signature_exits_two(self, pipeline, word,
                                              valid_dump, tmp_path, capsys):
        """Loading no longer decodes; the check's own decode rejects
        a signature word outside the weight tables' range."""
        doc = copy.deepcopy(valid_dump)
        doc["signatures"][-1]["words"][0][0] = word
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        extra = ["--check-pipeline", pipeline] if pipeline else []
        capsys.readouterr()
        assert main(["check", str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "range" in err, err
