"""A wrong output counts as a failed operation."""

import workloads
from children import ChildResult
from workloads import Context, Program, Run


def child(code, stdout):
    return ChildResult(code, stdout, "", 0.0, 1.0, 1000)


def program():
    return Program("ARM-4-100-64", "arm", 4, 100, 64, seed=5, run_seed=9)


def context(pins=None):
    return Context("/nonexistent", "/nonexistent", 1, 1.0, False, pins or {})


RUN_OK = ("ARM-4-100-64: %d iterations, 120 unique signatures, 0 crashes\n"
          "signatures written to campaign.json\n" % workloads.CAMPAIGN_ITERATIONS)
CHECK_OK = "checked 120 unique executions under weak (static ws): 0 violations\n"


def test_matching_outputs_pass():
    run = Run()
    assert workloads._verify_campaign_op(context(), run, program(),
                                         child(0, RUN_OK), child(0, CHECK_OK),
                                         False)
    assert (run.attempted, run.failed) == (1, 0)


def test_check_disagreeing_with_run_is_a_failure():
    run = Run()
    wrong = CHECK_OK.replace("120 unique", "119 unique")
    assert not workloads._verify_campaign_op(
        context(), run, program(), child(0, RUN_OK), child(0, wrong), False)
    assert (run.attempted, run.failed) == (1, 1)
    assert "unique" in run.failures[0]


def test_unexpected_violation_or_exit_code_is_a_failure():
    run = Run()
    violating = CHECK_OK.replace("0 violations", "1 violations")
    workloads._verify_campaign_op(context(), run, program(), child(0, RUN_OK),
                                  child(1, violating), False)
    workloads._verify_campaign_op(context(), run, program(), child(2, ""),
                                  child(0, CHECK_OK), False)
    assert (run.attempted, run.failed) == (2, 2)


def test_output_differing_from_the_pin_is_a_failure():
    pins = {"1": {"campaign": {program().key: {"unique": 121,
                                               "test_accesses": 0}}}}
    run = Run()
    workloads._verify_campaign_op(context(pins), run, program(),
                                  child(0, RUN_OK), child(0, CHECK_OK), False)
    assert run.failed == 1


def test_parsers_read_the_plain_text_lines():
    assert workloads.parse_run(RUN_OK) == {
        "iterations": workloads.CAMPAIGN_ITERATIONS, "unique": 120,
        "crashes": 0}
    assert workloads.parse_check("noise\n" + CHECK_OK) == {"unique": 120,
                                                           "violations": 0}
    assert workloads.parse_check("error: bad dump\n") is None
    assert workloads.check_against({"unique": 1}, None) == ["no result line"]
