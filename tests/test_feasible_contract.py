"""The PR's pinned differential contract (ISSUE acceptance criteria).

On every Figure-8..12 paper configuration and the litmus corpus:

* observed signatures ⊆ static feasible set (exact per-signature
  membership — never sampled, whatever the program size);
* the graphs pipeline, the delta pipeline and the feasible oracle agree
  on clean runs (no violations, no membership misses, no disagreement);
* each detailed gem5 bug mutation yields at least one
  out-of-feasible-set signature (or crashes before shipping any),
  exercised through the mutate sensitivity path in
  ``test_mutate_crosscheck.py``.
"""

import pytest

from repro.feasible import FeasibilityOracle, cross_check_outcome
from repro.harness import Campaign, check_campaign_result
from repro.instrument import SignatureCodec
from repro.mcm import get_model
from repro.sim import OperationalExecutor
from repro.testgen.config import PAPER_CONFIGS
from repro.testgen.litmus import all_litmus_tests


@pytest.mark.parametrize("cfg", PAPER_CONFIGS, ids=lambda c: c.name)
def test_paper_config_contract(cfg):
    campaign = Campaign(config=cfg, seed=1)
    result = campaign.run(4)
    outcomes = {
        pipeline: check_campaign_result(result, campaign.model,
                                        baseline=False, pipeline=pipeline)
        for pipeline in ("graphs", "delta")
    }
    # both dynamic pipelines clean and in agreement
    for pipeline, outcome in outcomes.items():
        assert not outcome.collective.violations, (cfg.name, pipeline)
    assert outcomes["graphs"].signatures == outcomes["delta"].signatures
    # the static oracle agrees with each (exact membership per signature)
    for pipeline, outcome in outcomes.items():
        xc = cross_check_outcome(result, outcome, campaign.model)
        assert xc.agreement, (cfg.name, pipeline)
        assert not xc.flagged, (cfg.name, pipeline)
        assert len(xc.verdicts) == result.unique_signatures


@pytest.mark.parametrize("model_name", ("sc", "tso", "weak"))
def test_litmus_corpus_contract(model_name):
    model = get_model(model_name)
    for lt in all_litmus_tests():
        codec = SignatureCodec(lt.program, 64)
        oracle = FeasibilityOracle(lt.program, model)
        executor = OperationalExecutor(lt.program, model, seed=1)
        for execution in executor.run(200):
            assert oracle.is_feasible(execution.rf), (lt.name, model_name)
            sig = codec.encode(execution.rf)
            assert oracle.is_feasible(codec.decode(sig)), \
                (lt.name, model_name)
