"""The constraint rules, pinned by hand-written expected pairs.

Every checker reads its ordering facts from :class:`ConstraintRules`,
so these tables are written out by hand rather than compared against
another implementation.  MP and SB are extended with extra x accesses
so that one table covers every rule:

* an INIT reader precedes every thread's first store to the address;
* a cross-thread source orders rf (store before load);
* same-thread forwarding contributes no rf pair;
* fr points at the source's coherence-next store.
"""

import pytest

from repro.isa import INIT, TestProgram, load, store
from repro.mcm import SC, TSO, WEAK, ConstraintRules, model_for_register_width

X, Y = 0, 1


def _mp():
    """MP, with a second x store after the flag:

    thread 0: st x #1 (uid 0), st y #2 (uid 1), st x #3 (uid 2)
    thread 1: ld y (uid 3), ld x (uid 4)
    """
    return TestProgram.from_ops(
        [[store(0, 0, X, 1), store(0, 1, Y, 2), store(0, 2, X, 3)],
         [load(1, 0, Y), load(1, 1, X)]],
        num_addresses=2, name="MP+st")


def _sb():
    """SB, with both threads storing x and thread 0 reading its own x:

    thread 0: st x #1 (uid 0), ld x (uid 1), ld y (uid 2), st x #3 (uid 3)
    thread 1: st y #2 (uid 4), ld x (uid 5), st x #4 (uid 6)
    """
    return TestProgram.from_ops(
        [[store(0, 0, X, 1), load(0, 1, X), load(0, 2, Y), store(0, 3, X, 3)],
         [store(1, 0, Y, 2), load(1, 1, X), store(1, 2, X, 4)]],
        num_addresses=2, name="SB+st")


#: (program, load uid, source, expected choice pairs)
CHOICE_TABLE = [
    # MP: the flag load reading INIT precedes y's only first store
    (_mp, 3, INIT, ((3, 1),)),
    # MP: cross-thread rf from the flag store; y has no later store
    (_mp, 3, 1, ((1, 3),)),
    (_mp, 4, INIT, ((4, 0),)),
    # MP: cross-thread rf, and fr to the coherence-next x store
    (_mp, 4, 0, ((0, 4), (4, 2))),
    (_mp, 4, 2, ((2, 4),)),
    # SB: same-thread forwarding has no rf pair, only the fr pair
    (_sb, 1, 0, ((1, 3),)),
    (_sb, 2, INIT, ((2, 4),)),
    (_sb, 2, 4, ((4, 2),)),
    # SB: an INIT reader precedes every thread's first store to x
    (_sb, 5, INIT, ((5, 0), (5, 6))),
    (_sb, 5, 0, ((0, 5), (5, 3))),
    (_sb, 5, 3, ((3, 5),)),
]


@pytest.mark.parametrize(
    "program,load_uid,source,expected", CHOICE_TABLE,
    ids=["%s-%d<-%s" % (p.__name__.strip("_"), uid,
                        "init" if src == INIT else src)
         for p, uid, src, _ in CHOICE_TABLE])
def test_choice_pairs_table(program, load_uid, source, expected):
    rules = ConstraintRules(program(), TSO)
    assert rules.choice_pairs(load_uid, source) == expected


def test_choice_pairs_do_not_depend_on_the_model():
    for program, load_uid, source, expected in CHOICE_TABLE:
        for model in (SC, WEAK):
            rules = ConstraintRules(program(), model)
            assert rules.choice_pairs(load_uid, source) == expected


class TestStaticRules:
    def test_mp_tso(self):
        rules = ConstraintRules(_mp(), TSO)
        assert rules.ppo_pairs == ((1, 2), (0, 1), (3, 4))
        assert rules.ws_pairs == ((0, 2),)
        assert rules.static_pairs == rules.ppo_pairs + rules.ws_pairs
        assert rules.first_stores == {X: [0], Y: [1]}
        assert rules.next_store == {0: 2}

    def test_sb_tso(self):
        # TSO drops store->load: 0 orders only before 3, 4 only before 6
        rules = ConstraintRules(_sb(), TSO)
        assert rules.ppo_pairs == ((2, 3), (1, 2), (0, 3), (5, 6), (4, 6))
        assert rules.ws_pairs == ((0, 3),)
        assert rules.first_stores == {X: [0, 6], Y: [4]}
        assert rules.next_store == {0: 3}

    def test_weak_keeps_only_the_store_chain(self):
        # weak ordering keeps same-address pairs: the x store chain is
        # both a ppo pair (CoWW) and a ws pair
        rules = ConstraintRules(_mp(), WEAK)
        assert rules.ppo_pairs == ((0, 2),)
        assert rules.static_pairs == ((0, 2), (0, 2))


@pytest.mark.parametrize("width,model", [(64, TSO), (32, WEAK), (16, WEAK)])
def test_model_for_register_width(width, model):
    assert model_for_register_width(width) is model
