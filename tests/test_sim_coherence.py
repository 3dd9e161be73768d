"""Unit tests driving the MESI protocol engine directly."""

import random

import pytest

from repro.errors import ProtocolCrash
from repro.sim.coherence import CoherentSystem, EventQueue, Mesh
from repro.sim.faults import Bug, FaultConfig


def make_system(faults=FaultConfig(), cores=8):
    events = EventQueue()
    system = CoherentSystem(cores, random.Random(1), events, faults)
    return events, system


def drain(events, limit=10000):
    assert events.run(limit) <= limit, "protocol did not quiesce"


class TestEventQueue:
    def test_time_ordering(self):
        events = EventQueue()
        out = []
        events.schedule(2.0, out.append, "b")
        events.schedule(1.0, out.append, "a")
        drain(events)
        assert out == ["a", "b"]

    def test_fifo_for_equal_times(self):
        events = EventQueue()
        out = []
        events.schedule(1.0, out.append, 1)
        events.schedule(1.0, out.append, 2)
        drain(events)
        assert out == [1, 2]

    def test_len(self):
        events = EventQueue()
        events.schedule(1.0, lambda: None)
        assert len(events) == 1

    def test_run_stops_past_the_budget_and_counts(self):
        events = EventQueue()
        for i in range(5):
            events.schedule(float(i), lambda: None)
        assert events.run(2) == 3          # the event that exceeds it ran
        assert len(events) == 2
        assert events.run(10) == 2
        assert events.processed == 5 and events.now == 4.0

    def test_run_counts_only_completed_events_on_error(self):
        events = EventQueue()

        def boom():
            raise ProtocolCrash("boom")

        events.schedule(1.0, lambda: None)
        events.schedule(2.0, boom)
        with pytest.raises(ProtocolCrash):
            events.run(10)
        assert events.processed == 1


class TestMeshFifo:
    def test_per_channel_fifo(self):
        events = EventQueue()
        mesh = Mesh(events, random.Random(3))
        order = []
        for i in range(20):
            mesh.send(("core", 0), ("dir", 1), order.append, i)
        drain(events)
        assert order == list(range(20))

    def test_distance_affects_latency(self):
        events = EventQueue()
        mesh = Mesh(events, random.Random(0))
        times = {}
        mesh.send(("core", 0), ("dir", 0), lambda: times.setdefault("near", events.now))
        mesh.send(("core", 0), ("dir", 1), lambda: times.setdefault("far", events.now))
        drain(events)
        assert times["near"] < times["far"]


class TestBasicCoherence:
    def test_load_returns_init_zero(self):
        events, system = make_system()
        got = []
        system.caches[0].load(0, 0, got.append)
        drain(events)
        assert got == [0]

    def test_store_then_remote_load(self):
        events, system = make_system()
        done = []
        system.caches[0].store(0, 0, 42, lambda: done.append("w"))
        drain(events)
        got = []
        system.caches[1].load(0, 0, got.append)
        drain(events)
        assert done == ["w"] and got == [42]

    def test_store_order_recorded(self):
        events, system = make_system()
        system.caches[0].store(0, 0, 1, lambda: None)
        drain(events)
        system.caches[1].store(0, 0, 2, lambda: None)
        drain(events)
        assert system.store_order[0] == [1, 2]

    def test_invalidation_callback_fires_on_remote_store(self):
        events, system = make_system()
        hits = []
        system.caches[0].on_inv = hits.append
        got = []
        system.caches[0].load(0, 0, got.append)   # core0 becomes sharer
        drain(events)
        system.caches[1].store(0, 0, 7, lambda: None)
        drain(events)
        assert hits == [0]

    def test_two_writers_serialize(self):
        events, system = make_system()
        system.caches[0].store(0, 0, 1, lambda: None)
        system.caches[1].store(0, 0, 2, lambda: None)
        drain(events)
        assert sorted(system.store_order[0]) == [1, 2]
        got = []
        system.caches[2].load(0, 0, got.append)
        drain(events)
        assert got == [system.store_order[0][-1]]

    def test_word_granularity_within_line(self):
        events, system = make_system()
        system.caches[0].store(0, 0, 5, lambda: None)
        system.caches[1].store(0, 1, 6, lambda: None)   # same line, other word
        drain(events)
        got = []
        system.caches[2].load(0, 0, got.append)
        system.caches[2].load(0, 1, got.append)
        drain(events)
        assert got == [5, 6]

    def test_upgrade_from_shared(self):
        events, system = make_system()
        got = []
        system.caches[0].load(0, 0, got.append)
        system.caches[1].load(0, 0, got.append)
        drain(events)
        done = []
        system.caches[0].store(0, 0, 9, lambda: done.append(True))
        drain(events)
        assert done == [True]
        check = []
        system.caches[1].load(0, 0, check.append)
        drain(events)
        assert check == [9]


class TestEvictions:
    def test_capacity_eviction_writes_back(self):
        events, system = make_system(FaultConfig(l1_lines=2))
        for line in range(3):
            system.caches[0].store(line, line * 16, line + 1, lambda: None)
            drain(events)
        # all three values must be recoverable from the system
        for line in range(3):
            got = []
            system.caches[1].load(line, line * 16, got.append)
            drain(events)
            assert got == [line + 1], line

    def test_eviction_squashes_speculative_loads(self):
        events, system = make_system(FaultConfig(l1_lines=2))
        squashed = []
        system.caches[0].on_inv = squashed.append
        for line in range(3):
            system.caches[0].load(line, line * 16, lambda v: None)
            drain(events)
        assert squashed   # the third fill evicted one of the first two


class TestBug3Race:
    def test_fetch_after_writeback_crashes_when_injected(self):
        events, system = make_system(FaultConfig(bug=Bug.WRITEBACK_RACE))
        # core0 owns the line, then "loses" it (simulate in-flight PUTX)
        system.caches[0].store(0, 0, 1, lambda: None)
        drain(events)
        del system.caches[0].lines[0]
        system.caches[0].wb_pending.add(0)
        with pytest.raises(ProtocolCrash):
            system.caches[0].handle_fetch(0, invalidate=True)

    def test_same_race_handled_when_not_injected(self):
        events, system = make_system(FaultConfig())
        system.caches[0].store(0, 0, 1, lambda: None)
        drain(events)
        # eviction puts the line in wb_pending with a PUTX in flight
        system.caches[0]._evict()
        # a racing GETX from core1 while the PUTX is still in flight
        got = []
        system.caches[1].store(0, 0, 2, lambda: got.append(True))
        drain(events)
        assert got == [True]
        assert system.store_order[0] == [1, 2]


class TestFaultConfig:
    def test_bug1_suppresses_sm_squash_only(self):
        f = FaultConfig(bug=Bug.LOAD_LOAD_PROTOCOL)
        assert f.squash_on_inv and not f.squash_on_inv_in_sm

    def test_bug2_suppresses_all_squash(self):
        f = FaultConfig(bug=Bug.LOAD_LOAD_LSQ)
        assert not f.squash_on_inv and not f.squash_on_inv_in_sm

    def test_bug3_crashes_on_race(self):
        assert FaultConfig(bug=Bug.WRITEBACK_RACE).crash_on_writeback_race

    def test_no_fault_defaults(self):
        f = FaultConfig()
        assert f.squash_on_inv and f.squash_on_inv_in_sm
        assert not f.crash_on_writeback_race
