"""Self-time arithmetic and the span recorder."""

import threading

import pytest

from tracing import Tracer, covered, graft, layer_totals, self_times


def span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_covered_merges_overlaps():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3)]) == 3
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 10), (2, 3), (4, 5)]) == 10


def test_nested_self_time():
    spans = [span("op", 0.0, 10.0),
             span("a", 1.0, 6.0, 0),
             span("b", 2.0, 3.0, 1),
             span("c", 7.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 1.0, 2.0])
    totals = layer_totals(spans)
    assert "op" not in totals
    assert totals == pytest.approx({"a": 4.0, "b": 1.0, "c": 2.0})


def test_overlapping_children_are_not_subtracted_twice():
    # two executor threads working under one parent at the same time
    spans = [span("op", 0.0, 10.0),
             span("x", 1.0, 5.0, 0),
             span("y", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    spans = [span("op", 2.0, 4.0), span("late", 3.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_of_repeated_names_adds_up():
    spans = [span("op", 0.0, 4.0),
             span("f", 0.0, 1.0, 0),
             span("f", 2.0, 3.0, 0)]
    assert layer_totals(spans) == pytest.approx({"f": 2.0})


def test_graft_reparents_child_process_roots():
    spans = [span("op", 0.0, 10.0)]
    child = [span("load", 1.0, 3.0), span("decode", 1.5, 2.0, 0)]
    graft(spans, child, 0)
    assert [s[3] for s in spans] == [None, 0, 1]
    assert layer_totals(spans) == pytest.approx({"load": 1.5, "decode": 0.5})


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    seen = {}

    def other():
        seen["index"] = tracer.begin("other")
        tracer.end(seen["index"])

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[seen["index"]][3] is None
    assert all(s[2] is not None for s in tracer.spans)


def test_ending_a_span_closes_spans_left_open_inside_it():
    tracer = Tracer()
    outer = tracer.begin("batch")
    entry = tracer.begin("entry")
    tracer.end(outer)
    assert tracer.spans[entry][2] == tracer.spans[outer][2]
    assert tracer.current() is None


def test_wrap_times_calls_and_records_counts():
    tracer = Tracer()

    class Box:
        def work(self, n):
            return list(range(n))

    tracer.wrap(Box, "work", "box.work",
                on_result=lambda result, args: tracer.count("items", len(result)))
    assert Box().work(3) == [0, 1, 2]
    assert [s[0] for s in tracer.spans] == ["box.work"]
    assert tracer.counts == {"items": 3}


def test_wrap_generator_times_only_the_steps():
    tracer = Tracer()

    class Source:
        def run(self, n):
            for i in range(n):
                yield i

    tracer.wrap_generator(Source, "run", "source.step")
    assert list(Source().run(2)) == [0, 1]
    # one span per item plus the final exhausted step
    assert [s[0] for s in tracer.spans] == ["source.step"] * 3
