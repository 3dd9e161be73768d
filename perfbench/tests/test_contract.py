"""Metric names and units, and the benchmark description that lists them."""

import json
import os
import re

import probes
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_are_well_formed():
    metrics = dict(run.END_TO_END)
    metrics.update(probes.LAYERS)
    for name, spec in metrics.items():
        assert NAME.match(name), name
        assert UNIT.match(spec[0]), (name, spec[0])
    assert not set(run.END_TO_END) & set(probes.LAYERS)


def test_bad_names_are_rejected_by_the_rule():
    for bad in ("", "_lead", ".lead", "has space", "x" * 65, "a/b"):
        assert not NAME.match(bad)


def test_benchmark_json_matches_the_code():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == list(run.END_TO_END)
    for name, (unit, _) in run.END_TO_END.items():
        assert e2e[name]["unit"] == unit
        assert 0 < e2e[name]["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m for m in bench["per_layer"]}
    assert list(layers) == list(probes.LAYERS)
    for name, (unit, _, _) in probes.LAYERS.items():
        assert layers[name]["unit"] == unit
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
