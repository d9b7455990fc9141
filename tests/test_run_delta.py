"""``tools/run_delta.py``: the flow-by-flow comparison on canned runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "run_delta", os.path.join(ROOT, "tools", "run_delta.py")
)
run_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_delta)


def run(flows, order):
    return {"flows": flows, "order": order}


ORDER = [["arrival", 1], ["arrival", 2], ["completed", 1], ["completed", 2]]
# bytes_sent, bytes_delivered, bytes_dropped, end_time, rate_bps
PARENT = run(
    {"1": [1000.0, 1000.0, 0.0, 2.0, 5e6], "2": [600.0, 500.0, 100.0, None, 0.0]},
    ORDER,
)


def test_identical_runs_have_no_rows():
    delta = run_delta.compare(PARENT, PARENT)
    assert delta["rows"] == {} and delta["reordered"] == []
    assert delta["ports"] == [] and delta["entries"] == []
    assert set(delta["maxima"].values()) == {0.0}


def test_relative_differences_and_their_maxima():
    change = run(
        {"1": [1000.0, 1000.0, 0.0, 2.0 + 2e-12, 5e6],
         "2": [600.0, 501.0, 99.0, None, 0.0]},
        ORDER,
    )
    delta = run_delta.compare(PARENT, change)
    assert delta["rows"]["1"] == pytest.approx([0.0, 0.0, 0.0, 1e-12, 0.0], rel=1e-3)
    assert delta["rows"]["2"] == pytest.approx([0.0, 1 / 501.0, 1 / 100.0, 0.0, 0.0])
    assert delta["maxima"]["bytes_delivered"] == pytest.approx(1 / 501.0)
    assert delta["maxima"]["bytes_dropped"] == pytest.approx(1 / 100.0)
    assert delta["maxima"]["bytes_sent"] == 0.0
    assert delta["maxima"]["end_time"] == pytest.approx(1e-12, rel=1e-3)


def test_a_flow_finishing_on_one_side_only_is_infinitely_different():
    change = run(
        {"1": [1000.0, 1000.0, 0.0, 2.0, 5e6], "2": [600.0, 500.0, 100.0, 3.0, 0.0]},
        ORDER,
    )
    assert run_delta.compare(PARENT, change)["maxima"]["end_time"] == float("inf")


def test_swapped_completions_count_both_flows_as_reordered():
    swapped = ORDER[:2] + [ORDER[3], ORDER[2]]
    delta = run_delta.compare(PARENT, run(PARENT["flows"], swapped))
    assert delta["reordered"] == ["1", "2"] and delta["rows"] == {}


def test_counters_are_compared_per_port_and_per_entry():
    ports = {"s1:1": [100, 1, 0, 0], "s1:2": [0, 0, 100, 1]}
    entries = {"s1/0/0": ["Match()", 0, 100, 1]}
    parent = dict(PARENT, ports=ports, entries=entries)
    assert run_delta.compare(parent, parent)["ports"] == []
    change = dict(
        PARENT,
        ports={"s1:1": [100, 1, 0, 0], "s1:2": [0, 0, 101, 1]},
        entries={"s1/0/0": ["Match()", 0, 100, 1], "s1/0/1": ["Match()", 0, 0, 0]},
    )
    delta = run_delta.compare(parent, change)
    assert delta["ports"] == ["s1:2"]
    assert delta["entries"] == ["s1/0/1"]  # present on one side only
    assert delta["rows"] == {}


def test_entry_timers_are_compared_apart_from_counters():
    expired = [2.0, "s1", 0, "Match()", "idle", 1.0]
    parent = dict(PARENT, timers={"s1/0/0": 1.5, "expired/0": expired})
    change = dict(PARENT, timers={"s1/0/0": 1.5, "expired/0": [2.5] + expired[1:]})
    assert run_delta.compare(parent, parent)["timers"] == []
    delta = run_delta.compare(parent, change)
    assert delta["timers"] == ["expired/0"]
    assert delta["entries"] == [] and delta["rows"] == {}


def test_different_flow_ids_are_refused():
    with pytest.raises(ValueError):
        run_delta.compare(PARENT, run({"1": [0.0, 0.0, 0.0, None, 0.0]}, []))
