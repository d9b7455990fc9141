"""``tools/bench_pairs.py``: the paired-run verdict on canned samples."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [2.00, 2.02, 1.98, 2.05, 2.01, 1.99, 2.03, 2.00, 2.04, 1.97]


def test_clear_gain_on_a_lower_is_better_metric():
    change = [p * 0.6 for p in PARENT]
    v = verdict(PARENT, change, "lower")
    assert (v["wins"], v["ties"], v["pairs"]) == (10, 0, 10)
    assert v["verdict"] == "gain"
    assert v["ratio"] == pytest.approx(0.6)
    assert v["parent"] == pytest.approx((2.005, 1.9925, 2.0275))
    assert v["gap"] == pytest.approx(0.4 * 2.005)
    assert v["parent_iqr"] == pytest.approx(0.035)


def test_nine_of_ten_is_enough_eight_is_not():
    change = [p - 0.5 for p in PARENT]
    change[3] = PARENT[3] + 0.5
    assert verdict(PARENT, change, "lower")["verdict"] == "gain"
    change[7] = PARENT[7] + 0.5
    v = verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and v["verdict"] == "no claim"


def test_ties_count_for_neither_side():
    change = [p - 0.5 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]  # 8 wins, 2 ties, no loss
    v = verdict(PARENT, change, "lower")
    assert (v["wins"], v["ties"]) == (8, 2)
    assert v["verdict"] == "no claim"


def test_every_pair_won_but_inside_the_parents_own_spread():
    change = [p - 0.01 for p in PARENT]
    v = verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and v["gap"] < v["parent_iqr"]
    assert v["verdict"] == "no claim"


def test_loss_is_the_mirror_image():
    change = [p * 1.5 for p in PARENT]
    assert verdict(PARENT, change, "lower")["verdict"] == "loss"
    assert verdict(PARENT, change, "higher")["verdict"] == "gain"


def test_identical_simulated_statistic_claims_nothing():
    same = [0.96939] * 10
    v = verdict(same, same, "higher")
    assert (v["wins"], v["ties"], v["verdict"]) == (0, 10, "no claim")
    assert v["ratio"] == 1.0


def test_unpaired_or_single_samples_are_refused():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "lower")
