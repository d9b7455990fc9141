"""``tools/bench_pairs.py`` and ``tools/bench_ledger.py`` on canned samples,
``tools/bench_history.py`` on the committed ledger."""

import importlib.util
import json
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


def test_five_clean_wins_are_too_few_to_claim(capsys):
    """Five of five won with a gap far outside the parent's spread
    still claim nothing, and the printed table says why."""
    parent, change = PARENT[:5], [p * 0.6 for p in PARENT[:5]]
    v = verdict(parent, change, "lower")
    assert (v["wins"], v["pairs"]) == (5, 5) and v["gap"] > v["parent_iqr"]
    assert v["verdict"] == "no claim"
    sides = {"parent": [_entry(p, "aa") for p in parent],
             "change": [_entry(c, "aa") for c in change]}
    bench_pairs.print_seed(11, bench_pairs.seed_rows(sides, {"wall_s": "lower"}))
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "wall_s" in line]
    assert line.endswith("no claim (gap 0.804 vs parent IQR 0.02; fewer than 10 pairs)")


def test_unpaired_or_single_samples_are_refused():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "lower")


def _entry(wall_s, digest):
    return {"end_to_end": {"wall_s": wall_s, "fct_acc_hybrid": None},
            "info": {"run_digest": digest}}


def test_seed_rows_keep_every_run_and_the_digests_seen():
    sides = {"parent": [_entry(p, "aa") for p in PARENT],
             "change": [_entry(p * 0.6, "bb") for p in PARENT]}
    rows = bench_pairs.seed_rows(
        sides, {"wall_s": "lower", "fct_acc_hybrid": "higher"}
    )
    assert rows["verdicts"]["wall_s"]["verdict"] == "gain"
    assert rows["verdicts"]["fct_acc_hybrid"] is None  # not measured
    assert [run["wall_s"] for run in rows["runs"]["parent"]] == PARENT
    assert rows["run_digest"] == {"parent": ["aa"], "change": ["bb"]}


def test_ledger_entry_puts_both_sides_and_the_pairs_side_by_side():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger", os.path.join(ROOT, "tools", "bench_ledger.py")
    )
    bench_ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ledger)

    def report(wall_s, events, digest):
        return {"env": {"calibration_score": 1.5}, "seed": 11, "workloads": {
            "packet_reference": {"end_to_end": {"wall_s": wall_s},
                                 "per_layer": {"sim.events": events},
                                 "info": {"run_digest": digest}}}}

    sides = {"parent": [_entry(p, "aa") for p in PARENT],
             "change": [_entry(p * 0.6, "bb") for p in PARENT]}
    rows = bench_pairs.seed_rows(sides, {"wall_s": "lower"})
    pairs = {"workload": "packet_reference", "seeds": {"11": rows}}
    entry = bench_ledger.entry(
        7, "title", {"parent": report(2.0, 303, "aa"), "change": report(1.5, 221, "bb")},
        [pairs],
    )
    workload = entry["workloads"]["packet_reference"]
    assert workload["end_to_end"]["wall_s"] == {"parent": 2.0, "change": 1.5}
    assert workload["per_layer"]["sim.events"] == {"parent": 303, "change": 221}
    assert workload["run_digest"] == {"parent": "aa", "change": "bb"}
    assert workload["pairs"][0]["11"]["verdicts"]["wall_s"]["wins"] == 10
    assert entry["env"]["change"]["calibration_score"] == 1.5


def test_history_reads_the_committed_ledger_and_marks_backfill(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_history", os.path.join(ROOT, "tools", "bench_history.py")
    )
    bench_history = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_history)
    ledger = os.path.join(ROOT, "benchmarks", "ledger")
    rows = bench_history.trend(bench_history.load(ledger), "wall_s")

    def pr41(history):  # later entries append rows after it
        assert history[0]["pr"] == 41
        return history[0]

    row = pr41(rows["packet_reference"])
    assert row["backfill"] is False
    assert row["ratio"] == pytest.approx(1.9943288959984784 / 2.2133324969981913)
    assert row["rounds"][-1] == {"11": ("gain", 10, 10), "13": ("gain", 10, 10)}
    row = pr41(rows["reactive_l2"])  # pairs only, no traced report
    assert row["parent"] is None and row["rounds"][0]["11"] == ("no claim", 5, 5)
    events = bench_history.trend(bench_history.load(ledger), "sim.events")
    # Per-layer figures too: BENCH_41 has them for packet_reference only.
    assert [name for name, history in events.items()
            if history[0]["pr"] == 41] == ["packet_reference"]
    assert pr41(events["packet_reference"])["change"] == 221861

    # A backfilled entry sorts by PR and prints with its mark.
    with open(os.path.join(ledger, "BENCH_41.json")) as handle:
        (tmp_path / "BENCH_41.json").write_text(handle.read())
    (tmp_path / "BENCH_9.json").write_text(json.dumps({
        "pr": 9, "backfill": True, "workloads": {
            "packet_reference": {"end_to_end": {"wall_s": {"parent": 3.0, "change": 2.4}}}}}))
    assert bench_history.main(["--ledger", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "across 2 ledger entries" in out
    lines = out.split("packet_reference")[1].splitlines()
    assert lines[2].split()[:4] == ["9*", "3", "2.4", "0.8000"]
    assert lines[3].split()[:4] == ["41", "2.21333", "1.99433", "0.9011"]


def test_history_reads_a_short_round_as_no_claim(capsys):
    """BENCH_41 recorded reactive_l2 at seed 11 as "gain" from a round of
    five pairs; below ``MIN_PAIRS`` the history prints "no claim"."""
    spec = importlib.util.spec_from_file_location(
        "bench_history", os.path.join(ROOT, "tools", "bench_history.py")
    )
    bench_history = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_history)
    with open(os.path.join(ROOT, "benchmarks", "ledger", "BENCH_41.json")) as handle:
        recorded = json.load(handle)["workloads"]["reactive_l2"]["pairs"][0]["11"]
    assert recorded["verdicts"]["wall_s"]["verdict"] == "gain"
    assert recorded["verdicts"]["wall_s"]["pairs"] < bench_pairs.MIN_PAIRS
    assert bench_history.main([]) == 0
    out = capsys.readouterr().out.split("reactive_l2")[1]
    assert "11 no claim 5/5" in out and "gain 5/5" not in out
