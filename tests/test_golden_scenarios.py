"""Golden-scenario regression tests.

Every shipped example scenario has its run digest pinned in
examples/scenarios/GOLDEN_DIGESTS.json: sha256 over the canonical run
JSON with the wall-clock field removed (see
:func:`repro.stats.export.run_digest`).  A digest change means the
simulation *dynamics* changed — solver arithmetic, event ordering,
routing, id assignment — which must be an intentional, explained
change, never drift.

The digests are also independent of ``PYTHONHASHSEED`` (the CI
hash-independence matrix runs these same checks under two seeds), so
they double as an end-to-end determinism gate.
"""

import json
import math
import os

import pytest

from repro.runtime.scenario import reset_id_counters, run_scenario
from repro.stats.export import run_digest

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenarios"
)


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name)) as handle:
        return json.load(handle)


GOLDEN = {
    key: value
    for key, value in _load("GOLDEN_DIGESTS.json").items()
    if not key.startswith("_")
}


def _scenario_for(name):
    doc = _load(name)
    # Sweep specs pin their base scenario's run.
    return doc["base"] if "base" in doc else doc


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_matches_golden_digest(name):
    reset_id_counters()
    _, result, count = run_scenario(_scenario_for(name))
    assert count > 0
    assert run_digest(result) == GOLDEN[name], (
        f"{name}: run dynamics changed; if intentional, update "
        "examples/scenarios/GOLDEN_DIGESTS.json with the new digest"
    )


@pytest.mark.parametrize(
    "name", sorted(name for name in GOLDEN if "base" not in _load(name))
)
def test_cli_run_and_run_scenario_agree(name, capsys):
    """`repro run FILE` is run_scenario of the loaded document: both
    land on the one committed digest."""
    from repro.cli import main

    path = os.path.join(SCENARIO_DIR, name)
    assert main(["run", path, "--check-digest"]) == 0, capsys.readouterr().err


def test_every_runnable_scenario_is_pinned():
    """New example scenarios must ship with a pinned digest (the
    deliberately mis-composed analyzer fixture is exempt)."""
    exempt = {"miscomposed.json"}
    shipped = {
        name
        for name in os.listdir(SCENARIO_DIR)
        if name.endswith(".json")
        and name not in exempt
        and name != "GOLDEN_DIGESTS.json"
    }
    # solver_scale_sweep is a large sweep spec, too slow for tier-1.
    shipped.discard("solver_scale_sweep.json")
    assert shipped == set(GOLDEN)


def test_digest_ignores_wall_clock():
    reset_id_counters()
    _, result, _ = run_scenario(_scenario_for("quickstart.json"))
    before = run_digest(result)
    result.wall_time_s += 123.0
    assert run_digest(result) == before


def test_digest_covers_simulated_behaviour_only():
    """Solver work counters describe the component index, not the run:
    two results differing only in them hash equal (flat and nested under
    a hybrid run's ``background_engine``, and the metrics flattened from
    them), while a one-bit change in a flow's delivered bytes does not."""
    reset_id_counters()
    _, result, _ = run_scenario(_scenario_for("hybrid_demo.json"))
    before = run_digest(result)
    solver = result.engine_stats["background_engine"]["solver"]
    assert solver["resolves"] > 0
    for key in solver:
        solver[key] += 7
    result.engine_stats["solver"] = {"resolves": 1, "component_solves": 2}
    bumped = [key for key in result.metrics if ".solver." in key]
    assert bumped
    for key in bumped:
        result.metrics[key] += 7
    result.metrics["engine.solver.flows_resolved"] = 99
    assert run_digest(result) == before
    # The engine's own event count is behaviour and stays hashed.
    result.engine_stats["background_engine"]["rate_solves"] += 1
    assert run_digest(result) != before
    result.engine_stats["background_engine"]["rate_solves"] -= 1
    assert run_digest(result) == before
    flow = next(f for f in result.flows if f.bytes_delivered > 0)
    flow.bytes_delivered = math.nextafter(flow.bytes_delivered, math.inf)
    assert run_digest(result) != before
