"""Hash-seed independence: run bytes must not depend on PYTHONHASHSEED.

Python randomizes ``str`` hashing per process, so any simulation code
path that iterates a set or dict of strings in hash order produces
different event orderings in different processes.  The lint rules
(DET003) catch the static pattern; this test catches the dynamic
outcome: the full run JSON written by ``repro run`` must be
byte-identical (modulo wall time) across two processes with different
hash seeds.

CI additionally runs the whole tier-1 suite under two seeds (see the
hash-independence matrix in .github/workflows/ci.yml); those legs
compare the golden digests, which are committed constants, so they
gate the same property end to end.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")
SCENARIOS = [
    "quickstart.json", "hybrid_demo.json", "packet_demo.json", "ixp_small.json",
    "packet_reactive.json",
]


def _run_under_seed(scenario, seed, out_path):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            os.path.join(REPO, "examples", "scenarios", scenario),
            "--json",
            out_path,
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out_path) as handle:
        doc = json.load(handle)
    doc.pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_json_identical_across_hash_seeds(scenario, tmp_path):
    a = _run_under_seed(scenario, "0", str(tmp_path / "a.json"))
    b = _run_under_seed(scenario, "4242", str(tmp_path / "b.json"))
    assert a == b, f"{scenario}: run document depends on PYTHONHASHSEED"
