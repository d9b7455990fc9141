"""The snapshot layout is computed, not remembered.

A checkpoint pickles the whole object graph of a run, so a class that
gains, loses or renames an attribute changes what an older checkpoint
restores into.  ``SNAPSHOT_VERSION`` must move with every such change.
This test captures the three engine demos and the IXP example (with a
link flap pending) at t=0 and mid-run (lazily set attributes appear
only once set), records ``{class: sorted
__dict__ / __slots__ names}`` for every ``repro`` object the pickler
reaches, and compares the layout's hash with the committed
``{SNAPSHOT_VERSION: hash}`` table in ``snapshot_layout.json``.

A layout that changed under an unchanged version fails and names the
classes that moved.  To record a new layout: bump ``SNAPSHOT_VERSION``,
then run ``PYTHONPATH=src python tests/test_snapshot_layout.py``, which
adds the version's hash and replaces the stored layout.
"""

import enum
import hashlib
import io
import json
import os
import pickle
import sys

from repro.runtime.scenario import run_scenario
from repro.runtime.snapshot import SNAPSHOT_VERSION, SimulationSnapshot

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "snapshot_layout.json")
SCENARIOS = os.path.join(HERE, "..", "examples", "scenarios")

#: Document -> the mid-run instant it is captured at (besides t=0);
#: packet_reactive.json's has packets on the wire and parked at switches.
CAPTURES = {
    "quickstart.json": 1.0, "packet_demo.json": 2.0, "hybrid_demo.json": 3.0,
    "ixp_small.json": 1.0, "packet_reactive.json": 0.04,
}
#: Document -> a link whose failure and recovery are still pending at
#: both captures, so the link-state event is in the layout too.
FLAPS = {"ixp_small.json": ("edge1", "core1")}


def _fields(obj) -> set:
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    return names - {"__dict__", "__weakref__"}


def record(snapshot: SimulationSnapshot, layout: dict) -> None:
    """Add the classes and field names of every ``repro`` object that
    pickling ``snapshot`` reaches to ``layout``."""

    class Recorder(pickle.Pickler):
        def persistent_id(self, obj):
            cls = type(obj)
            if cls.__module__.split(".")[0] == "repro" and not isinstance(obj, type):
                # An enum member pickles as its value, whatever its dict.
                fields = set() if isinstance(obj, enum.Enum) else _fields(obj)
                layout.setdefault(f"{cls.__module__}.{cls.__qualname__}", set()).update(fields)
            return None

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(snapshot)


def current_layout() -> dict:
    """``{class: sorted fields}`` over every capture of :data:`CAPTURES`."""
    layout: dict = {}
    for name, mid in CAPTURES.items():
        with open(os.path.join(SCENARIOS, name)) as handle:
            document = json.load(handle)

        def before_run(horse, count, mid=mid, flap=FLAPS.get(name)):
            if flap is not None:
                horse.fail_link(mid + 0.5, *flap)
                horse.restore_link(mid + 1.0, *flap)
            record(SimulationSnapshot.capture(horse), layout)
            horse.sim.call_at(
                mid, lambda sim: record(SimulationSnapshot.capture(horse), layout)
            )

        run_scenario(document, before_run=before_run)
    return {cls: sorted(fields) for cls, fields in sorted(layout.items())}


def layout_hash(layout: dict) -> str:
    return hashlib.sha256(json.dumps(layout, sort_keys=True).encode()).hexdigest()


def _load_table() -> dict:
    with open(TABLE) as handle:
        return json.load(handle)


def test_snapshot_layout_matches_its_version():
    table = _load_table()
    stored = table["layout"]
    assert layout_hash(stored) == table["versions"][str(max(map(int, table["versions"])))], (
        "snapshot_layout.json: the stored layout is not the newest version's"
    )
    layout = current_layout()
    version = str(SNAPSHOT_VERSION)
    moved = sorted(cls for cls in stored.keys() | layout.keys()
                   if stored.get(cls) != layout.get(cls))
    assert version in table["versions"], (
        f"SNAPSHOT_VERSION {version} has no recorded layout; run this file "
        f"to record it (classes that moved: {moved})"
    )
    assert layout_hash(layout) == table["versions"][version], (
        f"the snapshot layout changed under SNAPSHOT_VERSION {version}: bump it "
        f"in repro/runtime/snapshot.py and record the new layout. "
        f"Classes that moved: {moved}"
    )


def main() -> None:
    """Record the layout of the current ``SNAPSHOT_VERSION``."""
    table = _load_table() if os.path.exists(TABLE) else {"versions": {}}
    layout = current_layout()
    table["versions"][str(SNAPSHOT_VERSION)] = layout_hash(layout)
    table["layout"] = layout
    with open(TABLE, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"SNAPSHOT_VERSION {SNAPSHOT_VERSION}: {layout_hash(layout)} "
          f"({len(layout)} classes)", file=sys.stderr)


if __name__ == "__main__":
    main()
