"""Scenario schema versioning: validation, and the v0 -> v1 migrator.

Schema **v1** mirrors :class:`~repro.core.config.HorseConfig`: its
scalar fields at the top level, its nested sections as objects (the
accepted keys and JSON types are read off the dataclasses, the enum
and range rules are :meth:`HorseConfig.validate`'s)::

    {
      "schema_version": 1,
      "engine": "flow", "seed": 0,
      "until": 60.0, "control": "inproc",
      "topology": {...}, "policies": {...}, "traffic": {...},
      "faults": [{"at": 1.0, "link": ["s1", "s2"], "up": false}, ...],
      "hybrid":    {"select": "top:4", "sync_interval_s": 0.05},
      "wire":      {"client": "learning", "listen": "127.0.0.1:0", ...},
      "telemetry": {"monitor_interval_s": 0.5, "trace_path": ..., ...},
      "checkpoint": {"path": "run.ckpt", "interval_s": 5.0}
    }

Documents without
``schema_version`` are treated as v0 (engine knobs as flat top-level
keys such as ``hybrid_select`` next to a grab-bag ``runtime`` section):
:func:`ensure_v1` migrates them in memory, warning once per deprecated
key per process; ``repro migrate-scenario`` rewrites the file.
:func:`validate_scenario` reports problems with dotted paths
(``"wire.dilation must be >= 0"``, ``"bogus_key: unknown key"``); any
top-level key that is not named above and does not start with ``_``
(a comment) is an error.  ``faults`` is document data, like
``traffic``: each entry fails (``up`` false) or restores (true) the one
link between two nodes at simulated time ``at``; its structure is
checked here, whether the link exists when the topology is built.

An *override* — a CLI flag, a sweep grid axis — is an edit of the v1
document by dotted path: :func:`set_dotted`, after :func:`ensure_v1`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import typing
import warnings
from typing import Any, Dict, List, Set, Tuple

from ..core.config import SECTION_TYPES, HorseConfig, reject_unknown
from ..errors import ExperimentError

SCHEMA_VERSION = 1

#: v0 top-level scenario key -> (v1 section, field).
V0_TOP_KEYS: Dict[str, Tuple[str, str]] = {
    "hybrid_select": ("hybrid", "select"),
    "hybrid_sync_interval_s": ("hybrid", "sync_interval_s"),
    "wire_client": ("wire", "client"),
    "monitor_interval_s": ("telemetry", "monitor_interval_s"),
    "link_sample_interval_s": ("telemetry", "link_sample_interval_s"),
}

#: v0 ``runtime`` section key -> (v1 section, field).
V0_RUNTIME_KEYS: Dict[str, Tuple[str, str]] = {
    "monitor_mode": ("telemetry", "monitor_mode"),
    "monitor_push_min_delta_bytes": ("telemetry", "monitor_push_min_delta_bytes"),
    "trace_path": ("telemetry", "trace_path"),
    "checkpoint_path": ("checkpoint", "path"),
    "checkpoint_interval_s": ("checkpoint", "interval_s"),
    "wire_listen": ("wire", "listen"),
    "wire_client_routes": ("wire", "client_routes"),
    "wire_sync_quantum_s": ("wire", "sync_quantum_s"),
    "wire_latency_budget_s": ("wire", "latency_budget_s"),
    "wire_dilation": ("wire", "dilation"),
}

#: Python annotation on a config field -> the JSON types it accepts
#: (a JSON integer is a valid float; bool is only valid where declared).
_JSON_TYPES = {
    str: (str,),
    int: (int,),
    float: (int, float),
    bool: (bool,),
    list: (list,),
    type(None): (type(None),),
}


def _json_types(hint) -> tuple:
    members = typing.get_args(hint)  # Optional[X] / Union[X, Y]
    if members:
        return tuple(t for member in members for t in _json_types(member))
    return _JSON_TYPES[hint]


def _field_types(cls) -> Dict[str, tuple]:
    """``{field: accepted JSON types}`` read off a config dataclass, so
    the document accepts exactly the keys the dataclass declares."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _json_types(hints[f.name])
        for f in dataclasses.fields(cls)
        if f.name not in SECTION_TYPES
    }


#: Top-level document key -> accepted JSON types (HorseConfig's scalars).
_TOP_TYPES = _field_types(HorseConfig)

#: Document section key (= HorseConfig attribute) -> {field: JSON types}.
_SECTIONS = {name: _field_types(cls) for name, cls in SECTION_TYPES.items()}

#: Top-level document keys that are not config fields.
_DOCUMENT_KEYS = (
    "schema_version", "until", "topology", "policies", "traffic", "faults"
)

#: One ``faults`` entry's keys, all required.
_FAULT_KEYS = ("at", "link", "up")

#: Deprecated scenario keys already warned about (warn-once semantics).
_WARNED_SCENARIO_KEYS: Set[str] = set()


def reset_scenario_warnings() -> None:
    """Forget which deprecated scenario keys have warned (test hook)."""
    _WARNED_SCENARIO_KEYS.clear()


def _warn_scenario_key(old: str, section: str, field: str) -> None:
    if old in _WARNED_SCENARIO_KEYS:
        return
    _WARNED_SCENARIO_KEYS.add(old)
    warnings.warn(
        f"scenario key {old!r} is deprecated; use \"{section}\": "
        f"{{\"{field}\": ...}} (or run `repro migrate-scenario`)",
        DeprecationWarning,
        stacklevel=4,
    )


def scenario_version(doc: dict) -> int:
    """The document's declared schema version (absent = 0)."""
    version = doc.get("schema_version", 0)
    if not isinstance(version, int) or version < 0:
        raise ExperimentError(
            f"schema_version: must be a non-negative integer, got {version!r}"
        )
    return version


def migrate_scenario(doc: dict) -> Tuple[dict, List[Tuple[str, str, str]]]:
    """A v1 copy of ``doc``, plus the ``(old key, section, field)``
    moves it made (``runtime.``-prefixed for the v0 runtime section).

    v1 documents come back unchanged (and no moves).  The input is
    never mutated.
    """
    version = scenario_version(doc)
    if version > SCHEMA_VERSION:
        raise ExperimentError(
            f"schema_version: {version} is newer than this build "
            f"supports ({SCHEMA_VERSION})"
        )
    out = copy.deepcopy(doc)
    if version == SCHEMA_VERSION:
        return out, []
    moves: List[Tuple[str, str, str]] = []

    def move(value, section: str, field: str, old: str) -> None:
        target = out.setdefault(section, {})
        if not isinstance(target, dict):
            raise ExperimentError(
                f"{section}: expected an object, got {type(target).__name__}"
            )
        # An explicit v1-style value wins over the legacy flat key.
        target.setdefault(field, value)
        moves.append((old, section, field))

    for old, (section, field) in V0_TOP_KEYS.items():
        if old in out:
            move(out.pop(old), section, field, old)
    runtime = out.pop("runtime", None) or {}
    if not isinstance(runtime, dict):
        raise ExperimentError(
            f"runtime: expected an object, got {type(runtime).__name__}"
        )
    for old, (section, field) in V0_RUNTIME_KEYS.items():
        if old in runtime:
            move(runtime.pop(old), section, field, f"runtime.{old}")
    if runtime:
        unknown = ", ".join(sorted(runtime))
        raise ExperimentError(f"runtime: unknown key(s): {unknown}")
    out["schema_version"] = SCHEMA_VERSION
    return out, moves


def ensure_v1(doc: dict, warn: bool = True) -> dict:
    """``doc`` as a v1 document: ``doc`` itself when it already is one,
    else a migrated copy (the input is never mutated).

    With ``warn`` (the default) each legacy key found triggers a
    once-per-process :class:`DeprecationWarning` naming its new home.
    """
    if scenario_version(doc) != SCHEMA_VERSION:
        doc, moves = migrate_scenario(doc)
        if warn:
            for move in moves:
                _warn_scenario_key(*move)
    return doc


def load_scenario(path: str) -> dict:
    """The scenario file at ``path`` as a v1 document (see
    :func:`ensure_v1`), owned by the caller and ready for edits."""
    with open(path) as handle:
        return ensure_v1(json.load(handle))


def set_dotted(doc: dict, dotted: str, value: Any) -> None:
    """Set ``doc["a"]["b"]["c"]`` for dotted path ``"a.b.c"``: the one
    way an override (CLI flag, sweep grid axis) is written into a v1
    document."""
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _check_type(path: str, value, types: tuple) -> None:
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and bool not in types:
        raise ExperimentError(
            f"{path}: expected {_type_names(types)}, got a boolean"
        )
    if not isinstance(value, types):
        raise ExperimentError(
            f"{path}: expected {_type_names(types)}, "
            f"got {type(value).__name__}"
        )


def _type_names(types: tuple) -> str:
    names = [
        "null" if t is type(None) else t.__name__
        for t in types
    ]
    return " or ".join(names)


def _section_kwargs(section: str, value, fields: Dict[str, tuple]) -> dict:
    """One document section, structure- and type-checked, as the
    keyword arguments of its config dataclass."""
    if not isinstance(value, dict):
        raise ExperimentError(
            f"{section}: expected an object, got {type(value).__name__}"
        )
    reject_unknown(value, fields, f"{section}.")
    kwargs = {}
    for field, fval in value.items():
        types = fields[field]
        if fval is None and type(None) not in types:
            # null = "use the default" for any field in JSON.
            continue
        _check_type(f"{section}.{field}", fval, types)
        kwargs[field] = fval
    return kwargs


def _check_faults(faults) -> None:
    """The ``faults`` section's structure: a list of ``{"at": s,
    "link": [a, b], "up": bool}`` with ``at`` finite and >= 0.  Like a
    flow's arrival, a fault at ``until`` fires at that last instant and
    one after it is accepted and stays pending: it never fires in this
    run, only in one resumed past it."""
    _check_type("faults", faults, (list,))
    for i, fault in enumerate(faults):
        path = f"faults[{i}]"
        if not isinstance(fault, dict):
            raise ExperimentError(
                f"{path}: expected an object, got {type(fault).__name__}"
            )
        reject_unknown(fault, _FAULT_KEYS, f"{path}.")
        for key in _FAULT_KEYS:
            if key not in fault:
                raise ExperimentError(f"{path}.{key}: required")
        _check_type(f"{path}.at", fault["at"], _JSON_TYPES[float])
        if not (math.isfinite(fault["at"]) and fault["at"] >= 0):
            raise ExperimentError(f"{path}.at: must be finite and >= 0")
        link = fault["link"]
        if not (
            isinstance(link, list) and len(link) == 2
            and all(isinstance(node, str) for node in link)
        ):
            raise ExperimentError(f"{path}.link: expected two node names")
        _check_type(f"{path}.up", fault["up"], (bool,))


def _config_of(doc: dict) -> HorseConfig:
    """Check a v1 document's structure and JSON types, then construct
    its config: every enum and range rule is
    :meth:`HorseConfig.validate`'s."""
    reject_unknown(
        (key for key in doc if not key.startswith("_")),
        (*_TOP_TYPES, *_SECTIONS, *_DOCUMENT_KEYS),
    )
    if doc.get("until") is not None:
        _check_type("until", doc["until"], _JSON_TYPES[float])
        if doc["until"] < 0:
            raise ExperimentError("until: must be >= 0")
    if "faults" in doc:
        _check_faults(doc["faults"])
    kwargs = {}
    for key, types in _TOP_TYPES.items():
        if key in doc:
            _check_type(key, doc[key], types)
            kwargs[key] = doc[key]
    for section, fields in _SECTIONS.items():
        if section in doc:
            kwargs[section] = SECTION_TYPES[section](
                **_section_kwargs(section, doc[section], fields)
            )
    return HorseConfig(**kwargs)


def validate_scenario(doc: dict) -> None:
    """Check a document; raises :class:`~repro.errors.ExperimentError`
    naming the offending field by dotted path.  Accepts v0 documents
    by migrating a throwaway copy first, so errors always report v1
    paths.
    """
    _config_of(ensure_v1(doc, warn=False))


def build_config(scenario: dict) -> HorseConfig:
    """A validated :class:`HorseConfig` from a scenario document.

    Legacy (v0) documents are migrated in memory first, warning once
    per deprecated key.
    """
    return _config_of(ensure_v1(scenario))


class Scenario:
    """A validated scenario document, ready to build or run.

    The stable object form of a scenario file: loads JSON, migrates
    legacy (v0) keys, validates with dotted-path errors, and exposes
    the builders the CLI uses, so programmatic callers and shell
    invocations construct byte-identical simulations.

    Examples
    --------
    >>> scenario = Scenario.from_file("examples/scenarios/quickstart.json")
    >>> horse, result, flows = scenario.run()
    """

    def __init__(self, doc: dict) -> None:
        self.doc = ensure_v1(doc)
        validate_scenario(self.doc)

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        return cls(load_scenario(path))

    def config(self):
        """The :class:`~repro.core.config.HorseConfig` this document
        describes."""
        return build_config(self.doc)

    def build(self):
        """``(horse, fabric)`` with topology and policies in place but
        no traffic submitted."""
        from .scenario import build_horse

        return build_horse(self.doc)

    def run(self):
        """Build, load, and run end to end; returns
        ``(horse, result, flow_count)``."""
        from .scenario import run_scenario

        return run_scenario(self.doc)
