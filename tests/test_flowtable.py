"""Flow table tests: priorities, FlowMod semantics, timeouts, counters."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GroupError, MeterError, TableFullError
from repro.net import IPv4Address, IPv4Network, MacAddress, Topology
from repro.openflow import (
    ApplyActions,
    Bucket,
    Drop,
    DropBand,
    FlowEntry,
    FlowTable,
    GroupType,
    HeaderFields,
    Match,
    Output,
    attach_pipeline,
)


def entry(priority=0, instructions=None, **match_fields):
    return FlowEntry(
        match=Match(**match_fields),
        priority=priority,
        instructions=instructions or (ApplyActions((Output(1),)),),
    )


def header(ip_dst="10.0.0.1"):
    return HeaderFields(ip_dst=IPv4Address(ip_dst))


class TestLookup:
    def test_highest_priority_wins(self):
        table = FlowTable()
        low = entry(priority=1)
        high = entry(priority=10, ip_dst=IPv4Address("10.0.0.1"))
        table.add(low)
        table.add(high)
        assert table.lookup(header()) is high
        assert table.lookup(header("10.0.0.2")) is low

    def test_insertion_order_breaks_priority_ties(self):
        table = FlowTable()
        first = entry(priority=5, ip_dst=IPv4Address("10.0.0.1"))
        second = entry(priority=5)  # overlapping but distinct match
        table.add(first)
        table.add(second)
        assert table.lookup(header()) is first

    def test_ties_across_shapes_and_order_inside_a_bucket(self):
        """Entries of different match shapes tie-break like any others
        (the older wins, whichever shape the table met first), and a
        later, higher-priority rule on the same match goes ahead."""
        table = FlowTable()
        catch_all = table.add(entry(priority=5))
        exact = table.add(entry(priority=5, ip_dst=IPv4Address("10.0.0.1")))
        prefix = table.add(entry(priority=5, ip_dst=IPv4Network("10.0.0.0/24")))
        assert table.lookup(header()) is catch_all
        table.delete(Match(), strict=True)
        assert table.lookup(header()) is exact
        assert table.lookup(header("10.0.0.9")) is prefix
        raised = table.add(entry(priority=6, ip_dst=IPv4Network("10.0.0.0/24")))
        assert table.lookup(header()) is raised
        assert table.lookup(header("10.0.1.9")) is None

    def test_miss_returns_none_and_counts(self):
        table = FlowTable()
        assert table.lookup(header()) is None
        table.add(entry(ip_dst=IPv4Address("10.9.9.9")))
        assert table.lookup(header()) is None
        stats = table.stats()
        assert stats["lookup_count"] == 2
        assert stats["matched_count"] == 0

    def test_in_port_lookup(self):
        table = FlowTable()
        table.add(entry(priority=5, in_port=2))
        assert table.lookup(header(), in_port=2) is not None
        assert table.lookup(header(), in_port=3) is None


class TestAdd:
    def test_identical_match_and_priority_replaces(self):
        table = FlowTable()
        old = entry(priority=5, ip_dst=IPv4Address("10.0.0.1"))
        new = FlowEntry(
            match=Match(ip_dst=IPv4Address("10.0.0.1")),
            priority=5,
            instructions=(ApplyActions((Drop(),)),),
        )
        table.add(old)
        table.add(new)
        assert len(table) == 1
        assert table.lookup(header()) is new

    def test_check_overlap_rejects_same_priority_overlap(self):
        table = FlowTable()
        table.add(entry(priority=5, ip_dst=IPv4Network("10.0.0.0/8")))
        with pytest.raises(TableFullError):
            table.add(
                entry(priority=5, ip_dst=IPv4Network("10.0.0.0/24")),
                check_overlap=True,
            )
        # Different priority never conflicts.
        table.add(
            entry(priority=6, ip_dst=IPv4Network("10.0.0.0/24")),
            check_overlap=True,
        )

    def test_table_capacity_enforced(self):
        table = FlowTable(max_size=2)
        table.add(entry(priority=1))
        table.add(entry(priority=2, tp_dst=80))
        with pytest.raises(TableFullError):
            table.add(entry(priority=3, tp_dst=443))
        # Replacement still allowed at capacity.
        table.add(entry(priority=1))
        assert len(table) == 2


class TestModifyDelete:
    def test_loose_delete_uses_subsumption(self):
        table = FlowTable()
        table.add(entry(priority=1, ip_dst=IPv4Address("10.0.0.1")))
        table.add(entry(priority=2, ip_dst=IPv4Address("10.0.0.2")))
        table.add(entry(priority=3, ip_dst=IPv4Address("11.0.0.1")))
        removed = table.delete(Match(ip_dst=IPv4Network("10.0.0.0/8")))
        assert len(removed) == 2
        assert len(table) == 1

    def test_strict_delete_requires_exact_match(self):
        table = FlowTable()
        kept = entry(priority=1, ip_dst=IPv4Address("10.0.0.1"))
        table.add(kept)
        assert table.delete(Match(), strict=True) == []
        removed = table.delete(
            Match(ip_dst=IPv4Address("10.0.0.1")), priority=1, strict=True
        )
        assert removed == [kept]

    def test_delete_filtered_by_cookie(self):
        table = FlowTable()
        a = entry(priority=1)
        a.cookie = 7
        b = entry(priority=2, tp_dst=80)
        b.cookie = 8
        table.add(a)
        table.add(b)
        removed = table.delete(Match(), cookie=7)
        assert removed == [a]
        assert len(table) == 1

    def test_modify_rewrites_instructions_keeps_counters(self):
        table = FlowTable()
        e = entry(priority=1)
        table.add(e)
        e.account(100, 1)
        table.modify(Match(), (ApplyActions((Drop(),)),))
        assert e.instructions == (ApplyActions((Drop(),)),)
        assert e.byte_count == 100


class TestTimeouts:
    def test_hard_timeout_expires(self):
        table = FlowTable()
        e = FlowEntry(match=Match(), priority=0, hard_timeout=5.0, install_time=0.0)
        table.add(e)
        assert table.expire(now=4.9) == []
        expired = table.expire(now=5.0)
        assert expired == [(e, "hard")]
        assert len(table) == 0

    def test_idle_timeout_resets_on_use(self):
        table = FlowTable()
        e = FlowEntry(match=Match(), priority=0, idle_timeout=2.0, install_time=0.0)
        table.add(e)
        e.account(10, 1, now=1.5)
        assert table.expire(now=3.0) == []  # used at 1.5, idle until 3.5
        assert table.expire(now=3.5) == [(e, "idle")]

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        table.add(entry())
        assert table.expire(now=1e9) == []

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            FlowEntry(match=Match(), idle_timeout=-1)

    def test_hard_beats_idle_when_both_due(self):
        e = FlowEntry(
            match=Match(), idle_timeout=1.0, hard_timeout=1.0, install_time=0.0
        )
        assert e.expired(now=1.0) == "hard"


class TestIntrospection:
    def test_entries_by_cookie(self):
        table = FlowTable()
        e = entry()
        e.cookie = 42
        table.add(e)
        table.add(entry(priority=3, tp_dst=80))
        assert table.entries_by_cookie(42) == [e]

    def test_iteration_and_clear(self):
        table = FlowTable()
        table.add(entry(priority=1))
        table.add(entry(priority=2, tp_dst=80))
        assert len(list(table)) == 2
        table.clear()
        assert len(table) == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FlowTable(table_id=-1)
        with pytest.raises(ValueError):
            FlowTable(max_size=0)


# ----------------------------------------------------------------------
# Property: the scan is the oracle.  Whatever program of flow-mods a
# table has been through, it is its entries sorted by sort_key, lookup
# returns the entry a scan of them reaches first, referenced_fields
# counts the fields the live matches set, and the owning pipeline's
# version grew exactly when something changed.
# ----------------------------------------------------------------------
_ADDRESSES = [IPv4Address(a) for a in
              ("10.0.0.1", "10.0.0.2", "10.0.0.5", "10.0.1.1", "10.9.0.1", "11.0.0.1")]
_MACS = [MacAddress(1), MacAddress(2)]
# Exact addresses, prefixes of several lengths around them (a /32 prefix
# shares an exact address's key but is not equal to it), in_port rules,
# L2 and L4 fields: pools small enough that the rules overlap.
_MATCHES = (
    [Match()]
    + [Match(ip_dst=a) for a in _ADDRESSES[:4]]
    + [Match(ip_dst=IPv4Network(n)) for n in
       ("10.0.0.0/30", "10.0.0.0/24", "10.0.0.0/16", "10.0.0.0/8", "0.0.0.0/0",
        "10.0.0.1/32")]
    + [
        Match(in_port=1),
        Match(in_port=2, ip_dst=_ADDRESSES[0]),
        Match(ip_src=IPv4Network("10.0.0.0/24"), ip_dst=_ADDRESSES[1]),
        Match(ip_src=_ADDRESSES[0]),
        Match(eth_dst=_MACS[0]),
        Match(eth_dst=_MACS[1], eth_type=0x0800),
        Match(tp_dst=80),
        Match(eth_dst=_MACS[0], ip_dst=IPv4Network("10.0.0.0/24"), tp_dst=80),
    ]
)
_HEADERS = [HeaderFields()] + [
    HeaderFields(eth_dst=mac, eth_type=eth_type, ip_src=src, ip_dst=dst, tp_dst=port)
    for mac, eth_type, src, dst, port in (
        (None, None, None, _ADDRESSES[0], None),
        (None, None, None, _ADDRESSES[1], 80),
        (_MACS[0], 0x0800, _ADDRESSES[0], _ADDRESSES[1], 80),
        (_MACS[1], 0x0800, _ADDRESSES[1], _ADDRESSES[2], 443),
        (_MACS[0], None, _ADDRESSES[4], _ADDRESSES[3], 80),
        (_MACS[1], 0x0806, None, None, None),
        (None, 0x0800, _ADDRESSES[5], _ADDRESSES[4], None),
        (None, None, _ADDRESSES[0], _ADDRESSES[5], 80),
    )
]
_IN_PORTS = (None, 1, 2)
_DROP = (ApplyActions((Drop(),)),)

_which = st.integers(0, len(_MATCHES) - 1)
_OPS = st.one_of(
    st.tuples(
        st.just("add"), _which,
        st.integers(0, 3),  # priority
        st.sampled_from((0.0, 1.0, 3.0)),  # idle timeout
        st.integers(0, 2),  # cookie
    ),
    st.tuples(st.just("replace"), st.integers(0, 50)),
    st.tuples(st.just("delete"), _which, st.booleans(),
              st.sampled_from((None, 0, 1, 2))),  # strict, cookie
    st.tuples(st.just("modify"), _which, st.booleans()),
    st.tuples(st.just("expire"), st.sampled_from((0.5, 1.0, 2.5))),
    st.one_of(  # the rarer steps share a turn, so rules come and go mostly
        st.tuples(st.just("clear")),
        st.tuples(st.just("pickle")),
        st.tuples(st.sampled_from(("group", "meter")),
                  st.sampled_from(("add", "modify", "delete")), st.integers(1, 2)),
    ),
)


def _registry_op(registry, verb, number, payload, error):
    """One group / meter mod; True when it went through."""
    try:
        if verb == "delete":
            registry.delete(number)
        else:
            getattr(registry, verb)(number, *payload)
    except error:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_OPS, max_size=40))
def test_property_lookup_is_the_scan_and_version_counts_changes(program):
    pipeline = attach_pipeline(Topology().add_switch("s1"))
    table = pipeline.table(0)
    live = []  # the model: entries believed installed, any order
    now = 0.0
    for op in program:
        version = pipeline.version
        changed = False
        if op[0] == "add":
            _, which, priority, idle, cookie = op
            new = FlowEntry(
                match=_MATCHES[which], priority=priority,
                idle_timeout=idle, cookie=cookie, install_time=now,
            )
            live = [
                e for e in live
                if not (e.priority == priority and e.match == new.match)
            ]
            live.append(table.add(new))
            changed = True
        elif op[0] == "replace" and live:
            old = live.pop(op[1] % len(live))
            new = FlowEntry(
                match=old.match, priority=old.priority, install_time=now
            )
            assert new.seq > old.seq
            live.append(table.add(new))
            assert all(e is not old for e in table)
            changed = True
        elif op[0] == "delete":
            _, which, strict, cookie = op
            removed = table.delete(_MATCHES[which], strict=strict, cookie=cookie)
            assert all(cookie is None or e.cookie == cookie for e in removed)
            live = [e for e in live if all(e is not r for r in removed)]
            changed = bool(removed)
        elif op[0] == "modify":
            touched = table.modify(_MATCHES[op[1]], _DROP, strict=op[2])
            assert all(e.instructions == _DROP for e in touched)
            changed = bool(touched)
        elif op[0] == "expire":
            now += op[1]
            gone = [e for e, _ in table.expire(now)]
            assert all(e.expired(now) for e in gone)
            live = [e for e in live if all(e is not g for g in gone)]
            assert not any(e.expired(now) for e in live)
            changed = bool(gone)
        elif op[0] == "clear":
            changed = bool(live)
            table.clear()
            live = []
        elif op[0] == "pickle":
            # The program continues on the copy: its index, its field
            # counts and the pipeline its tables report to came along.
            before = list(table)
            pipeline = pickle.loads(pickle.dumps(pipeline))
            table = pipeline.table(0)
            twin = {id(old): new for old, new in zip(before, table)}
            live = [twin[id(e)] for e in live]
        elif op[0] == "group":
            changed = _registry_op(
                pipeline.groups, op[1], op[2],
                (GroupType.ALL, [Bucket([Output(1)])]), GroupError,
            )
        elif op[0] == "meter":
            changed = _registry_op(
                pipeline.meters, op[1], op[2], ([DropBand(1e6)],), MeterError
            )
        assert (pipeline.version > version) == changed
        want = sorted(live, key=lambda e: e.sort_key)
        got = list(table)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        assert set(table.referenced_fields) == {
            name for e in want for name in e.match.referenced_fields
        }
        assert all(count > 0 for count in table.referenced_fields.values())
        for headers in _HEADERS:
            for in_port in _IN_PORTS:
                scan = next(
                    (e for e in want if e.match.matches(headers, in_port)), None
                )
                assert table.lookup(headers, in_port) is scan
