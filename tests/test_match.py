"""Match semantics: wildcards, prefixes, subsumption, overlap."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPv4Address, IPv4Network, MacAddress
from repro.openflow import EthType, HeaderFields, IpProto, Match, exact_match_for, match_all
from repro.openflow.headers import tcp_flow


def header(ip_dst="10.0.0.1", tp_dst=80, **kw):
    return HeaderFields(
        eth_type=EthType.IPV4,
        ip_src=IPv4Address(kw.pop("ip_src", "10.0.0.9")),
        ip_dst=IPv4Address(ip_dst),
        ip_proto=IpProto.TCP,
        tp_src=kw.pop("tp_src", 1234),
        tp_dst=tp_dst,
        **kw,
    )


class TestMatching:
    def test_wildcard_matches_everything(self):
        assert match_all().matches(HeaderFields())
        assert match_all().matches(header())
        assert match_all().is_wildcard_all

    def test_exact_field_match(self):
        m = Match(tp_dst=80)
        assert m.matches(header(tp_dst=80))
        assert not m.matches(header(tp_dst=443))

    def test_unset_header_field_fails_exact_match(self):
        m = Match(tp_dst=80)
        assert not m.matches(HeaderFields())

    def test_prefix_match(self):
        m = Match(ip_dst=IPv4Network("10.0.0.0/24"))
        assert m.matches(header(ip_dst="10.0.0.200"))
        assert not m.matches(header(ip_dst="10.0.1.1"))

    def test_exact_ip_match(self):
        m = Match(ip_src=IPv4Address("10.0.0.9"))
        assert m.matches(header())
        assert not m.matches(header(ip_src="10.0.0.10"))

    def test_in_port_match(self):
        m = Match(in_port=3)
        assert m.matches(header(), in_port=3)
        assert not m.matches(header(), in_port=4)
        assert not m.matches(header())  # no port given

    def test_mac_match(self):
        mac = MacAddress(5)
        m = Match(eth_src=mac)
        assert m.matches(HeaderFields(eth_src=mac))
        assert not m.matches(HeaderFields(eth_src=MacAddress(6)))

    def test_exact_match_for_covers_header(self):
        hdr = tcp_flow(IPv4Address("1.2.3.4"), IPv4Address("5.6.7.8"), 10, 20)
        m = exact_match_for(hdr, in_port=2)
        assert m.matches(hdr, in_port=2)
        assert not m.matches(hdr, in_port=3)


class TestSubsumption:
    def test_wildcard_subsumes_all(self):
        assert match_all().subsumes(Match(tp_dst=80))
        assert not Match(tp_dst=80).subsumes(match_all())

    def test_prefix_subsumes_longer_prefix(self):
        wide = Match(ip_dst=IPv4Network("10.0.0.0/8"))
        narrow = Match(ip_dst=IPv4Network("10.1.0.0/16"))
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)

    def test_prefix_subsumes_exact_address(self):
        wide = Match(ip_dst=IPv4Network("10.0.0.0/8"))
        exact = Match(ip_dst=IPv4Address("10.1.2.3"))
        assert wide.subsumes(exact)
        assert not exact.subsumes(wide)

    def test_slash32_equals_exact(self):
        exact = Match(ip_dst=IPv4Address("10.0.0.1"))
        slash32 = Match(ip_dst=IPv4Network("10.0.0.1/32"))
        assert exact.subsumes(slash32)
        assert slash32.subsumes(exact)

    def test_disjoint_fields_do_not_subsume(self):
        assert not Match(tp_dst=80).subsumes(Match(tp_dst=443))
        assert not Match(tp_dst=80).subsumes(Match(ip_proto=6))

    def test_self_subsumption(self):
        m = Match(tp_dst=80, ip_dst=IPv4Network("10.0.0.0/24"))
        assert m.subsumes(m)


class TestOverlap:
    def test_disjoint_ports_do_not_overlap(self):
        assert not Match(tp_dst=80).overlaps(Match(tp_dst=443))

    def test_different_fields_overlap(self):
        assert Match(tp_dst=80).overlaps(Match(ip_proto=6))

    def test_prefix_overlap(self):
        a = Match(ip_dst=IPv4Network("10.0.0.0/8"))
        b = Match(ip_dst=IPv4Network("10.1.0.0/16"))
        c = Match(ip_dst=IPv4Network("11.0.0.0/8"))
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)

    def test_in_port_disjoint(self):
        assert not Match(in_port=1).overlaps(Match(in_port=2))
        assert Match(in_port=1).overlaps(Match())

    def test_wildcard_count(self):
        assert match_all().wildcard_count == 10
        assert Match(tp_dst=80).wildcard_count == 9


@settings(max_examples=80, deadline=None)
@given(
    ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    prefix_len=st.integers(min_value=0, max_value=32),
    tp=st.integers(min_value=1, max_value=65535),
)
def test_property_subsumes_implies_matches(ip, prefix_len, tp):
    """Any header matched by the narrow match is matched by the wide one."""
    wide = Match(ip_dst=IPv4Network((ip, prefix_len)))
    narrow = Match(ip_dst=IPv4Address(ip), tp_dst=tp)
    assert wide.subsumes(narrow)
    hdr = HeaderFields(ip_dst=IPv4Address(ip), tp_dst=tp)
    assert narrow.matches(hdr)
    assert wide.matches(hdr)


# ----------------------------------------------------------------------
# The compiled form: set fields resolved once at construction
# ----------------------------------------------------------------------
_HEADER_NAMES = [f.name for f in dataclasses.fields(HeaderFields)]
_ADDRESSES = [IPv4Address(a) for a in ("10.0.0.1", "10.0.0.2", "10.0.0.5", "10.0.1.1")]
_NETWORKS = [IPv4Network(n) for n in ("10.0.0.0/24", "10.0.0.0/30", "10.0.0.1/32", "0.0.0.0/0")]
#: Small domains, so that random matches and headers agree often.
_HEADER_VALUES = {
    "eth_src": st.sampled_from([MacAddress(1), MacAddress(2)]),
    "eth_dst": st.sampled_from([MacAddress(1), MacAddress(2)]),
    "eth_type": st.sampled_from([EthType.IPV4, EthType.ARP]),
    "vlan_vid": st.sampled_from([10, 20]),
    "ip_src": st.sampled_from(_ADDRESSES),
    "ip_dst": st.sampled_from(_ADDRESSES),
    "ip_proto": st.sampled_from([IpProto.TCP, IpProto.UDP]),
    "tp_src": st.sampled_from([1000, 2000]),
    "tp_dst": st.sampled_from([80, 443]),
}
_ports = st.one_of(st.none(), st.sampled_from([1, 2]))
_headers = st.builds(
    HeaderFields, **{n: st.one_of(st.none(), v) for n, v in _HEADER_VALUES.items()}
)
_matches = st.builds(
    Match,
    in_port=_ports,
    **{
        name: st.one_of(
            st.none(),
            values | st.sampled_from(_NETWORKS) if name in ("ip_src", "ip_dst") else values,
        )
        for name, values in _HEADER_VALUES.items()
    },
)


def _matches_field_by_field(match, headers, in_port):
    """``Match.matches`` as first written: every field looked up on
    both sides, whatever the match sets."""
    if match.in_port is not None and match.in_port != in_port:
        return False
    for name in _HEADER_NAMES:
        pattern, value = getattr(match, name), getattr(headers, name)
        if pattern is None:
            continue
        if isinstance(pattern, IPv4Network):
            if value is None or not pattern.contains(value):
                return False
        elif pattern != value:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(match=_matches, headers=_headers, in_port=_ports)
def test_compiled_match_agrees_with_the_field_by_field_reference(
    match, headers, in_port
):
    assert match.matches(headers, in_port) == _matches_field_by_field(
        match, headers, in_port
    )
    assert match.referenced_fields == tuple(
        name for name in _HEADER_NAMES if getattr(match, name) is not None
    )


def test_compiled_fields_stay_out_of_the_value():
    """Equality, hash, repr, wildcard counting, ``replace`` and pickling
    see the ten match fields only."""
    a = Match(in_port=1, eth_type=EthType.IPV4, ip_dst=IPv4Network("10.0.0.0/24"))
    b = Match(in_port=1, eth_type=EthType.IPV4, ip_dst=IPv4Network("10.0.0.0/24"))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Match(in_port=1 eth_type=0x0800 ip_dst=10.0.0.0/24)"
    assert a.wildcard_count == 7 and not a.is_wildcard_all
    assert a.referenced_fields == ("eth_type", "ip_dst")
    assert Match(in_port=1).referenced_fields == ()
    assert not Match(in_port=1).is_wildcard_all
    narrowed = dataclasses.replace(a, tp_dst=80)
    assert narrowed.referenced_fields == ("eth_type", "ip_dst", "tp_dst")
    assert narrowed.matches(header(tp_dst=80), in_port=1)
    assert not narrowed.matches(header(tp_dst=443), in_port=1)
    clone = pickle.loads(pickle.dumps(a))
    assert clone == a and clone.referenced_fields == a.referenced_fields
    assert clone.matches(header(), in_port=1)
    with pytest.raises(TypeError):
        Match(referenced_fields=("tp_dst",))
