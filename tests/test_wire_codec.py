"""Property and adversarial tests for the OpenFlow wire codec.

The codec promises ``decode(encode(m)) == m`` for every control message
the simulator can emit, and a :class:`~repro.errors.WireError` (never a
crash, never a silent wrong answer) for every malformed frame.  The
round-trip half is checked with hypothesis over the full message
algebra — all encoder-table classes, wildcard matches, IPv4 prefixes,
the tagged value codec, nested actions/instructions/buckets/bands — and
the rejection half with deterministic corrupted frames: truncation at
every byte, trailing garbage, bad version, unknown type/subtype/tag
codes, out-of-range fields, and oversized frames.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.net.address import IPv4Address, IPv4Network, MacAddress
from repro.openflow.action import (
    ApplyActions,
    Drop,
    Flood,
    GotoTable,
    GroupAction,
    MeterInstruction,
    Output,
    PopVlan,
    PushVlan,
    SetField,
    ToController,
)
from repro.openflow.group import Bucket, GroupType
from repro.openflow.headers import HeaderFields
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    FlowRemovedReason,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    GroupModCommand,
    Hello,
    MeterMod,
    MeterModCommand,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortStatusReason,
    TableStatsReply,
    TableStatsRequest,
)
from repro.openflow.meter import DropBand
from repro.wire import codec
from repro.wire.codec import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    WIRE_VERSION,
    FrameReader,
    decode,
    encode,
)

# ----------------------------------------------------------------------
# Strategies: exact wire-field domains
# ----------------------------------------------------------------------

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, 2**64 - 1)
i32 = st.integers(-(2**31), 2**31 - 1)
i64 = st.integers(-(2**63), 2**63 - 1)
# IEEE doubles survive `!d` exactly; NaN would break == round-trips.
f64 = st.floats(allow_nan=False, allow_infinity=False)

dpids = u64
xids = u32
macs = st.builds(MacAddress, st.integers(0, 2**48 - 1))
ips = st.builds(IPv4Address, u32)
networks = st.builds(
    lambda address, prefix: IPv4Network((address, prefix)),
    u32,
    st.integers(0, 32),
)
ip_matches = ips | networks
short_text = st.text(max_size=20)


def opt(strategy):
    return st.none() | strategy


matches = st.builds(
    Match,
    in_port=opt(i32),
    eth_src=opt(macs),
    eth_dst=opt(macs),
    eth_type=opt(u16),
    vlan_vid=opt(u16),
    ip_src=opt(ip_matches),
    ip_dst=opt(ip_matches),
    ip_proto=opt(u8),
    tp_src=opt(u16),
    tp_dst=opt(u16),
)

header_fields = st.builds(
    HeaderFields,
    eth_src=opt(macs),
    eth_dst=opt(macs),
    eth_type=opt(u16),
    vlan_vid=opt(u16),
    ip_src=opt(ips),
    ip_dst=opt(ips),
    ip_proto=opt(u8),
    tp_src=opt(u16),
    tp_dst=opt(u16),
)

# The tagged value codec: every scalar tag, then containers one level
# at a time (kept shallow so frames stay far below the 64 KiB ceiling).
_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    i64,
    f64,
    short_text,
    st.binary(max_size=16),
    macs,
    ips,
    networks,
    matches,
    header_fields,
)
values = st.recursive(
    _scalar_values,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(short_text, children, max_size=3),
    ),
    max_leaves=8,
)

_SET_FIELD_VALUES = {
    "eth_src": macs,
    "eth_dst": macs,
    "eth_type": u16,
    "vlan_vid": u16,
    "ip_src": ips,
    "ip_dst": ips,
    "ip_proto": u8,
    "tp_src": u16,
    "tp_dst": u16,
}


@st.composite
def set_fields(draw):
    name = draw(st.sampled_from(SetField.ALLOWED_FIELDS))
    return SetField(name, draw(_SET_FIELD_VALUES[name]))


actions = st.one_of(
    st.builds(Output, i32),
    st.just(Flood()),
    st.just(Drop()),
    st.just(ToController()),
    set_fields(),
    st.builds(GroupAction, u32),
    st.builds(PushVlan, st.integers(1, 4094)),
    st.just(PopVlan()),
)
action_lists = st.lists(actions, max_size=3).map(tuple)

instructions = st.one_of(
    st.builds(ApplyActions, action_lists),
    st.builds(GotoTable, u8),
    st.builds(MeterInstruction, u32),
)

buckets = st.builds(
    Bucket,
    actions=action_lists,
    weight=u32,
    watch_port=opt(i32),
)

bands = st.builds(
    DropBand,
    rate_bps=st.floats(min_value=1e-3, max_value=1e15),
    burst_bits=st.floats(min_value=0.0, max_value=1e15),
)

stats_lists = st.lists(
    st.dictionaries(
        short_text,
        st.one_of(i64, f64, short_text, st.booleans()),
        max_size=4,
    ),
    max_size=3,
)


def _msg(cls, **fields):
    return st.builds(cls, dpid=dpids, xid=xids, **fields)


MESSAGE_STRATEGIES = {
    Hello: _msg(Hello, version=u8),
    ErrorMsg: _msg(
        ErrorMsg, error_type=short_text, detail=short_text, failed_xid=u32
    ),
    EchoRequest: _msg(EchoRequest, payload=st.binary(max_size=64)),
    EchoReply: _msg(EchoReply, payload=st.binary(max_size=64)),
    FeaturesRequest: _msg(FeaturesRequest),
    FeaturesReply: _msg(
        FeaturesReply,
        n_buffers=u32,
        n_tables=u8,
        auxiliary_id=u8,
        capabilities=u32,
        reserved=u32,
    ),
    PacketIn: _msg(
        PacketIn,
        in_port=i32,
        reason=st.sampled_from(PacketInReason),
        headers=opt(header_fields),
        rate_bps=f64,
        size_bytes=i64,
        flow_id=opt(i64),
    ),
    FlowRemoved: _msg(
        FlowRemoved,
        table_id=u8,
        match=matches,
        priority=u32,
        reason=st.sampled_from(FlowRemovedReason),
        cookie=u64,
        duration_s=f64,
        packet_count=i64,
        byte_count=i64,
    ),
    PortStatus: _msg(
        PortStatus,
        port_no=i32,
        reason=st.sampled_from(PortStatusReason),
        link_up=st.booleans(),
    ),
    PacketOut: _msg(
        PacketOut,
        in_port=i32,
        headers=opt(header_fields),
        out_ports=st.lists(i32, max_size=4).map(tuple),
        buffer_id=opt(u32),
    ),
    FlowMod: _msg(
        FlowMod,
        command=st.sampled_from(FlowModCommand),
        table_id=u8,
        match=matches,
        priority=u32,
        instructions=st.lists(instructions, max_size=3).map(tuple),
        idle_timeout=f64,
        hard_timeout=f64,
        cookie=u64,
        check_overlap=st.booleans(),
    ),
    GroupMod: _msg(
        GroupMod,
        command=st.sampled_from(GroupModCommand),
        group_id=u32,
        group_type=st.sampled_from(GroupType),
        buckets=st.lists(buckets, max_size=3).map(tuple),
    ),
    MeterMod: _msg(
        MeterMod,
        command=st.sampled_from(MeterModCommand),
        meter_id=u32,
        bands=st.lists(bands, max_size=3).map(tuple),
    ),
    BarrierRequest: _msg(BarrierRequest),
    BarrierReply: _msg(BarrierReply),
    FlowStatsRequest: _msg(
        FlowStatsRequest, table_id=opt(u8), match=opt(matches), cookie=opt(u64)
    ),
    TableStatsRequest: _msg(TableStatsRequest),
    PortStatsRequest: _msg(PortStatsRequest, port_no=opt(i32)),
    FlowStatsReply: _msg(FlowStatsReply, stats=stats_lists),
    TableStatsReply: _msg(TableStatsReply, stats=stats_lists),
    PortStatsReply: _msg(PortStatsReply, stats=stats_lists),
}

any_message = st.one_of(tuple(MESSAGE_STRATEGIES.values()))

_CLASSES = sorted(MESSAGE_STRATEGIES, key=lambda cls: cls.__name__)


def _assert_roundtrip(message):
    frame = encode(message)
    assert frame[0] == WIRE_VERSION
    assert len(frame) <= MAX_FRAME_SIZE
    assert struct.unpack_from("!H", frame, 2)[0] == len(frame)
    decoded = decode(frame)
    assert type(decoded) is type(message)
    assert decoded == message


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


def test_every_encoder_class_has_a_strategy():
    # The strategy table above must track the codec's encoder table so
    # a message class added to the wire protocol without a round-trip
    # property fails here, not in production.
    assert set(MESSAGE_STRATEGIES) == set(codec._MESSAGES)


@given(any_message)
@settings(max_examples=300, deadline=None)
def test_roundtrip_any_message(message):
    _assert_roundtrip(message)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_roundtrip_per_class(cls, data):
    _assert_roundtrip(data.draw(MESSAGE_STRATEGIES[cls]))


@given(_msg(FlowMod, match=matches, instructions=st.lists(
    instructions, max_size=3).map(tuple)))
@settings(max_examples=60, deadline=None)
def test_flow_mod_frames_are_deterministic(message):
    assert encode(message) == encode(message)


@given(st.lists(any_message, min_size=1, max_size=4), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_frame_reader_reassembles_any_chunking(messages, chunk_size):
    stream = b"".join(encode(m) for m in messages)
    reader = FrameReader()
    frames = []
    for i in range(0, len(stream), chunk_size):
        reader.feed(stream[i : i + chunk_size])
        frames.extend(reader.frames())
    assert [decode(frame) for frame in frames] == messages
    assert reader.pending_bytes == 0


# ----------------------------------------------------------------------
# Malformed frames are rejected, never mis-decoded
# ----------------------------------------------------------------------

# A frame exercising the deepest body structure: wildcards, prefixes,
# nested instructions/actions, floats, and the optional-field flags.
_RICH_MESSAGE = FlowMod(
    dpid=7,
    xid=99,
    command=FlowModCommand.ADD,
    table_id=2,
    match=Match(
        in_port=3,
        eth_src=MacAddress("00:11:22:33:44:55"),
        eth_dst=MacAddress("ff:ff:ff:ff:ff:ff"),
        eth_type=0x0800,
        ip_src=IPv4Network("10.0.0.0/8"),
        ip_dst=IPv4Address("10.1.2.3"),
        tp_dst=80,
    ),
    priority=100,
    instructions=(
        ApplyActions(
            (
                Output(4),
                SetField("vlan_vid", 7),
                PushVlan(9),
                PopVlan(),
            )
        ),
        GotoTable(3),
        MeterInstruction(12),
    ),
    idle_timeout=1.5,
    hard_timeout=30.0,
    cookie=0xDEADBEEF,
)


# ----------------------------------------------------------------------
# Golden frames: the repro profile, byte for byte
# ----------------------------------------------------------------------

# The round-trip properties cannot see a layout change that edits the
# writer and the reader together; external controllers and
# docs/wire-protocol.md can.  One frame per message class (fixed dpid
# and xid, optional fields set), plus the rich FlowMod above.
_DPID = 0x0102030405060708
_XID = 0x0A0B0C0D

_ALL_HEADERS = HeaderFields(
    eth_src=MacAddress("00:00:00:00:00:01"),
    eth_dst=MacAddress("00:00:00:00:00:02"),
    eth_type=0x0800,
    vlan_vid=100,
    ip_src=IPv4Address("10.0.0.1"),
    ip_dst=IPv4Address("10.0.0.2"),
    ip_proto=6,
    tp_src=1234,
    tp_dst=80,
)

# One entry per tagged-value code, 0 through 14, in code order.
_ALL_VALUE_TAGS = {
    "none": None,
    "false": False,
    "true": True,
    "int": -2,
    "float": 0.5,
    "str": "s",
    "bytes": b"\x00\xff",
    "mac": MacAddress("00:11:22:33:44:55"),
    "ip": IPv4Address("10.0.0.1"),
    "net": IPv4Network("192.168.0.0/16"),
    "match": Match(tp_dst=80),
    "headers": HeaderFields(ip_proto=6),
    "list": [1],
    "tuple": (2,),
    "dict": {"": 3},
}

# name -> (message, frame hex: the 8-byte header, then the body).
GOLDEN_FRAMES = {
    "Hello": (
        Hello(dpid=_DPID, xid=_XID, version=4),
        "040000110a0b0c0d"
        "010203040506070804",
    ),
    "ErrorMsg": (
        ErrorMsg(
            dpid=_DPID, xid=_XID, error_type="WireError", detail="bad",
            failed_xid=9,
        ),
        "040100280a0b0c0d"
        "010203040506070800000009576972654572726f720000000362616400000009",
    ),
    "EchoRequest": (
        EchoRequest(dpid=_DPID, xid=_XID, payload=b"ping"),
        "040200180a0b0c0d"
        "01020304050607080000000470696e67",
    ),
    "EchoReply": (
        EchoReply(dpid=_DPID, xid=_XID, payload=b"pong"),
        "040300180a0b0c0d"
        "010203040506070800000004706f6e67",
    ),
    "FeaturesRequest": (
        FeaturesRequest(dpid=_DPID, xid=_XID),
        "040500100a0b0c0d"
        "0102030405060708",
    ),
    "FeaturesReply": (
        FeaturesReply(
            dpid=_DPID, xid=_XID, n_buffers=256, n_tables=2, auxiliary_id=1,
            capabilities=0x4F, reserved=12,
        ),
        "0406001e0a0b0c0d"
        "01020304050607080000010002010000004f0000000c",
    ),
    "PacketIn": (
        PacketIn(
            dpid=_DPID, xid=_XID, in_port=3, reason=PacketInReason.ACTION,
            headers=_ALL_HEADERS, rate_bps=1e6, size_bytes=1500, flow_id=42,
        ),
        "040a004e0a0b0c0d"
        "010203040506070800000003010101ff00000000000100000000000208000064"
        "0a0000010a0000020604d20050412e84800000000000000000000005dc010000"
        "00000000002a",
    ),
    "FlowRemoved": (
        FlowRemoved(
            dpid=_DPID, xid=_XID, table_id=1,
            match=Match(in_port=2, eth_dst=MacAddress("00:00:00:00:00:02")),
            priority=10, reason=FlowRemovedReason.HARD_TIMEOUT, cookie=7,
            duration_s=2.5, packet_count=10, byte_count=15000,
        ),
        "040b00420a0b0c0d"
        "0102030405060708010005000000020000000000020000000a01000000000000"
        "00074004000000000000000000000000000a0000000000003a98",
    ),
    "PortStatus": (
        PortStatus(
            dpid=_DPID, xid=_XID, port_no=4, reason=PortStatusReason.DELETE,
            link_up=False,
        ),
        "040c00160a0b0c0d"
        "0102030405060708000000040100",
    ),
    "PacketOut": (
        PacketOut(
            dpid=_DPID, xid=_XID, in_port=1, headers=_ALL_HEADERS,
            out_ports=(2, -2), buffer_id=77,
        ),
        "040d00430a0b0c0d"
        "0102030405060708000000010101ff000000000001000000000002080000640a"
        "0000010a0000020604d20050000200000002fffffffe010000004d",
    ),
    "FlowMod": (
        FlowMod(
            dpid=_DPID, xid=_XID, command=FlowModCommand.DELETE_STRICT,
            table_id=1, match=Match(vlan_vid=10, ip_proto=17, tp_src=53),
            priority=5,
            instructions=(
                ApplyActions(
                    (
                        Flood(),
                        Drop(),
                        ToController(),
                        GroupAction(5),
                        SetField("ip_src", IPv4Address("10.0.0.9")),
                    )
                ),
            ),
            idle_timeout=0.25, cookie=3, check_overlap=True,
        ),
        "040e004a0a0b0c0d"
        "010203040506070804010190000a110035000000050001000005010203050000"
        "00050404080a0000093fd0000000000000000000000000000000000000000000"
        "0301",
    ),
    "GroupMod": (
        GroupMod(
            dpid=_DPID, xid=_XID, command=GroupModCommand.MODIFY, group_id=6,
            group_type=GroupType.FAST_FAILOVER,
            buckets=(
                Bucket((Output(1),), watch_port=1),
                Bucket((Output(2), PopVlan()), weight=0),
            ),
        ),
        "040f00350a0b0c0d"
        "0102030405060708010000000603000200000001010000000100010000000001"
        "00000000000002000000000207",
    ),
    "MeterMod": (
        MeterMod(
            dpid=_DPID, xid=_XID, command=MeterModCommand.MODIFY, meter_id=3,
            bands=(DropBand(30e6, burst_bits=1e4), DropBand(80e6)),
        ),
        "041d00370a0b0c0d"
        "010203040506070801000000030002417c9c380000000040c388000000000041"
        "9312d0000000000000000000000000",
    ),
    "BarrierRequest": (
        BarrierRequest(dpid=_DPID, xid=_XID),
        "041400100a0b0c0d"
        "0102030405060708",
    ),
    "BarrierReply": (
        BarrierReply(dpid=_DPID, xid=_XID),
        "041500100a0b0c0d"
        "0102030405060708",
    ),
    "FlowStatsRequest": (
        FlowStatsRequest(
            dpid=_DPID, xid=_XID, table_id=0, match=Match(tp_src=22), cookie=5
        ),
        "041200220a0b0c0d"
        "0102030405060708000101000101000016010000000000000005",
    ),
    "TableStatsRequest": (
        TableStatsRequest(dpid=_DPID, xid=_XID),
        "041200120a0b0c0d"
        "01020304050607080003",
    ),
    "PortStatsRequest": (
        PortStatsRequest(dpid=_DPID, xid=_XID, port_no=2),
        "041200170a0b0c0d"
        "010203040506070800040100000002",
    ),
    "FlowStatsReply": (
        FlowStatsReply(dpid=_DPID, xid=_XID, stats=[_ALL_VALUE_TAGS]),
        "041301100a0b0c0d"
        "01020304050607080001000000010e0000000f05000000046e6f6e6500050000"
        "000566616c736501050000000474727565020500000003696e7403ffffffffff"
        "fffffe0500000005666c6f6174043fe000000000000005000000037374720500"
        "0000017305000000056279746573060000000200ff05000000036d6163070011"
        "2233445505000000026970080a00000105000000036e657409c0a80000100500"
        "0000056d617463680a020000500500000007686561646572730b004006050000"
        "00046c6973740c0000000103000000000000000105000000057475706c650d00"
        "0000010300000000000000020500000004646963740e00000001050000000003"
        "0000000000000003",
    ),
    "TableStatsReply": (
        TableStatsReply(
            dpid=_DPID, xid=_XID, stats=[{"table_id": 0, "active": 3}]
        ),
        "041300450a0b0c0d"
        "01020304050607080003000000010e0000000205000000087461626c655f6964"
        "0300000000000000000500000006616374697665030000000000000003",
    ),
    "PortStatsReply": (
        PortStatsReply(
            dpid=_DPID, xid=_XID, stats=[{"port": 1, "rx_bytes": 100}, {"port": 2}]
        ),
        "0413005a0a0b0c0d"
        "01020304050607080004000000020e000000020500000004706f727403000000"
        "0000000001050000000872785f62797465730300000000000000640e00000001"
        "0500000004706f7274030000000000000002",
    ),
    "rich": (
        _RICH_MESSAGE,
        "040e007000000063"
        "00000000000000070002026f00000003001122334455ffffffffffff0800010a"
        "00000008000a0102030050000000640003000004000000000404030300000000"
        "00000007060009070103020000000c3ff8000000000000403e00000000000000"
        "000000deadbeef00",
    ),
}


def test_every_message_class_has_a_golden_frame():
    assert {type(m) for m, _ in GOLDEN_FRAMES.values()} == set(MESSAGE_STRATEGIES)


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_golden_frame(name):
    message, frame_hex = GOLDEN_FRAMES[name]
    assert encode(message).hex() == frame_hex
    assert decode(bytes.fromhex(frame_hex)) == message


def test_truncation_at_every_byte_raises():
    frame = encode(_RICH_MESSAGE)
    for cut in range(len(frame)):
        with pytest.raises(WireError):
            decode(frame[:cut])


def test_trailing_bytes_raise():
    frame = encode(_RICH_MESSAGE)
    with pytest.raises(WireError):
        decode(frame + b"\x00")


def test_bad_version_raises():
    frame = bytearray(encode(Hello(dpid=1, xid=1)))
    frame[0] = 0x05
    with pytest.raises(WireError, match="version"):
        decode(bytes(frame))


def test_unknown_type_code_raises():
    frame = struct.pack("!BBHI", WIRE_VERSION, 99, HEADER_SIZE + 8, 0)
    frame += struct.pack("!Q", 1)
    with pytest.raises(WireError, match="unknown message type"):
        decode(frame)


def test_unknown_multipart_subtype_raises():
    # Type 18 is a multipart request; subtype 99 has no decoder.
    frame = struct.pack("!BBHI", WIRE_VERSION, 18, HEADER_SIZE + 10, 0)
    frame += struct.pack("!QH", 1, 99)
    with pytest.raises(WireError, match="subtype 99"):
        decode(frame)


def test_length_field_mismatch_raises():
    frame = bytearray(encode(Hello(dpid=1, xid=1)))
    struct.pack_into("!H", frame, 2, len(frame) + 4)
    with pytest.raises(WireError, match="length"):
        decode(bytes(frame))


def test_encode_rejects_out_of_range_xid():
    for xid in (-1, 1 << 32):
        with pytest.raises(WireError, match="xid"):
            encode(Hello(dpid=1, xid=xid))


def test_encode_rejects_oversized_frame():
    big = EchoRequest(dpid=1, xid=1, payload=b"x" * (MAX_FRAME_SIZE + 1))
    with pytest.raises(WireError, match="maximum"):
        encode(big)


def test_encode_rejects_out_of_range_field():
    with pytest.raises(WireError):
        encode(FeaturesReply(dpid=1, xid=1, n_tables=300))  # u8 field
    with pytest.raises(WireError):
        encode(Hello(dpid=-1, xid=1))  # u64 dpid


def test_encode_rejects_unregistered_message_class():
    class Unregistered(Hello):
        pass

    with pytest.raises(WireError, match="no wire encoding"):
        encode(Unregistered(dpid=1, xid=1))


def _offset_of(frame: bytes, expected: int, offset: int) -> bytearray:
    """Sanity-check a hand-computed body offset, then return a copy."""
    assert frame[offset] == expected, (
        f"frame layout changed: byte {offset} is {frame[offset]}, "
        f"expected {expected}"
    )
    return bytearray(frame)


def test_unknown_match_bitmap_bits_raise():
    # FlowMod body: dpid(8) + command(1) + table_id(1), then the match
    # bitmap u16.  Only 10 field bits are defined; set bit 15.
    frame = encode(FlowMod(dpid=1, xid=1))
    tampered = bytearray(frame)
    tampered[HEADER_SIZE + 10] |= 0x80
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_bad_optional_flag_raises():
    # PortStatsRequest body: dpid(8) + subtype(2) + optional flag.
    frame = encode(PortStatsRequest(dpid=1, xid=1, port_no=None))
    tampered = _offset_of(frame, 0, HEADER_SIZE + 10)
    tampered[HEADER_SIZE + 10] = 2
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_unknown_value_tag_raises():
    # PortStatsReply body: dpid(8) + subtype(2) + count u32, then the
    # first stat dict's value tag (dict = 14).
    frame = encode(PortStatsReply(dpid=1, xid=1, stats=[{"rx": 1}]))
    tampered = _offset_of(frame, 14, HEADER_SIZE + 14)
    tampered[HEADER_SIZE + 14] = 200
    with pytest.raises(WireError):
        decode(bytes(tampered))


def _single_action_frame(action) -> bytes:
    return encode(
        FlowMod(dpid=1, xid=1, instructions=(ApplyActions((action,)),))
    )


# FlowMod body offsets up to the first action's tag byte: dpid(8) +
# command(1) + table_id(1) + empty match bitmap(2) + priority(4) +
# instruction count(2) + apply-actions tag(1) + action count(2).
_ACTION_TAG_OFFSET = HEADER_SIZE + 21


def test_unknown_action_tag_raises():
    frame = _single_action_frame(Drop())  # Drop's wire tag is 2
    tampered = _offset_of(frame, 2, _ACTION_TAG_OFFSET)
    tampered[_ACTION_TAG_OFFSET] = 200
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_out_of_range_vlan_id_on_the_wire_raises():
    # PushVlan's wire tag is 6; its vid u16 follows the tag.  VLAN 0 is
    # constructible on the wire but not in the dataclass — the decoder
    # must reject it.
    frame = _single_action_frame(PushVlan(5))
    tampered = _offset_of(frame, 6, _ACTION_TAG_OFFSET)
    tampered[_ACTION_TAG_OFFSET + 1] = 0
    tampered[_ACTION_TAG_OFFSET + 2] = 0
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_nan_meter_band_on_the_wire_raises():
    # MeterMod body: dpid(8) + command(1) + meter_id(4) + band count(2),
    # then the first band's rate f64.  DropBand refuses a NaN rate, so
    # the decoder must too.
    frame = encode(MeterMod(dpid=1, xid=1, bands=(DropBand(rate_bps=1e6),)))
    tampered = _offset_of(frame, 0x41, HEADER_SIZE + 15)
    struct.pack_into("!d", tampered, HEADER_SIZE + 15, float("nan"))
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_unknown_instruction_tag_raises():
    # The instruction tag directly precedes the action count.
    frame = _single_action_frame(Drop())
    tampered = _offset_of(frame, 0, _ACTION_TAG_OFFSET - 3)
    tampered[_ACTION_TAG_OFFSET - 3] = 200
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_ip_prefix_longer_than_32_raises():
    # Match with only ip_src set to a /8: dpid(8) + command(1) +
    # table_id(1) + bitmap(2) + network tag(1) + address(4), then the
    # prefix-length u8.
    frame = encode(
        FlowMod(dpid=1, xid=1, match=Match(ip_src=IPv4Network("10.0.0.0/8")))
    )
    prefix_offset = HEADER_SIZE + 17
    tampered = _offset_of(frame, 8, prefix_offset)
    tampered[prefix_offset] = 33
    with pytest.raises(WireError):
        decode(bytes(tampered))


def test_deeply_nested_value_raises():
    # A PortStatsReply whose one entry is {None: [[[...[None]...]]]}: five
    # bytes per list level, so one frame nests far past the interpreter's
    # recursion limit.
    depth = 12_000
    body = struct.pack("!QHIBIB", 1, codec.OFPMP_PORT_STATS, 1, 14, 1, 0)
    body += struct.pack("!BI", 12, 1) * depth + b"\x00"
    frame = struct.pack(
        "!BBHI", WIRE_VERSION, codec.OFPT_MULTIPART_REPLY, HEADER_SIZE + len(body), 0
    )
    with pytest.raises(WireError, match="nested"):
        decode(frame + body)


# Mutated bytes lean toward small values: those are the tag, flag and
# code bytes whose neighbours change meaning.
wire_bytes = st.integers(0, 15) | u8


@given(
    message=any_message,
    edits=st.lists(st.tuples(st.integers(0, 2**16), wire_bytes), max_size=3),
    cut=st.none() | st.integers(0, 2**16),
)
@example(
    # A stats dict key "" whose tag byte (body offset 19: dpid, subtype,
    # entry count, dict tag, dict length) now says list: the key decodes
    # as [], which no dict can hold.
    message=FlowStatsReply(dpid=1, xid=1, stats=[{"": 0}]),
    edits=[(19, 12)],
    cut=None,
)
@settings(max_examples=300, deadline=None)
def test_mutated_frames_decode_or_raise_wire_error(message, edits, cut):
    # Any body byte changed, or the body cut short (the length field
    # kept honest), either decodes or raises WireError: nothing else may
    # escape to the server loop.
    frame = bytearray(encode(message))
    body_size = len(frame) - HEADER_SIZE
    for position, value in edits:
        frame[HEADER_SIZE + position % body_size] = value
    if cut is not None:
        del frame[HEADER_SIZE + cut % (body_size + 1) :]
    struct.pack_into("!H", frame, 2, len(frame))
    try:
        decode(bytes(frame))
    except WireError:
        pass


# ----------------------------------------------------------------------
# FrameReader stream handling
# ----------------------------------------------------------------------


def test_frame_reader_waits_on_partial_header():
    reader = FrameReader()
    reader.feed(b"\x04\x00")
    assert list(reader.frames()) == []
    assert reader.pending_bytes == 2


def test_frame_reader_waits_on_partial_body():
    frame = encode(_RICH_MESSAGE)
    reader = FrameReader()
    reader.feed(frame[: len(frame) // 2])
    assert list(reader.frames()) == []
    reader.feed(frame[len(frame) // 2 :])
    assert [decode(f) for f in reader.frames()] == [_RICH_MESSAGE]


def test_frame_reader_splits_coalesced_frames():
    hello = Hello(dpid=1, xid=1)
    barrier = BarrierRequest(dpid=1, xid=2)
    reader = FrameReader()
    reader.feed(encode(hello) + encode(barrier))
    assert [decode(f) for f in reader.frames()] == [hello, barrier]


def test_frame_reader_rejects_bad_stream_version():
    reader = FrameReader()
    reader.feed(b"\x7f" + b"\x00" * 7)
    with pytest.raises(WireError, match="version"):
        list(reader.frames())


def test_frame_reader_rejects_impossible_length():
    reader = FrameReader()
    reader.feed(struct.pack("!BBHI", WIRE_VERSION, 0, HEADER_SIZE - 1, 0))
    with pytest.raises(WireError, match="length"):
        list(reader.frames())
