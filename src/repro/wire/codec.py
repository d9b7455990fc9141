"""Binary OpenFlow 1.3 codec for the modeled message subset.

Framing is the OpenFlow 1.3 wire header — ``version(u8)=0x04,
type(u8), length(u16), xid(u32)`` with the standard type codes
(FLOW_MOD=14, PACKET_IN=10, MULTIPART_REQUEST=18, ...) — so captures
classify correctly.  Message *bodies* follow the compact deterministic
"repro profile" documented in docs/wire-protocol.md: every body starts
with the 64-bit datapath id (real OpenFlow keeps the dpid implicit per
connection; carrying it makes the codec a symmetric, self-contained
mapping onto :mod:`repro.openflow.messages`, whose dataclasses stay the
single source of truth).  Multipart requests/replies carry the standard
subtype right after the dpid.  The rest of each body is written down
once, in :data:`_MESSAGES`, which :func:`encode` and :func:`decode` both
walk.

Every decoding failure — truncated body, trailing bytes, unknown type,
unsupported version, out-of-range field, a value the message's own
dataclass rejects — raises :class:`~repro.errors.WireError`; the server
loop turns that into an ErrorMsg frame instead of crashing.
:func:`encode` raises the same type for values that do not fit their
wire field.

All integers are big-endian (network order).  Floats are IEEE-754
binary64, so ``decode(encode(m)) == m`` is bitwise for every message.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..errors import OpenFlowError, WireError
from ..net.address import IPv4Address, IPv4Network, MacAddress
from ..openflow.action import (
    ApplyActions, Drop, Flood, GotoTable, GroupAction, MeterInstruction, Output,
    PopVlan, PushVlan, SetField, ToController,
)
from ..openflow.group import Bucket, GroupType
from ..openflow.headers import HeaderFields
from ..openflow.match import Match
from ..openflow.messages import (
    BarrierReply, BarrierRequest, EchoReply, EchoRequest, ErrorMsg, FeaturesReply,
    FeaturesRequest, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason,
    FlowStatsReply, FlowStatsRequest, GroupMod, GroupModCommand, Hello, Message,
    MeterMod, MeterModCommand, PacketIn, PacketInReason, PacketOut, PortStatsReply,
    PortStatsRequest, PortStatus, PortStatusReason, TableStatsReply,
    TableStatsRequest,
)
from ..openflow.meter import DropBand

#: OpenFlow 1.3 wire protocol version.
WIRE_VERSION = 0x04

#: Wire header: version, type, length, xid.
_HEADER = struct.Struct("!BBHI")
HEADER_SIZE = _HEADER.size

#: Hard ceiling on one frame (the header length field is u16).
MAX_FRAME_SIZE = 0xFFFF

# OpenFlow 1.3 message type codes (spec Table: ofp_type).
OFPT_HELLO = 0
OFPT_ERROR = 1
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_FLOW_REMOVED = 11
OFPT_PORT_STATUS = 12
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14
OFPT_GROUP_MOD = 15
OFPT_MULTIPART_REQUEST = 18
OFPT_MULTIPART_REPLY = 19
OFPT_BARRIER_REQUEST = 20
OFPT_BARRIER_REPLY = 21
OFPT_METER_MOD = 29

# Multipart subtypes (spec: ofp_multipart_type).
OFPMP_FLOW = 1
OFPMP_TABLE = 3
OFPMP_PORT_STATS = 4


# ----------------------------------------------------------------------
# Wire types
# ----------------------------------------------------------------------
#
# A wire type is a ``(write, read)`` pair: ``write(out, value)`` appends
# the value's bytes to the list ``out``, ``read(r)`` consumes them from
# a :class:`_Reader` and returns the value.  A field is a ``(name, wire
# type)`` pair; a struct's fields are listed in wire order.


class _Reader:
    """A cursor over one body; every overrun is a WireError."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise WireError(
                f"truncated body: wanted {n} bytes at offset {pos}, "
                f"have {len(self.data) - pos}"
            )
        self.pos = end
        return self.data[pos:end]


WireType = Tuple[Callable[[List[bytes], Any], None], Callable[[_Reader], Any]]
Fields = Tuple[Tuple[str, WireType], ...]


def _check(value, cls: type) -> None:
    if not isinstance(value, cls):
        raise WireError(f"expected a {cls.__name__}, got {value!r}")


def _number(name: str, code: str, types: Any = int) -> WireType:
    """A big-endian number; ``code`` is its :mod:`struct` format."""
    packer = struct.Struct("!" + code)
    pack, unpack, size = packer.pack, packer.unpack, packer.size

    def write(out: List[bytes], value) -> None:
        if value.__class__ is bool or not isinstance(value, types):
            raise WireError(f"expected {name}, got {value!r}")
        try:
            out.append(pack(value))
        except (struct.error, OverflowError):
            raise WireError(f"out of range for {name}: {value}") from None

    return write, lambda r: unpack(r.take(size))[0]


_U8 = _number("u8", "B")
_U16 = _number("u16", "H")
_U32 = _number("u32", "I")
_U64 = _number("u64", "Q")
_I32 = _number("i32", "i")
_I64 = _number("i64", "q")
_F64 = _number("f64", "d", (int, float))
_write_u16, _read_u16 = _U16
_BOOL: WireType = (
    lambda out, value: out.append(b"\x01" if value else b"\x00"),
    lambda r: r.take(1) != b"\x00",
)


def _write_blob(out: List[bytes], value) -> None:
    if not isinstance(value, (bytes, bytearray)):
        raise WireError(f"expected bytes, got {value!r}")
    _U32[0](out, len(value))
    out.append(bytes(value))


def _write_text(out: List[bytes], value) -> None:
    _check(value, str)
    try:
        _write_blob(out, value.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise WireError(f"string is not utf-8 encodable: {exc}") from None


def _read_text(r: _Reader) -> str:
    try:
        return _BLOB[1](r).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8 string: {exc}") from None


_BLOB: WireType = (_write_blob, lambda r: r.take(_U32[1](r)))
_TEXT: WireType = (_write_text, _read_text)


def _address(cls: type, size: int) -> WireType:
    """A MAC or IPv4 address as its ``size``-byte integer."""

    def write(out: List[bytes], value) -> None:
        _check(value, cls)
        out.append(int(value).to_bytes(size, "big"))

    return write, lambda r: cls(int.from_bytes(r.take(size), "big"))


_MAC = _address(MacAddress, 6)
_IPV4 = _address(IPv4Address, 4)


def _write_network(out: List[bytes], value) -> None:
    _check(value, IPv4Network)
    _IPV4[0](out, value.network)
    _U8[0](out, value.prefix_len)


def _read_network(r: _Reader) -> IPv4Network:
    address = _U32[1](r)
    prefix = _U8[1](r)
    if prefix > 32:
        raise WireError(f"prefix length out of range: {prefix}")
    return IPv4Network((address, prefix))


_IPV4_NETWORK: WireType = (_write_network, _read_network)


def _opt(item: WireType) -> WireType:
    """A u8 presence flag (0/1), then the value when present."""
    write_item, read_item = item

    def write(out: List[bytes], value) -> None:
        if value is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            write_item(out, value)

    def read(r: _Reader):
        flag = r.take(1)[0]
        if flag > 1:
            raise WireError(f"optional flag must be 0/1, got {flag}")
        return read_item(r) if flag else None

    return write, read


def _seq(count: WireType, item: WireType, container: type = tuple) -> WireType:
    """A ``count`` of items, then the items."""
    write_count, read_count = count
    write_item, read_item = item

    def write(out: List[bytes], value) -> None:
        write_count(out, len(value))
        for element in value:
            write_item(out, element)

    def read(r: _Reader):
        return container([read_item(r) for _ in range(read_count(r))])

    return write, read


def _choice(options: tuple) -> WireType:
    """A u8: the value's position in ``options``."""
    codes = {option: bytes((index,)) for index, option in enumerate(options)}

    def write(out: List[bytes], value) -> None:
        try:
            out.append(codes[value])
        except (KeyError, TypeError):
            raise WireError(f"{value!r} is not one of {options}") from None

    def read(r: _Reader):
        code = r.take(1)[0]
        if code >= len(options):
            raise WireError(f"unknown code {code} (of {len(options)})")
        return options[code]

    return write, read


def _write_fields(out: List[bytes], value, fields: Fields) -> None:
    for name, (write, _read) in fields:
        try:
            write(out, getattr(value, name))
        except WireError as exc:
            raise WireError(f"{name}: {exc}") from None


def _read_fields(r: _Reader, fields: Fields, values: dict) -> dict:
    for name, (_write, read) in fields:
        try:
            values[name] = read(r)
        except WireError as exc:
            raise WireError(f"{name}: {exc}") from None
    return values


def _build(cls: type, values: dict):
    """``cls(**values)``; the dataclass's own validation is a WireError."""
    try:
        return cls(**values)
    except (ValueError, OpenFlowError) as exc:
        raise WireError(f"invalid {cls.__name__}: {exc}") from None


def _struct(cls: type, *fields: Tuple[str, WireType]) -> WireType:
    """The fields of a ``cls`` instance, in order."""

    def write(out: List[bytes], value) -> None:
        _check(value, cls)
        _write_fields(out, value, fields)

    return write, lambda r: _build(cls, _read_fields(r, fields, {}))


def _fieldset(cls: type, *fields: Tuple[str, WireType]) -> WireType:
    """A u16 presence bitmap, then the fields that are not None."""

    def write(out: List[bytes], value) -> None:
        _check(value, cls)
        bitmap = 0
        present = []
        for index, field in enumerate(fields):
            if getattr(value, field[0]) is not None:
                bitmap |= 1 << index
                present.append(field)
        _write_u16(out, bitmap)
        _write_fields(out, value, present)

    def read(r: _Reader):
        bitmap = _read_u16(r)
        if bitmap >> len(fields):
            raise WireError(f"unknown bits in field bitmap: {bitmap:#06x}")
        present = tuple(
            field for index, field in enumerate(fields) if bitmap >> index & 1
        )
        return _build(cls, _read_fields(r, present, {}))

    return write, read


def _tagged(*alternatives: Tuple[Callable[[Any], bool], WireType]) -> WireType:
    """A u8 tag naming the first alternative whose test accepts the
    value, then the value in that alternative's wire type."""
    writers = [
        (accepts, bytes((tag,)), write)
        for tag, (accepts, (write, _read)) in enumerate(alternatives)
    ]
    readers = [read for _accepts, (_write, read) in alternatives]

    def write(out: List[bytes], value) -> None:
        for accepts, tag, write_value in writers:
            if accepts(value):
                out.append(tag)
                write_value(out, value)
                return
        raise WireError(f"{value!r} has no wire encoding here")

    def read(r: _Reader):
        tag = r.take(1)[0]
        if tag >= len(readers):
            raise WireError(f"unknown tag {tag} (of {len(readers)})")
        return readers[tag](r)

    return write, read


def _is(cls) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, cls)


def _case(cls: type, *fields: Tuple[str, WireType]):
    """A :func:`_tagged` alternative: instances of ``cls``, as a struct."""
    return _is(cls), _struct(cls, *fields)


def _constant(value) -> WireType:
    """No bytes at all: the tag alone names ``value``."""
    return (lambda out, _value: None), (lambda r: value)


def _only(cls: type, item: WireType) -> WireType:
    """``item``, restricted to instances of ``cls`` both ways."""
    write_item, read_item = item

    def write(out: List[bytes], value) -> None:
        _check(value, cls)
        write_item(out, value)

    def read(r: _Reader):
        value = read_item(r)
        _check(value, cls)
        return value

    return write, read


# ----------------------------------------------------------------------
# Matches, the tagged value codec, actions and instructions
# ----------------------------------------------------------------------


def _header_fields(ip: WireType) -> Fields:
    """HeaderFields' fields; a Match's IP fields may also be prefixes."""
    return (
        ("eth_src", _MAC), ("eth_dst", _MAC), ("eth_type", _U16),
        ("vlan_vid", _U16), ("ip_src", ip), ("ip_dst", ip), ("ip_proto", _U8),
        ("tp_src", _U16), ("tp_dst", _U16),
    )


_IP_MATCH = _tagged((_is(IPv4Address), _IPV4), (_is(IPv4Network), _IPV4_NETWORK))
_MATCH = _fieldset(Match, ("in_port", _I32), *_header_fields(_IP_MATCH))
_HEADERS = _fieldset(HeaderFields, *_header_fields(_IPV4))


def _write_dict(out: List[bytes], value: dict) -> None:
    _U32[0](out, len(value))
    for key, item in value.items():
        _write_value(out, key)
        _write_value(out, item)


def _read_dict(r: _Reader) -> dict:
    result = {}
    for _ in range(_U32[1](r)):
        key = _read_value(r)
        item = _read_value(r)
        try:
            result[key] = item
        except TypeError:
            raise WireError(f"dict key {key!r} is unhashable") from None
    return result


# The value codec is recursive: containers hold values.
_VALUE_REF: WireType = (lambda out, v: _write_value(out, v), lambda r: _read_value(r))

#: Stats entries and SetField values: tags 0..14 in this order.
_VALUE = _tagged(
    (lambda value: value is None, _constant(None)),
    (lambda value: value is False, _constant(False)),
    (lambda value: value is True, _constant(True)),
    (_is(int), _I64),
    (_is(float), _F64),
    (_is(str), _TEXT),
    (_is((bytes, bytearray)), _BLOB),
    (_is(MacAddress), _MAC),
    (_is(IPv4Address), _IPV4),
    (_is(IPv4Network), _IPV4_NETWORK),
    (_is(Match), _MATCH),
    (_is(HeaderFields), _HEADERS),
    (_is(list), _seq(_U32, _VALUE_REF, list)),
    (_is(tuple), _seq(_U32, _VALUE_REF)),
    (_is(dict), (_write_dict, _read_dict)),
)
_write_value, _read_value = _VALUE

#: Action tags 0..7 and instruction tags 0..2, in this order.
_ACTIONS = _seq(_U16, _tagged(
    _case(Output, ("port", _I32)),
    _case(Flood),
    _case(Drop),
    _case(ToController),
    _case(
        SetField, ("field_name", _choice(SetField.ALLOWED_FIELDS)), ("value", _VALUE)
    ),
    _case(GroupAction, ("group_id", _U32)),
    _case(PushVlan, ("vlan_vid", _U16)),
    _case(PopVlan),
))
_INSTRUCTIONS = _seq(_U16, _tagged(
    _case(ApplyActions, ("actions", _ACTIONS)),
    _case(GotoTable, ("table_id", _U8)),
    _case(MeterInstruction, ("meter_id", _U32)),
))
_BUCKETS = _seq(_U16, _struct(
    Bucket, ("weight", _U32), ("watch_port", _opt(_I32)), ("actions", _ACTIONS)
))
_BANDS = _seq(_U16, _struct(DropBand, ("rate_bps", _F64), ("burst_bits", _F64)))
_STATS: Fields = (("stats", _seq(_U32, _only(dict, _VALUE), list)),)


# ----------------------------------------------------------------------
# The messages
# ----------------------------------------------------------------------

#: message class -> (wire type, multipart subtype or None, body fields
#: after the dpid and subtype, in wire order).  The one body layout.
_MESSAGES: Dict[Type[Message], Tuple[int, Optional[int], Fields]] = {
    Hello: (OFPT_HELLO, None, (("version", _U8),)),
    ErrorMsg: (OFPT_ERROR, None, (
        ("error_type", _TEXT), ("detail", _TEXT), ("failed_xid", _U32),
    )),
    EchoRequest: (OFPT_ECHO_REQUEST, None, (("payload", _BLOB),)),
    EchoReply: (OFPT_ECHO_REPLY, None, (("payload", _BLOB),)),
    FeaturesRequest: (OFPT_FEATURES_REQUEST, None, ()),
    FeaturesReply: (OFPT_FEATURES_REPLY, None, (
        ("n_buffers", _U32), ("n_tables", _U8), ("auxiliary_id", _U8),
        ("capabilities", _U32), ("reserved", _U32),
    )),
    PacketIn: (OFPT_PACKET_IN, None, (
        ("in_port", _I32), ("reason", _choice(tuple(PacketInReason))),
        ("headers", _opt(_HEADERS)), ("rate_bps", _F64), ("size_bytes", _I64),
        ("flow_id", _opt(_I64)),
    )),
    FlowRemoved: (OFPT_FLOW_REMOVED, None, (
        ("table_id", _U8), ("match", _MATCH), ("priority", _U32),
        ("reason", _choice(tuple(FlowRemovedReason))), ("cookie", _U64),
        ("duration_s", _F64), ("packet_count", _I64), ("byte_count", _I64),
    )),
    PortStatus: (OFPT_PORT_STATUS, None, (
        ("port_no", _I32), ("reason", _choice(tuple(PortStatusReason))),
        ("link_up", _BOOL),
    )),
    PacketOut: (OFPT_PACKET_OUT, None, (
        ("in_port", _I32), ("headers", _opt(_HEADERS)),
        ("out_ports", _seq(_U16, _I32)), ("buffer_id", _opt(_U32)),
    )),
    FlowMod: (OFPT_FLOW_MOD, None, (
        ("command", _choice(tuple(FlowModCommand))), ("table_id", _U8),
        ("match", _MATCH), ("priority", _U32), ("instructions", _INSTRUCTIONS),
        ("idle_timeout", _F64), ("hard_timeout", _F64), ("cookie", _U64),
        ("check_overlap", _BOOL),
    )),
    GroupMod: (OFPT_GROUP_MOD, None, (
        ("command", _choice(tuple(GroupModCommand))), ("group_id", _U32),
        ("group_type", _choice(tuple(GroupType))), ("buckets", _BUCKETS),
    )),
    MeterMod: (OFPT_METER_MOD, None, (
        ("command", _choice(tuple(MeterModCommand))), ("meter_id", _U32),
        ("bands", _BANDS),
    )),
    BarrierRequest: (OFPT_BARRIER_REQUEST, None, ()),
    BarrierReply: (OFPT_BARRIER_REPLY, None, ()),
    FlowStatsRequest: (OFPT_MULTIPART_REQUEST, OFPMP_FLOW, (
        ("table_id", _opt(_U8)), ("match", _opt(_MATCH)), ("cookie", _opt(_U64)),
    )),
    TableStatsRequest: (OFPT_MULTIPART_REQUEST, OFPMP_TABLE, ()),
    PortStatsRequest: (
        OFPT_MULTIPART_REQUEST, OFPMP_PORT_STATS, (("port_no", _opt(_I32)),)
    ),
    FlowStatsReply: (OFPT_MULTIPART_REPLY, OFPMP_FLOW, _STATS),
    TableStatsReply: (OFPT_MULTIPART_REPLY, OFPMP_TABLE, _STATS),
    PortStatsReply: (OFPT_MULTIPART_REPLY, OFPMP_PORT_STATS, _STATS),
}

#: (wire type, subtype or None) -> (message class, body fields)
_DECODERS = {
    (wire_type, subtype): (cls, fields)
    for cls, (wire_type, subtype, fields) in _MESSAGES.items()
}
_MULTIPART = {wire_type for wire_type, subtype in _DECODERS if subtype is not None}


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def encode(message: Message) -> bytes:
    """One complete wire frame for an in-memory control message."""
    entry = _MESSAGES.get(type(message))
    if entry is None:
        raise WireError(
            f"message type {type(message).__name__} has no wire encoding"
        )
    wire_type, subtype, fields = entry
    out: List[bytes] = []
    _write_fields(out, message, (("dpid", _U64),))
    if subtype is not None:
        _write_u16(out, subtype)
    _write_fields(out, message, fields)
    body = b"".join(out)
    length = HEADER_SIZE + len(body)
    if length > MAX_FRAME_SIZE:
        raise WireError(
            f"{type(message).__name__} frame is {length} bytes "
            f"(wire maximum {MAX_FRAME_SIZE})"
        )
    if not isinstance(message.xid, int) or not 0 <= message.xid < (1 << 32):
        raise WireError(f"xid out of u32 range: {message.xid!r}")
    return _HEADER.pack(WIRE_VERSION, wire_type, length, message.xid) + body


def decode(frame: bytes) -> Message:
    """Decode one complete frame back into its message dataclass."""
    if len(frame) < HEADER_SIZE:
        raise WireError(f"frame shorter than header: {len(frame)} bytes")
    version, wire_type, length, xid = _HEADER.unpack_from(frame)
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported OpenFlow version {version:#04x} "
            f"(only 1.3 / {WIRE_VERSION:#04x})"
        )
    if length != len(frame):
        raise WireError(
            f"frame length field says {length}, got {len(frame)} bytes"
        )
    r = _Reader(frame[HEADER_SIZE:])
    dpid = _U64[1](r)
    subtype = _read_u16(r) if wire_type in _MULTIPART else None
    entry = _DECODERS.get((wire_type, subtype))
    if entry is None:
        raise WireError(
            f"unknown message type {wire_type}"
            + (f" subtype {subtype}" if subtype is not None else "")
        )
    cls, fields = entry
    try:
        values = _read_fields(r, fields, {"dpid": dpid, "xid": xid})
    except RecursionError:
        raise WireError("body nested too deeply") from None
    if r.pos != len(r.data):
        raise WireError(f"{len(r.data) - r.pos} trailing bytes after body")
    return _build(cls, values)


class FrameReader:
    """Reassembles wire frames from a TCP byte stream.

    Feed arbitrary chunks with :meth:`feed`; iterate complete raw frames
    with :meth:`frames`.  A partial frame simply waits for more bytes; a
    malformed header (bad version, impossible length) raises
    :class:`~repro.errors.WireError` because the stream cannot be
    resynchronized after it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self):
        """Yield complete raw frames accumulated so far."""
        while len(self._buffer) >= HEADER_SIZE:
            version, _wire_type, length, _xid = _HEADER.unpack_from(
                bytes(self._buffer[:HEADER_SIZE])
            )
            if version != WIRE_VERSION:
                raise WireError(
                    f"unsupported OpenFlow version {version:#04x} on stream"
                )
            if length < HEADER_SIZE:
                raise WireError(
                    f"frame length {length} shorter than the header"
                )
            if len(self._buffer) < length:
                return  # wait for the rest of the frame
            frame = bytes(self._buffer[:length])
            del self._buffer[:length]
            yield frame

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
