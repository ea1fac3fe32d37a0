"""Bit-exact EtherCAT telegram codec and slave-side datagram semantics.

Serialization starts at the 2-byte EtherCAT frame header; Ethernet MAC and
FCS framing is not modelled (its cost lives in the timing model instead).
Everything on the wire is little-endian.

Layout:
  frame header  2 bytes: bits 0-10 datagram-area length, bits 12-15 type (=1)
  per datagram  cmd(1) idx(1) address(4) len+flags(2) irq(2) data(len) wkc(2)
                len+flags: bits 0-10 length, bit 14 circulating, bit 15 more
                (set on every datagram but the last, so it is not stored)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    BadType,
    LengthMismatch,
    OversizeFrame,
    TruncatedFrame,
    UnknownCommand,
    UnsupportedCommand,
)

FRAME_TYPE_PDU = 1
MAX_DATA_LEN = 1486
MAX_FRAME_BYTES = 1498
DGRAM_OVERHEAD = 12  # 10-byte datagram header + 2-byte working counter
OUTPUT_WORD_BYTES = 2  # one 16-bit digital-output word per device

_HEADER = struct.Struct("<H")
_DGRAM_HEAD = struct.Struct("<BBIHH")
_WKC = struct.Struct("<H")

_LEN_MASK = 0x07FF
_CIRCULATING_BIT = 1 << 14
_MORE_BIT = 1 << 15


class EcatCmd(IntEnum):
    """EtherCAT datagram commands."""

    NOP = 0
    APRD = 1
    APWR = 2
    APRW = 3
    FPRD = 4
    FPWR = 5
    FPRW = 6
    BRD = 7
    BWR = 8
    BRW = 9
    LRD = 10
    LWR = 11
    LRW = 12
    ARMW = 13
    FRMW = 14


LOGICAL_COMMANDS = frozenset({EcatCmd.LRD, EcatCmd.LWR, EcatCmd.LRW})


@dataclass(frozen=True)
class EcatDatagram:
    """One datagram; payload length is always len(data)."""

    cmd: EcatCmd
    idx: int = 0
    address: int = 0
    data: bytes = b""
    circulating: bool = False
    irq: int = 0
    wkc: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cmd", EcatCmd(self.cmd))
        object.__setattr__(self, "data", bytes(self.data))
        if not 0 <= self.idx <= 0xFF:
            raise ValueError(f"idx must fit one byte, got {self.idx}")
        if not 0 <= self.address <= 0xFFFFFFFF:
            raise ValueError(f"address must fit four bytes, got {self.address}")
        if len(self.data) > MAX_DATA_LEN:
            raise ValueError(f"data length {len(self.data)} exceeds {MAX_DATA_LEN}")
        if not 0 <= self.irq <= 0xFFFF:
            raise ValueError(f"irq must fit two bytes, got {self.irq}")
        if not 0 <= self.wkc <= 0xFFFF:
            raise ValueError(f"wkc must fit two bytes, got {self.wkc}")

    @property
    def byte_length(self) -> int:
        return DGRAM_OVERHEAD + len(self.data)


@dataclass(frozen=True)
class EcatFrame:
    """A frame: one or more datagrams, chained on the wire by the more flag."""

    datagrams: tuple[EcatDatagram, ...]

    def __post_init__(self):
        datagrams = tuple(self.datagrams)
        object.__setattr__(self, "datagrams", datagrams)
        if not datagrams:
            raise ValueError("frame needs at least one datagram")

    @property
    def content_length(self) -> int:
        return sum(d.byte_length for d in self.datagrams)


def encode_frame(frame: EcatFrame) -> bytes:
    """Serialize a frame to canonical wire bytes."""
    content = frame.content_length
    if _HEADER.size + content > MAX_FRAME_BYTES:
        raise OversizeFrame(
            f"frame serializes to {_HEADER.size + content} bytes, max {MAX_FRAME_BYTES}"
        )
    # the byte budget keeps content within the 11-bit length field (1496 <= 2047)
    out = bytearray(_HEADER.pack(content | (FRAME_TYPE_PDU << 12)))
    last = len(frame.datagrams) - 1
    for i, dgram in enumerate(frame.datagrams):
        len_flags = len(dgram.data)
        if dgram.circulating:
            len_flags |= _CIRCULATING_BIT
        if i < last:
            len_flags |= _MORE_BIT
        out += _DGRAM_HEAD.pack(
            int(dgram.cmd), dgram.idx, dgram.address, len_flags, dgram.irq
        )
        out += dgram.data
        out += _WKC.pack(dgram.wkc)
    return bytes(out)


def decode_frame(raw: bytes) -> EcatFrame:
    """Parse wire bytes; exact inverse of encode_frame on canonical input.

    Reserved header bits (frame bit 11, datagram bits 11-13) are ignored,
    so only canonical bytes (reserved bits zero) re-encode identically.
    """
    raw = bytes(raw)
    if len(raw) < _HEADER.size:
        raise TruncatedFrame(f"need {_HEADER.size} header bytes, got {len(raw)}")
    (header,) = _HEADER.unpack_from(raw, 0)
    frame_type = header >> 12
    if frame_type != FRAME_TYPE_PDU:
        raise BadType(f"frame type {frame_type}, expected {FRAME_TYPE_PDU}")
    content = header & _LEN_MASK
    end = _HEADER.size + content
    if len(raw) < end:
        raise TruncatedFrame(f"header declares {content} content bytes, got {len(raw) - 2}")
    if len(raw) > end:
        raise LengthMismatch(f"{len(raw) - end} trailing bytes after declared content")

    datagrams = []
    cursor = _HEADER.size
    while True:
        if end - cursor < _DGRAM_HEAD.size + _WKC.size:
            raise LengthMismatch("datagram header runs past declared frame content")
        cmd_byte, idx, address, len_flags, irq = _DGRAM_HEAD.unpack_from(raw, cursor)
        try:
            cmd = EcatCmd(cmd_byte)
        except ValueError:
            raise UnknownCommand(f"command byte {cmd_byte} not in the EtherCAT command set")
        cursor += _DGRAM_HEAD.size
        data_len = len_flags & _LEN_MASK
        if end - cursor < data_len + _WKC.size:
            raise LengthMismatch("datagram payload runs past declared frame content")
        data = raw[cursor:cursor + data_len]
        cursor += data_len
        (wkc,) = _WKC.unpack_from(raw, cursor)
        cursor += _WKC.size
        datagrams.append(
            EcatDatagram(
                cmd=cmd,
                idx=idx,
                address=address,
                data=data,
                circulating=bool(len_flags & _CIRCULATING_BIT),
                irq=irq,
                wkc=wkc,
            )
        )
        if not len_flags & _MORE_BIT:
            break
    if cursor != end:
        raise LengthMismatch(f"{end - cursor} content bytes left after final datagram")
    return EcatFrame(datagrams=tuple(datagrams))


def apply_datagram(word: int, dgram: EcatDatagram, logical_start: int):
    """On-the-fly slave processing of one logical datagram.

    word is the slave's 16-bit output word, mapped at logical_start in the
    segment's logical image. Returns (updated word, updated datagram data,
    wkc increment). Bytes outside the overlap of the datagram window and
    the word's window are never touched, in either direction.
    """
    if dgram.cmd not in LOGICAL_COMMANDS:
        raise UnsupportedCommand(
            f"{dgram.cmd.name} is not processed by the cyclic logical path"
        )
    if logical_start < 0:
        raise ValueError(f"logical_start must be >= 0, got {logical_start}")
    if not 0 <= word <= 0xFFFF:
        raise ValueError(f"word {word:#x} does not fit {OUTPUT_WORD_BYTES} bytes")

    lo = max(dgram.address, logical_start)
    hi = min(dgram.address + len(dgram.data), logical_start + OUTPUT_WORD_BYTES)
    if lo >= hi:
        return word, dgram.data, 0

    word_bytes = bytearray(word.to_bytes(OUTPUT_WORD_BYTES, "little"))
    data = bytearray(dgram.data)
    d0, d1 = lo - dgram.address, hi - dgram.address
    w0, w1 = lo - logical_start, hi - logical_start

    if dgram.cmd is EcatCmd.LRD:
        data[d0:d1] = word_bytes[w0:w1]
        return word, bytes(data), 1
    if dgram.cmd is EcatCmd.LWR:
        word_bytes[w0:w1] = data[d0:d1]
        return int.from_bytes(word_bytes, "little"), bytes(data), 1
    # LRW: frame reads old outputs while writing new ones, an exchange
    old_window = bytes(word_bytes[w0:w1])
    word_bytes[w0:w1] = data[d0:d1]
    data[d0:d1] = old_window
    return int.from_bytes(word_bytes, "little"), bytes(data), 3


def summarize_frame(frame: EcatFrame) -> str:
    """Canonical one-line description used by the conformance vectors."""
    parts = []
    last = len(frame.datagrams) - 1
    for i, dgram in enumerate(frame.datagrams):
        flags = ""
        if dgram.circulating:
            flags += "+circ"
        if i < last:
            flags += "+more"
        data_hex = dgram.data.hex() if dgram.data else "-"
        parts.append(
            f"{dgram.cmd.name} idx={dgram.idx} addr=0x{dgram.address:08x} "
            f"len={len(dgram.data)}{flags} irq={dgram.irq} data={data_hex} wkc={dgram.wkc}"
        )
    return "; ".join(parts)


def parse_conformance_vectors(text: str):
    """Parse `<hex bytes> <expected decode summary>` lines, skipping comments."""
    vectors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            hex_part, summary = line.split(" ", 1)
            raw = bytes.fromhex(hex_part)
        except ValueError as exc:
            raise ValueError(f"conformance vector line {lineno}: {exc}") from exc
        vectors.append((raw, summary.strip()))
    return vectors


def check_conformance_vectors(text: str):
    """Decode every vector, compare summaries, re-encode, compare bytes.

    Returns the number of vectors checked; raises AssertionError on the
    first divergence.
    """
    vectors = parse_conformance_vectors(text)
    for i, (raw, expected) in enumerate(vectors):
        frame = decode_frame(raw)
        got = summarize_frame(frame)
        if got != expected:
            raise AssertionError(
                f"vector {i}: summary mismatch\n  expected: {expected}\n  got:      {got}"
            )
        again = encode_frame(frame)
        if again != raw:
            raise AssertionError(
                f"vector {i}: re-encode mismatch\n  expected: {raw.hex()}\n  got:      {again.hex()}"
            )
    return len(vectors)
