"""Wire-format codec: pinned byte vectors, roundtrips, slave semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meowsim.bench import run_scenario
from meowsim.codec import (
    EcatCmd,
    EcatDatagram,
    EcatFrame,
    apply_datagram,
    check_conformance_vectors,
    decode_frame,
    encode_frame,
    summarize_frame,
)
from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.errors import (
    BadType,
    LengthMismatch,
    OversizeFrame,
    TruncatedFrame,
    UnknownCommand,
    UnsupportedCommand,
)
from meowsim.scenario import load_preset
from meowsim.simulation import MasterState

from conftest import changed_words, image_words

# Frozen wire-format oracles, derived by hand from the layout table:
# header 0x100C = length 12 | type 1; NOP datagram is ten zero header bytes
# plus a zero working counter.
NOP_FRAME_BYTES = bytes.fromhex("0c10" + "00" * 12)
# header 0x100E; cmd 0x0B (LWR), idx 0, address 0, len 2, irq 0, data EF BE,
# wkc 0.
LWR_FRAME_BYTES = bytes.fromhex("0e100b000000000002000000efbe0000")


class TestPinnedVectors:
    def test_nop_encode(self):
        frame = EcatFrame((EcatDatagram(cmd=EcatCmd.NOP),))
        assert encode_frame(frame) == NOP_FRAME_BYTES

    def test_lwr_encode(self):
        frame = EcatFrame((EcatDatagram(cmd=EcatCmd.LWR, data=b"\xEF\xBE"),))
        assert encode_frame(frame) == LWR_FRAME_BYTES

    def test_lwr_decode(self):
        frame = decode_frame(LWR_FRAME_BYTES)
        (dgram,) = frame.datagrams
        assert dgram.cmd is EcatCmd.LWR
        assert dgram.idx == 0
        assert dgram.address == 0
        assert dgram.data == b"\xEF\xBE"
        assert dgram.wkc == 0
        assert not dgram.circulating


class TestDecodeErrors:
    def test_empty(self):
        with pytest.raises(TruncatedFrame):
            decode_frame(b"")

    def test_declared_length_beyond_buffer(self):
        raw = bytes.fromhex("6410") + b"\x00" * 10  # declares 100 content bytes
        with pytest.raises(TruncatedFrame):
            decode_frame(raw)

    def test_bad_type(self):
        raw = bytes.fromhex("0c20") + b"\x00" * 12  # type nibble 2
        with pytest.raises(BadType):
            decode_frame(raw)

    def test_trailing_garbage(self):
        with pytest.raises(LengthMismatch):
            decode_frame(NOP_FRAME_BYTES + b"\x00")

    def test_unknown_command(self):
        raw = bytearray(NOP_FRAME_BYTES)
        raw[2] = 0x1F
        with pytest.raises(UnknownCommand):
            decode_frame(bytes(raw))

    def test_datagram_runs_past_content(self):
        # payload length field larger than the declared frame content
        raw = bytearray(LWR_FRAME_BYTES)
        raw[8] = 0xFF
        with pytest.raises(LengthMismatch):
            decode_frame(bytes(raw))

    def test_more_set_on_the_last_datagram(self):
        # the length and the more bit are one 16-bit field at bytes 8-9
        raw = bytearray(NOP_FRAME_BYTES)
        raw[9] |= 0x80
        with pytest.raises(LengthMismatch):
            decode_frame(bytes(raw))

    def test_more_clear_on_a_first_of_two_datagrams(self):
        raw = bytearray(encode_frame(EcatFrame((EcatDatagram(cmd=EcatCmd.NOP),
                                                EcatDatagram(cmd=EcatCmd.NOP)))))
        assert raw[9] & 0x80
        raw[9] &= 0x7F
        with pytest.raises(LengthMismatch):
            decode_frame(bytes(raw))

    def test_more_set_on_every_datagram_but_the_last(self):
        frame = EcatFrame(tuple(EcatDatagram(cmd=EcatCmd.NOP) for _ in range(3)))
        raw = encode_frame(frame)
        assert [raw[9 + 12 * i] & 0x80 for i in range(3)] == [0x80, 0x80, 0]
        assert summarize_frame(frame).count("+more") == 2

    def test_oversize_encode(self):
        frame = EcatFrame((EcatDatagram(cmd=EcatCmd.LWR, data=b"\x00" * 1486),
                           EcatDatagram(cmd=EcatCmd.NOP)))
        with pytest.raises(OversizeFrame):
            encode_frame(frame)


class TestFrameInvariants:
    def test_empty_frame(self):
        with pytest.raises(ValueError):
            EcatFrame(datagrams=())

    def test_oversize_data_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EcatDatagram(cmd=EcatCmd.LWR, data=b"\x00" * 1487)

    @pytest.mark.parametrize("field, value, message", [
        ("idx", 0x100, "idx must fit one byte, got 256"),
        ("idx", -1, "idx must fit one byte, got -1"),
        ("address", 1 << 32, "address must fit four bytes, got 4294967296"),
        ("irq", 0x10000, "irq must fit two bytes, got 65536"),
        ("wkc", -1, "wkc must fit two bytes, got -1"),
    ], ids=["idx-high", "idx-negative", "address", "irq", "wkc"])
    def test_header_field_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EcatDatagram(cmd=EcatCmd.LWR, **{field: value})


def random_datagram(rng: random.Random) -> EcatDatagram:
    return EcatDatagram(
        cmd=EcatCmd(rng.randrange(15)),
        idx=rng.randrange(256),
        address=rng.randrange(1 << 32),
        data=rng.randbytes(rng.randrange(64)),
        circulating=rng.random() < 0.2,
        irq=rng.randrange(1 << 16),
        wkc=rng.randrange(1 << 16),
    )


def random_frame(rng: random.Random) -> EcatFrame:
    return EcatFrame(tuple(random_datagram(rng) for _ in range(rng.randrange(1, 5))))


class TestRoundtrip:
    def test_mass_roundtrip_seeded(self):
        # >= 10^4 random valid frames, decode(encode(f)) == f
        rng = random.Random(0xC0DEC)
        for _ in range(10_000):
            frame = random_frame(rng)
            assert decode_frame(encode_frame(frame)) == frame

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_roundtrip_hypothesis(self, data):
        dgrams = data.draw(
            st.lists(
                st.builds(
                    EcatDatagram,
                    cmd=st.sampled_from(list(EcatCmd)),
                    idx=st.integers(0, 255),
                    address=st.integers(0, 2**32 - 1),
                    data=st.binary(max_size=40),
                    circulating=st.booleans(),
                    irq=st.integers(0, 2**16 - 1),
                    wkc=st.integers(0, 2**16 - 1),
                ),
                min_size=1,
                max_size=4,
            )
        )
        frame = EcatFrame(dgrams)
        assert decode_frame(encode_frame(frame)) == frame

    def test_canonical_bytes_reencode(self):
        rng = random.Random(0xBEEF)
        for _ in range(2_000):
            raw = encode_frame(random_frame(rng))
            assert encode_frame(decode_frame(raw)) == raw


class TestApplyDatagram:
    def offset(self, pos):
        return 2 * pos

    def test_lwr_eight_slaves_wkc(self):
        dgram = EcatDatagram(cmd=EcatCmd.LWR, address=0, data=bytes(range(16)))
        total = 0
        word = dict.fromkeys(range(8), 0)
        for pos in range(8):
            word[pos], data, inc = apply_datagram(word[pos], dgram, self.offset(pos))
            total += inc
        assert total == 8
        assert word[0] == 0x0100  # bytes 0,1 little-endian
        assert word[7] == 0x0F0E

    def test_lrw_eight_slaves_wkc(self):
        dgram = EcatDatagram(cmd=EcatCmd.LRW, address=0, data=bytes(16))
        total = 0
        data = dgram.data
        for pos in range(8):
            _, data, inc = apply_datagram(0xABCD, dgram, self.offset(pos))
            total += inc
        assert total == 24

    def test_no_overlap(self):
        dgram = EcatDatagram(cmd=EcatCmd.LWR, address=0, data=bytes(16))
        word, data, inc = apply_datagram(0x1234, dgram, 20)
        assert (word, data, inc) == (0x1234, bytes(16), 0)

    def test_lrd_reads_word(self):
        dgram = EcatDatagram(cmd=EcatCmd.LRD, address=2, data=bytes(4))
        word, data, inc = apply_datagram(0xBEEF, dgram, self.offset(1))
        assert word == 0xBEEF
        # datagram starts at address 2 == the word's logical start, so the word lands
        # at the head of the payload window
        assert data == b"\xEF\xBE" + bytes(2)
        assert inc == 1

    def test_lrw_exchanges(self):
        dgram = EcatDatagram(cmd=EcatCmd.LRW, address=0, data=b"\x34\x12")
        word, data, inc = apply_datagram(0xBEEF, dgram, self.offset(0))
        assert word == 0x1234
        assert data == b"\xEF\xBE"
        assert inc == 3

    def test_partial_overlap_only_touches_window(self):
        # datagram covers bytes [1, 3); the word covers [2, 4): overlap = byte 2
        dgram = EcatDatagram(cmd=EcatCmd.LWR, address=1, data=b"\xAA\xBB")
        word, data, inc = apply_datagram(0x1122, dgram, self.offset(1))
        assert inc == 1
        assert word == 0x11BB  # low byte replaced, high byte kept
        assert data == b"\xAA\xBB"

    @pytest.mark.parametrize("word, start", [(0x10000, 0), (-1, 0), (0, -2)])
    def test_word_and_offset_checked(self, word, start):
        dgram = EcatDatagram(cmd=EcatCmd.LWR, address=0, data=bytes(4))
        with pytest.raises(ValueError):
            apply_datagram(word, dgram, start)

    def test_non_logical_rejected(self):
        dgram = EcatDatagram(cmd=EcatCmd.BRD, address=0, data=b"\x00\x00")
        with pytest.raises(UnsupportedCommand):
            apply_datagram(0, dgram, self.offset(0))

    def test_wkc_order_independence(self):
        dgram = EcatDatagram(cmd=EcatCmd.LRW, address=0, data=bytes(16))
        orders = [list(range(8)), list(reversed(range(8)))]
        totals = []
        for order in orders:
            total = 0
            for pos in order:
                _, _, inc = apply_datagram(0, dgram, self.offset(pos))
                total += inc
            totals.append(total)
        assert totals[0] == totals[1] == 24


class TestConformanceVectors:
    def test_shipped_vectors(self):
        from importlib import resources

        text = (
            resources.files("meowsim")
            .joinpath("data").joinpath("conformance_vectors.txt")
            .read_text(encoding="utf-8")
        )
        assert check_conformance_vectors(text) >= 10

    def test_summary_format_stable(self):
        frame = decode_frame(LWR_FRAME_BYTES)
        assert summarize_frame(frame) == (
            "LWR idx=0 addr=0x00000000 len=2 irq=0 data=efbe wkc=0"
        )


    @pytest.mark.parametrize("line", ["zz LWR", "0e100b"], ids=["not-hex", "no-summary"])
    def test_unparsable_line_named(self, line):
        with pytest.raises(ValueError, match=r"^conformance vector line 2: "):
            check_conformance_vectors(f"# a comment\n{line}\n")

    def test_summary_mismatch_raises(self):
        expected = "NOP idx=0 addr=0x00000000 len=2 irq=0 data=efbe wkc=0"
        with pytest.raises(AssertionError) as info:
            check_conformance_vectors(f"{LWR_FRAME_BYTES.hex()} {expected}")
        assert str(info.value) == (
            f"vector 0: summary mismatch\n  expected: {expected}\n"
            f"  got:      LWR idx=0 addr=0x00000000 len=2 irq=0 data=efbe wkc=0"
        )

    def test_reencode_mismatch_raises(self):
        # reserved frame-header bit 11 set: it decodes, but re-encodes without it
        raw = "0e18" + LWR_FRAME_BYTES.hex()[4:]
        summary = summarize_frame(decode_frame(LWR_FRAME_BYTES))
        with pytest.raises(AssertionError) as info:
            check_conformance_vectors(f"{raw} {summary}")
        assert str(info.value) == (
            f"vector 0: re-encode mismatch\n  expected: {raw}\n"
            f"  got:      {LWR_FRAME_BYTES.hex()}"
        )


class TestEventPathOnTheWire:
    """Every frame with riders the event path builds, sent as one LWR datagram.

    The datagram's payload is the master's packed image as little-endian bytes.

    Each device applies the datagram at its logical offset; the words it
    then holds must be the master's, and the words that moved the frame's
    changed words.
    """

    @pytest.fixture
    def sent(self, monkeypatch):
        init, build_frame = DeviceController.__init__, MasterState.build_frame
        counts = {}  # master -> its chain's device count
        held = {}  # master -> the words its devices hold, applied from the wire
        sent = []

        def init_and_count(controller, engine, topology):
            init(controller, engine, topology)
            counts.update(zip(controller.masters, (s.device_count for s in topology.segments)))

        def build_and_send(master, boundary_ns):
            image_before = master.image
            riders = build_frame(master, boundary_ns)
            if not riders:
                return riders
            count = counts[master]
            image = master.image.to_bytes(2 * count, "little")
            raw = encode_frame(EcatFrame((EcatDatagram(cmd=EcatCmd.LWR, data=image),)))
            (dgram,) = decode_frame(raw).datagrams
            words = held.setdefault(master, [0] * count)
            before, wkc = list(words), 0
            for p, word in enumerate(before):
                words[p], _, increment = apply_datagram(word, dgram, 2 * p)
                wkc += increment
            assert words == image_words(master.image, count)
            assert wkc == len(words)
            changed = tuple((p, w) for p, w in enumerate(words) if w != before[p])
            assert changed == changed_words(image_before, master.image)
            sent.append(boundary_ns)
            return riders

        monkeypatch.setattr(DeviceController, "__init__", init_and_count)
        monkeypatch.setattr(MasterState, "build_frame", build_and_send)
        return sent

    @pytest.mark.parametrize("preset, frames", [("exp1", 1_000), ("exp2", 4_000)])
    def test_preset_runs(self, sent, preset, frames):
        run_scenario(load_preset(preset).with_changes(outputs=None))
        assert len(sent) == frames

    def test_seeded_words_that_coalesce(self, sent):
        # the presets write byte-symmetric words; these are not, and
        # requests 50 us apart on an 80 us cycle share frames
        topology = load_preset("exp2").topology
        engine = Engine(seed=7)
        controller = DeviceController(engine, topology)
        rng = random.Random(7)
        devices = list(topology.all_targets())
        for k in range(200):
            chosen = rng.sample(devices, rng.randint(1, len(devices)))
            targets = [(s, d, rng.getrandbits(16)) for s, d in chosen]
            controller.submit(k, targets, k * 50_000)
        engine.run_until(200 * 50_000 + controller.request_span_ns())
        traces = controller.traces.values()
        assert all(trace.complete for trace in traces)
        rides = [(s, seg.emit_ns) for trace in traces for s, seg in trace.segments.items()]
        assert len(sent) == len(set(rides)) < len(rides)
