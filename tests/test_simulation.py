"""PDO boundary math, the latency oracle, master/device state."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meowsim.simulation import (
    DeviceState,
    MasterState,
    analytic_latency,
    boundary_at_or_after,
    structural_worst_latency,
)
from meowsim.topology import MAX_SEGMENT_DEVICES, TimingParams

from conftest import changed_words, image_words


def build(master, boundary_ns):
    """(riders, image before, image after) of the frame the master builds at a boundary."""
    before = master.image
    return master.build_frame(boundary_ns), before, master.image


def changed(frame):
    """((device, new word), ...) of the words a (riders, before, after) frame changes."""
    _, before, after = frame
    return changed_words(before, after)


def riders(frame):
    """The request ids a (riders, before, after) frame carries."""
    return frame[0]


class TestNextPdoBoundary:
    """The first boundary strictly after t is the one at or after t + 1."""

    def test_mid_cycle(self):
        assert boundary_at_or_after(5_000 + 1, 0, 32_000) == 32_000

    def test_exactly_on_boundary_is_strictly_after(self):
        assert boundary_at_or_after(32_000 + 1, 0, 32_000) == 64_000

    def test_with_phase(self):
        assert boundary_at_or_after(95_500 + 1, 16_000, 32_000) == 112_000

    def test_before_phase(self):
        assert boundary_at_or_after(10 + 1, 16_000, 32_000) == 16_000

    def test_zero_cycle_rejected(self):
        with pytest.raises(ValueError):
            boundary_at_or_after(0 + 1, 0, 0)


class TestBoundaryAtOrAfter:
    def test_on_boundary_stays(self):
        assert boundary_at_or_after(96_000, 0, 32_000) == 96_000

    def test_mid_cycle_rounds_up(self):
        assert boundary_at_or_after(96_001, 0, 32_000) == 128_000

    def test_agreement_off_boundary(self):
        # off a boundary, "at or after t" and "strictly after t" agree
        for t in (1, 4_999, 31_999, 33_000):
            assert boundary_at_or_after(t, 0, 32_000) == boundary_at_or_after(t + 1, 0, 32_000)


def exp1_timing():
    return TimingParams(pdo_cycle_ns=32_000)


def exp2_timing():
    return TimingParams(pdo_cycle_ns=80_000, d_mm_ns=15_400, d_jitter_max_ns=7_000)


class TestAnalyticLatency:
    def test_single_segment_best_case(self):
        assert analytic_latency(exp1_timing(), 1, 8, 0, 0) == 90_000

    def test_multi_master_best_case(self):
        assert analytic_latency(exp2_timing(), 4, 2, 0, 0) == 100_000

    def test_multi_master_worst_case(self):
        eps = 100
        assert analytic_latency(exp2_timing(), 4, 2, 80_000 - eps, 7_000) == 187_000 - eps

    def test_single_device(self):
        assert analytic_latency(exp1_timing(), 1, 1, 0, 0) == 83_700

    def test_d_mm_charged_only_multi(self):
        t = TimingParams(pdo_cycle_ns=32_000, d_mm_ns=15_400)
        assert analytic_latency(t, 1, 8, 0, 0) == 90_000
        assert analytic_latency(t, 2, 8, 0, 0) == 105_400

    def test_wait_domain(self):
        with pytest.raises(ValueError):
            analytic_latency(exp1_timing(), 1, 8, 32_000, 0)
        with pytest.raises(ValueError):
            analytic_latency(exp1_timing(), 1, 8, -1, 0)

    def test_jitter_domain(self):
        with pytest.raises(ValueError):
            analytic_latency(exp1_timing(), 1, 8, 0, 1)  # d_jitter_max is 0
        with pytest.raises(ValueError):
            analytic_latency(exp2_timing(), 4, 2, 0, 7_001)

    def test_segment_and_rank_domain(self):
        with pytest.raises(ValueError, match=r"^n_segments must be >= 1, got 0$"):
            analytic_latency(exp1_timing(), 0, 8, 0, 0)
        with pytest.raises(ValueError, match=r"^device_rank is 1-based, got 0$"):
            analytic_latency(exp1_timing(), 1, 0, 0, 0)

    def test_structural_worst(self):
        assert structural_worst_latency(exp2_timing(), 4, 2, 100) == 186_900
        assert structural_worst_latency(exp1_timing(), 1, 8, 100) == 121_900

    @pytest.mark.parametrize("seed", range(40))
    def test_structural_worst_is_the_enumerated_worst(self, seed):
        # delays off the 100 ns grid: every generation instant and segment
        # phase on the grid, every jitter draw, each pickup by the boundary rule
        rng = random.Random(seed)
        grid = 100
        cycle = grid * rng.randint(1, 6)
        timing = TimingParams(pdo_cycle_ns=cycle, d_sb_ns=rng.randint(0, 3_000),
                              d_mm_ns=rng.randint(0, 500), d_jitter_max_ns=rng.randint(0, 150),
                              d_frame_head_ns=rng.randint(0, 500), d_hop_ns=rng.randint(0, 90),
                              d_latch_ns=rng.randint(0, 90))
        rank = rng.randint(1, 4)
        tail = timing.d_frame_head_ns + rank * timing.d_hop_ns + timing.d_latch_ns
        for n_segments in (1, 2):
            dispatch = timing.d_sb_ns + (timing.d_mm_ns if n_segments > 1 else 0)
            worst = max(
                boundary_at_or_after(t_gen + dispatch + jitter, phase, cycle) + tail - t_gen
                for t_gen in range(0, cycle, grid)
                for phase in range(0, cycle, grid)
                for jitter in range(timing.d_jitter_max_ns + 1)
            )
            assert structural_worst_latency(timing, n_segments, rank, grid) == worst


def write(*pairs):
    """The (mask, value) images of ((device, word), ...)."""
    mask = value = 0
    for device, word in pairs:
        mask |= 0xFFFF << 16 * device
        value |= word << 16 * device
    return mask, value


@st.composite
def due_frames(draw):
    """(chain length, image, writes) with 1-4 writes due at boundary 32_000 of a 32 us cycle.

    Each write is (stage_ns, request_id, mask, value) with value inside mask.
    Masks are the full chain, one word, a few words or an earlier write's
    mask (so words overlap), and staging times repeat often.
    """
    n = draw(st.integers(1, MAX_SEGMENT_DEVICES))
    full = (1 << 16 * n) - 1
    image = draw(st.integers(0, full))
    writes = []
    for request_id in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["full", "one word", "some words", "earlier"]))
        if shape == "full":
            mask = full
        elif shape == "one word":
            mask = 0xFFFF << 16 * draw(st.integers(0, n - 1))
        elif shape == "some words" or not writes:
            positions = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=8))
            mask = sum(0xFFFF << 16 * p for p in positions)
        else:
            mask = draw(st.sampled_from([w[2] for w in writes]))
        value = draw(st.integers(0, full)) & mask
        stage_ns = 32_000 - 10_000 * draw(st.integers(0, 3))  # all due at 32_000
        writes.append((stage_ns, request_id, mask, value))
    return n, image, writes


class TestMasterState:
    def master(self):
        return MasterState(phase_ns=0, cycle_ns=32_000)

    def test_image_snapshot(self):
        m = self.master()
        m.stage(10_000, 1, *write((0, 0xBEEF)))
        frame = build(m, 32_000)
        assert riders(frame) == (1,)
        assert changed(frame) == ((0, 0xBEEF),)
        assert image_words(m.image, 2) == [0xBEEF, 0]
        assert m.image == 0xBEEF
        # a word written again with its current value changes nothing
        m.stage(40_000, 2, *write((0, 0xBEEF)))
        frame = build(m, 64_000)
        assert riders(frame) == (2,)
        assert changed(frame) == ()

    def test_last_writer_wins_coalescing(self):
        m = self.master()
        m.stage(10_000, 1, *write((0, 0x1111), (1, 0x0001)))
        m.stage(20_000, 2, *write((0, 0x2222)))
        frame = build(m, 32_000)
        assert changed(frame) == ((0, 0x2222), (1, 0x0001))
        assert riders(frame) == (1, 2)

    def test_coalescing_order_by_stage_time_not_insertion(self):
        m = self.master()
        m.stage(20_000, 1, *write((0, 0x1111)))
        m.stage(10_000, 2, *write((0, 0x2222)))
        m.stage(10_000, 3, *write((1, 0x3333)))
        m.stage(10_000, 4, *write((1, 0x4444)))
        frame = build(m, 32_000)
        # the later-staged write (request 1) lands on top; equal staging
        # times keep staging order (request 4 after request 3)
        assert changed(frame) == ((0, 0x1111), (1, 0x4444))
        assert riders(frame) == (1, 2, 3, 4)

    def test_future_writes_stay_pending(self):
        m = self.master()
        m.stage(40_000, 1, *write((0, 0x1111)))
        frame = build(m, 32_000)
        assert riders(frame) == changed(frame) == ()
        assert list(m.staged) == [64_000]
        assert m.build_frame(64_000) == (1,)

    def test_write_on_a_built_boundary_rides_the_next(self):
        m = self.master()
        m.build_frame(32_000)
        m.stage(32_000, 1, *write((0, 0x1111)), built=True)
        assert m.build_frame(64_000) == (1,)

    def test_idle_frames_still_emitted(self):
        m = self.master()
        first = build(m, 32_000)
        second = build(m, 64_000)
        assert first == second == ((), 0, 0)
        assert image_words(m.image, 2) == [0, 0]

    def test_one_write_frame_equals_the_staging_time_fold(self):
        def fold(image, writes):
            """Word by word, last writer by staging time wins."""
            words = [image >> 16 * p & 0xFFFF for p in range(5)]
            for _, _, mask, value in sorted(writes, key=lambda w: w[0]):
                for p in range(5):
                    if mask >> 16 * p & 0xFFFF:
                        words[p] = value >> 16 * p & 0xFFFF
            return sum(word << 16 * p for p, word in enumerate(words))

        rng = random.Random(19)
        m = MasterState(phase_ns=0, cycle_ns=32_000)
        for k in range(200):
            boundary = 32_000 * (k + 1)
            devices = rng.sample(range(5), rng.randint(1, 5))
            mask, value = write(*((d, rng.randrange(0x10000)) for d in devices))
            stage_ns = boundary - rng.randrange(32_000)  # picked up at this boundary
            before = m.image
            assert m.stage(stage_ns, k, mask, value) == boundary
            frame = build(m, boundary)
            assert frame == ((k,), before, fold(before, [(stage_ns, k, mask, value)]))
            assert riders(frame) == (k,) and m.image == frame[2]

    @settings(max_examples=200, deadline=None)
    @given(due_frames())
    def test_fold_equals_the_complement_fold(self, frame):
        # image ^ (image ^ value) & mask, against image & ~mask | value folded
        # here in staging-time order, for one writer and for several
        _, image, writes = frame
        m = self.master()
        m.image = image
        for write_ in writes:
            m.stage(*write_)
        expected = image
        for _, _, mask, value in sorted(writes, key=lambda w: w[0]):
            expected = expected & ~mask | value
        assert m.build_frame(32_000) == tuple(rid for _, rid, _, _ in writes)
        assert m.image == expected
        assert m.staged == {}

    @pytest.mark.parametrize("later_write", [False, True])
    def test_skipped_boundary_with_staged_write_asserts(self, later_write):
        m = self.master()
        m.stage(10_000, 1, *write((0, 0x1111)))  # due at 32_000
        if later_write:
            m.stage(40_000, 2, *write((1, 0x2222)))  # due at 64_000
        with pytest.raises(AssertionError, match="missed its boundary"):
            m.build_frame(64_000)  # 32_000 was never built


class TestChangedWords:
    def test_words_that_differ_in_device_order(self):
        # a word cleared to 0 changes too
        before = 0x0000_1111_2222
        after = 0xFFFF_1111_0000
        assert changed_words(before, after) == ((0, 0x0000), (2, 0xFFFF))


class TestDeviceState:
    def test_rising_bits_logged(self):
        d = DeviceState(0, 0)
        d.latch(0b0101, 90_000)
        assert d.activation_log == [(0, 90_000), (2, 90_000)]

    def test_unchanged_word_no_entry(self):
        d = DeviceState(0, 0)
        d.latch(0b1, 100)
        d.latch(0b1, 200)
        assert d.activation_log == [(0, 100)]

    def test_falling_bits_not_logged(self):
        d = DeviceState(0, 0)
        d.latch(0b11, 100)
        d.latch(0b10, 200)
        assert d.activation_log == [(0, 100), (1, 100)]

    def test_per_bit_times_strictly_increase(self):
        d = DeviceState(0, 0)
        d.latch(0b1, 100)
        d.latch(0b0, 200)
        d.latch(0b1, 300)
        times = [t for bit, t in d.activation_log if bit == 0]
        assert times == sorted(times) and len(set(times)) == len(times)
