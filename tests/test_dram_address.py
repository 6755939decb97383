"""Unit tests for address mapping, regions, and DDR4 timing."""

import random

import pytest

from repro.dram.address import AddressMapper
from repro.dram.region import ContiguousRegion, PagedRegion
from repro.dram.timing import DDR4_2933, DDR4_3200, DramTiming, ddr4_timing


class TestDramTiming:
    def test_2933_transmission_delay_matches_paper(self):
        # The paper quotes t_Trans = 2.73 ns for DDR4-2933.
        assert DDR4_2933.t_trans == pytest.approx(2.728, abs=0.01)

    def test_t_proc_matches_paper(self):
        # The paper quotes t_Proc ~= 45 ns.
        assert 40.0 <= DDR4_2933.t_proc <= 50.0

    def test_channel_bandwidth(self):
        # 2933 MT/s x 8 B = 23.46 GB/s per channel.
        assert DDR4_2933.channel_bandwidth_bytes_per_ns == pytest.approx(23.46, abs=0.01)
        assert DDR4_3200.channel_bandwidth_bytes_per_ns == pytest.approx(25.6, abs=0.01)

    def test_invalid_speed_raises(self):
        with pytest.raises(ValueError):
            ddr4_timing(0)

    def test_validate_rejects_nonpositive(self):
        bad = DramTiming(t_trans=0.0, t_act=1, t_pre=1, t_cas=1, t_wtr=1, t_rtw=1)
        with pytest.raises(ValueError):
            bad.validate()

    def test_overlap_condition_holds_with_32_banks(self):
        # §5.1: t_proc / N_b < t_trans for the paper's modules.
        assert DDR4_2933.t_proc / 32 < DDR4_2933.t_trans


class TestAddressMapper:
    def make(self, **kw):
        defaults = dict(n_channels=2, n_banks=16, lines_per_row=128)
        defaults.update(kw)
        return AddressMapper(**defaults)

    def test_consecutive_lines_interleave_channels(self):
        mapper = self.make()
        assert mapper.map(0).channel == 0
        assert mapper.map(1).channel == 1
        assert mapper.map(2).channel == 0

    def test_sequential_lines_fill_a_row_before_moving_banks(self):
        mapper = self.make(xor_hash=False)
        first = mapper.map(0)
        # lines 0, 2, 4, ... are consecutive per-channel lines on channel 0
        same_row = mapper.map(2 * 127)
        next_bank = mapper.map(2 * 128)
        assert same_row.bank == first.bank and same_row.row == first.row
        assert next_bank.bank != first.bank

    def test_fields_within_bounds(self):
        mapper = self.make()
        for line in range(0, 100_000, 977):
            mapped = mapper.map(line)
            assert 0 <= mapped.channel < 2
            assert 0 <= mapped.bank < 16
            assert 0 <= mapped.column < 128
            assert mapped.row >= 0

    def test_mapping_is_injective_per_channel(self):
        mapper = self.make()
        seen = set()
        for line in range(50_000):
            m = mapper.map(line)
            key = (m.channel, m.bank, m.row, m.column)
            assert key not in seen
            seen.add(key)

    def test_xor_hash_permutes_banks_across_rows(self):
        hashed = self.make(xor_hash=True)
        plain = self.make(xor_hash=False)
        # The same (bank-field, column) position one row later maps to a
        # different physical bank with the hash, the same bank without.
        lines_per_row_group = 2 * 128 * 16  # channels * columns * banks
        offset = lines_per_row_group  # exactly one row later
        assert plain.map(0).bank == plain.map(offset).bank
        assert hashed.map(0).bank != hashed.map(offset).bank
        assert hashed.map(0).row != hashed.map(offset).row

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(n_channels=3, n_banks=16)
        with pytest.raises(ValueError):
            AddressMapper(n_channels=2, n_banks=10)
        with pytest.raises(ValueError):
            AddressMapper(n_channels=2, n_banks=16, lines_per_row=100)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            self.make().map(-1)
        with pytest.raises(ValueError):
            self.make().decode(-1)

    @pytest.mark.parametrize("xor_hash", [True, False])
    @pytest.mark.parametrize(
        "n_channels,n_banks,lines_per_row", [(2, 16, 128), (4, 32, 64), (1, 8, 256)]
    )
    def test_decode_follows_the_documented_layout(
        self, xor_hash, n_channels, n_banks, lines_per_row
    ):
        """``decode`` slices ``| channel | column | bank | row |`` off the
        line address, low bits first, and XORs the low row bits into the
        bank when hashing; ``map`` agrees with it and adds the column."""
        mapper = self.make(
            n_channels=n_channels,
            n_banks=n_banks,
            lines_per_row=lines_per_row,
            xor_hash=xor_hash,
        )
        rng = random.Random(5)
        for _ in range(2_000):
            line = rng.randrange(1 << 40)
            channel = line % n_channels
            column = (line // n_channels) % lines_per_row
            bank = (line // (n_channels * lines_per_row)) % n_banks
            row = line // (n_channels * lines_per_row * n_banks)
            if xor_hash:
                bank ^= row % n_banks
            assert mapper.decode(line) == (channel, bank, row)
            mapped = mapper.map(line)
            assert (mapped.channel, mapped.bank, mapped.row, mapped.column) == (
                channel,
                bank,
                row,
                column,
            )


class TestRegions:
    def test_contiguous_region_lines(self):
        region = ContiguousRegion(1000, 64)
        assert region.line(0) == 1000
        assert region.line(63) == 1063

    def test_paged_region_is_contiguous_within_a_page(self):
        region = PagedRegion(n_lines=256, page_lines=64, seed=7)
        base = region.line(0)
        for offset in range(64):
            assert region.line(offset) == base + offset

    def test_paged_region_scatters_across_pages(self):
        region = PagedRegion(n_lines=64 * 100, page_lines=64, seed=7)
        frames = {region.line(page * 64) // 64 for page in range(100)}
        # With random placement, consecutive virtual pages are almost
        # never physically adjacent.
        assert len(frames) == 100
        deltas = [
            region.line((p + 1) * 64) - region.line(p * 64) for p in range(99)
        ]
        assert any(abs(d) != 64 for d in deltas)

    def test_paged_region_is_deterministic_per_seed(self):
        a = PagedRegion(n_lines=640, page_lines=64, seed=3)
        b = PagedRegion(n_lines=640, page_lines=64, seed=3)
        assert [a.line(i) for i in range(640)] == [b.line(i) for i in range(640)]

    def test_paged_region_differs_across_seeds(self):
        a = PagedRegion(n_lines=640, page_lines=64, seed=3)
        b = PagedRegion(n_lines=640, page_lines=64, seed=4)
        assert [a.line(i) for i in range(640)] != [b.line(i) for i in range(640)]

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            ContiguousRegion(-1, 10)
        with pytest.raises(ValueError):
            ContiguousRegion(0, 0)
        with pytest.raises(ValueError):
            PagedRegion(0)
