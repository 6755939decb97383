"""Physical-address to (channel, bank, row, column) mapping.

Layout (line-address bit ranges, low to high)::

    | channel | column | bank | row |

i.e. consecutive cachelines interleave across channels first, then fill
the columns of one row of one bank, then move to the next bank
(permutation-interleaved), then the next row.

The bank index is XOR-hashed with the low row bits (permutation-based
page interleaving, ref. [70] in the paper; real Intel mappings are
XOR-based too, ref. [56]). Two consequences the paper measures emerge
directly from this layout:

* a single sequential stream enjoys long row residency (row hits) but
  concentrates on one bank per channel at a time — short-window bank
  load is imbalanced (Fig. 7d);
* two interleaved sequential streams at different offsets periodically
  collide on a bank with different rows, inflating the row-miss ratio
  (Fig. 7c).
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MappedAddress:
    """Decoded location of one cacheline."""

    channel: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Decodes cacheline addresses into channel/bank/row/column.

    Args:
        n_channels: memory channels on the socket (power of two).
        n_banks: banks per channel (power of two).
        lines_per_row: cachelines per DRAM row per bank (8 KB row with
            64 B lines = 128).
        xor_hash: apply the permutation-based bank hash. Disabling it
            is used by the bank-hash ablation bench.
    """

    def __init__(
        self,
        n_channels: int,
        n_banks: int,
        lines_per_row: int = 128,
        xor_hash: bool = True,
    ):
        if not _is_power_of_two(n_channels):
            raise ValueError("n_channels must be a power of two")
        if not _is_power_of_two(n_banks):
            raise ValueError("n_banks must be a power of two")
        if not _is_power_of_two(lines_per_row):
            raise ValueError("lines_per_row must be a power of two")
        self.n_channels = n_channels
        self.n_banks = n_banks
        self.lines_per_row = lines_per_row
        self.xor_hash = xor_hash
        self._channel_mask = n_channels - 1
        self._channel_shift = n_channels.bit_length() - 1
        self._column_mask = lines_per_row - 1
        # channel and column bits skipped in one shift to reach the bank
        self._bank_row_shift = self._channel_shift + lines_per_row.bit_length() - 1
        self._bank_mask = n_banks - 1
        self._bank_shift = n_banks.bit_length() - 1

    def decode(self, line_addr: int) -> tuple:
        """Decode a cacheline address to ``(channel, bank, row)``.

        The per-request hot path: builds no object. Every line is
        typically mapped once, so there is nothing worth memoizing.
        """
        if line_addr < 0:
            raise ValueError("line_addr must be non-negative")
        rest = line_addr >> self._bank_row_shift
        row = rest >> self._bank_shift
        if self.xor_hash:
            rest ^= row
        return line_addr & self._channel_mask, rest & self._bank_mask, row

    def map(self, line_addr: int) -> MappedAddress:
        """Decode a cacheline address, column included."""
        channel, bank, row = self.decode(line_addr)
        column = (line_addr >> self._channel_shift) & self._column_mask
        return MappedAddress(channel=channel, bank=bank, row=row, column=column)
