"""Address Resolution Buffer.

The ARB holds the speculative memory operations of all active tasks:

* loads from a task read the *nearest predecessor's* (or their own)
  speculative store to each byte, falling back to committed memory;
* every load records, per byte, which store it read from, so that a
  later-arriving store from an *earlier* task can be recognized as a
  memory-order violation ("a load from a successor unit occurred before
  a store from a predecessor unit");
* the data cache is updated only when a task retires: the head task's
  merged stores are drained to committed memory and its records freed;
* squashing a task discards its records without touching memory.

Tasks are identified by monotonically increasing sequence numbers
assigned by the sequencer, which gives the ARB a total order among
active tasks. Byte-granularity tracking (as 4-byte masks per word
entry) keeps sub-word stores precise: a ``sb`` only conflicts with loads
that actually read that byte.

Capacity is per data bank (256 entries, i.e. tracked word addresses, per
bank in the paper's configuration). When a non-head operation needs a
new entry in a full bank, :class:`ARBFullError` is raised and the
processor applies its full-ARB policy (squash tasks, or stall all units
but the head — Section 2.3 discusses both). Head operations never need
new storage: head stores are checked for violations and then written
straight to committed memory, and head loads do not record load bits
because no predecessor can invalidate them.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass

from repro.isa.memory_image import SparseMemory


class ARBFullError(Exception):
    """A speculative operation needs a new entry in a full ARB bank."""

    def __init__(self, bank: int) -> None:
        super().__init__(f"ARB bank {bank} is full")
        self.bank = bank


class _Entry:
    """Speculative state for one word address.

    ``stores`` maps task seq -> (byte mask, 4-byte buffer); ``loads``
    maps task seq -> (byte mask read, per-byte source seq). A source of
    ``-1`` means the byte was read from committed memory.
    """

    __slots__ = ("stores", "loads")

    def __init__(self) -> None:
        self.stores: dict[int, tuple[int, bytearray]] = {}
        self.loads: dict[int, tuple[int, list[int]]] = {}

    def empty(self) -> bool:
        return not self.stores and not self.loads


@dataclass
class ARBStats:
    loads: int = 0
    stores: int = 0
    violations: int = 0
    forwards: int = 0          # loads satisfied by a speculative store
    peak_entries: int = 0
    full_events: int = 0


class AddressResolutionBuffer:
    """Speculative memory state for the whole multiscalar processor."""

    def __init__(self, memory: SparseMemory, num_banks: int,
                 block_bits: int, entries_per_bank: int) -> None:
        self.memory = memory
        self.num_banks = num_banks
        self.block_bits = block_bits
        self.entries_per_bank = entries_per_bank
        self._entries: dict[int, _Entry] = {}
        self._bank_counts = [0] * num_banks
        self._by_seq: dict[int, set[int]] = {}
        self.stats = ARBStats()

    # ------------------------------------------------------------ helpers

    def _bank_of_word(self, word_addr: int) -> int:
        return ((word_addr << 2) >> self.block_bits) % self.num_banks

    def _get_entry(self, word_addr: int, seq: int) -> _Entry:
        entry = self._entries.get(word_addr)
        if entry is None:
            bank = self._bank_of_word(word_addr)
            if self._bank_counts[bank] >= self.entries_per_bank:
                self.stats.full_events += 1
                raise ARBFullError(bank)
            entry = _Entry()
            self._entries[word_addr] = entry
            self._bank_counts[bank] += 1
            self.stats.peak_entries = max(self.stats.peak_entries,
                                          len(self._entries))
        self._by_seq.setdefault(seq, set()).add(word_addr)
        return entry

    def _visible_byte(self, entry: _Entry | None, word_addr: int,
                      byte: int, seq: int) -> tuple[int, int]:
        """Value and source seq of one byte as seen by task ``seq``."""
        best_seq = -1
        value = None
        if entry is not None:
            for store_seq, (mask, data) in entry.stores.items():
                if store_seq <= seq and store_seq > best_seq and \
                        mask & (1 << byte):
                    best_seq = store_seq
                    value = data[byte]
        if value is None:
            value = self.memory.read_byte((word_addr << 2) + byte)
            best_seq = -1
        return value, best_seq

    # --------------------------------------------------------- operations

    def load(self, seq: int, addr: int, width: int,
             is_head: bool = False) -> bytes:
        """Perform a speculative load of ``width`` bytes at ``addr``.

        Returns the bytes visible to task ``seq`` (own stores first, then
        nearest predecessor stores, then committed memory) and records
        per-byte load sources for later violation detection. Raises
        :class:`ARBFullError` if a non-head load needs a new entry in a
        full bank.
        """
        self.stats.loads += 1
        if not addr & 3:
            # Aligned word (and doubleword as two words): one entry
            # lookup and one record update per word instead of four.
            if width == 4:
                out, forwarded = self._load_word(seq, addr >> 2, is_head)
                if forwarded:
                    self.stats.forwards += 1
                return bytes(out)
            if width == 8:
                word = addr >> 2
                lo, fwd_lo = self._load_word(seq, word, is_head)
                hi, fwd_hi = self._load_word(seq, word + 1, is_head)
                if fwd_lo or fwd_hi:
                    self.stats.forwards += 1
                return bytes(lo + hi)
        out = bytearray()
        forwarded = False
        for offset in range(width):
            byte_addr = addr + offset
            word_addr = byte_addr >> 2
            byte = byte_addr & 3
            if is_head:
                entry = self._entries.get(word_addr)
            else:
                entry = self._get_entry(word_addr, seq)
            value, source = self._visible_byte(entry, word_addr, byte, seq)
            if source >= 0:
                forwarded = True
            out.append(value)
            if not is_head:
                mask, sources = entry.loads.setdefault(
                    seq, (0, [1 << 62] * 4))
                new_mask = mask | (1 << byte)
                # Keep the *oldest* source per byte: if any read depended
                # on an old value, a store between that source and us is
                # a violation.
                sources[byte] = min(sources[byte], source)
                entry.loads[seq] = (new_mask, sources)
        if forwarded:
            self.stats.forwards += 1
        return bytes(out)

    def _load_word(self, seq: int, word_addr: int,
                   is_head: bool) -> tuple[bytearray, bool]:
        """One aligned word of a load: (4 bytes, any-byte-forwarded)."""
        if is_head:
            entry = self._entries.get(word_addr)
        else:
            entry = self._get_entry(word_addr, seq)
        best = None
        if entry is not None and entry.stores:
            for store_seq, (mask, data) in entry.stores.items():
                if store_seq <= seq:
                    if best is None:
                        best = [-1, -1, -1, -1]
                        vals = [0, 0, 0, 0]
                    for byte in (0, 1, 2, 3):
                        if mask & (1 << byte) and store_seq > best[byte]:
                            best[byte] = store_seq
                            vals[byte] = data[byte]
        out = self.memory.read_aligned_word(word_addr << 2)
        forwarded = False
        if best is not None:
            for byte in (0, 1, 2, 3):
                if best[byte] >= 0:
                    out[byte] = vals[byte]
                    forwarded = True
        if not is_head:
            record = entry.loads.get(seq)
            if record is None:
                sources = [1 << 62] * 4
                mask = 0
            else:
                mask, sources = record
            if best is None:
                for byte in (0, 1, 2, 3):
                    if sources[byte] > -1:
                        sources[byte] = -1
            else:
                for byte in (0, 1, 2, 3):
                    if best[byte] < sources[byte]:
                        sources[byte] = best[byte]
            entry.loads[seq] = (mask | 0xF, sources)
        return out, forwarded

    def reserve(self, seq: int, addr: int, width: int) -> None:
        """Reserve ARB space for an upcoming store of ``width`` bytes.

        Called when a store *issues*, so that the commit-time
        :meth:`store` can never run out of space (a committed store
        cannot be retried). Raises :class:`ARBFullError` if a new entry
        would be needed in a full bank.
        """
        first = addr >> 2
        last = (addr + width - 1) >> 2
        for word_addr in range(first, last + 1):
            entry = self._get_entry(word_addr, seq)
            entry.stores.setdefault(seq, (0, bytearray(4)))

    def store(self, seq: int, addr: int, data: bytes,
              is_head: bool = False) -> int | None:
        """Perform a speculative store.

        Returns the sequence number of the earliest successor task whose
        earlier load is violated by this store (that task and everything
        after it must squash), or None. Head stores with no room write
        committed memory directly after the violation check.
        """
        self.stats.stores += 1
        if not addr & 3:
            width = len(data)
            if width == 4:
                violator = self._store_word(seq, addr >> 2, data, is_head)
                if violator is not None:
                    self.stats.violations += 1
                return violator
            if width == 8:
                word = addr >> 2
                lo = self._store_word(seq, word, data[:4], is_head)
                hi = self._store_word(seq, word + 1, data[4:], is_head)
                violator = (lo if hi is None
                            else hi if lo is None else min(lo, hi))
                if violator is not None:
                    self.stats.violations += 1
                return violator
        violator: int | None = None
        for offset, value in enumerate(data):
            byte_addr = addr + offset
            word_addr = byte_addr >> 2
            byte = byte_addr & 3
            entry = self._entries.get(word_addr)
            if entry is not None:
                for load_seq, (mask, sources) in entry.loads.items():
                    # A successor's earlier load is violated if it read
                    # from an older task (< seq) *or* from this task's
                    # own earlier store to the byte (== seq), which this
                    # store now supersedes.
                    if load_seq > seq and mask & (1 << byte) and \
                            sources[byte] <= seq:
                        if violator is None or load_seq < violator:
                            violator = load_seq
            if is_head and entry is None:
                # Non-speculative and nothing tracked: write through.
                self.memory.write_byte(byte_addr, value)
                continue
            try:
                entry = self._get_entry(word_addr, seq)
            except ARBFullError:
                if not is_head:
                    raise
                self.memory.write_byte(byte_addr, value)
                continue
            mask, buf = entry.stores.setdefault(seq, (0, bytearray(4)))
            buf[byte] = value
            entry.stores[seq] = (mask | (1 << byte), buf)
        if violator is not None:
            self.stats.violations += 1
        return violator

    def _store_word(self, seq: int, word_addr: int, data: bytes,
                    is_head: bool) -> int | None:
        """One aligned word of a store: returns the min violator seq."""
        entry = self._entries.get(word_addr)
        violator: int | None = None
        if entry is not None and entry.loads:
            for load_seq, (mask, sources) in entry.loads.items():
                if load_seq > seq and mask & 0xF and \
                        (violator is None or load_seq < violator):
                    for byte in (0, 1, 2, 3):
                        if mask & (1 << byte) and sources[byte] <= seq:
                            violator = load_seq
                            break
        if is_head and entry is None:
            # Non-speculative and nothing tracked: write through.
            base = word_addr << 2
            write_byte = self.memory.write_byte
            for byte in (0, 1, 2, 3):
                write_byte(base + byte, data[byte])
            return violator
        if entry is None:
            entry = self._get_entry(word_addr, seq)
        else:
            self._by_seq.setdefault(seq, set()).add(word_addr)
        record = entry.stores.get(seq)
        if record is None:
            entry.stores[seq] = (0xF, bytearray(data))
        else:
            mask, buf = record
            buf[0:4] = data
            entry.stores[seq] = (mask | 0xF, buf)
        return violator

    # ------------------------------------------------------ commit/squash

    def commit_task(self, seq: int) -> None:
        """Drain the retiring task's stores to memory and free its records."""
        for word_addr in self._by_seq.pop(seq, ()):
            entry = self._entries.get(word_addr)
            if entry is None:
                continue
            record = entry.stores.pop(seq, None)
            if record is not None:
                mask, buf = record
                for byte in range(4):
                    if mask & (1 << byte):
                        self.memory.write_byte((word_addr << 2) + byte,
                                               buf[byte])
            entry.loads.pop(seq, None)
            self._drop_if_empty(word_addr, entry)

    def squash_task(self, seq: int) -> None:
        """Discard all speculative records of a squashed task."""
        for word_addr in self._by_seq.pop(seq, ()):
            entry = self._entries.get(word_addr)
            if entry is None:
                continue
            entry.stores.pop(seq, None)
            entry.loads.pop(seq, None)
            self._drop_if_empty(word_addr, entry)

    def _drop_if_empty(self, word_addr: int, entry: _Entry) -> None:
        if entry.empty():
            del self._entries[word_addr]
            self._bank_counts[self._bank_of_word(word_addr)] -= 1

    # -------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        entries = []
        for word_addr, entry in sorted(self._entries.items()):
            stores = [[seq, mask,
                       base64.b64encode(bytes(buf)).decode("ascii")]
                      for seq, (mask, buf) in sorted(entry.stores.items())]
            loads = [[seq, mask, list(sources)]
                     for seq, (mask, sources) in sorted(entry.loads.items())]
            entries.append([word_addr, stores, loads])
        return {"entries": entries,
                "by_seq": [[seq, sorted(words)]
                           for seq, words in sorted(self._by_seq.items())],
                "stats": asdict(self.stats)}

    def load_state(self, state: dict) -> None:
        self._entries = {}
        self._bank_counts = [0] * self.num_banks
        for word_addr, stores, loads in state["entries"]:
            entry = _Entry()
            for seq, mask, data in stores:
                entry.stores[seq] = (mask, bytearray(base64.b64decode(data)))
            for seq, mask, sources in loads:
                entry.loads[seq] = (mask, list(sources))
            self._entries[word_addr] = entry
            self._bank_counts[self._bank_of_word(word_addr)] += 1
        self._by_seq = {seq: set(words) for seq, words in state["by_seq"]}
        self.stats = ARBStats(**state["stats"])

    # -------------------------------------------------------- inspection

    def entry_count(self, bank: int | None = None) -> int:
        if bank is None:
            return len(self._entries)
        return self._bank_counts[bank]

    def is_empty(self) -> bool:
        return not self._entries
