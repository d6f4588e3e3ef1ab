"""A sparse byte-addressable memory.

The simulated machine has a 32-bit address space; programs touch only a
few disjoint regions (text, data, heap, stack), so memory is stored as a
dictionary of fixed-size pages allocated on first touch. All multi-byte
accesses are little-endian. (The paper's binaries were big-endian MIPS;
endianness does not affect any behaviour studied here, and little-endian
matches the struct codes used for the float images.)
"""

from __future__ import annotations

import base64
import struct

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

MASK32 = 0xFFFFFFFF


def u32(value: int) -> int:
    """Wrap a Python int to an unsigned 32-bit value."""
    return value & MASK32


def s32(value: int) -> int:
    """Interpret a 32-bit value as signed."""
    value &= MASK32
    return value - 0x100000000 if value >= 0x80000000 else value


class SparseMemory:
    """Byte-addressable sparse memory with word/byte/double accessors."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        index = addr >> PAGE_BITS
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def read_byte(self, addr: int) -> int:
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            return 0
        return page[addr & PAGE_MASK]

    def read_aligned_word(self, addr: int) -> bytearray:
        """A fresh copy of the 4 bytes of the aligned word at ``addr``
        (one page slice: an aligned word never straddles a page)."""
        addr &= MASK32
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            return bytearray(4)
        offset = addr & PAGE_MASK
        return page[offset:offset + 4]

    def write_byte(self, addr: int, value: int) -> None:
        addr &= MASK32
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    def read_word(self, addr: int) -> int:
        """Read a 32-bit little-endian word (unsigned)."""
        addr &= MASK32
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._pages.get(addr >> PAGE_BITS)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + 4], "little")
        return (self.read_byte(addr)
                | self.read_byte(addr + 1) << 8
                | self.read_byte(addr + 2) << 16
                | self.read_byte(addr + 3) << 24)

    def write_word(self, addr: int, value: int) -> None:
        addr &= MASK32
        value &= MASK32
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            self._page(addr)[offset:offset + 4] = value.to_bytes(4, "little")
        else:
            for i in range(4):
                self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)

    def read_float(self, addr: int) -> float:
        """Read a 32-bit IEEE single as a Python float."""
        return struct.unpack("<f", self.read_bytes(addr, 4))[0]

    def write_float(self, addr: int, value: float) -> None:
        self.write_bytes(addr, struct.pack("<f", value))

    def read_double(self, addr: int) -> float:
        return struct.unpack("<d", self.read_bytes(addr, 8))[0]

    def write_double(self, addr: int, value: float) -> None:
        self.write_bytes(addr, struct.pack("<d", value))

    def read_bytes(self, addr: int, length: int) -> bytes:
        return bytes(self.read_byte(addr + i) for i in range(length))

    def write_bytes(self, addr: int, data: bytes) -> None:
        for i, b in enumerate(data):
            self.write_byte(addr + i, b)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated string (for the print-string syscall)."""
        out = bytearray()
        for i in range(limit):
            b = self.read_byte(addr + i)
            if b == 0:
                break
            out.append(b)
        return out.decode("latin-1")

    def copy(self) -> "SparseMemory":
        """Deep-copy the memory (used to snapshot initial images)."""
        clone = SparseMemory()
        clone._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return clone

    def touched_pages(self) -> int:
        """Number of pages allocated so far (diagnostics only)."""
        return len(self._pages)

    def state_dict(self) -> dict:
        """JSON-able full contents (pages as base64)."""
        return {"pages": [
            [index, base64.b64encode(bytes(page)).decode("ascii")]
            for index, page in sorted(self._pages.items())]}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output *in place* (holders of a
        reference to this object — the ARB, pipeline contexts — keep
        seeing the restored contents)."""
        self._pages = {int(index): bytearray(base64.b64decode(data))
                       for index, data in state["pages"]}
