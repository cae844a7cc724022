"""Distributed Boolean functions f: X x Y -> {0,1} and their encodings.

Bit convention
--------------
A bit string x = x0 x1 ... x_{n-1} maps to the integer index
sum_i x_i * 2**(n-1-i); that is, x0 is the most significant bit, and strings
read left to right like the written notation.  The same convention applies
to y.  ``bits_to_index`` / ``index_to_bits`` implement it.

Truth-table layout
------------------
A function is stored as a flat bit sequence of length x_size * y_size where
the bit at position x * y_size + y equals f(x, y).  Internally the bits are
packed eight per byte so that tables up to |X| = |Y| = 2**14 stay small.

File formats
------------
Truth table:   {"x_size": int, "y_size": int, "bits": "0101..."} (JSON),
               bits indexed by x * y_size + y as above.
Distribution:  JSON array of x_size non-negative weights; the loader
               normalizes any positive total to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import ArgumentError, FamilyParameterError, TableSizeRefusal, TruthTableFormatError

#: Documented bit convention: x0 is the most significant bit of the index.
BIT_ORDER = "x0-msb"

#: ``build_family`` refuses larger tables: 2**28 bits is |X| = |Y| = 2**14,
#: 32 MiB packed.
MAX_TABLE_BITS = 1 << 28

#: ``BooleanFunction.row_blocks`` unpacks about this many bits per block:
#: small enough that reordering a block's columns stays in the CPU cache.
_BLOCK_BITS = 1 << 16


def bits_to_index(bits) -> int:
    """Index of a bit string under the x0-MSB convention ('10' -> 2)."""
    value = 0
    for b in bits:
        b = int(b)
        if b not in (0, 1):
            raise ArgumentError(f"bit values must be 0 or 1, got {b!r}")
        value = (value << 1) | b
    return value


def index_to_bits(index: int, n: int) -> tuple:
    """Length-n bit tuple of an index under the x0-MSB convention."""
    if not 0 <= index < (1 << n):
        raise ArgumentError(f"index {index} does not fit in {n} bits")
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


class BooleanFunction:
    """Immutable truth table of a total function f: X x Y -> {0,1}."""

    __slots__ = ("x_size", "y_size", "_packed", "_colbase")

    def __init__(self, x_size: int, y_size: int, table):
        x_size, y_size = int(x_size), int(y_size)
        if x_size < 1 or y_size < 1:
            raise ArgumentError(f"sizes must be >= 1, got x_size={x_size}, y_size={y_size}")
        nbits = x_size * y_size
        if isinstance(table, str):
            arr = np.frombuffer(table.encode("ascii", errors="replace"), dtype=np.uint8)
            arr = arr - np.uint8(ord("0"))
        else:
            arr = np.asarray(table).ravel()
        if arr.size != nbits:
            raise ArgumentError(f"table length {arr.size} != x_size*y_size = {nbits}")
        arr = arr.astype(np.uint8)
        if arr.size and int(arr.max(initial=0)) > 1:
            offset = int(np.argmax(arr > 1))
            raise ArgumentError(f"table entry at offset {offset} is not a bit")
        packed = np.packbits(arr)
        packed.setflags(write=False)
        self.x_size = x_size
        self.y_size = y_size
        self._packed = packed
        self._colbase = None

    @classmethod
    def _from_packed(cls, x_size: int, y_size: int, packed: np.ndarray) -> "BooleanFunction":
        obj = cls.__new__(cls)
        packed.setflags(write=False)
        obj.x_size = int(x_size)
        obj.y_size = int(y_size)
        obj._packed = packed
        obj._colbase = None
        return obj

    def _positions(self, pos: np.ndarray) -> np.ndarray:
        return (self._packed[pos >> 3] >> (7 - (pos & 7)).astype(np.uint8)) & 1

    def bit(self, x: int, y: int) -> int:
        """f(x, y) as a Python int."""
        if not 0 <= x < self.x_size or not 0 <= y < self.y_size:
            raise ArgumentError(f"({x}, {y}) outside {self.x_size} x {self.y_size}")
        pos = x * self.y_size + y
        return int((self._packed[pos >> 3] >> (7 - (pos & 7))) & 1)

    def column(self, y: int) -> np.ndarray:
        """The vector f(., y) over all of X (dtype uint8)."""
        if not 0 <= y < self.y_size:
            raise ArgumentError(f"y = {y} outside range [0, {self.y_size})")
        if self._colbase is None:
            self._colbase = np.arange(self.x_size, dtype=np.int64) * self.y_size
        return self._positions(self._colbase + y).astype(np.uint8)

    def bits_at(self, xs: np.ndarray, y: int) -> np.ndarray:
        """f(x, y) for an array of x indices (dtype uint8)."""
        if not 0 <= y < self.y_size:
            raise ArgumentError(f"y = {y} outside range [0, {self.y_size})")
        return self._positions(xs.astype(np.int64) * self.y_size + y).astype(np.uint8)

    def row_blocks(self, xs=None, cols=None):
        """Yield the rows f(x, .) for x in ``xs``, about 2**16 bits at a time.

        ``xs`` is an increasing array of x indices (all of X when None) and
        ``cols`` a sequence of y indices giving the columns and their order
        (all of Y when None).  Each block is a C-contiguous uint8 array of
        shape (rows, len(cols)); the blocks together hold the rows in the
        order of ``xs``.  Every block unpacks one contiguous byte range of
        the row-major table, so no bit is gathered on its own.
        """
        step = max(8, _BLOCK_BITS // self.y_size)
        for start in range(0, self.x_size, step):
            stop = min(start + step, self.x_size)
            pick = None
            if xs is not None:
                lo, hi = np.searchsorted(xs, (start, stop))
                if lo == hi:
                    continue
                pick = xs[lo:hi] - start
            first, last = start * self.y_size, stop * self.y_size
            bits = np.unpackbits(self._packed[first >> 3 : (last + 7) >> 3])
            block = bits[first & 7 : (first & 7) + last - first].reshape(stop - start, self.y_size)
            if pick is not None:
                block = block[pick]
            yield block if cols is None else np.take(block, cols, axis=1)

    def row(self, x: int) -> np.ndarray:
        """The vector f(x, .) over all of Y (dtype uint8)."""
        if not 0 <= x < self.x_size:
            raise ArgumentError(f"x = {x} outside range [0, {self.x_size})")
        pos = x * self.y_size + np.arange(self.y_size, dtype=np.int64)
        return self._positions(pos).astype(np.uint8)

    def bits(self) -> str:
        """The table as a '0'/'1' string (intended for desk-scale tables)."""
        flat = np.unpackbits(self._packed, count=self.x_size * self.y_size)
        return "".join("1" if b else "0" for b in flat)

    def table_array(self) -> np.ndarray:
        """The table as a fresh, writable (x_size, y_size) uint8 array."""
        flat = np.unpackbits(self._packed, count=self.x_size * self.y_size)
        return flat.reshape(self.x_size, self.y_size)

    def packed_rows(self) -> np.ndarray:
        """Read-only (x_size, ceil(y_size / 8)) uint8 rows, eight bits per byte.

        Bit y of row x is bit 7 - (y & 7) of byte y >> 3 (MSB first), and
        each row is padded with zero bits to a whole byte: the array
        ``np.packbits(self.table_array(), axis=1)`` gives.  When y_size is a
        multiple of 8 this is a view of the stored table.
        """
        if self.y_size % 8:
            rows = np.packbits(self.table_array(), axis=1)
            rows.flags.writeable = False
            return rows
        return self._packed.reshape(self.x_size, self.y_size // 8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return (
            self.x_size == other.x_size
            and self.y_size == other.y_size
            and np.array_equal(self._packed, other._packed)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"BooleanFunction(x_size={self.x_size}, y_size={self.y_size})"


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Index:
    """f(x, y) = x_y: bit y of Alice's n-bit string, for y in {0, ..., n-1}."""

    n: int
    name: ClassVar[str] = "index"

    def __post_init__(self):
        if self.n < 1:
            raise FamilyParameterError(f"index requires n >= 1, got {self.n}")

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return self.n

    def _block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        shifts = (self.n - 1 - ys)[None, :]
        return (xs[:, None] >> shifts) & 1

    def describe(self) -> dict:
        return {"family": self.name, "n": self.n}


@dataclass(frozen=True)
class InnerProduct:
    """f(x, y) = XOR_i x_i * y_i on n-bit strings."""

    n: int
    name: ClassVar[str] = "ip"

    def __post_init__(self):
        if self.n < 1:
            raise FamilyParameterError(f"ip requires n >= 1, got {self.n}")

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return 1 << self.n

    def _block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.bitwise_count(xs[:, None] & ys[None, :]).astype(np.uint8) & 1

    def describe(self) -> dict:
        return {"family": self.name, "n": self.n}


@dataclass(frozen=True)
class Disjointness:
    """f(x, y) = 1 when no position has x_i = y_i = 1, else 0."""

    n: int
    name: ClassVar[str] = "disj"

    def __post_init__(self):
        if self.n < 1:
            raise FamilyParameterError(f"disj requires n >= 1, got {self.n}")

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return 1 << self.n

    def _block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (xs[:, None] & ys[None, :]) == 0

    def describe(self) -> dict:
        return {"family": self.name, "n": self.n}


@dataclass(frozen=True)
class Equality:
    """f(x, y) = 1 exactly when x = y, on {0, ..., 2**n - 1}."""

    n: int
    name: ClassVar[str] = "eq"

    def __post_init__(self):
        if self.n < 1:
            raise FamilyParameterError(f"eq requires n >= 1, got {self.n}")

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return 1 << self.n

    def _block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return xs[:, None] == ys[None, :]

    def describe(self) -> dict:
        return {"family": self.name, "n": self.n}


@dataclass(frozen=True)
class KIntersect:
    """f(x, y) = 1 when x and y share at least k common 1-positions."""

    n: int
    k: int
    name: ClassVar[str] = "kint"

    def __post_init__(self):
        if self.n < 1:
            raise FamilyParameterError(f"kint requires n >= 1, got n={self.n}")
        if not 1 <= self.k <= self.n // 2:
            raise FamilyParameterError(
                f"kint requires 1 <= k <= floor(n/2) = {self.n // 2}, got k={self.k}"
            )

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return 1 << self.n

    def _block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.bitwise_count(xs[:, None] & ys[None, :]) >= self.k

    def describe(self) -> dict:
        return {"family": self.name, "n": self.n, "k": self.k}


FunctionFamily = Union[Index, InnerProduct, Disjointness, Equality, KIntersect]


def build_family(family: FunctionFamily) -> BooleanFunction:
    """Materialize the truth table of a built-in family.

    Large tables are built in row chunks and bit-packed, so families up to
    |X| = |Y| = 2**14 are cheap to hold.  A table of more than
    ``MAX_TABLE_BITS`` bits is refused before anything is allocated.
    """
    x_size, y_size = family.x_size, family.y_size
    if x_size * y_size > MAX_TABLE_BITS:
        raise TableSizeRefusal(
            f"{family.name} table of {x_size} x {y_size} = {x_size * y_size} bits "
            f"exceeds the limit of {MAX_TABLE_BITS} bits (2**28)"
        )
    ys = np.arange(y_size, dtype=np.int64)
    # Chunk rows in multiples of 8 so every chunk packs on a byte boundary.
    rows = max(8, (1 << 23) // y_size)
    rows -= rows % 8
    pieces = []
    for start in range(0, x_size, rows):
        xs = np.arange(start, min(start + rows, x_size), dtype=np.int64)
        block = family._block(xs, ys).astype(np.uint8)
        pieces.append(np.packbits(block.ravel()))
    return BooleanFunction._from_packed(x_size, y_size, np.concatenate(pieces))


# ---------------------------------------------------------------------------
# Truth-table files
# ---------------------------------------------------------------------------


def load_truth_table(text: str) -> BooleanFunction:
    """Parse the JSON truth-table format documented at module level."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TruthTableFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TruthTableFormatError("truth table must be a JSON object")
    for key in ("x_size", "y_size", "bits"):
        if key not in data:
            raise TruthTableFormatError(f"missing key {key!r}")
    x_size, y_size, bits = data["x_size"], data["y_size"], data["bits"]
    # JSON true and false load as bool, a subclass of int.
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (x_size, y_size)):
        raise TruthTableFormatError("x_size and y_size must be integers")
    if x_size < 1 or y_size < 1:
        raise TruthTableFormatError(f"sizes must be >= 1, got {x_size} x {y_size}")
    if not isinstance(bits, str):
        raise TruthTableFormatError("bits must be a string of '0'/'1'")
    expected = x_size * y_size
    if len(bits) != expected:
        raise TruthTableFormatError(f"bits length {len(bits)} != x_size*y_size = {expected}")
    # One code per character: anything outside ASCII encodes as '?'.
    codes = np.frombuffer(bits.encode("ascii", errors="replace"), dtype=np.uint8)
    bad = (codes | 1) != ord("1")
    if bad.any():
        offset = int(bad.argmax())
        raise TruthTableFormatError(f"bits[{offset}] = {bits[offset]!r} is not '0' or '1'")
    return BooleanFunction(x_size, y_size, codes - np.uint8(ord("0")))


def save_truth_table(f: BooleanFunction) -> str:
    """Serialize a function to the JSON truth-table format."""
    return json.dumps({"x_size": f.x_size, "y_size": f.y_size, "bits": f.bits()})


def apply_x_substitution(f: BooleanFunction, sigma) -> BooleanFunction:
    """Compose f with a total map on Alice's inputs: result(x, y) = f(sigma(x), y).

    ``sigma`` is a sequence of length x_size; it need not be invertible.
    """
    sig = np.asarray(list(sigma), dtype=np.int64)
    if sig.shape != (f.x_size,):
        raise ArgumentError(f"sigma must have length {f.x_size}, got {sig.size}")
    if sig.size and (sig.min() < 0 or sig.max() >= f.x_size):
        raise ArgumentError("sigma image out of range")
    pos = sig[:, None] * f.y_size + np.arange(f.y_size, dtype=np.int64)[None, :]
    bits = f._positions(pos).astype(np.uint8)
    return BooleanFunction._from_packed(f.x_size, f.y_size, np.packbits(bits.ravel()))


# ---------------------------------------------------------------------------
# Input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputDistribution:
    """Distribution of Alice's input x, normalized to total mass 1.

    Weights must be finite and non-negative with a positive, finite total;
    the constructor rescales them, tolerating float noise in user files.
    """

    weights: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        try:
            w = np.array(self.weights, dtype=float).ravel()
        except OverflowError as exc:  # an integer beyond the float range
            raise ArgumentError(f"weights must be finite numbers: {exc}") from exc
        if w.size == 0:
            raise ArgumentError("distribution must have at least one weight")
        if not np.all(np.isfinite(w)):
            raise ArgumentError("weights must be finite numbers (no NaN or infinity)")
        if np.any(w < 0.0):
            raise ArgumentError("weights must be non-negative")
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total <= 0.0:
            raise ArgumentError("total weight must be positive")
        if not np.isfinite(total):
            raise ArgumentError("total weight overflows a float; rescale the weights")
        w /= total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, x_size: int) -> "InputDistribution":
        if x_size < 1:
            raise ArgumentError(f"x_size must be >= 1, got {x_size}")
        return cls(np.full(x_size, 1.0 / x_size), label="uniform")

    @classmethod
    def from_json(cls, text: str, label: str = "file") -> "InputDistribution":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TruthTableFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(data, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
        ):
            raise TruthTableFormatError("distribution file must be a JSON array of numbers")
        return cls(data, label=label)

    @property
    def x_size(self) -> int:
        return int(self.weights.size)
