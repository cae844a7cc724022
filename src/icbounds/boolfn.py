"""Distributed Boolean functions f: X x Y -> {0,1} and their encodings.

Bit convention
--------------
A bit string x = x0 x1 ... x_{n-1} maps to the integer index
sum_i x_i * 2**(n-1-i); that is, x0 is the most significant bit, and strings
read left to right like the written notation.  The same convention applies
to y.  ``bits_to_index`` / ``index_to_bits`` implement it.

Truth-table layout
------------------
In memory a function is a read-only (x_size, ceil(y_size / 8)) uint8 matrix:
row x holds f(x, 0), f(x, 1), ... eight bits per byte, most significant bit
first, and is padded with zero bits to a whole byte (at most 7 bits per row).
That is ``np.packbits(table, axis=1)`` of the (x_size, y_size) table, so any
row is one contiguous byte range, and tables up to |X| = |Y| = 2**14 take
32 MiB.  ``BooleanFunction.packed_rows`` returns it.  The file format below
and ``BooleanFunction.bits`` stay flat: position x * y_size + y, no padding.

Built-in families
-----------------
The five families in ``FAMILIES`` share one frozen dataclass base whose
fields are integer parameters; each family states in class variables what
``icbounds families`` prints, and ``build_family`` materializes its table.

File formats
------------
Truth table:   {"x_size": int, "y_size": int, "bits": "0101..."} (JSON),
               bits indexed by x * y_size + y as above.
Distribution:  JSON array of x_size non-negative weights; the loader
               normalizes any positive total to 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

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

#: ``build_family`` computes about this many table entries per chunk.
_BUILD_CHUNK_BITS = 1 << 20


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


def _is_integer(value) -> bool:
    """True for Python and numpy integers: not for a float such as 1.9, to
    be refused rather than truncated, nor for a bool, although bools are ints."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _integer_entries(values, name: str, kind: str, error=ArgumentError) -> tuple:
    """The entries of ``values`` as Python ints; any other entry raises ``error``.

    One pass in C over the entry types decides; only a refusal looks at the
    entries one by one, to name the first that is not an integer."""
    values = tuple(values)
    types = set(map(type, values))
    if not all(issubclass(t, (int, np.integer)) and not issubclass(t, (bool, np.bool_)) for t in types):
        i, v = next((i, v) for i, v in enumerate(values) if not _is_integer(v))
        raise error(f"{name} entry {i} is {v!r}, not an integer {kind}")
    return tuple(map(int, values))


class BooleanFunction:
    """Immutable truth table of a total function f: X x Y -> {0,1}."""

    __slots__ = ("x_size", "y_size", "_packed")

    def __init__(self, x_size: int, y_size: int, table):
        for name, size in (("x_size", x_size), ("y_size", y_size)):
            if not _is_integer(size):
                raise ArgumentError(f"{name} must be an integer, got {size!r}")
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
        # Check the values before narrowing them: 256 or 0.5 must not pass as
        # a bit.  A uint8 table of 0s and 1s needs only its maximum.
        if arr.dtype != np.bool_ and not (arr.dtype == np.uint8 and int(arr.max(initial=0)) <= 1):
            bad = (arr != 0) & (arr != 1)
            if bad.any():
                offset = int(bad.argmax())
                raise ArgumentError(f"table entry at offset {offset} is not a bit")
        bits = arr.astype(np.uint8, copy=False).reshape(x_size, y_size)
        self._set(x_size, y_size, np.packbits(bits, axis=1))

    def _set(self, x_size: int, y_size: int, rows: np.ndarray) -> None:
        # The stored matrix is a view of a read-only array, so no caller of
        # ``packed_rows`` can make it writable again.
        rows.flags.writeable = False
        self.x_size = x_size
        self.y_size = y_size
        self._packed = rows.view()

    @classmethod
    def _from_rows(cls, x_size: int, y_size: int, rows: np.ndarray) -> "BooleanFunction":
        """Wrap an (x_size, ceil(y_size / 8)) uint8 matrix in the layout of
        ``packed_rows``, padding bits zero; the matrix is not copied."""
        obj = cls.__new__(cls)
        obj._set(int(x_size), int(y_size), rows)
        return obj

    def bit(self, x: int, y: int) -> int:
        """f(x, y) as a Python int."""
        if not 0 <= x < self.x_size or not 0 <= y < self.y_size:
            raise ArgumentError(f"({x}, {y}) outside {self.x_size} x {self.y_size}")
        return int(self._packed.item(x, y >> 3) >> (7 - (y & 7))) & 1

    def column(self, y: int) -> np.ndarray:
        """The vector f(., y) over all of X (dtype uint8)."""
        if not 0 <= y < self.y_size:
            raise ArgumentError(f"y = {y} outside range [0, {self.y_size})")
        return (self._packed[:, y >> 3] >> (7 - (y & 7))) & 1

    def bits_at(self, xs: np.ndarray, y: int) -> np.ndarray:
        """f(x, y) for an array of x indices (dtype uint8)."""
        if not 0 <= y < self.y_size:
            raise ArgumentError(f"y = {y} outside range [0, {self.y_size})")
        return (self._packed[xs, y >> 3] >> (7 - (y & 7))) & 1

    def row_blocks(self, xs=None, cols=None):
        """Yield the rows f(x, .) for x in ``xs``, about 2**16 bits at a time.

        ``xs`` is an array of x indices (all of X when None) and
        ``cols`` a sequence of y indices giving the columns and their order
        (all of Y when None).  Each block is a C-contiguous uint8 array of
        shape (rows, len(cols)); the blocks together hold the rows in the
        order of ``xs``.  Every block unpacks whole packed rows, so no bit
        is gathered on its own.
        """
        step = max(8, _BLOCK_BITS // self.y_size)
        for start in range(0, self.x_size if xs is None else len(xs), step):
            pick = slice(start, start + step) if xs is None else xs[start : start + step]
            block = np.unpackbits(self._packed[pick], axis=1, count=self.y_size)
            yield block if cols is None else np.take(block, cols, axis=1)

    def row(self, x: int) -> np.ndarray:
        """The vector f(x, .) over all of Y (dtype uint8)."""
        if not 0 <= x < self.x_size:
            raise ArgumentError(f"x = {x} outside range [0, {self.x_size})")
        return np.unpackbits(self._packed[x], count=self.y_size)

    def bits(self) -> str:
        """The table as a '0'/'1' string, in the file format's x * y_size + y order."""
        digits = np.unpackbits(self._packed, axis=1, count=self.y_size)
        digits += ord("0")
        return digits.tobytes().decode("ascii")

    def table_array(self) -> np.ndarray:
        """The table as a fresh, writable (x_size, y_size) uint8 array."""
        return np.unpackbits(self._packed, axis=1, count=self.y_size)

    def packed_rows(self) -> np.ndarray:
        """The stored table: a read-only (x_size, ceil(y_size / 8)) uint8 view.

        Bit y of row x is bit 7 - (y & 7) of byte y >> 3 (MSB first), and
        each row is padded with zero bits to a whole byte: the array
        ``np.packbits(self.table_array(), axis=1)`` gives.
        """
        return self._packed

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
class _Family:
    """A built-in family.  Every dataclass field is an integer parameter,
    stored as a Python int: numpy integers pass, while bools, floats and
    n < 1 raise ``FamilyParameterError``.  Each family states its name,
    definition, parameter range, sizes and standard ordering (an ``icbound``
    strategy that reads only |Y|, and k) in class variables, and builds a
    chunk of its packed rows in ``_rows``."""

    n: int
    name: ClassVar[str]
    definition: ClassVar[str]
    parameter_range: ClassVar[str] = "n >= 1"
    sizes: ClassVar[str] = "x_size = y_size = 2^n"
    ordering: ClassVar[str]

    def __post_init__(self):
        params = fields(self)
        for field in params:
            value = getattr(self, field.name)
            if not _is_integer(value):
                raise FamilyParameterError(
                    f"{self.name} requires an integer {field.name}, got {value!r}"
                )
            object.__setattr__(self, field.name, int(value))
        if self.n < 1:
            got = self.n if len(params) == 1 else f"n={self.n}"
            raise FamilyParameterError(f"{self.name} requires n >= 1, got {got}")

    @property
    def x_size(self) -> int:
        return 1 << self.n

    @property
    def y_size(self) -> int:
        return 1 << self.n

    def describe(self) -> dict:
        return {"family": self.name, **asdict(self)}


@dataclass(frozen=True)
class Index(_Family):
    """f(x, y) = x_y: bit y of Alice's n-bit string, for y in {0, ..., n-1}."""

    name: ClassVar[str] = "index"
    definition: ClassVar[str] = "f(x, y) = x_y"
    sizes: ClassVar[str] = "x_size = 2^n, y_size = n"
    ordering: ClassVar[str] = "natural"

    @property
    def y_size(self) -> int:
        return self.n

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        # Row x is x itself in n bits, MSB first, then zero padding to a whole
        # byte: the low bytes of x << pad, big-endian.  MAX_TABLE_BITS keeps
        # n <= 23, so x << pad fits in 32 bits.
        nbytes = -(-self.n // 8)
        shifted = xs.astype(np.uint32) << (8 * nbytes - self.n)
        return shifted.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 4 - nbytes :]


@dataclass(frozen=True)
class InnerProduct(_Family):
    """f(x, y) = XOR_i x_i * y_i on n-bit strings."""

    name: ClassVar[str] = "ip"
    definition: ClassVar[str] = "XOR_i x_i y_i"
    ordering: ClassVar[str] = "unit-first"

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        return np.packbits(np.bitwise_count(_meets(xs, self.y_size)) & 1, axis=1)


@dataclass(frozen=True)
class Disjointness(_Family):
    """f(x, y) = 1 when no position has x_i = y_i = 1, else 0."""

    name: ClassVar[str] = "disj"
    definition: ClassVar[str] = "[no common 1-position]"
    ordering: ClassVar[str] = "unit-first"

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        return np.packbits(_meets(xs, self.y_size) == 0, axis=1)


@dataclass(frozen=True)
class Equality(_Family):
    """f(x, y) = 1 exactly when x = y, on {0, ..., 2**n - 1}."""

    name: ClassVar[str] = "eq"
    definition: ClassVar[str] = "[x = y]"
    ordering: ClassVar[str] = "natural"

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        rows = np.zeros((xs.size, -(-self.y_size // 8)), dtype=np.uint8)
        rows[np.arange(xs.size), xs >> 3] = 0x80 >> (xs & 7)
        return rows


@dataclass(frozen=True)
class KIntersect(_Family):
    """f(x, y) = 1 when x and y share at least k common 1-positions."""

    k: int
    name: ClassVar[str] = "kint"
    definition: ClassVar[str] = "[at least k common 1s]"
    parameter_range: ClassVar[str] = "n >= 1, 1 <= k <= n/2"
    ordering: ClassVar[str] = "kint-proof"

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.k <= self.n // 2:
            raise FamilyParameterError(
                f"kint requires 1 <= k <= floor(n/2) = {self.n // 2}, got k={self.k}"
            )

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        return np.packbits(np.bitwise_count(_meets(xs, self.y_size)) >= self.k, axis=1)


#: The built-in families, in the order ``icbounds families`` lists them.
FAMILIES = (Index, InnerProduct, Disjointness, Equality, KIntersect)

FunctionFamily = _Family


def _meets(xs: np.ndarray, y_size: int) -> np.ndarray:
    """The block x & y for x in ``xs`` and every y, in the operands' dtype."""
    return xs[:, None] & np.arange(y_size, dtype=xs.dtype)


def build_family(family: FunctionFamily) -> BooleanFunction:
    """Materialize the truth table of a built-in family.

    A table of more than ``MAX_TABLE_BITS`` bits is refused before anything
    is allocated, and an n above 64 from n alone: every family has 2**n
    rows, and for such an n the sizes are not even formed, since 1 << n can
    exhaust memory and the bit count can be too long to print.  Otherwise
    the packed matrix is allocated once and each family fills it with ready
    packed rows, about ``_BUILD_CHUNK_BITS`` entries at a time, so no
    temporary grows with the table.  The inputs are the narrowest unsigned
    integers that hold both |X| - 1 and |Y| - 1.
    """
    if family.n > 64:
        raise TableSizeRefusal(
            f"{family.name} table for n = {family.n} has 2**n rows, beyond the limit of "
            f"{MAX_TABLE_BITS} bits (2**28)"
        )
    x_size, y_size = family.x_size, family.y_size
    if x_size * y_size > MAX_TABLE_BITS:
        raise TableSizeRefusal(
            f"{family.name} table of {x_size} x {y_size} = {x_size * y_size} bits "
            f"exceeds the limit of {MAX_TABLE_BITS} bits (2**28)"
        )
    rows = np.empty((x_size, -(-y_size // 8)), dtype=np.uint8)
    dtype = np.min_scalar_type(max(x_size, y_size) - 1)
    step = max(1, _BUILD_CHUNK_BITS // y_size)
    for start in range(0, x_size, step):
        stop = min(start + step, x_size)
        rows[start:stop] = family._rows(np.arange(start, stop, dtype=dtype))
    return BooleanFunction._from_rows(x_size, y_size, rows)


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
    sig = np.asarray(_integer_entries(sigma, "sigma", "x index"), dtype=np.int64)
    if sig.shape != (f.x_size,):
        raise ArgumentError(f"sigma must have length {f.x_size}, got {sig.size}")
    if sig.size and (sig.min() < 0 or sig.max() >= f.x_size):
        raise ArgumentError("sigma image out of range")
    return BooleanFunction._from_rows(f.x_size, f.y_size, f.packed_rows()[sig])


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
        if not _is_integer(x_size):
            raise ArgumentError(f"x_size must be an integer, got {x_size!r}")
        x_size = int(x_size)
        if x_size < 1:
            raise ArgumentError(f"x_size must be >= 1, got {x_size}")
        # The weights the constructor would make from np.full(x_size,
        # 1 / x_size), without its copy and its checks of user weights.
        w = np.full(x_size, 1.0 / x_size)
        w /= float(w.sum())
        w.setflags(write=False)
        dist = object.__new__(cls)
        object.__setattr__(dist, "weights", w)
        object.__setattr__(dist, "label", "uniform")
        return dist

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
