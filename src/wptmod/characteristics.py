"""Characteristic U-I and P-I curves of a receiver under a current sweep.

scenario.build_sweeps puts each receiver on coil B's axis and drives coil B
alone (steering 0).  A fixed receiver reflects one fixed impedance, so both
curves follow from its input impedance Z_in (circuit.input_impedance): the
U-I curve is the line u = |Z_in|*I, the steering-weighted transmitter
voltage |u_a*sin(theta) + u_b*cos(theta)|, and the P-I curve the parabola
p = Re(Z_in)*I^2.  Under the split coupling Couplings(m*sin(phi), m*cos(phi)),
which keeps |m| at its on-axis value, a receiver at any other azimuth phi with
the drive steered onto it gives the same curves up to rounding.  That is a
property of the split model, not of the geometry: exact off-axis couplings
differ from it (ROADMAP item 5).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .schema import unique_label

if TYPE_CHECKING:
    from .circuit import Couplings, DriveSpec, Receiver, TxCoil


@dataclass(frozen=True)
class SweepSpec:
    """Transmitter-current sweep for one receiver configuration."""

    i_min: float
    i_max: float
    steps: int
    drive: DriveSpec  # frequency and steering (0: coil B alone); the amplitude is unused
    receiver: Receiver
    couplings: Couplings
    tx: TxCoil
    label: str = ""

    def __post_init__(self):
        if not (0.0 <= self.i_min < self.i_max):
            raise ValueError("require 0 <= i_min < i_max")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")


# ndarray.all() as the ufunc's own reduction, without the Python-level
# wrapper that each .all() call goes through
_every = functools.partial(np.logical_and.reduce, axis=None)


@dataclass(frozen=True)
class CharacteristicCurve:
    """Sampled (current, voltage, power) locus for one labeled receiver."""

    label: str
    i_tx: np.ndarray  # [A], strictly increasing
    u_tx: np.ndarray  # [V], |Z_in|*I
    p_in: np.ndarray  # [W]

    def __post_init__(self):
        i, u, p = (np.asarray(a, dtype=float) for a in (self.i_tx, self.u_tx, self.p_in))
        object.__setattr__(self, "i_tx", i)
        object.__setattr__(self, "u_tx", u)
        object.__setattr__(self, "p_in", p)
        if not (len(i) == len(u) == len(p)):
            raise ValueError("curve arrays must have equal length")
        # every comparison with NaN is false, so NaN fails both checks; the
        # first current has no predecessor to exceed, so it is compared with
        # -inf, which a NaN in a one-point curve fails too
        if not (_every(np.greater(i[1:], i[:-1])) and _every(np.greater_equal(i[:1], -math.inf))):
            raise ValueError("i_tx must be strictly increasing")
        if not (_every(np.greater_equal(u, 0.0)) and _every(np.greater_equal(p, 0.0))):
            raise ValueError("u_tx and p_in must be nonnegative")


def evaluate_point(spec: SweepSpec, i_tx):
    """Noiseless (|Z_in|*I, Re(Z_in)*I^2) of the sweep configuration at I = i_tx.

    i_tx may be a scalar or an array.  circuit is imported here, not at the
    top, so that a verb which only reads curves (fit) does not load it.
    """
    from . import circuit

    z_in = circuit.input_impedance(spec.drive, spec.couplings, spec.receiver, spec.tx)
    return _u_and_p(abs(z_in), z_in.real, i_tx)


def _u_and_p(magnitude, resistance, i_tx):
    """(|Z_in|*I, Re(Z_in)*I^2) from magnitude = |Z_in| and resistance = Re(Z_in).

    The three may be floats or arrays that broadcast together; i_tx must be
    >= 0, which NaN fails too.  scenario.generate_test_samples passes one
    (receivers, 1) column of each and the row of test currents.
    """
    i_tx = np.asarray(i_tx, dtype=float)
    if not _every(np.greater_equal(i_tx, 0.0)):
        raise ValueError("i_tx must be >= 0")
    return magnitude * i_tx, resistance * i_tx * i_tx


def sweep_curve(spec: SweepSpec) -> CharacteristicCurve:
    """Evaluate the noiseless characteristic curve for one receiver.

    Its i_tx is np.linspace(i_min, i_max, steps), one read-only array shared
    by every sweep over that range (_grid), so fit_thresholds finds such
    curves on one grid by identity and takes their values as they are.
    """
    currents = _grid(spec.i_min, spec.i_max, spec.steps)
    u, p = evaluate_point(spec, currents)
    return CharacteristicCurve(label=spec.label, i_tx=currents, u_tx=u, p_in=p)


# typed: a float32 bound makes linspace compute in float32, so it must not
# share the entry of the equal float64 one.  -0.0 and 0.0 do share one:
# linspace adds the start to 0.0, which gives +0.0 from either.  A scenario
# sweep holds at most scenario.MAX_STEPS points, 800 kB of grid.
@functools.lru_cache(maxsize=4, typed=True)
def _grid(i_min: float, i_max: float, steps: int) -> np.ndarray:
    """np.linspace(i_min, i_max, steps), made read-only since every sweep shares it."""
    grid = np.linspace(i_min, i_max, steps)
    grid.flags.writeable = False
    return grid


_HEADER = "label,i_tx_A,u_tx_V,p_in_W"
_COLUMNS = _HEADER.split(",")

# Fixed-point rendering of %.12f: a value is q + n/10^12 with q and n exact
# integers.  Values at or above _FIXED_LIMIT keep the template, so q has at
# most 16 digits, carry included.
_FIXED_LIMIT = 1e15
_FRACTION = 10**12
# Dekker's splitter, and 10^12 split into halves of at most 26 bits each
_SPLITTER = 2.0**27 + 1.0
_FRACTION_HI = float(_FRACTION >> 14 << 14)
_FRACTION_LO = float(_FRACTION - (_FRACTION >> 14 << 14))
# the four ASCII digits of 0..9999, zero-padded, one uint32 per entry
_DIGITS = (
    (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
     + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_POWERS = 10 ** np.arange(1, 16, dtype=np.int64)


def curves_to_csv(curves: list[CharacteristicCurve]) -> str:
    """Render curves in the interchange CSV layout, one row per point.

    Each number is printed as %.12f prints it: the exact decimal of the
    float rounded to 12 places, ties to even, so both paths below give the
    same bytes.  A curve whose values all have the sign bit clear and lie
    below 1e15 is written from exact integers, with no per-value format
    call: q = floor(v), the remainder r = v - q is exact, and np.rint of
    p = fl(r*10^12) gives the 12 decimals of the exact decimal wherever p is
    not a half-integer.  At those ties alone Dekker's split product takes
    r*10^12 exactly as p + e, and e says on which side of the tie it lies
    (_fixed_rows).  The integer parts are split into only as many 4-digit
    groups as the curve's largest one fills.  Every other curve (+-inf,
    -0.0, a negative current, a value at or above 1e15, or no points) is one
    %-format of its row template repeated once per point; a curve holds no
    NaN, which CharacteristicCurve refuses.  A label that curves_from_csv
    could not read back, one holding a comma or a line break, raises the
    ScenarioError (a ValueError) of schema.unique_label naming it.
    """
    parts = [_HEADER + "\n"]
    for curve in curves:
        unique_label(curve.label, "curve label")
        values = np.column_stack([curve.i_tx, curve.u_tx, curve.p_in])
        if values.size and (values < _FIXED_LIMIT).all() and not np.signbit(values).any():
            parts.append(_fixed_rows(curve.label, values))
        else:
            row = curve.label.replace("%", "%%") + ",%.12f,%.12f,%.12f\n"
            parts.append((row * len(values)) % tuple(values.ravel().tolist()))
    return "".join(parts)


def _fixed_rows(label: str, values: np.ndarray) -> str:
    """The rows of one curve; values (n, 3) have the sign bit clear and are < _FIXED_LIMIT.

    For r = v - floor(v), p = fl(r * 10^12) < 2^40 has an ulp <= 2^-13, so every half-integer
    up to it is a float; rounding being monotone, r * 10^12 = p + e rounds to another integer
    than rint(p) only where p is one.  Dekker's split product gives e on that tie subset
    alone; |e| <= 2^-14, so p + e rounds as p moved a quarter toward e, an exact tie to even.
    """
    whole = np.floor(values)
    rest = values - whole
    p = rest * float(_FRACTION)
    n = np.rint(p)
    tie = np.abs(p - n) == 0.5
    r, p_tie = rest[tie], p[tie]
    t = r * _SPLITTER
    hi = t - (t - r)
    lo = r - hi
    e = ((hi * _FRACTION_HI - p_tie) + hi * _FRACTION_LO + lo * _FRACTION_HI) + lo * _FRACTION_LO
    n[tie] = np.rint(p_tie + 0.25 * np.sign(e))
    fraction = n.astype(np.int64)
    whole = whole.astype(np.int64)
    carry = fraction == _FRACTION
    whole += carry
    fraction[carry] = 0
    # integer digits of the largest value less one; only the groups they fill are built
    top = int(np.searchsorted(_POWERS, whole.max(), side="right"))
    groups = np.empty(values.shape + (top // 4 + 4,), dtype=np.int64)
    _split_groups(whole, groups[..., :-3])
    _split_groups(fraction, groups[..., -3:])
    digits = _DIGITS[groups].view(np.uint8)

    # each value: comma, top + 1 integer digits, point, 12 decimals
    size = top + 15
    rows, head = len(values), np.frombuffer(label.encode(), dtype=np.uint8)
    text = np.empty((rows, head.size + 3 * size + 1), dtype=np.uint8)
    text[:, : head.size] = head
    text[:, -1] = ord("\n")
    cells = text[:, head.size : -1].reshape(rows, 3, size)
    cells[..., 0] = ord(",")
    cells[..., 1 : top + 2] = digits[..., -13 - top : -12]
    cells[..., top + 2] = ord(".")
    cells[..., top + 3 :] = digits[..., -12:]
    # drop the leading zeros of the shorter integer parts: 10^k's digit shows where v >= 10^k
    printed = np.ones(text.shape, dtype=bool)
    leading = printed[:, head.size : -1].reshape(rows, 3, size)[..., 1 : top + 1]
    leading[...] = whole[..., None] >= _POWERS[:top][::-1]
    return text[printed].tobytes().decode()


def _split_groups(number: np.ndarray, out: np.ndarray) -> None:
    """Write the 4-digit groups of `number` (int64 >= 0) into out, most significant first."""
    for k in range(out.shape[-1] - 1, 0, -1):
        high = number // 10_000
        out[..., k] = number - high * 10_000
        number = high
    out[..., 0] = number


def curves_from_csv(text: str) -> list[CharacteristicCurve]:
    """Parse the interchange CSV layout back into curves.

    Blank lines are skipped.  Curves come in first-seen label order, and the
    rows of one label are merged in file order even where labels interleave.
    A data row that is not a label and three finite numbers raises
    ValueError naming its line number (and column).

    Two readers give each value the bits float() gives its field.  Text in
    the layout curves_to_csv writes, every number 1-4 digits, a point and
    12 decimals, is read from its digits (_read_fixed): the digits of a
    number, the point dropped, form one integer n, and below 2^53 both n
    and 10^12 are exact doubles, so n / 1e12 rounds once, to the nearest
    double of the decimal, as float() does.  Any other text, or a number
    at or above 2^53 / 10^12, goes through np.loadtxt (_read_any), which
    also names the first bad row.
    """
    columns, runs = _read_fixed(text) or _read_any(text)
    blocks: dict[str, list[np.ndarray]] = {}
    start = 0
    for label, count in runs:
        blocks.setdefault(label, []).append(columns[:, start : start + count])
        start += count
    curves = []
    for label, parts in blocks.items():
        i, u, p = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        try:
            curves.append(CharacteristicCurve(label=label, i_tx=i, u_tx=u, p_in=p))
        except ValueError as exc:
            raise ValueError(f"curves.csv curve {label!r}: {exc}") from exc
    return curves


# _read_fixed works on little-endian 8-byte words at any byte offset; XOR
# with _ZEROS maps the digits '0'-'9' to the byte values 0-9
_ZEROS = np.uint64(0x30303030_30303030)
_SIXES = np.uint64(0x06060606_06060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0_F0F0F0F0)
_LOW_HALF = np.uint64(0xFFFFFFFF)
_BLOCK = 4096  # rows per pass over the digits, which bounds the temporaries


def _read_fixed(text: str) -> tuple[np.ndarray, list[tuple[str, int]]] | None:
    """Columns (3, rows) and label runs of text in the writer's fixed-point layout, else None.

    The layout is ASCII: the header, then lines `label,N,N,N` each ended by
    a newline, with a nonempty label and no byte below 0x20 but the
    newlines.  Every number is 1-4 digits, a point and 12 digits, and read
    as one integer with the point dropped, below 2^53 (see curves_from_csv).
    """
    if not (text.isascii() and text.startswith(_HEADER + "\n") and text.endswith("\n")):
        return None
    raw = text.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    lines = _lines(buf)
    if lines is None:
        return None
    newlines, commas = lines
    rows = len(commas)
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    columns = np.empty((3, rows))
    for first in range(0, rows, _BLOCK):
        block = slice(first, first + _BLOCK)
        comma = commas[block].T  # before each number
        end = np.vstack((comma[1:], newlines[1:][block]))  # one past each number
        width = end - comma - 1
        if ((width < 14) | (width > 17) | (buf[end - 13] != ord("."))).any():
            return None
        # the word of the integer digits starts with up to 3 bytes before
        # the number, which the shifts clear to leading zeros
        pad = ((17 - width) * 8).astype(np.uint64)
        high = ((words[end - 17] ^ _ZEROS) & _LOW_HALF) >> pad << pad
        # then the first 4 decimals above them, and the last 8 decimals
        high |= (words[end - 12] ^ _ZEROS) << np.uint64(32)
        low = words[end - 8] ^ _ZEROS
        # every byte is below 0x80, so adding 6 carries into no other byte
        if ((high | (high + _SIXES) | low | (low + _SIXES)) & _HIGH_NIBBLES).any():
            return None
        n = _eight_digits(high) * np.uint64(10**8) + _eight_digits(low)
        if (n >> np.uint64(53)).any():
            return None
        np.divide(n, 1e12, out=columns[:, block])
    return columns, _label_runs(raw, words, newlines[:-1] + 1, commas[:, 0])


def _lines(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The newlines and (rows, 3) commas of lines `label,x,y,z`, else None.

    buf holds the header line and at least one more; the label must not be
    empty, and no byte below 0x20 but the newlines may appear.
    """
    # one scan finds every byte up to the comma: the controls, the newlines,
    # the commas, and the space and punctuation a label may hold
    marks = np.flatnonzero(buf <= ord(","))
    kinds = buf[marks]
    newlines = marks[kinds == ord("\n")]
    commas = marks[kinds == ord(",")]
    rows = newlines.size - 1
    if not rows or commas.size != 3 * newlines.size:
        return None
    if np.count_nonzero(kinds < ord(" ")) != newlines.size:
        return None
    # past the header's three, each data line holds three commas when its
    # first follows its label and, as the number widths _read_fixed checks
    # ensure, the other two and its newline come in turn after it
    commas = commas[3:].reshape(rows, 3)
    if (commas[:, 0] <= newlines[:-1] + 1).any():
        return None
    return newlines, commas


def _label_runs(
    raw: bytes, words: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> list[tuple[str, int]]:
    """(label, rows) for each run of rows with one label; row r's is raw[starts[r]:stops[r]]."""
    bounds = [0]
    # each block compares its rows with the row before each, 8 bytes at a time
    for first in range(0, len(starts) - 1, _BLOCK):
        start = starts[first : first + _BLOCK + 1]
        size = stops[first : first + _BLOCK + 1] - start
        same = size[1:] == size[:-1]
        # the words start 8 bytes apart, the last one moved back to end with
        # the label; a label shorter than a word has one, whose bytes past
        # the label the shift drops
        last = np.maximum(size - 8, 0)
        pad = ((8 - np.minimum(size, 8)) * 8).astype(np.uint64)
        for offset in range(0, int(size.max()), 8):
            word = words[start + np.minimum(last, offset)] << pad
            same &= word[1:] == word[:-1]
        bounds += (np.flatnonzero(~same) + (first + 1)).tolist()
    bounds.append(len(starts))
    return [(raw[starts[a] : stops[a]].decode(), b - a) for a, b in zip(bounds, bounds[1:])]


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The numbers spelt by the eight digits 0-9 in the bytes of word, first digit lowest."""
    # combine neighbouring digits, then pairs, then quads, keeping the lower lane
    word = word * np.uint64(10 << 8 | 1) >> np.uint64(8) & np.uint64(0x00FF00FF_00FF00FF)
    word = word * np.uint64(100 << 16 | 1) >> np.uint64(16) & np.uint64(0x0000FFFF_0000FFFF)
    return word * np.uint64(10_000 << 32 | 1) >> np.uint64(32)


def _read_any(text: str) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Columns (3, rows) and label runs of any curve CSV, through np.loadtxt."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError("missing or malformed curve CSV header")
    rows = lines[1:]
    if not rows:
        return np.empty((3, 0)), []
    # usecols ignores any field past the fourth, so count the commas: three a line
    if text.count(",") != 3 * len(lines):
        raise _row_error(text)
    try:
        # numpy parses the numbers in C, correctly rounded like float()
        data = np.loadtxt(rows, delimiter=",", comments=None, usecols=(1, 2, 3), ndmin=2)
    except ValueError as exc:
        raise _row_error(text) from exc
    if data.shape != (len(rows), 3) or not np.isfinite(data).all():
        raise _row_error(text)
    runs = itertools.groupby(row.partition(",")[0] for row in rows)
    return np.ascontiguousarray(data.T), [(label, len(list(run))) for label, run in runs]


def _row_error(text: str) -> ValueError:
    """The error naming the first bad data row of a curve CSV."""
    rows = ((n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip())
    next(rows)  # the header
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != len(_COLUMNS):
            return ValueError(
                f"curves.csv line {lineno}: expected {len(_COLUMNS)} comma-separated "
                f"fields, got {len(fields)}"
            )
        for column, field in zip(_COLUMNS[1:], fields[1:]):
            # loadtxt strips the whitespace around a number, Unicode spaces too
            number = field.strip()
            try:
                # loadtxt takes neither the underscores nor the non-ASCII digits of float()
                if not number.isascii() or "_" in number:
                    raise ValueError(field)
                value = float(number)
            except ValueError:
                return ValueError(
                    f"curves.csv line {lineno}, column {column}: not a number: {field!r}"
                )
            if not math.isfinite(value):
                return ValueError(
                    f"curves.csv line {lineno}, column {column}: non-finite value {field!r}"
                )
    return ValueError("curves.csv: a data row does not parse as a label and three numbers")
