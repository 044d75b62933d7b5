"""CSV table text rendered by numpy, byte for byte that of the % operator.

table(head, row_format, columns) returns

    head + (row_format + "\\n") * rows % cells

for a row_format of %d, %.17g and %s fields between literal text, the
cells taken row by row from the columns.  A table whose float cells fit
in one slab (rows * float columns < SLAB) is rendered by that very
expression.  On 128 rows of six float columns a warm kernel call costs
about what % does (0.6-0.7 ms on a 2-vCPU VM), while the kernel's tables
take 1.5-2.3 ms to build, once per process, which a run with only small
tables would pay for nothing.  Larger tables are rendered a slab at a
time (SLAB float cells, all of them in one kernel call) into NUL-padded
byte rows, one fixed-width field per cell, and the NULs are deleted from
the joined rows.

%.17g follows Loitsch (2010): a fast path that knows when it cannot
certify a digit hands that cell to CPython.  A finite nonzero x has 17
significant digits D and a decimal exponent E, |x| ~ D * 10^(E-16).  D
is read off |x| * 10^(16-E), formed as Dekker's exact product of |x|
with the head of a double-double power of ten plus the tail's product
(an exact power-of-two prescale keeps both factors normal at the ends of
the range), so the value is known to ~1e-14 and its rounding to the
nearest integer is certain unless the fraction lies near 1/2.  A cell
goes to '%.17g' % x when
  - its fraction lies within TIE of 1/2 (exact decimal ties such as
    3 * 2^-24 round half to even in CPython);
  - D falls outside [10^16, 10^17): the rounding carried into an 18th
    digit (E itself is exact, read off the binary exponent of x and the
    least double >= 10^E);
  - x is inf or nan.
Zeros are 0 and -0.  The digits go through a 4-digit lookup table into
a 32-byte source row per cell, and one template per (exponent class,
trailing zeros) picks that cell's text out of it in the form %g chooses:
fixed for -4 <= E < 17, else d.ddde+XX, with the trailing zeros of the
fraction (and a point left without digits) read as NUL.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

SLAB = 4096  # float cells rendered at a time: the temporaries stay ~2 MB
TIE = 1e-6  # the product is good to ~1e-14; fractions this close to 1/2 fall back

_FIELD = re.compile(r"%(d|\.17g|s)")
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_POW10 = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)
# byte positions in a float cell's 32-byte source row, eight uint32 words:
# sign ('-' or NUL), '+', NUL, NUL | "000" d0 | d1..d16 | |E| in 4 digits | ".0e-"
_SIGN, _PLUS, _NUL, _D0, _EXP, _POINT, _ZERO, _E, _MINUS = 0, 1, 2, 7, 24, 28, 29, 30, 31


def _template(cls: int) -> tuple:
    """(source-row byte positions of the text of a cell in class cls with
    all 17 digits, the index of its last digit before the point): classes
    0..20 are fixed notation with E = cls - 4, 21 is E <= -100, 22 E < -4,
    23 E < 100 and 24 E >= 100."""
    digits = [_D0 + j for j in range(17)]
    if cls > 20:
        exponent = [_E, _MINUS if cls < 23 else _PLUS] + list(range(_EXP + (1 if cls in (21, 24) else 2), _EXP + 4))
        return [_SIGN, _D0, _POINT] + digits[1:] + exponent, 0
    e = cls - 4
    if e < 0:
        return [_SIGN, _ZERO, _POINT] + [_ZERO] * (-e - 1) + digits, -1
    return [_SIGN] + digits[: e + 1] + [_POINT] + digits[e + 1:], e


@functools.cache
def _constants() -> dict:
    """The kernel's tables, built once per process.

    Per binary exponent b: the index of the largest E with 10^E <= 2^(b-1).
    Per decimal exponent E: the least double >= 10^(E+1); the prescale
    2^s and 10^(16-E) 2^-s as hi + lo, hi split into 26-bit halves hh +
    hl; 17 times its class; the ASCII of |E|.  Per 4-digit group: its
    ASCII and its count of trailing zeros.  Per (class, trailing zeros):
    the template of byte positions in the source row.
    """
    powers = [1]
    for _ in range(340):
        powers.append(powers[-1] * 10)
    least = []  # the least double >= 10^(E+1)
    for e in range(_E_MIN + 1, _E_MAX + 1):
        if e >= 0:
            ten = float(powers[e])  # int -> float and int / int are correctly rounded
            above = ten >= powers[e]  # an exact comparison
        else:
            ten = 1 / powers[-e]
            p, q = ten.as_integer_ratio()
            above = p * powers[-e] >= q
        least.append(ten if above else math.nextafter(ten, math.inf))
    least.append(math.inf)

    # 10^k 2^-s, k = 16 - E, as hi + lo good to ~2^-104: 10^(16 m) 2^-s
    # from exact ints times the exact double 10^j, 0 <= j < 16; s = 600
    # for k >= 256 and -600 for k <= -257 keeps |x| 2^s, 10^k 2^-s and
    # their splits normal
    e = np.arange(_E_MIN, _E_MAX + 1)
    m, j = np.divmod(16 - e, 16)
    seeds = []
    for mm in range(m.min(), m.max() + 1):
        s = 600 if mm >= 16 else -600 if mm <= -17 else 0
        num = powers[16 * max(mm, 0)] << max(-s, 0)
        den = powers[-16 * min(mm, 0)] << max(s, 0)
        head = num / den
        p, q = head.as_integer_ratio()
        seeds.append((head, (num * q - p * den) / (den * q), 2.0 ** s))
    seed_hi, seed_lo, scale = np.array(seeds)[m - m.min()].T
    ten = 10.0 ** j
    hi0 = seed_hi * ten
    a_h, a_l = _split(seed_hi)
    b_h, b_l = _split(ten)
    lo0 = ((a_h * b_h - hi0) + a_h * b_l + a_l * b_h) + a_l * b_l + seed_lo * ten
    hi = hi0 + lo0
    lo = lo0 - (hi - hi0)
    hh = _split(hi)[0]

    cls = np.where(e < -99, 21, np.where(e < -4, 22, np.where(e < 17, e + 4, np.where(e < 100, 23, 24))))
    digits = np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij")
    digits = np.stack(digits, axis=-1).reshape(10000, 4)  # row g: the 4 digits of g
    ascii4 = (digits + ord("0")).view(np.uint32).ravel()
    zero = digits == 0
    tz4 = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0].astype(np.int64))))  # 0 has 4
    # template 17 c + z: class c's, with the z trailing zero digits of the
    # fraction, and a point with no digit after it, read as NUL
    base = np.full((25, 1, 24), _NUL, dtype=np.intp)
    whole = np.empty((25, 1, 1), dtype=np.intp)
    for c in range(25):
        row, whole[c] = _template(c)
        base[c, 0, : len(row)] = row
    digit, kept = base - _D0, 17 - np.arange(17)[:, None]
    drop = (digit >= kept) & (digit > whole) & (digit <= 16) | (base == _POINT) & (kept <= whole + 1)
    templates = np.where(drop, _NUL, base).reshape(25 * 17, 24)
    tables = {
        "below": np.searchsorted([5e-324] + least, np.ldexp(1.0, np.arange(-1074, 1024)), side="right") - 1,
        "least_next": np.array(least),
        "scale": scale, "hi": hi, "hh": hh, "hl": hi - hh, "lo": lo,
        "key": cls * 17, "exponent": ascii4[np.abs(e)], "ascii4": ascii4, "tz4": tz4, "templates": templates,
        "sign": np.frombuffer(b"\0+\0\0-+\0\0", dtype=np.uint32),  # source bytes 0..3: sign, '+', NUL, NUL
        "tail": np.frombuffer(b".0e-", dtype=np.uint32),  # source bytes 28..31
        "lead": np.where(np.arange(20) >= 19 - np.arange(20)[:, None], 255, 0).astype(np.uint8),  # row k: last k + 1
    }
    for table in tables.values():
        table.setflags(write=False)  # shared by every call in the process
    return tables


def _split(v: np.ndarray) -> tuple:
    """Veltkamp's split of v into 26-bit halves head + tail."""
    t = v * 134217729.0
    head = t - (t - v)
    return head, v - head


def _groups(v: np.ndarray, count: int) -> list:
    """The last count 4-digit groups of v >= 0, most significant first."""
    groups = []
    for _ in range(count - 1):
        q = v // 10000  # floor_divide by a constant is cheap; divmod is not
        groups.append(v - q * 10000)
        v = q
    return [v] + groups[::-1]


def _floats(x: np.ndarray) -> tuple:
    """(NUL-padded '%.17g' text of x, rows the kernel could not certify)."""
    c = _constants()
    ax = np.abs(x)
    plain = (ax > 0) & (ax < np.inf)  # finite and nonzero
    ax = np.where(plain, ax, 1.0)
    # ax in [2^(b-1), 2^b) holds at most one power of ten: E is the
    # exponent below 2^(b-1), or one more where ax reaches the next power
    i = c["below"][np.frexp(ax)[1] + 1073]
    i += ax >= c["least_next"][i]

    # |x| 10^(16-E) = ph + r, good to ~1e-14: Dekker's two-product of the
    # prescaled |x| with the head hi = hh + hl, plus its product with lo
    xs = ax * c["scale"][i]
    xh, xl = _split(xs)
    hh, hl = c["hh"][i], c["hl"][i]
    ph = xs * c["hi"][i]  # >= 10^16 > 2^53: a whole number
    r = ((xh * hh - ph) + xh * hl + xl * hh) + xl * hl + xs * c["lo"][i]
    n = np.floor(r)
    frac = r - n
    d = ph.astype(np.int64)
    d += n.astype(np.int64)
    d += frac > 0.5
    fallback = (np.abs(frac - 0.5) < TIE) | (d < 10 ** 16) | (d >= 10 ** 17) | ~plain
    zero = x == 0
    fallback &= ~zero
    d[zero] = 0  # and E = 0: zeros read 0 and -0

    groups = _groups(d, 5)
    tz4 = c["tz4"]
    z = tz4[groups[4]]
    rows = np.flatnonzero(z == 4)  # the last four digits are zeros: read on
    for g in groups[3:0:-1]:
        if not rows.size:
            break
        more = tz4[g[rows]]
        z[rows] += more
        rows = rows[more == 4]

    ascii4 = c["ascii4"]
    words = np.empty((x.size, 8), dtype=np.uint32)
    words[:, 0] = c["sign"][np.signbit(x).view(np.uint8)]
    for j, g in enumerate(groups, start=1):
        words[:, j] = ascii4[g]
    words[:, 6] = c["exponent"][i]
    words[:, 7] = c["tail"]
    index = np.take(c["templates"], c["key"][i] + z, axis=0)
    index += 32 * np.arange(x.size)[:, None]  # row r reads bytes 32 r ...
    return words.view(np.uint8).ravel()[index], np.flatnonzero(fallback)


def _ints(v: np.ndarray) -> np.ndarray:
    """NUL-padded '%d' text of an int64 array, as wide as its longest cell."""
    c = _constants()
    negative = v < 0
    a = v.astype(np.uint64)
    a[negative] = ~a[negative] + np.uint64(1)  # |v|, also for -2^63
    more = np.searchsorted(_POW10, a, side="right")  # digits - 1
    width = 1 + int(more.max())
    groups = _groups(a, -(-width // 4))
    words = np.empty((v.size, len(groups)), dtype=np.uint32)
    for j, g in enumerate(groups):
        words[:, j] = c["ascii4"][g.astype(np.intp)]
    text = np.empty((v.size, 1 + width), dtype=np.uint8)
    text[:, 0] = negative * ord("-")
    lead = np.take(c["lead"][:, -width:], more, axis=0)  # blanks the leading zeros
    np.bitwise_and(words.view(np.uint8)[:, -width:], lead, out=text[:, 1:])
    return text


def _float_text(block: np.ndarray) -> np.ndarray:
    """NUL-padded '%.17g' text of a (rows, columns) float64 block, as (rows, columns, 24) bytes."""
    x = block.ravel()
    text, fallback = _floats(x)
    for k in fallback.tolist():
        own = np.frombuffer(("%.17g" % float(x[k])).encode(), dtype=np.uint8)
        text[k] = 0
        text[k, : own.size] = own
    return text.reshape(*block.shape, 24)


def table(head: str, row_format: str, columns) -> str:
    """head, then one LF-terminated row_format line per row of the columns.

    The columns are equal-length sequences, row i taking item i of each;
    %d cells are read as int64, %.17g cells as float64 and %s cells as
    str, which must not hold a NUL.
    """
    parts = _FIELD.split(row_format + "\n")
    literals, fields = parts[0::2], parts[1::2]
    if len(fields) != len(columns) or any("%" in p or "\0" in p for p in literals):
        raise ValueError(f"row format {row_format!r} does not fit {len(columns)} columns")
    rows = len(columns[0])
    if any(len(col) != rows for col in columns):
        raise ValueError("columns differ in length")
    data = []
    for field, col in zip(fields, columns):
        if field == "s":
            cells = [str(v) for v in col]
            if any("\0" in cell for cell in cells):
                raise ValueError("a %s cell holds a NUL byte")
            data.append(cells)
        else:
            data.append(np.asarray(col, dtype=np.int64 if field == "d" else np.float64))

    floats = [j for j, field in enumerate(fields) if field == ".17g"]
    if rows * len(floats) < SLAB:
        # the float cells fit in one slab: the reference itself, which needs none of the kernel's tables
        cells = [None] * (rows * len(fields))
        for j, col in enumerate(data):
            cells[j::len(fields)] = col if fields[j] == "s" else col.tolist()
        return head + (row_format + "\n") * rows % tuple(cells)

    for j, field in enumerate(fields):
        if field == "s":
            text = np.array([cell.encode() for cell in data[j]], dtype=bytes)
            data[j] = text.view(np.uint8).reshape(rows, text.itemsize)
    literals = [np.frombuffer(p.encode(), dtype=np.uint8) for p in literals]
    step = SLAB // len(floats)  # rows per slab: the float cells of a slab go through the kernel at once
    pieces = []
    for top in range(0, rows, step):
        cells = {j: col[top: top + step] if field == "s" else _ints(col[top: top + step])
                 for j, (field, col) in enumerate(zip(fields, data)) if field != ".17g"}
        text = _float_text(np.stack([data[j][top: top + step] for j in floats], axis=1))
        cells.update((j, text[:, k]) for k, j in enumerate(floats))
        parts = [literals[0]]
        for j, literal in enumerate(literals[1:]):
            parts += [cells[j], literal]
        out = np.empty((min(step, rows - top), sum(p.shape[-1] for p in parts)), dtype=np.uint8)
        at = 0
        for part in parts:
            out[:, at: at + part.shape[-1]] = part
            at += part.shape[-1]
        pieces.append(out.tobytes().translate(None, b"\0"))
    return head + b"".join(pieces).decode()
