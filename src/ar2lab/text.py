"""CSV table text rendered by numpy, byte for byte that of the % operator.

table(head, row_format, columns) returns

    head + (row_format + "\\n") * rows % cells

for a row_format of %d, %.17g and %s fields between literal text, the
cells taken row by row from the columns.  A table whose float cells fit
in one slab (rows * float columns < SLAB) is rendered by that very
expression.  On 128 rows of six float columns a warm kernel call costs
about what % does (0.6-0.7 ms on a 2-vCPU VM), while the kernel's tables
take 1.3-2.1 ms to build, once per process, which a run with only small
tables would pay for nothing.  Larger tables are rendered a slab at a
time (SLAB float cells, all of them in one kernel call) into one buffer
of NUL-padded byte rows, one fixed-width field per cell; its literals
are written once, the %d and %s cells are rendered once per table, and
the NULs are deleted from each slab's rows.

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
Zeros are 0 and -0.

The text of a cell is three uint64 words built by integer arithmetic.
With P = 10^(16-E) in fixed notation (0 <= E <= 16) and 10^16 in the
exponent forms d.ddde+XX (E < -4 or E > 16), Y = D + 9 P floor(D / P)
is D with a '0' slot after its integer digits.  The 24 digits of V =
Y 10^5, or of V = D 10^(5+E) for -4 <= E < 0, are the text with its
sign slot, slot and padding at fixed bytes, read four at a time through
a lookup table (V = H 10^4 + L, with H < 10^19 in a uint64).  One mask
row per (layout, trailing zeros of D, sign) ANDs away what %g drops --
the sign slot's '0', the padding, the trailing zeros of the fraction and
a point with no digit after it -- and XORs the slot into '.' and the
sign into byte 0; one word per E ORs e+XX or e+XXX into bytes 19..23.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

SLAB = 4096  # float cells rendered at a time: the temporaries stay ~0.5 MB
TIE = 1e-6  # the product is good to ~1e-14; fractions this close to 1/2 fall back

_FIELD = re.compile(r"%(d|\.17g|s)")
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the finite nonzero doubles
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # exact: uint64 products


@functools.cache
def _constants() -> dict:
    """The kernel's tables, built once per process.

    Per binary exponent b: the index of the largest E with 10^E <= 2^(b-1).
    Per decimal exponent E: the least double >= 10^(E+1); the prescale
    2^s and 10^(16-E) 2^-s as hi + lo, hi split into 26-bit halves hh +
    hl; the layout's P, A, B, C and word X; 34 times its class.  Per
    4-digit group: its ASCII and its count of trailing zeros.  Per (class,
    trailing zeros, sign): the AND and XOR words of the mask.
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

    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # [a, b, c, d]: the ASCII of "abcd"
    for k in range(4):
        ascii4[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape([10] + [1] * (3 - k))
    ascii4 = ascii4.reshape(10000, 4)
    tz4 = np.zeros(10000, dtype=np.uint8)  # trailing zeros; 0 has 4
    tz4[::10], tz4[::100], tz4[::1000], tz4[0] = 1, 2, 3, 4

    # V = H 10^4 + L with q, r = divmod(D, P), H = q A + r B and L = r C:
    # for 0 <= E <= 16, P = 10^(16-E), A = 100 P, B = 10 and C = 0 give
    # V = 10^5 (D + 9 P q); for -4 <= E < 0, P = 10^(-1-E), A = 1, B = 0
    # and C = 10^4 / P give V = D 10^(5+E).  The exponent forms are laid
    # out as E = 0, and their word X ORs e+XX or e+XXX into bytes 19..23
    fixed = (e >= -4) & (e <= 16)
    f = np.where(fixed, e, 0)
    p = _POW10[np.where(f < 0, -1 - f, 16 - f)]
    exponent = np.zeros((e.size, 8), dtype=np.uint8)
    exponent[:, 3], exponent[:, 4], exponent[:, 5:] = ord("e"), np.where(e < 0, ord("-"), ord("+")), ascii4[abs(e), 1:]
    short = abs(e) < 100  # |E| in 2 digits and a NUL, not 3
    exponent[short, 5:7], exponent[short, 7] = exponent[short, 6:], 0
    exponent[fixed] = 0
    layout = np.array([p, np.where(f < 0, 1, 100 * p), 10 * (f >= 0), np.where(f < 0, 10000 // p, 0),
                       exponent.view(np.uint64).ravel()], dtype=np.uint64)

    # masks 34 c + 2 z + sign of fixed E = c - 4 (E = 0 for the exponent
    # forms) with z trailing zero digits: AND keeps the bytes '%.17g'
    # prints, dropping the z zeros as far as the slot and the slot if no
    # digit follows it; XOR turns the slot's '0' into '.' and sets the sign
    f, z, b = np.ix_(np.arange(-4, 17), np.arange(17), np.arange(24))
    slot, last = 2 + np.maximum(f, 0), 18 - np.minimum(f, 0)  # the bytes of the slot and the last digit
    keep = (b > 0) & (b <= last - np.minimum(z, last - slot)) & ((b != slot) | (z < last - slot))
    masks = np.zeros((2, 21, 17, 2, 24), dtype=np.uint8)  # AND | XOR, c, z, sign, byte
    masks[0] = 255 * keep[:, :, None]
    masks[1] = (ord("0") ^ ord(".")) * (keep & (b == slot))[:, :, None]
    masks[1, :, :, 1, 0] = ord("-")
    masks = masks.view(np.uint64).reshape(2, -1, 3)
    tables = {
        "below": np.searchsorted([5e-324] + least, np.ldexp(1.0, np.arange(-1074, 1024)), side="right") - 1,
        "least_next": np.array(least),
        "scale": scale, "hi": hi, "hh": hh, "hl": hi - hh, "lo": lo,
        "key": 34 * np.where(fixed, e + 4, 4), **dict(zip("PABCX", layout)),
        "and": masks[0], "xor": masks[1],
        "ascii4": ascii4.view(np.uint32).ravel(), "tz4": tz4,
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


def _ascii(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, (cells, k) uint32, set to the ASCII of the last 4 k digits of v >= 0, four to a word."""
    ascii4 = _constants()["ascii4"]
    for j in range(out.shape[1] - 1, 0, -1):
        q = v // 10000  # floor_divide by a constant is cheap; divmod is not
        out[:, j] = ascii4[(v - q * 10000).view(np.int64)]
        v = q
    out[:, 0] = ascii4[v.view(np.int64)]
    return out


def _digits(x: np.ndarray, c: dict) -> tuple:
    """(the index i of E, the digits d, whether the kernel cannot certify them) of each cell of x."""
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
    return i, d, fallback


def _floats(x: np.ndarray) -> tuple:
    """(NUL-padded '%.17g' text of x as (cells, 24) bytes, the cells CPython renders)."""
    c = _constants()
    i, d, fallback = _digits(x, c)  # a function of its own: its temporaries are freed before the text's are made
    # the 24 digits of V = H 10^4 + L (see _constants) are the cell's text
    u = d.view(np.uint64)
    p = c["P"][i]
    q = u // p
    r = u - q * p
    h = q * c["A"][i]
    h += r * c["B"][i]
    words = np.empty((x.size, 6), dtype=np.uint32)
    _ascii(h, words[:, :5])
    _ascii(r * c["C"][i], words[:, 5:])

    tz4 = c["tz4"]
    q = d // 10000
    z = tz4[d - q * 10000]  # d's trailing zero digits
    rows = np.flatnonzero(z == 4)  # the last four digits are zeros: read on
    q = q[rows]
    for _ in range(3):
        if not rows.size:
            break
        v = q // 10000
        more = tz4[q - v * 10000]
        z[rows] += more
        rows, q = rows[more == 4], v[more == 4]

    key = c["key"][i] + 2 * z
    key += np.signbit(x)
    words = words.view(np.uint64)
    words &= np.take(c["and"], key, axis=0)
    words ^= np.take(c["xor"], key, axis=0)
    words[:, 2] |= c["X"][i]
    text, fallback = words.view(np.uint8), np.flatnonzero(fallback)
    for k in fallback.tolist():
        own = np.frombuffer(("%.17g" % float(x[k])).encode(), dtype=np.uint8)
        text[k] = 0
        text[k, : own.size] = own
    return text, fallback


def _ints(v: np.ndarray) -> np.ndarray:
    """NUL-padded '%d' text of an int64 array, as wide as its longest cell."""
    c = _constants()
    negative = v < 0
    a = v.astype(np.uint64)
    a[negative] = ~a[negative] + np.uint64(1)  # |v|, also for -2^63
    width = len(str(a.max()))
    more = np.searchsorted(_POW10[1:width], a, side="right")  # digits - 1
    words = _ascii(a, np.empty((v.size, -(-width // 4)), dtype=np.uint32))
    words &= np.take(c["lead"], more, axis=0)[:, -4 * words.shape[1]:].view(np.uint32)  # blanks the leading zeros
    text = words.view(np.uint8)[:, -width:]
    return np.concatenate([negative[:, None] * np.uint8(ord("-")), text], axis=1) if negative.any() else text


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

    # the rows of a slab as NUL-padded bytes in one buffer, its literals
    # written once; the %d and %s cells are rendered once per table
    for j, field in enumerate(fields):
        if field == "s":
            text = np.array([cell.encode() for cell in data[j]], dtype=bytes)
            data[j] = text.view(np.uint8).reshape(rows, text.itemsize)
        elif field == "d":
            data[j] = _ints(data[j])
    step = SLAB // len(floats)  # rows per slab: the float cells of a slab go through the kernel at once
    widths = [24 if field == ".17g" else data[j].shape[1] for j, field in enumerate(fields)]
    literals = [p.encode() for p in literals]
    out = np.empty((min(step, rows), sum(widths) + sum(map(len, literals))), dtype=np.uint8)
    at, starts = 0, []
    for j, literal in enumerate(literals):
        out[:, at: at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
        starts.append(at + len(literal))
        at = starts[-1] + (widths[j] if j < len(fields) else 0)
    pieces = [head]
    for top in range(0, rows, step):
        text = _floats(np.stack([data[j][top: top + step] for j in floats], axis=1).ravel())[0]
        text = text.reshape(-1, len(floats), 24)
        for j, field in enumerate(fields):
            cells = text[:, floats.index(j)] if field == ".17g" else data[j][top: top + step]
            item = f"V{widths[j]}"  # a cell copied as one item: numpy copies short byte rows slowly
            out[: len(text), starts[j]: starts[j] + widths[j]].view(item)[:, 0] = cells.view(item)[:, 0]
        pieces.append(out[: len(text)].tobytes().translate(None, b"\0").decode())
    return "".join(pieces)
