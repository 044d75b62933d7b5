"""Symmetric innovation families: analytic moments and keyed sampling.

Every family is symmetric about zero.  Sampling is fully deterministic:
a StreamKey (master seed, purpose tag, sequence length n, block index)
is hashed into a PCG64 stream, and each family is produced by a fixed
numpy transform of that stream's output (uniforms, or raw bits for
rademacher), so the same key always yields the same block on any worker.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence  # at import: numpy loads it lazily, at first use

from .errors import InvalidOrder, InvalidParameters


# Each family's parameters, in NoiseSpec.params order; all must be finite and > 0.
# The keys are the config-file spellings of the families.
_PARAMS = {
    "normal": (),
    "rademacher": (),
    "uniform": ("half_width",),
    "student_t": ("dof",),
    "pareto": ("alpha", "x_min"),
}


class _Record:
    """Base of the package's immutable record types.

    A record's fields are its class's __slots__, in order, set once by
    this __init__; a record that validates checks its arguments first and
    ends with one call to it.  Equality and hash come from the type and
    the field values, a numpy field's by its bits (0.0 and -0.0 differ, a
    nan equals itself), repr lists the fields, and assigning or deleting a
    field raises AttributeError.  Nothing is generated when a record class
    is defined.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        """Bind values by position, then named ones, to __slots__; TypeError on a missing, extra or repeated field."""
        cls, names = self.__class__.__qualname__, self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(values)}")
        rest = names[len(values):]
        if rest:
            missing = [name for name in rest if name not in named]
            if missing:
                raise TypeError(f"{cls} is missing field(s) {', '.join(missing)}")
            values += tuple(named.pop(name) for name in rest)
        if named:  # what is left was given twice or is no field
            name = next(iter(named))
            raise TypeError(f"{cls} got field {name!r} " + ("twice" if name in names else "that it does not have"))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        """The field values, an ndarray as its dtype, shape and bytes: one key for == and hash."""
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.__class__, self._key()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values())


def _rebuild(cls, values: tuple):
    """Unpickle a record: its stored fields, not a second run of its checks."""
    record = object.__new__(cls)
    _Record.__init__(record, *values)
    return record


class NoiseSpec(_Record):
    """A distribution choice plus its parameters.

    uniform:  params = (half_width,), support (-c, c)
    student_t: params = (dof,)
    pareto:   params = (alpha, x_min), density ~ |x|^(-alpha-1) beyond x_min
    normal / rademacher: no parameters
    """

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple = ()):
        names = _PARAMS.get(family)
        if names is None:
            raise InvalidParameters(f"noise.family must be one of {sorted(_PARAMS)}, got {family!r}")
        params = tuple(float(p) for p in params)
        if len(params) != len(names):
            raise InvalidParameters(
                f"noise.family {family!r} takes exactly {len(names)} parameter(s), got {len(params)}"
            )
        if not all(p > 0 and math.isfinite(p) for p in params):
            raise InvalidParameters(f"{family} needs " + " and ".join(f"{name} > 0" for name in names))
        super().__init__(family, params)


def absolute_moment(spec: NoiseSpec, r: float) -> float:
    """Closed-form E|theta|^r for r > 0; math.inf when it diverges.

    normal:     2^(r/2) * Gamma((r+1)/2) / sqrt(pi)
    rademacher: 1
    uniform:    c^r / (r + 1)
    student_t:  nu^(r/2) * B((r+1)/2, (nu-r)/2) / B(1/2, nu/2), finite iff r < nu
    pareto:     alpha * x_min^r / (alpha - r), finite iff r < alpha

    A finite moment beyond the largest double is refused with
    InvalidParameters, so that math.inf always means divergence.
    """
    r = float(r)
    if not (r > 0 and math.isfinite(r)):
        raise InvalidOrder(f"moment order must satisfy r > 0, got {r}")
    fam = spec.family
    if fam in ("student_t", "pareto") and r >= spec.params[0]:
        return math.inf
    try:
        moment = _finite_moment(spec, r)
    except OverflowError:
        moment = math.inf
    if moment == math.inf:
        named = ", ".join(f"{name} = {value:g}" for name, value in zip(_PARAMS[fam], spec.params))
        named = f" ({named})" if named else ""
        raise InvalidParameters(f"E|theta|^{r:g} of {fam} noise{named} is finite but overflows a double")
    return moment


def _finite_moment(spec: NoiseSpec, r: float) -> float:
    """absolute_moment's closed forms where the moment is finite; they may overflow."""
    fam = spec.family
    if fam == "normal":
        return math.exp(0.5 * r * math.log(2.0) + math.lgamma((r + 1.0) / 2.0) - 0.5 * math.log(math.pi))
    if fam == "rademacher":
        return 1.0
    if fam == "uniform":
        (c,) = spec.params
        return c ** r / (r + 1.0)
    if fam == "student_t":
        (nu,) = spec.params
        return math.exp(
            0.5 * r * math.log(nu)
            + math.lgamma((r + 1.0) / 2.0)
            + math.lgamma((nu - r) / 2.0)
            - 0.5 * math.log(math.pi)
            - math.lgamma(nu / 2.0)
        )
    alpha, x_min = spec.params
    return alpha * x_min ** r / (alpha - r)


def _log2_abs_bound(spec: NoiseSpec) -> float:
    """log2 of a bound on |theta| over every draw sample_block can make.

    Its uniforms are k 2^-53, so 1 - u >= 2^-53, which bounds each transform:
    normal:     sqrt(-2 ln 2^-53) = sqrt(106 ln 2) ~ 8.572
    rademacher: 1
    uniform:    c
    student_t:  sqrt(nu) 2^(53/nu)
    pareto:     x_min 2^(53/alpha)
    In log2, so that a tiny alpha or nu cannot overflow.
    """
    fam = spec.family
    if fam == "normal":
        return 0.5 * math.log2(106.0 * math.log(2.0))
    if fam == "rademacher":
        return 0.0
    if fam == "uniform":
        return math.log2(spec.params[0])
    if fam == "student_t":
        (nu,) = spec.params
        return 0.5 * math.log2(nu) + 53.0 / nu
    alpha, x_min = spec.params
    return math.log2(x_min) + 53.0 / alpha


# --- deterministic streams -------------------------------------------------

_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _as_whole(value, what: str) -> int:
    """value as an int, refused unless it is a whole number: 1e5 is, 2.5, nan, inf and "3" are not."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise InvalidParameters(f"{what} must be a whole number, got {value!r}")


def _as_seed(seed) -> int:
    seed = _as_whole(seed, "seed")
    if not 0 <= seed <= _U64:
        raise InvalidParameters(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET64
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME64) & _U64
    return h


class StreamKey(_Record):
    """Address of one block of random draws.

    purpose separates independent uses of the same master seed (the
    estimation paths, probe paths, ...); n and block index the grid
    point or time strip and the replication block inside a purpose.
    """

    __slots__ = ("master_seed", "purpose", "n", "block")

    def __init__(self, master_seed: int, purpose: str, n: int = 0, block: int = 0):
        master_seed = _as_seed(master_seed)
        n = _as_whole(n, "n")
        block = _as_whole(block, "block")
        if n < 0 or block < 0:
            raise InvalidParameters("n and block must be >= 0")
        super().__init__(master_seed, purpose, n, block)


def generator_for(key: StreamKey) -> Generator:
    """PCG64 generator derived from (master_seed, purpose, n, block).

    The purpose tag enters through FNV-1a so that distinct tags give
    unrelated streams; the remaining fields feed the seed sequence
    directly.  The derivation is fixed and forms part of the on-disk
    reproducibility contract.
    """
    entropy = [key.master_seed, _fnv1a64(key.purpose.encode("utf-8")), key.n, key.block]
    return Generator(PCG64(SeedSequence(entropy)))


# exp(x) is finite for every x <= 709 (the largest double is e^709.78...).
_EXP_FINITE = 709.0


# --- the normal pair map ---------------------------------------------------

# pi * 2^128, truncated: the hexadecimal digits of pi, 3.243F6A88...
_PI_2_128 = 0x3243F6A8885A308D313198A2E03707344

# The angle 2 pi u is split at the nearest of these steps around the circle.
_STEPS = 1024

# Angles mapped per pass: the pass's radius and angle copies and the map's four
# temporaries (6 x 64 KiB) stay in cache.
_ANGLE_CHUNK = 8192


def _angle_table(steps: int) -> tuple:
    """cos and sin of theta_k = 2.0 * math.pi * k / steps, k = 0 .. steps, correctly rounded.

    theta_k is the double that the uniform k / steps maps to.  Everything is
    128-bit fixed point, with no libm: exp(2 pi i k / steps) steps through
    the first octant from the Taylor series of exp(2 pi i / steps) and fills
    the circle by its symmetries, then each point turns by the tiny
    d = theta_k - 2 pi k / steps (|d| < 2^-50) to first order in d: the
    second-order term is below 2^-101.
    steps must be a multiple of 8.
    """
    one = 1 << 128
    step = 2 * _PI_2_128 // steps
    c1 = s1 = 0
    term, n = one, 0
    while term:  # step^n / n!, added to cos (n even) or sin (n odd) with the sign of i^n
        if n % 2:
            s1 += term if n % 4 == 1 else -term
        else:
            c1 += term if n % 4 == 0 else -term
        n += 1
        term = term * step // (one * n)
    cos, sin = [one], [0]
    for _ in range(steps // 8):
        c, s = cos[-1], sin[-1]
        cos.append((c * c1 - s * s1) >> 128)
        sin.append((s * c1 + c * s1) >> 128)
    quarter = cos + sin[-2::-1]  # cos(pi / 2 - t) = sin(t)
    half = quarter + [-c for c in quarter[-2::-1]]  # cos(pi - t) = -cos(t)
    cos = np.array(half + half[-2::-1], dtype=object)  # cos(2 pi - t) = cos(t)
    sin = np.concatenate([cos[3 * steps // 4 : -1], cos[: 3 * steps // 4 + 1]])  # sin(t) = cos(t - pi / 2)
    k = np.arange(steps + 1)
    theta = [int(t) for t in (2.0 * math.pi * k / steps * 2.0 ** 128).tolist()]  # exact: 2^128 scales
    d = np.array(theta, dtype=object) - k.astype(object) * step
    cos, sin = cos - (sin * d >> 128), sin + (cos * d >> 128)
    # float(int) rounds correctly, and 2^-128 scales exactly
    return cos.astype(float) * 2.0 ** -128, sin.astype(float) * 2.0 ** -128


_COS_K, _SIN_K = _angle_table(_STEPS)


def _polar_pairs(radius: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out[2 j], out[2 j + 1] = radius[j] * (cos, sin)(2 pi u_j), u_j in [0, 1).

    The angles u_j are read from out[:n], n = len(radius), and work is three
    rows of n doubles, apart from radius and out.  With u = u_j,
    k = rint(1024 u) and x = (1024 u - k) 2 pi / 1024
    (1024 u and 1024 u - k are exact, |x| <= pi / 1024):
    cos(2 pi u) = C_k c(x) - S_k s(x) and sin(2 pi u) = S_k c(x) + C_k s(x),
    where C_k, S_k = cos, sin(2 pi k / 1024) are the table's entries and
    c(x) = 1 - x^2/2 + x^4/24, s(x) = x - x^3/6 + x^5/120 are Taylor
    polynomials (truncation below 2e-18).  Only +, -, *, rint and a table
    lookup, so a draw depends on neither libm's cos and sin nor numpy's SIMD
    dispatch.  The map holds x and the table index in out, and its other
    temporaries in work, so it allocates nothing.
    """
    n = len(radius)
    x, index = out[:n], out[n:].view(np.intp)[:n]
    spare, c, s = work
    x *= float(_STEPS)
    k = np.rint(x, out=spare)
    x -= k
    x *= 2.0 * math.pi / _STEPS
    np.copyto(index, k, casting="unsafe")  # k is a whole number in 0 .. 1024
    x2 = np.multiply(x, x, out=spare)
    np.multiply(x2, 1.0 / 24.0, out=c)
    c -= 0.5
    c *= x2
    c += 1.0
    np.multiply(x2, 1.0 / 120.0, out=s)
    s -= 1.0 / 6.0
    s *= x2
    s *= x
    s += x
    cos_k = _COS_K.take(index, out=spare, mode="clip")  # index is in 0 .. 1024 already
    sin_k = _SIN_K.take(index, out=x, mode="clip")
    sin_s = np.multiply(sin_k, s, out=out[n:])
    s *= cos_k
    cos_k *= c
    c *= sin_k
    cos_k -= sin_s  # C_k c(x) - S_k s(x)
    c += s  # S_k c(x) + C_k s(x)
    np.multiply(cos_k, radius, out=out[0::2])
    np.multiply(c, radius, out=out[1::2])


def _normal_pairs(rng: Generator, out: np.ndarray) -> None:
    """Fill out with a normal block of len(out) // 2 whole pairs.

    Pair j's uniforms sit at j and m + j of the stream, m = len(out) // 2.
    The radii sqrt(-2 log1p(-u1)) are drawn and transformed in place in
    the upper half of out; the angle map then runs over ascending chunks,
    each copying its radii aside and drawing its angles in stream order
    into the part of out that the chunk's pairs fill.  Pair j writes
    out[2 j] and out[2 j + 1], below every radius not yet read, so the
    kernel holds only four chunk rows besides out, of min(m, _ANGLE_CHUNK)
    doubles each.
    """
    m = len(out) // 2
    radius = rng.random(out=out[m:])
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # 1 - u in (0, 1], no log(0)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    chunk = np.empty((4, min(m, _ANGLE_CHUNK)))  # the radii and the map's three work rows
    for lo in range(0, m, _ANGLE_CHUNK):
        hi = min(lo + _ANGLE_CHUNK, m)
        here = chunk[0, : hi - lo]
        here[...] = radius[lo:hi]
        pairs = out[2 * lo : 2 * hi]
        rng.random(out=pairs[: hi - lo])
        _polar_pairs(here, pairs, chunk[1:, : hi - lo])


def sample_block(
    spec: NoiseSpec,
    count: int,
    stream_key: StreamKey,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `count` innovations for the given key.

    Every family is a fixed numpy transform of the PCG64 stream:
    inversion of uniforms for uniform and pareto, the trigonometric pair
    map sqrt(-2 log u1) * (cos, sin)(2 pi u2) for the standard normal,
    with cos and sin from a 1024-step table and Taylor polynomials
    (_polar_pairs, no libm cos or sin),
    Bailey's polar map without rejection for Student-t,
    T = sqrt(nu) * w^(-1/nu) * sqrt(1 - w^(2/nu)) * cos(2 pi v) with
    w = 1 - u1 (exact, not a quantile approximation), and one raw bit
    per sign for rademacher: 1 - 2 * (bit v % 64 of 64-bit word v // 64),
    mapped as int8 and cast to float64 in one pass.
    Calling twice with the same key and count is bit-identical; the
    block is always drawn whole, from the start of its stream.

    out, if given, is a writable C-contiguous float64 array of shape
    (count,); the draws are written into it, with the same bits, and it
    is returned.  A caller that reuses one out for many calls pages in no
    fresh memory for them.  The normal kernel then holds only chunk
    temporaries (about 0.1 x a 2^19-draw output); an odd count still
    goes through a buffer of its whole pairs.
    """
    count = _as_whole(count, "count")
    if count < 0:
        raise InvalidParameters(f"count must be >= 0, got {count}")
    if out is None:
        out = np.empty(count)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.shape == (count,)
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise InvalidParameters(f"out must be a writable C-contiguous float64 array of shape ({count},)")
    rng = generator_for(stream_key)
    fam = spec.family
    if fam == "normal":
        # value v is the cos (v even) or sin (v odd) half of pair v // 2
        whole = out if count % 2 == 0 else np.empty(count + 1)
        _normal_pairs(rng, whole)
        if whole is not out:
            out[...] = whole[:count]
        return out
    if fam == "rademacher":
        # value v is bit v % 64 (least significant first) of raw word v // 64
        words = rng.bit_generator.random_raw((count + 63) // 64)
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        # 1 - 2 bit in place as int8 (exact, never -0.0), then one cast writes each double once
        signs = bits[:count].view(np.int8)
        signs *= -2
        signs += 1
        out[...] = signs
        return out
    rng.random(out=out)
    if fam == "uniform":
        (c,) = spec.params
        # c * (2 u - 1), in place
        out *= 2.0
        out -= 1.0
        out *= c
        return out
    # student_t and pareto: first uniforms at 0 .. count - 1 of the stream, second at count .. 2 count - 1
    if fam == "student_t":
        (nu,) = spec.params
        # T = exp(log(nu) / 2 - log(w) / nu) * sqrt(-expm1(2 log(w) / nu)) * cos(2 pi v),
        # in log space: w^(-2/nu) would overflow long before T does
        np.negative(out, out=out)
        np.log1p(out, out=out)  # log w, w = 1 - u in (0, 1]
        factor = np.multiply(out, 2.0 / nu)
        np.expm1(factor, out=factor)
        np.negative(factor, out=factor)
        np.sqrt(factor, out=factor)
        out *= -1.0 / nu
        out += 0.5 * math.log(nu)
        angle = rng.random(count)
        angle *= 2.0 * math.pi
        np.cos(angle, out=angle)
        factor *= angle  # |factor| <= 1
        # where exp of the exponent alone may overflow, fold log|factor| in
        # first, so that T is infinite only when |T| exceeds the largest double
        big = np.flatnonzero(out > _EXP_FINITE)
        big_log = out[big] + np.log(np.abs(factor[big]))
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
            out *= factor
            out[big] = np.copysign(np.exp(big_log), factor[big])
        return out
    # pareto: x_min * (1 - u1)^(-1/alpha), negated when u2 >= 1/2, in place
    alpha, x_min = spec.params
    np.subtract(1.0, out, out=out)  # 1 - u in (0, 1]
    with np.errstate(over="ignore"):  # beyond the largest double the draw is +inf, as intended
        np.power(out, -1.0 / alpha, out=out)
        out *= x_min
    sign = rng.random(count)
    np.negative(out, out=out, where=sign >= 0.5)
    return out
