"""The format of every output: its floats, one value or whole arrays at a time, and its layout.

Every float the program writes is Python's ``repr`` of the double: the
shortest decimal that reads back to the same double (the closest one when
several are as short), in fixed notation for 1e-4 <= |x| < 1e16 and as
``d.ddde+XX`` otherwise, with ``.0`` on integral values and ``-0.0`` kept.
:func:`format_float` writes one value that way. :func:`table_chunks` and
:func:`grid_chunks` write the same bytes for whole arrays, in pieces of a few
thousand values, without a Python call per value, and :func:`csv_pieces` and
:func:`json_pieces` lay them out as a CSV or a JSON document.

The array path finds the digits with Giulietti's Schubfach algorithm ("The
Schubfach way to render doubles", 2020), as Java's ``DoubleToDecimal`` runs
it, on numpy ``uint64`` arrays: each double's rounding interval is scaled by
a 126-bit power of ten, and the one shorter candidate, or else the closer of
the two full-length ones, inside the interval is kept. Java's two-digit
minimum is left out (its ``s >= 100`` guard and its tenfold subnormals),
since Python writes ``5e-324`` where Java writes ``4.9E-324``. The 64x64-bit
high products are taken on 32-bit limbs.

Each value is then written as little-endian uint32 words of 4-digit groups
taken from a table, one word plane at a time: a sign word, four integer
words, the point, five fraction words and two exponent words. A block of
values writes only the planes some value of it needs: the sign word only if
some value has its sign bit set (``-0.0`` too), one integer word in place of
four when every integer part is below 10**4, and the exponent words only if
some value is written in exponent notation. NUL bytes stand for the leading
and trailing zeros that are not written, and ``bytes.translate`` drops them
from a whole block of values at once. A table's blocks share one word
buffer, viewed at each block's width; a grid's lines are laid out in one
buffer that holds the ``p,`` parts, commas and newlines, rebuilt only when a
block's width differs from the last one's. The tables are built on the first
array call, not at import.

A sequence of values that equals its own reverse bit for bit (``-0.0`` and
``0.0`` differ), such as every Wigner grid, is formatted only in its first
half: its blocks keep their words, and each later block is filled with the
words of its mirror values in reverse order.
"""

from __future__ import annotations

import functools
import json
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .errors import RangeError

# values formatted at a time, so temporaries stay a few MiB whatever the table size
BLOCK = 4096
# uint32 words of one formatted value at most: sign, 16 integer digits, point,
# 20 fraction digits, and 'e', exponent sign and up to 3 exponent digits
_MAX_WORDS = 13

_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
# modes of the 4-digit group table: all digits; leading zeros dropped (all of a zero
# group, or all but its last digit); trailing zeros dropped (all, or all but the first)
_FULL, _LEAD, _LEAD1, _TRAIL, _TRAIL1 = (m * 10000 for m in range(5))


def format_float(x: float) -> str:
    """Shortest decimal that round-trips the double exactly: the float format of every output."""
    return repr(float(x))


def format_value(v) -> str:
    """A setting's value as outputs write it: true or false, a float, ``[a, b]``, or ``str(v)``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


@functools.cache
def _tables() -> SimpleNamespace:
    """Powers of ten, digit groups and exponents, built on the first array call."""
    # g = floor(10**-k / 2**r) + 1 in [2**125, 2**126), split as g1 * 2**63 + g0;
    # p runs through 10**|k| for k = 0, -1, ..., _K_MIN, serving k = |k| on the way
    g = [0] * (_K_MAX - _K_MIN + 1)
    p = 1
    for j in range(-_K_MIN + 1):
        n = p.bit_length()
        g[-j - _K_MIN] = (p << 126 >> n) + 1
        if 0 < j <= _K_MAX:
            g[j - _K_MIN] = (1 << (n + 125)) // p + 1
        p *= 10
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & _M63 for v in g], dtype=np.uint64)

    # the four digits of each of 0..9999 as one little-endian word, most significant
    # first; a NUL byte stands for nothing: the writer drops it
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        chars[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((-1,) + (1,) * (3 - j))
    full = chars.view("<u4").reshape(-1)
    # how many digits each mode keeps: the last ones, past the leading zeros, or the
    # first ones, before the trailing zeros; the _LEAD1 and _TRAIL1 modes keep one of 0
    lead = np.full(10000, 4, dtype=np.uint8)
    trail = lead.copy()
    for j in range(4):
        lead[:10 ** (3 - j)] = 3 - j
        trail[::10 ** (j + 1)] = 3 - j
    lead1, trail1 = lead.copy(), trail.copy()
    lead1[0] = trail1[0] = 1
    last = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], dtype=np.uint32)
    first = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype=np.uint32)
    groups = np.concatenate([full & keep.take(n) for keep, n in
                             ((last, 4), (last, lead), (last, lead1), (first, trail), (first, trail1))])

    # 'e', sign and two or three digits of each exponent -324..308, then none
    e = np.arange(-324, 309)
    a = np.abs(e)
    exp = np.zeros((len(e) + 1, 8), dtype=np.uint8)
    exp[:-1, :4] = np.stack((np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                             np.where(a >= 100, 48 + a // 100, 48 + a // 10 % 10),
                             np.where(a >= 100, 48 + a // 10 % 10, 48 + a % 10)), axis=1)
    exp[:-1, 4] = np.where(a >= 100, 48 + a % 10, 0)

    return SimpleNamespace(g1=g1, g0=g0, pow10=10 ** np.arange(19, dtype=np.int64),
                           groups=groups, exp=exp.view("<u4"))


def _wide(a_hi, a_lo, b):
    """(high, low) 64-bit halves of a * b, for a = a_hi * 2**32 + a_lo < 2**63 and b < 2**60."""
    b_hi = b >> 32
    b_lo = b & _M32
    mid = a_hi * b_lo + a_lo * b_hi
    low = a_lo * b_lo
    return (a_hi * b_hi + (mid >> 32) + (((low >> 32) + (mid & _M32)) >> 32),
            low + (mid << 32))


def _rop(y1, y0, x1):
    """Java's ``rop``: g * cp / 2**127 rounded to odd, from y = g1 * cp and the high half of g0 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits: np.ndarray):
    """(f, k): the shortest decimal f * 10**k, as int64, that reads back as each nonzero finite double."""
    t = _tables()
    bq = (bits >> 52) & 0x7FF
    frac = bits & ((1 << 52) - 1)
    c = frac | (np.minimum(bq, 1) << 52)
    q = np.maximum(bq, 1).view(np.int64) - 1075
    # a power of two above the least exponent: the lower neighbour is half as far as the upper
    asym = (frac == 0) & (bq > 1)
    k = (q * 661971961083 - asym * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).view(np.uint64)
    i = k - _K_MIN
    g1 = t.g1.take(i)
    g0 = t.g0.take(i)
    # g * (4c << h) in full, then g * (4c + 2 << h) and g * (4c - 2 + asym << h)
    # by adding and subtracting g shifted by h + 1 or h bits. Each intermediate is
    # dropped once dead: freed all at once at the end of a block, the block's
    # working memory went back to the OS and was faulted in again by the next block
    cp = c << (h + 2)
    y1, y0 = _wide(g1 >> 32, g1 & _M32, cp)
    x1, x0 = _wide(g0 >> 32, g0 & _M32, cp)
    del cp
    vb = _rop(y1, y0, x1)
    up = h + 1
    y0r = y0 + (g1 << up)
    x0r = x0 + (g0 << up)
    vbr = _rop(y1 + (g1 >> (64 - up)) + (y0r < y0), y0r, x1 + (g0 >> (64 - up)) + (x0r < x0))
    del y0r, x0r
    down = up - asym
    d1 = g1 << down
    d0 = g0 << down
    vbl = _rop(y1 - (g1 >> (64 - down)) - (y0 < d1), y0 - d1, x1 - (g0 >> (64 - down)) - (x0 < d0))
    del g1, g0, y1, y0, x1, x0, d1, d0, up, down, h
    # the scaled value and interval ends are below 2**59: the rest runs on int64
    vb, vbl, vbr = vb.view(np.int64), vbl.view(np.int64), vbr.view(np.int64)
    # an interval end is a candidate only for even c (round half to even on reading)
    odd = (c & 1).view(np.int64)
    lo = vbl + odd
    hi = vbr - odd
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = lo <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= hi
    uin = lo <= s << 2
    win = (s + 1) << 2 <= hi
    mid = (s << 2) + 2
    near_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = np.where(upin != wpin, sp10 + 10 * wpin, s + (win & ~(uin & near_s)))
    return f, k


def _split(v):
    """The four 4-digit groups of each value of ``v`` below 10**16, most significant first."""
    hi = v // 100000000
    lo = v - hi * 100000000
    a = hi // 10000
    b = lo // 10000
    return a, hi - a * 10000, b, lo - b * 10000


def _fill_planes(x: np.ndarray, first: int, rows) -> np.ndarray:
    """Write the repr of each value of the 1-D array ``x`` as uint32 words, one plane per word.

    The values decide how many words each of them gets, n: a sign word if
    some value has its sign bit set, four integer words if some integer part
    is 10**4 or more and one otherwise, the point, five fraction words, and
    two exponent words if some value is written in exponent notation.
    ``rows(n)`` returns a 2-D array of little-endian uint32 words, of at
    least len(x) rows; the words of value j go into row j, columns
    ``first`` to ``first + n``, and their bytes, NULs dropped, spell its repr.
    Returns the first len(x) rows. The digit arrays are released on return.
    """
    _check_finite(x)
    t = _tables()
    pow10 = t.pow10
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    f, k = _shortest(bits)
    zero = (bits << 1) == 0
    f[zero] = 0
    # digits of f: 16 or 17 for a normal double, fewer only for a subnormal or zero
    nd = 16 + (f >= 10 ** 16)
    short = f < 10 ** 15
    if short.any():
        nd[short] = np.searchsorted(pow10, f[short], side="right")
    f = f * pow10.take(17 - nd)
    # decimal point after digit p of the 17; exponent notation writes d.ddd, so p = 1
    p = nd + k
    p[zero] = 1
    sci = (p < -3) | (p > 16)
    pe = np.where(sci, 1, p)
    # f = i * 10**(17 - pe) + frac; the 20 fraction digits are g0 (4) then r (16)
    div = pow10.take(np.minimum(17 - pe, 17))
    i = f // div
    frac = f - i * div
    m = pe + 3
    div = pow10.take(np.maximum(16 - m, 0))
    g0 = frac // div
    r = (frac - g0 * div) * pow10.take(np.minimum(m, 16))
    g0 *= pow10.take(np.maximum(m - 16, 0))
    # what the planes do not read goes now, as in _shortest
    del f, k, zero, nd, pe, div, m

    negative = bool(bits.max() >> 63)
    wide = bool(i.max() >= 10000)
    any_sci = bool(sci.any())
    n = negative + (4 if wide else 1) + 6 + 2 * any_sci
    out = rows(n)[:len(x)]
    # each plane is the next column of the value's words, written as it is computed
    planes = iter(out[:, first:first + n].T)
    groups = t.groups
    if negative:
        next(planes)[:] = (bits >> 63) * ord("-")
    if wide:
        i0, i1, i2, i3 = _split(i)
        next(planes)[:] = groups.take(i0 + _LEAD)
        next(planes)[:] = groups.take(i1 + np.where(i0 == 0, _LEAD, _FULL))
        high = i0 + i1 == 0
        next(planes)[:] = groups.take(i2 + np.where(high, _LEAD, _FULL))
        next(planes)[:] = groups.take(i3 + np.where(high & (i2 == 0), _LEAD1, _FULL))
    else:
        next(planes)[:] = groups.take(i + _LEAD1)
    next(planes)[:] = np.where(sci & (frac == 0), 0, ord("."))
    next(planes)[:] = groups.take(g0 + np.where(r == 0, np.where(sci, _TRAIL, _TRAIL1), _FULL))
    r0, r1, r2, r3 = _split(r)
    low = r2 + r3 == 0
    next(planes)[:] = groups.take(r0 + np.where(low & (r1 == 0), _TRAIL, _FULL))
    next(planes)[:] = groups.take(r1 + np.where(low, _TRAIL, _FULL))
    next(planes)[:] = groups.take(r2 + np.where(r3 == 0, _TRAIL, _FULL))
    next(planes)[:] = groups.take(r3 + _TRAIL)
    if any_sci:
        e = np.where(sci, p + 323, len(t.exp) - 1)
        next(planes)[:] = t.exp[:, 0].take(e)
        next(planes)[:] = t.exp[:, 1].take(e)
    return out


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise RangeError("cannot format a NaN or an infinity")


def _text(words: np.ndarray) -> str:
    """The ASCII text that the bytes of ``words`` spell, NULs dropped."""
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _blocks(x: np.ndarray, size: int, first: int, rows) -> Iterator[tuple[int, np.ndarray]]:
    """(start, words) of each block of ``size`` values of the 1-D float array ``x``, in order.

    ``words`` holds the block's rows of ``rows(n)``, laid out as
    :func:`_fill_planes` lays them out. When ``x`` equals its own reverse bit
    for bit, only its first half is formatted: each block keeps its values'
    words at its own width, and a later block copies the words of its mirror
    values in reverse order, NUL-padded to the widest of them. Any other
    ``x`` is formatted block by block.
    """
    bits = np.ascontiguousarray(x).view(np.uint64)
    # the two ends first, which tell most other sequences apart at once
    if not (bits.size and bits[0] == bits[-1] and np.array_equal(bits, bits[::-1])):
        for start in range(0, x.size, size):
            yield start, _fill_planes(x[start:start + size], first, rows)
        return
    half = (x.size + 1) // 2
    kept = []  # kept[j]: the words of the values from size * j on, at block j's width
    for start in range(0, x.size, size):
        stop = min(start + size, x.size)
        mid = max(start, min(stop, half))
        pieces = []
        if start < mid:
            kept.append(_fill_planes(x[start:mid], 0, lambda n: np.empty((mid - start, n), "<u4")))
            pieces.append(kept[-1])
        if mid < stop:
            # values mid..stop are those of x.size - 1 - mid down to x.size - stop
            lo, hi = x.size - stop, x.size - mid
            pieces += [kept[j][max(lo - j * size, 0):hi - j * size][::-1]
                       for j in range((hi - 1) // size, lo // size - 1, -1)]
        n = max(words.shape[1] for words in pieces)
        out = rows(n)[:stop - start]
        row = 0
        for words in pieces:
            out[row:row + len(words), first:first + words.shape[1]] = words
            out[row:row + len(words), first + words.shape[1]:first + n] = 0
            row += len(words)
        yield start, out


def table_chunks(a, sep: str, row_sep: str) -> Iterator[str]:
    """Pieces of ``row_sep.join(sep.join(map(repr, row)) for row in a)``, for the 2-D float array ``a``.

    ``sep`` and ``row_sep`` are ASCII of at most 4 characters; ``a`` has at
    least one column. A table without rows comes in no piece.

    Raises:
        RangeError: while iterating, if a value is NaN or infinite.
    """
    a = np.asarray(a, dtype=np.float64)
    n_cols = a.shape[1]
    flat = a.reshape(-1)
    seps = [int.from_bytes(text.encode("ascii"), "little") for text in (sep, row_sep)]
    # one buffer for every block, viewed at the block's width: its value words and a separator
    cap = min(flat.size, BLOCK)
    buf = np.empty(cap * (_MAX_WORDS + 1), dtype="<u4")

    def rows(n):
        return buf[:cap * (n + 1)].reshape(cap, n + 1)

    for start, out in _blocks(flat, BLOCK, 0, rows):
        out[:, -1] = seps[0]
        out[(n_cols - 1 - start) % n_cols::n_cols, -1] = seps[1]
        if start + BLOCK >= flat.size:
            out[-1, -1] = 0
        yield _text(out)


def grid_chunks(q, p, w) -> Iterator[str]:
    """Pieces of the lines ``f"{q[i]!r},{p[j]!r},{w[i, j]!r}"`` over i, then j, joined by newlines.

    Each axis value is formatted once, and the lines are assembled as bytes
    in one buffer that every block of rows reuses.

    Raises:
        RangeError: while iterating, if a value is NaN or infinite.
    """
    _check_finite(q, p)
    w = np.asarray(w, dtype=np.float64)
    n_q, n_p = w.shape
    # each axis value as NUL-padded bytes; a line starts 'q,p,' and is padded to whole words
    q_b, p_b = (np.array([format_float(v) for v in np.asarray(axis, dtype=np.float64).tolist()],
                         dtype="S").view(np.uint8).reshape(len(axis), -1)
                for axis in (q, p))
    wq, wp = q_b.shape[1], p_b.shape[1]
    head = -(-(wq + wp + 2) // 4)
    n_rows = max(1, min(BLOCK // n_p, n_q))
    lines = np.empty((0, 0), dtype="<u4")

    def rows(n):
        # the 'p,' part, the commas and the newlines are written once per line width
        nonlocal lines
        if lines.shape[1] != head + n + 1:
            lines = np.zeros((n_rows * n_p, head + n + 1), dtype="<u4")
            text = lines.view(np.uint8).reshape(n_rows, n_p, -1)
            text[:, :, wq] = text[:, :, wq + 1 + wp] = ord(",")
            text[:, :, wq + 1:wq + 1 + wp] = p_b
            lines[:, -1] = ord("\n")
        return lines

    for start, out in _blocks(w.reshape(-1), n_rows * n_p, head, rows):
        i0 = start // n_p
        out.view(np.uint8).reshape(len(out) // n_p, n_p, -1)[:, :, :wq] = q_b[i0:i0 + n_rows, None, :]
        if i0 + n_rows >= n_q:
            out[-1, -1] = 0
        yield _text(out)


def csv_pieces(comments, column_line: str, body: Iterable[str]) -> Iterator[str]:
    """Pieces of a CSV document: a ``# key = value`` line per (key, value) comment, its value by
    :func:`format_value`, the column line, then ``body``: pieces of newline-joined data lines,
    followed by a newline unless it yields nothing."""
    yield "".join(f"# {k} = {format_value(v)}\n" for k, v in comments) + column_line + "\n"
    last = ""
    for last in body:
        yield last
    if last:
        yield "\n"


def json_pieces(doc: dict, arrays: Iterable[tuple[str, np.ndarray]]) -> Iterator[str]:
    """Pieces of ``json.dumps({**doc, key: a.tolist(), ...}, separators=(",", ":"))`` and a newline.

    ``arrays`` holds (key, 1-D or 2-D float array) pairs; ``doc`` holds at least one key.

    Raises:
        RangeError: while iterating, if a value is NaN or infinite.
    """
    yield json.dumps(doc, separators=(",", ":"))[:-1]
    for key, a in arrays:
        nested = np.ndim(a) == 2 and len(a) > 0
        yield f",{json.dumps(key)}:" + ("[[" if nested else "[")
        yield from table_chunks(np.atleast_2d(a), ",", "],[")
        yield "]]" if nested else "]"
    yield "}\n"
