"""Text rows rendered from numeric columns as numpy byte arrays.

``render_rows`` lays a table out as one (rows, width) byte array: each
constant piece of text and each value takes a fixed run of 8-byte words,
NUL where a value has fewer characters than its run, and deleting the
NULs leaves the text. Integers come from a lookup table of words. Floats
print exactly as ``format(x, ".17g")``: each value's 17 correctly rounded
digits come from numpy arithmetic, and the few values the arithmetic
cannot certify are printed by ``format`` itself.

The digits of a positive double x = M 2^e (M an integer in [2^52, 2^53))
with decimal exponent e10 are the integer nearest y = x 10^(16 - e10),
which lies in [10^16, 10^17). y is formed from a double-double entry
10^q = (hi + lo) 2^s of a table of powers, with Dekker's exact product
M hi = p + err: y = p 2^k + (err + M lo) 2^k with k = s + e. The first
term is an integer; the second, computed to within 2^-47, carries the
fraction. A value falls back to ``format`` when that fraction is within
``_TIE_MARGIN`` of 1/2, when y before rounding lies below 10^16 because
the log10 estimate of e10 was one too high, or when y rounds to 10^17 or
above.

A float takes six words. The first five hold every character it could
need in a fixed place: sign, the "0." and up to three zeros of 0.000ddd,
and the 17 digits each followed by a possible decimal point; masks
looked up per (layout, digits kept, sign) keep the characters the value
prints. The sixth word is the exponent, "e-05" say, looked up per e10.
"""

from __future__ import annotations

import functools

import numpy as np

# Veltkamp's constant 2^27 + 1: splits a double into two halves of at most
# 26 significant bits, so every partial product in Dekker's product is exact.
_SPLIT = 134217729.0
# Before scaling by 2^k, err + M lo is computed to within 2^-51: M lo and
# the sum each round once, by at most 2^-53 and 2^-52, and |lo| carries
# 2^-106 from the table. Any y below 10^17 has k <= 4, so the fraction is
# within 2^-47 of the true one, and a value rounded outside this margin of
# a tie is rounded correctly.
_TIE_MARGIN = 2.0**-40
_Y_LOW, _Y_HIGH = 10**16, 10**17
# q = 16 - e10 for e10 from floor(log10(5e-324)) = -324 to floor(log10(DBL_MAX)) = 308.
_Q_MIN, _Q_MAX = 16 - 308, 16 + 324
# '%.17g' prints decimal exponents in [-4, 17) positionally.
_POSITIONAL = range(-4, 17)
# Rows of the four-digit lookup tables: integers print from them, so they
# must lie strictly inside +-_GROUP, and floats' digits go in groups of four.
_GROUP = 10**4

_WORD = 8
_FLOAT_WORDS = 6
# Byte offsets in a float's first five words: sign, "0.000", the 17 digits
# at even offsets from _DIGIT0, each followed by a possible point.
_SIGN, _PREFIX, _DIGIT0 = 0, 1, 6
# Layouts: 0-3 print 0.ddd with that many zeros after the point, 4-20 are
# positional with 1-17 digits before the point, 21 is scientific. A mask
# row per (layout, digits kept 1-17, sign).
_LAYOUTS = 22
_SCIENTIFIC = 21
_MASKS_PER_LAYOUT = 17 * 2
# Decimal exponents any double can have.
_E10_MIN, _E10_MAX = -324, 308


def _bytes_table(rows: list[bytes], width: int) -> np.ndarray:
    """Byte strings as rows of ``width`` bytes, NUL-padded, viewed as words."""
    table = np.zeros((len(rows), width), np.uint8)
    for i, row in enumerate(rows):
        table[i, : len(row)] = np.frombuffer(row, np.uint8)
    return table.view(np.uint64)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The word lookup tables, built once on first use."""
    # row i: the four digits of i, zero-padded
    digits = (np.indices((10,) * 4).reshape(4, -1).T + ord("0")).astype(np.uint8)
    places = 10 ** np.arange(3, -1, -1)
    values = np.arange(1 - _GROUP, _GROUP)
    magnitude = np.abs(values)
    ints = np.zeros((values.size, _WORD), np.uint8)
    ints[:, 0] = np.where(values < 0, ord("-"), 0)
    ints[:, 1:5] = np.where(
        (magnitude[:, None] >= places) | (places == 1), digits[magnitude], 0
    )
    # four digits, each followed by a decimal point
    groups = np.full((_GROUP, _WORD), ord("."), np.uint8)
    groups[:, 0::2] = digits
    trailing_zeros = sum(np.arange(_GROUP) % place == 0 for place in (10, 100, 1000))
    trailing_zeros[0] = 4
    e10 = np.arange(_E10_MIN, _E10_MAX + 1)
    positional = (e10 >= _POSITIONAL.start) & (e10 < _POSITIONAL.stop)
    layout = np.where(positional, np.where(e10 < 0, -1 - e10, 4 + e10), _SCIENTIFIC)
    # "e-05", "e+123": at least two exponent digits
    exponents = np.zeros((e10.size, _WORD), np.uint8)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(e10 < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = digits[np.abs(e10), 1:]
    exponents[np.abs(e10) < 100, 2] = 0
    exponents[positional] = 0
    return {
        "ints": ints.view(np.uint64)[:, 0],
        "groups": groups.view(np.uint64)[:, 0],
        # sign, "0.000", the top digit and the point after it
        "lead": _bytes_table([b"-0.000%c." % d for d in b"0123456789"], _WORD)[:, 0],
        "trailing_zeros": trailing_zeros.astype(np.int64),
        # first row of the masks table per e10, before digits kept and sign
        "layout_row": layout * _MASKS_PER_LAYOUT,
        "exponents": exponents.view(np.uint64)[:, 0],
        "masks": _masks(),
    }


def _masks() -> np.ndarray:
    """(rows, 5) mask words, row (layout * 17 + kept - 1) * 2 + negative."""
    key = np.arange(_LAYOUTS * _MASKS_PER_LAYOUT)
    negative, kept, layout = key % 2 == 1, key // 2 % 17 + 1, key // _MASKS_PER_LAYOUT
    small = layout < 4
    before = np.where(small, 0, np.where(layout == _SCIENTIFIC, 1, layout - 3))
    keep = np.zeros((key.size, _WORD * (_FLOAT_WORDS - 1)), bool)
    keep[:, _SIGN] = negative
    keep[:, _PREFIX : _PREFIX + 2] = small[:, None]
    keep[:, _PREFIX + 2 : _DIGIT0] = small[:, None] & (np.arange(3) < layout[:, None])
    j = np.arange(17)
    keep[:, _DIGIT0 :: 2] = j < np.maximum(kept, before)[:, None]
    keep[:, _DIGIT0 + 1 :: 2] = (j + 1 == before[:, None]) & (kept > before)[:, None]
    return np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64)


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """Columns (hi, hi's high half, hi's low half, lo, s) with 10^q = (hi + lo) 2^s.

    Row q - _Q_MIN holds 10^q; hi lies in [1, 2] and hi + lo equals
    10^q 2^-s to within 2^-106 relative, from exact Python integers.
    """
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        s = num.bit_length() - den.bit_length()
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        if num < den:
            s -= 1
            num <<= 1
        hi = num / den
        lo = (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52)
        rows.append((hi, lo, s))
    hi, lo, s = (np.array(column) for column in zip(*rows))
    scaled = hi * _SPLIT
    hi_high = scaled - (scaled - hi)
    return hi, hi_high, hi - hi_high, lo, s.astype(np.int64)


def _shortest_digits(ax: np.ndarray):
    """The 17 digits, decimal exponents and fallback mask of positive doubles.

    Returns (digits, e10, fallback): digits is the integer nearest
    ax 10^(16 - e10), in [10^16, 10^17), so that ax rounds to
    digits 10^(e10 - 16). Where ``fallback`` is set, the digits are not
    certified and the value must be printed another way.
    """
    fraction, exponent = np.frexp(ax)
    mantissa = fraction * 2.0**53
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    row = 16 - _Q_MIN - e10
    hi, hi_high, hi_low, lo, s = (column[row] for column in _powers())
    product = mantissa * hi
    scaled = mantissa * _SPLIT
    m_high = scaled - (scaled - mantissa)
    m_low = mantissa - m_high
    error = ((m_high * hi_high - product) + m_high * hi_low + m_low * hi_high) + m_low * hi_low
    # 2^k, k = s + e - 53, built from its exponent bits
    scale = ((s + exponent + (1023 - 53)) << 52).view(np.float64)
    rest = (error + mantissa * lo) * scale
    rest_floor = np.floor(rest)
    tail = rest - rest_floor
    floor_y = (product * scale).astype(np.int64) + rest_floor.astype(np.int64)
    digits = floor_y + (tail > 0.5)
    # y below 10^16 before rounding: e10 was one too high; at or above 10^17
    # after it: one too low, or a carry into the next decade
    fallback = (np.abs(tail - 0.5) < _TIE_MARGIN) | (floor_y < _Y_LOW) | (digits >= _Y_HIGH)
    # a value that falls back gets a stand-in in range
    return np.where(fallback, _Y_LOW, digits), e10, fallback


def float_words(x: np.ndarray, words: np.ndarray) -> None:
    """Fill (n, 6) ``words`` with NUL-padded text that reads as ``format(v, ".17g")``.

    Every value must be finite.
    """
    tables = _tables()
    x = np.asarray(x, dtype=np.float64)
    zero = x == 0.0
    ax = np.where(zero, 1.0, np.abs(x))
    digits, e10, fallback = _shortest_digits(ax)
    # the top digit, then the other 16 as four groups of four: all exact
    # in float64 once split below 10^8
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    # a zero prints the 1 of its stand-in as 0
    words[:, 0] = tables["lead"][np.where(zero, 0, lead)]
    trailing = np.zeros(x.size, np.int64)
    run = np.ones(x.size, bool)
    for w, part in ((4, low), (2, high)):
        part = part.astype(np.float64)
        top = np.floor(part / _GROUP)
        for v, group in ((w, part - top * _GROUP), (w - 1, top)):
            group = group.astype(np.int64)
            words[:, v] = tables["groups"][group]
            trailing += run * tables["trailing_zeros"][group]
            run &= group == 0
    row = e10 - _E10_MIN
    words[:, 5] = tables["exponents"][row]
    key = tables["layout_row"][row] + 2 * (16 - trailing) + np.signbit(x)
    words[:, :5] &= np.take(tables["masks"], key, axis=0)
    for i in np.flatnonzero(fallback & ~zero):
        text = format(float(x[i]), ".17g").encode("ascii")
        words[i] = _bytes_table([text], _WORD * _FLOAT_WORDS)[0]


def int_words(v: np.ndarray) -> np.ndarray:
    """One word per value, NUL-padded, that reads as ``str(i)``.

    Values must lie strictly inside +-10^4.
    """
    v = np.asarray(v, dtype=np.int64)
    if v.size and np.abs(v).max() >= _GROUP:
        raise ValueError(f"integers must lie strictly inside +-{_GROUP}")
    return _tables()["ints"][v + (_GROUP - 1)]


def render_rows(pieces, columns) -> str:
    """Rows of text: pieces[0], columns[0][i], pieces[1], ..., columns[-1][i], pieces[-1].

    ``pieces`` holds one more constant string than there are columns;
    integer columns print as ``str``, float columns as ``format(x, ".17g")``.
    """
    columns = [np.asarray(column) for column in columns]
    texts = [
        _bytes_table([text.encode("ascii")], -(-len(text) // _WORD) * _WORD)[0]
        for text in pieces
    ]
    widths = [1 if column.dtype.kind == "i" else _FLOAT_WORDS for column in columns]
    buf = np.empty((len(columns[0]), sum(t.size for t in texts) + sum(widths)), np.uint64)
    at = 0
    for text, column, width in zip(texts, [*columns, None], [*widths, 0]):
        buf[:, at : at + text.size] = text
        at += text.size
        if width == 1:
            buf[:, at] = int_words(column)
        elif width:
            float_words(column, buf[:, at : at + width])
        at += width
    return buf.tobytes().translate(None, b"\0").decode("ascii")
