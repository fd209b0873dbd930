"""Text rows rendered from numeric columns as numpy byte arrays.

A table is one (rows, width) array of 8-byte words: each constant piece
of text and each value takes a fixed run of words, NUL where a value has
fewer characters than its run, and deleting the NULs leaves the text.
``row_template`` lays the pieces out once and ``fill_rows`` writes each
batch of values into it. Integers come from a lookup table of words;
floats print exactly as ``format(x, ".17g")``.

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

A float takes four words: sign, "0.000", the top digit and its point;
the other 16 digits, eight to a word; the exponent, "e-05" say. Masks per
(layout, digits kept, sign) keep what the value prints. Words are gathered
from tables, ANDed and ORed, never shifted, so the text does not depend on
the host's byte order. A value with its point among the last 16 digits
(10 <= |x| < 10^16 with digits after the point) also goes to ``format``.
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
_FLOAT_WORDS = 4
# A piece this short rides in bytes 5-7 of the value before it: an integer
# fills bytes 0-4 of its word, and a float's last word at most bytes 0-4
# ("e+308"; the longest text ``format`` prints, 24 bytes, leaves it empty).
_FOLD = 3
# Layouts: 0-3 print 0.ddd with that many zeros after the point, 4-20 are
# positional with 1-17 digits before the point, 21 is scientific. A mask
# row per (layout, digits kept 1-17, sign).
_LAYOUTS = 22
_SCIENTIFIC = 21
_MASKS_PER_LAYOUT = 17 * 2
# Decimal exponents any double can have.
_E10_MIN, _E10_MAX = -324, 308


def _words(texts, width: int = _WORD) -> np.ndarray:
    """Byte strings as runs of ``width`` bytes, NUL-padded, viewed as words."""
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), np.uint64)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The word lookup tables and the powers of ten, built once on first use."""
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
    # row i of half h: the four digits of i in bytes 4h to 4h + 3
    quads = np.zeros((2, _GROUP, _WORD), np.uint8)
    quads[0, :, :4] = quads[1, :, 4:] = digits
    trailing_zeros = sum(np.arange(_GROUP) % place == 0 for place in (10, 100, 1000))
    trailing_zeros[0] = 4
    e10 = np.arange(_E10_MIN, _E10_MAX + 1)
    positional = (e10 >= _POSITIONAL.start) & (e10 < _POSITIONAL.stop)
    layout = np.where(positional, np.where(e10 < 0, -1 - e10, 4 + e10), _SCIENTIFIC)
    # "e-05", "e+123": at least two exponent digits
    exponents = (b"" if e in _POSITIONAL else b"e%+03d" % e for e in e10.tolist())
    return {
        "ints": ints.view(np.uint64)[:, 0],
        "quads": quads.view(np.uint64)[..., 0],
        # sign, "0.000", the top digit and the point after it
        "lead": _words(b"-0.000%c." % d for d in b"0123456789"),
        "trailing_zeros": trailing_zeros.astype(np.int64),
        # first row of the masks table per e10, before digits kept and sign
        "layout_row": layout * _MASKS_PER_LAYOUT,
        "exponents": _words(exponents),
        "masks": _masks(),
        "powers": _powers(),
    }


def _masks() -> np.ndarray:
    """(rows, 4) mask words, row (layout * 17 + kept - 1) * 2 + negative.

    The fourth word, the exponent, is kept whole, so one AND covers a value.
    """
    key = np.arange(_LAYOUTS * _MASKS_PER_LAYOUT)
    negative, kept, layout = key % 2 == 1, key // 2 % 17 + 1, key // _MASKS_PER_LAYOUT
    small = layout < 4
    before = np.where(small, 0, np.where(layout == _SCIENTIFIC, 1, layout - 3))
    # bytes of the first word: sign, "0.000", the top digit and its point
    keep = np.ones((key.size, _WORD * _FLOAT_WORDS), bool)
    keep[:, 0] = negative
    keep[:, 1:3] = small[:, None]
    keep[:, 3:6] = small[:, None] & (np.arange(3) < layout[:, None])
    keep[:, 7] = (before == 1) & (kept > 1)
    # the other 16 digits, each kept if it is significant or before the point
    keep[:, _WORD : 3 * _WORD] = np.arange(1, 17) < np.maximum(kept, before)[:, None]
    return np.where(keep, 0xFF, 0).astype(np.uint8).view(np.uint64)


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
    hi, hi_high, hi_low, lo, s = (column[row] for column in _tables()["powers"])
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
    """Fill (n, 4) ``words`` with NUL-padded text that reads as ``format(v, ".17g")``.

    Every value must be finite. Bytes 5-7 of the last word stay NUL.
    """
    tables = _tables()
    x = np.asarray(x, dtype=np.float64)
    zero = x == 0.0
    digits, e10, fallback = _shortest_digits(np.where(zero, 1.0, np.abs(x)))
    # the top digit, then the other 16 as four groups of four
    lead, groups = digits, []
    for _ in range(4):
        top = lead // _GROUP
        groups, lead = [lead - top * _GROUP, *groups], top
    # a zero prints the 1 of its stand-in as 0
    words[:, 0] = tables["lead"][np.where(zero, 0, lead)]
    low, high = tables["quads"]
    words[:, 1] = low[groups[0]] | high[groups[1]]
    words[:, 2] = low[groups[2]] | high[groups[3]]
    # trailing zeros from the last group, then earlier ones where it is 0
    trailing = tables["trailing_zeros"][groups[-1]]
    run = np.flatnonzero(groups[-1] == 0)
    for group in groups[-2::-1]:
        group = group[run]
        trailing[run] += tables["trailing_zeros"][group]
        run = run[group == 0]
    row = e10 - _E10_MIN
    words[:, 3] = tables["exponents"][row]
    key = tables["layout_row"][row] + 2 * (16 - trailing) + np.signbit(x)
    words &= np.take(tables["masks"], key, axis=0)
    # the point among the last 16 digits: e10 in 1-15 with digits kept past it
    fallback |= (e10 >= 1) & (e10 <= 15) & (trailing < 16 - e10)
    for i in np.flatnonzero(fallback & ~zero):
        text = format(float(x[i]), ".17g").encode("ascii")
        words[i] = _words([text], _WORD * _FLOAT_WORDS)


def int_words(v: np.ndarray) -> np.ndarray:
    """One word per value, NUL-padded, that reads as ``str(i)``.

    Values must lie strictly inside +-10^4; bytes 5-7 stay NUL.
    """
    v = np.asarray(v, dtype=np.int64)
    if v.size and np.abs(v).max() >= _GROUP:
        raise ValueError(f"integers must lie strictly inside +-{_GROUP}")
    return _tables()["ints"][v + (_GROUP - 1)]


def row_template(pieces, kinds, rows: int):
    """A template of ``rows`` rows: pieces[0], column 0, pieces[1], ...

    ``kinds`` has "i" per integer column and "f" per float one. Returns
    (template, slots), with the columns' words left NUL; a slot is (first
    word, words, fold), fold being its last word with any piece folded in.
    """
    row, slots = bytearray(pieces[0].encode("ascii")), []
    for kind, piece in zip(kinds, pieces[1:]):
        row += bytes(-len(row) % _WORD)
        at, width = len(row) // _WORD, 1 if kind == "i" else _FLOAT_WORDS
        row += bytes(width * _WORD)
        piece = piece.encode("ascii")
        if len(piece) <= _FOLD:
            row[-_FOLD:], piece = piece.ljust(_FOLD, b"\0"), b""
        slots.append((at, width, np.frombuffer(row[-_WORD:], np.uint64)[0]))
        row += piece
    row += bytes(-len(row) % _WORD)
    template = np.empty((rows, len(row) // _WORD), np.uint64)
    template[:] = np.frombuffer(row, np.uint64)
    return template, slots


def fill_rows(template: np.ndarray, slots, columns) -> str:
    """The template's first len(columns[0]) rows as text, ``columns`` in their slots."""
    rows = template[: len(columns[0])]
    floats = [column for column, slot in zip(columns, slots) if slot[1] > 1]
    if floats:  # all in one call
        words = np.empty((len(rows) * len(floats), _FLOAT_WORDS), np.uint64)
        float_words(np.concatenate(floats), words)
        floats = iter(np.split(words, len(floats)))
    for column, (at, width, fold) in zip(columns, slots):
        rows[:, at : at + width] = next(floats) if width > 1 else int_words(column)[:, None]
        if fold:
            rows[:, at + width - 1] |= fold
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def render_rows(pieces, columns) -> str:
    """Rows of text: pieces[0], columns[0][i], pieces[1], ..., columns[-1][i], pieces[-1].

    ``pieces`` holds one more constant string than there are columns;
    integer columns print as ``str``, float columns as ``format(x, ".17g")``.
    """
    columns = [np.asarray(column) for column in columns]
    kinds = ["i" if column.dtype.kind == "i" else "f" for column in columns]
    return fill_rows(*row_template(pieces, kinds, len(columns[0])), columns)
