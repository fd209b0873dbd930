"""Exactly rounded sums of float64 arrays, computed in numpy.

``fsum`` and ``fsum_products`` return what ``math.fsum`` returns for the
same values as Python floats, bit for bit, without making a Python float
of each value. Every value is scaled by 2^64, which is exact and leaves no
subnormal, and read from its bits as a key (sign, biased exponent E) and
two mantissa digits: the top 21 bits, implicit bit included, and the low
32 bits. ``numpy.bincount`` sums each digit over the values of a key; those
sums are integers small enough to be exact in float64, and they are kept
in int64 across chunks of rows. The keys are then carried into a Python
int T in units of 2^-1138 through 32-bit digits, and T / 2^1138 rounds
correctly, as CPython's integer true division does. This is the small
superaccumulator of R. M. Neal, *Fast exact summation using small and
large superaccumulators* (arXiv:1505.05571, 2015), with one bin per key.

An exact sum has one correctly rounded value, so the order of the rows
does not matter. Up to ``_FSUM_ROWS`` rows every column goes to
``math.fsum`` itself, which is faster there than the key sums' fixed cost.
Past it, where ``math.fsum``'s own rules decide the result, the column
goes to ``math.fsum`` too: when every value is zero (the sign of a zero
sum), when a value is not finite (nan, inf, and the error of inf + -inf),
and when a value reaches 2^960, where the scaling overflows and a partial
sum could overflow too (fsum's OverflowError). Nonzero values whose exact
sum is zero give +0.0, as in fsum and in IEEE 754 round-to-nearest.
"""

from __future__ import annotations

import math

import numpy as np

# Entries (columns x rows) reduced per chunk, and the rows whose digit sums
# are kept in float64: a key's sums of 32-bit digits are exact up to 2^21.
_SUM_CHUNK = 1 << 16
# Rows up to which math.fsum is the faster route. On 231 rows it took 8 us
# for one column and 59 us for the report's eight, against 103 and 323 us
# for the key sums; the two met between 1,000 and 2,000 rows (2-core x86-64).
_FSUM_ROWS = 1024
_EXACT_ROWS = 1 << 21
_SCALE_BITS = 64
_EXPONENTS = 2048
_KEYS = 2 * _EXPONENTS
_EXPONENT_MASK = _EXPONENTS - 1
_KEY_SHIFT = np.uint64(52)
_HIGH_MANTISSA = np.uint64(0x000F_FFFF_0000_0000)
# the exponent field of 2^20, or-ed into the top 20 stored bits h: the
# high digit reads as 2^20 + h, the implicit bit of a normal number included
_HIGH_EXPONENT = np.uint64(0x4130_0000_0000_0000)
_DIGIT = 0xFFFF_FFFF
_LOW_MANTISSA = np.uint64(_DIGIT)
# A key's value is (high 2^32 + low) 2^(E - 1) in units of 2^-1138. With
# E <= 2046 its top bit position is 2077, and its digits spill two bins up.
_BINS = ((_EXPONENT_MASK - 1 + 31) >> 5) + 3
_HALF_DIGIT = 1 << 31
_HIGH_BIAS = sum(_HALF_DIGIT << (32 * q) for q in range(1, _BINS + 1))
_SCALE = 2.0**_SCALE_BITS
_UNIT = 1 << (1074 + _SCALE_BITS)


def fsum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` for a 1-D float64 array, bit for bit."""
    return fsum_products(x, [(None, None)])[0]


def fsum_products(weights: np.ndarray, terms) -> list[float]:
    """``math.fsum((weights * values)[where].tolist())`` for each term.

    ``terms`` holds ``(values, where)`` pairs: ``values`` an int or float
    array of the shape of ``weights``, or None for ``weights`` itself, and
    ``where`` a boolean mask of the entries to sum, or None for all. The
    terms are reduced together, one chunk of rows at a time, each a stack
    of the terms' products with the masked entries set to zero.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size <= _FSUM_ROWS:
        return [_math_fsum(weights, values, where) for values, where in terms]
    columns, size = len(terms), weights.size
    rows = max(1, min(size, _SUM_CHUNK // columns))
    stack = np.empty((columns, rows))
    keys = np.empty((columns, rows), np.int64)
    high = np.empty((columns, rows))
    low = np.empty((columns, rows))
    # each column's keys in their own range of the flat key sums
    offsets = np.arange(0, columns * _KEYS, _KEYS)[:, None]
    # (column * 4096 + key, high sum, low sum) of the keys of each block
    found = [(np.zeros(0, np.int64),) * 3]
    for block in range(0, size, _EXACT_ROWS):
        high_sums = np.zeros(columns * _KEYS)
        low_sums = np.zeros(columns * _KEYS)
        for start in range(block, min(size, block + _EXACT_ROWS), rows):
            stop = min(size, start + rows)
            count = stop - start
            chunk = stack[:, :count]
            for row, (values, where) in zip(chunk, terms):
                factor = 1.0 if values is None else values[start:stop]
                if where is None:
                    np.multiply(weights[start:stop], factor, out=row)
                else:
                    row.fill(0.0)
                    np.multiply(weights[start:stop], factor, out=row, where=where[start:stop])
            with np.errstate(over="ignore"):
                np.multiply(chunk, _SCALE, out=chunk)
            bits = chunk.view(np.uint64)
            chunk_keys = keys[:, :count]
            np.right_shift(bits, _KEY_SHIFT, out=chunk_keys.view(np.uint64))
            chunk_keys += offsets
            chunk_high = high[:, :count].view(np.uint64)
            np.bitwise_and(bits, _HIGH_MANTISSA, out=chunk_high)
            np.bitwise_or(chunk_high, _HIGH_EXPONENT, out=chunk_high)
            np.bitwise_and(bits, _LOW_MANTISSA, out=low[:, :count])
            flat_keys = chunk_keys.ravel()
            high_sums += np.bincount(flat_keys, high[:, :count].ravel(), high_sums.size)
            low_sums += np.bincount(flat_keys, low[:, :count].ravel(), low_sums.size)
        flat = np.flatnonzero(high_sums)
        found.append((flat, high_sums[flat].astype(np.int64), low_sums[flat].astype(np.int64)))
    flat, high_sums, low_sums = (np.concatenate(parts) for parts in zip(*found))
    sums = _round(flat, high_sums, low_sums, columns)
    return [
        total if total is not None else _math_fsum(weights, values, where)
        for total, (values, where) in zip(sums, terms)
    ]


def _math_fsum(weights, values, where) -> float:
    products = weights if values is None else weights * values
    return math.fsum((products if where is None else products[where]).tolist())


def _round(flat, high_sums, low_sums, columns: int) -> list[float | None]:
    """Each column's exactly rounded sum, None where ``math.fsum`` decides.

    ``flat`` holds column * 4096 + key for each key found in a block of
    rows, and ``high_sums`` and ``low_sums`` that key's sums of the high and
    the low digits of the scaled values there. Every scaled value of E >= 1
    is normal, so its high digit is nonzero: E = 0 holds only zeros, and
    E = 2047 nan, inf and every value of 2^960 or more, which the scaling
    took past the largest double. Below 2^960, fewer than 2^63 values cannot
    sum past 2^1023, so ``math.fsum`` would not overflow on the others.
    """
    column, key = np.divmod(flat, _KEYS)
    exponent = key & _EXPONENT_MASK
    kept = (exponent >= 1) & (exponent < _EXPONENT_MASK)
    decided = np.bincount(column[exponent == _EXPONENT_MASK], minlength=columns) > 0
    decided |= np.bincount(column[kept], minlength=columns) == 0
    column, key, exponent = column[kept], key[kept], exponent[kept]
    sign = np.where(key >= _EXPONENTS, -1.0, 1.0)
    # the two digit sums of each key at their bit positions in units of
    # 2^-1138, each split into 32-bit digits over three bins
    values = np.concatenate([high_sums[kept], low_sums[kept]])
    position = np.concatenate([exponent + 31, exponent - 1])
    column, sign = np.tile(column, 2), np.tile(sign, 2)
    shift = position & 31
    bottom = (values & _DIGIT) << shift
    top = (values >> 32) << shift
    index = column * _BINS + (position >> 5)
    length = columns * _BINS
    digits = np.bincount(index, sign * (bottom & _DIGIT), length)
    digits += np.bincount(index + 1, sign * ((bottom >> 32) + (top & _DIGIT)), length)
    digits += np.bincount(index + 2, sign * (top >> 32), length)
    # the float sums above stay far below 2^53, so they are exact; each
    # int64 bin is its low 32 bits plus its high part, biased by 2^31 into
    # one unsigned digit
    digits = digits.astype(np.int64).reshape(columns, _BINS)
    bottoms = (digits & _DIGIT).astype("<u4")
    tops = ((digits >> 32) + _HALF_DIGIT).astype("<u4")
    sums: list[float | None] = []
    for j in range(columns):
        total = (
            int.from_bytes(bottoms[j].tobytes(), "little")
            + (int.from_bytes(tops[j].tobytes(), "little") << 32)
            - _HIGH_BIAS
        )
        sums.append(None if decided[j] else total / _UNIT)
    return sums
