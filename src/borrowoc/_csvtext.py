"""Exact ``repr`` text of CSV row blocks, in a few NumPy passes.

:func:`csv_rows` writes int64/float64 columns as CSV lines, byte for byte
``",".join(map(repr, row))``.  Floats that ``repr`` prints in fixed notation
(1e-4 <= |x| < 1e16) take the common case of Ryu (Adams 2018, PLDI), with
exact 32-bit-limb products for its bounds; every other entry (zero, nan,
inf, exponent notation, integral values and Ryu's general case, where a
bound is exact) goes through ``repr()`` itself.
"""

from __future__ import annotations

import numpy as np

# biased exponents of 1e-4 <= |x| < 1e16 (2**-14 .. 2**53); per exponent,
# Ryu's q = floor(log10 5**-e2) - 1, 5**(-e2 - q) and e10 = q + e2, where
# e2 = e - 1077 is the exponent of the bounds' 4 * significand
_EXP_LO, _EXP_HI = 1009, 1076
_E2 = range(_EXP_LO - 1077, _EXP_HI - 1076)
_Q = [len(str(5 ** -e2)) - 1 - (e2 < -1) for e2 in _E2]
_P = np.array([5 ** (-e2 - q) for e2, q in zip(_E2, _Q)], np.uint64)
_Q, _E10 = np.array(_Q, np.uint64), np.add(_Q, _E2)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
_QUADS = np.stack([_PAIRS.repeat(100), np.tile(_PAIRS, 100)],
                  axis=1).view(np.uint32).ravel()       # "0000" .. "9999"
# _KEEP[t] is 0xFF from column t on: an AND mask over 24 digit columns
_KEEP = (np.arange(24) >= np.arange(25)[:, None]).astype(np.uint8) * 0xFF
_FLOAT_WIDTH = 27   # sign, 24 digit columns with "." among them, "0" of x.0
_INT_WIDTH = 20


def _digits(v, quads: int):
    """ASCII digits of uint64 ``v``, zero-padded to ``4 * quads`` columns."""
    out = np.empty((len(v), quads), np.uint32)
    for k in range(quads - 1, -1, -1):
        hi = v // 10000
        out[:, k] = np.take(_QUADS, v - hi * 10000)
        v = hi
    return out.view(np.uint8)


def _repr_rows(col, width: int):
    """``repr`` of each entry as a row of ``width`` NUL-padded bytes."""
    text = b"".join(repr(v).encode().ljust(width, b"\0")
                    for v in col.tolist())
    return np.frombuffer(text, np.uint8).reshape(len(col), width)


def _float_fields(x):
    """``repr`` of every float64 entry, one NUL-padded row per entry."""
    bits = x.view(np.uint64)
    e = (bits >> 52) & 0x7FF
    table = np.clip(e, _EXP_LO, _EXP_HI) - _EXP_LO
    p, q = np.take(_P, table), np.take(_Q, table)
    frac = bits & ((1 << 52) - 1)
    mv = (frac | (1 << 52)) << 2
    # vr = floor(mv * p / 2**q) from 32-bit limbs (mv < 2**56, p < 2**52)
    m_lo, m_hi, p_lo, p_hi = mv & 0xFFFFFFFF, mv >> 32, p & 0xFFFFFFFF, p >> 32
    lo = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    t = (lo >> 32) + (mid & 0xFFFFFFFF)
    low = (lo & 0xFFFFFFFF) | (t << 32)
    vr = ((m_hi * p_hi + (mid >> 32) + (t >> 32)) << (64 - q)) | (low >> q)
    # the bounds, floors of (mv + 2) * p and (mv - 1 or 2) * p over 2**q,
    # are vr + floor((rest + d * p) / 2**q), rest the product's low q bits
    rest = (low & ((np.uint64(1) << q) - 1)).view(np.int64)
    shift = q.view(np.int64)
    below = (p << (frac != 0).astype(np.uint64)).view(np.int64)
    vp = vr + ((rest + (p << 1).view(np.int64)) >> shift).view(np.uint64)
    vm = vr + ((rest - below) >> shift).view(np.uint64)
    # a zero remainder is Ryu's general case; so is q <= 2 (|x| >= 2**49)
    fast = (e >= _EXP_LO) & (e <= _EXP_HI) & (rest != 0)
    removed = np.zeros(len(x), np.intp)     # digits the bounds leave free
    up, down = vp, vm
    while True:
        up, down = up // 10, down // 10
        more = up > down
        if not more.any():
            break
        removed += more
    head = vr // np.take(_POW10, np.maximum(removed - 1, 0))
    digits = head // 10
    digits += (digits == vm // np.take(_POW10, removed)) | (head % 10 >= 5)
    ndigits = np.searchsorted(_POW10, digits, side="right")
    # x = 0.DIGITS * 10**decpt, fixed notation for -4 < decpt <= 16 (the
    # upper end holds for |x| < 2**49); past the last digit repr pads zeros
    decpt = np.take(_E10, table) + removed + ndigits
    fast &= (removed > 0) & (decpt > -4) & (decpt <= ndigits)
    # DIGITS end in the last of 24 columns; the integer part ends at column
    # ``point``, and the fraction follows it one column to the right
    point = np.where(fast, 24 - ndigits + decpt, 24)
    start = np.where(fast, point - np.maximum(decpt, 1), 23)
    d = _digits(digits, 6)
    after = np.take(_KEEP, point, axis=0)
    out = np.zeros((len(x), _FLOAT_WIDTH), np.uint8)
    out[:, 0] = np.where(bits >> 63, ord("-"), 0)
    out[:, 1:25] = d & (np.take(_KEEP, start, axis=0) ^ after)
    out[:, 2:26] |= d & after
    out[np.arange(len(x)), point + 1] = ord(".")
    out[:, 26] = np.where(point == 24, ord("0"), 0)
    if not fast.all():
        out[~fast] = _repr_rows(x[~fast], _FLOAT_WIDTH)
    return out


def _int_fields(v):
    """``repr`` of every int64 entry, one NUL-padded row per entry."""
    if (v < 0).any():
        return _repr_rows(v, _INT_WIDTH)
    v = v.astype(np.uint64)
    start = 24 - np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
    return _digits(v, 5) & _KEEP[start, 4:]


def csv_rows(cols) -> bytes:
    """CSV lines of equal-length columns; a column of bit-identical entries
    is one unpadded ``repr``, and the other float columns one kernel call."""
    fields = []
    for col in cols:
        bits = col.view(np.uint64)
        if np.all(bits == bits[0]):
            fields.append(np.frombuffer(repr(col[0].item()).encode(),
                                        np.uint8)[None])
        else:
            fields.append(_int_fields(col) if col.dtype.kind == "i" else col)
    floats = [f for f in fields if f.ndim == 1]
    if floats:
        texts = iter(_float_fields(np.concatenate(floats)).reshape(
            len(floats), len(floats[0]), _FLOAT_WIDTH))
        fields = [next(texts) if f.ndim == 1 else f for f in fields]
    m = np.full((len(cols[0]), sum(f.shape[1] + 1 for f in fields)),
                ord(","), np.uint8)
    at = 0
    for f in fields:
        m[:, at:at + f.shape[1]] = f
        at += f.shape[1] + 1
    m[:, -1] = ord("\n")
    return m.tobytes().translate(None, b"\0")
