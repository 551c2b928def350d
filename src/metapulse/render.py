"""CSV rendering of output tables, every value exactly as ``'%.17e' % v``,
a chunk of rows at a time (``table_chunks``): the digits in double-double
arithmetic, written into a fixed-size slot per value, and the slots' NUL
padding stripped in one pass."""

import functools

import numpy as np

__all__ = ["CSV_CHUNK_ROWS", "table_chunks"]

#: rows rendered per numpy pass of ``table_chunks``; a pass's work arrays
#: peak at about 186 bytes per value (traced), 0.47 MB for 512 rows of 5
#: columns
CSV_CHUNK_ROWS = 512

#: bytes of one value's slot in :func:`_fill_slots`: sign, "d.dd", five
#: "ddd" groups, "e+dd" or "e+ddd" and the separator
_SLOT = 26


def table_chunks(header, columns):
    """A table's ASCII bytes, comma-separated %.17e, as a sequence of
    chunks: the header line, then ``CSV_CHUNK_ROWS`` rows at a time.

    Every value is written exactly as ``'%.17e' % v`` writes it, by
    :func:`_render_rows` in numpy. Only one chunk's rows are stacked and
    rendered at a time, so writing a table holds no more than that.
    """
    yield header.encode() + b"\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        yield _render_rows(np.column_stack([c[rows] for c in columns])
                           .astype(float, copy=False))


def _ascii_table(strings, dtype):
    """``strings`` as one NUL-padded ``dtype`` integer each."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(s.encode().ljust(size, b"\0")
                                  for s in strings), dtype)


@functools.cache
def _decimal_table():
    """Constants of :func:`_render_rows`, allocated on first use, not at
    import. The per-binade ones are filled in by :func:`_fill_binades` as
    the rendered values reach their binades: all 2098 took about 40 ms,
    and a run meets 42-95 of them.

    A finite v != 0 is M 2^(ex-53) with the integer M in [2^52, 2^53) and
    the frexp exponent ex in -1073..1024, row ex + 1073 of:

    * ``built``: whether the binade's row is filled in;
    * ``decade``: E, the decade of the binade's low end 2^(ex-1);
    * ``threshold``: the least M whose value reaches 10^(E+1), or 2^53
      when none in the binade does, so v's decade is E + (M >= threshold);
    * ``scale``, row 2 (ex + 1073) + d for the decade E + d: the
      double-double hi + lo of S = 2^(ex-53) 10^(17-E-d), hi the double
      nearest S, lo the one nearest S - hi, with hi split (Veltkamp) into
      its high 26 bits and the rest.

    Then the words :func:`_fill_slots` stores: the ASCII of "d.dd" and of
    "ddd" for 0..999 as u4 ("ddd" NUL-padded), and of "e-324".."e+308" as
    u8, NUL-padded.
    """
    n = 2098  # binades
    return (np.zeros(n, dtype=bool), np.empty(n, dtype=np.int64),
            np.empty(n), np.empty((2 * n, 3)),
            _ascii_table([f"{k // 100}.{k % 100:02d}" for k in range(1000)],
                         "<u4"),
            _ascii_table([f"{k:03d}" for k in range(1000)], "<u4"),
            _ascii_table([f"e{k:+03d}" for k in range(-324, 309)], "<u8"))


def _fill_binades(rows):
    """Fill in the ``_decimal_table`` rows ``rows`` (ex + 1073 each) from
    exact Python-int arithmetic, about 12 us a binade."""
    built, decade, threshold, scale = _decimal_table()[:4]
    for i in rows.tolist():
        ex = i - 1073
        # floor(log10(2^n)); for n < 0, 2^n = 5^-n / 10^-n
        n = ex - 1
        e = len(str(1 << n)) - 1 if n >= 0 else len(str(5**-n)) - 1 + n
        e2 = ex - 53
        decade[i] = e
        num = 10 ** max(e + 1, 0) << max(-e2, 0)
        den = 10 ** max(-e - 1, 0) << max(e2, 0)
        threshold[i] = min(-(-num // den), 1 << 53)
        for d in (0, 1):
            k = 17 - e - d
            num = 10 ** max(k, 0) << max(e2, 0)
            den = 10 ** max(-k, 0) << max(-e2, 0)
            hi = num / den  # int / int rounds to nearest
            hn, hd = hi.as_integer_ratio()
            lo = (num * hd - hn * den) / (den * hd)
            split = hi * 134217729.0  # Veltkamp: 2^27 + 1
            high = split - (split - hi)
            scale[2 * i + d] = high, hi - high, lo
        built[i] = True


def _render_rows(block):
    """The CSV rows of a 2-D float block as ASCII bytes, each value as
    ``'%.17e' % v``.

    The digits come from a table of scaled powers of ten, as in Ryu-printf
    (Adams 2019), in double-double arithmetic. v = M 2^(ex-53) in the
    decade E (see :func:`_decimal_table`) has the 18 digits D = round(R),
    R = M S in [10^17, 10^18). Dekker's TwoProduct, exact without FMA for
    M split at 2^27, gives M hi = p + e1 exactly, so R = p + t with
    t = e1 + M lo, and p is an even integer (ulp(p) >= 16).

    Error bound: t is within 2^-43 of R - p. S - hi - lo is at most
    2^-105 S, which M carries to at most 2^-45; rounding M lo (|M lo| <
    2^7) errs by at most 2^-47, and rounding e1 + M lo (|t| < 2^8) by at
    most 2^-45. So rint(t) gives D, rounded half-even, wherever t lies
    2^-30 or more from a half-integer.

    Ties: R = (odd part of M) 5^(17-E) 2^(tz+ex-36-E), tz the trailing
    zero bits of M, so R is a half-integer exactly when tz + ex - E = 35;
    M lo and t are then exact, and rint rounds the tie to even. Only the
    values within 2^-30 of a half-integer have tz counted. Those that are
    no tie, +-inf and nan are rendered by Python's ``'%.17e'`` one at a
    time. The table's rows for the binades of ``block`` that no earlier
    call met are filled in first.

    Each value gets a fixed ``_SLOT``-byte slot of one uint8 buffer (see
    :func:`_fill_slots`), and the NUL bytes of the short fields are
    stripped from the whole buffer in one ``bytes.replace``.
    """
    built, decade, threshold, scale = _decimal_table()[:4]
    values = block.ravel()
    finite = np.isfinite(values)
    mantissa, ex = np.frexp(np.where(finite, np.abs(values), 0.0))
    m = np.ldexp(mantissa, 53)
    i = ex + 1073
    if not built.take(i).all():
        _fill_binades(np.unique(i[~built[i]]))
    upper = m >= threshold.take(i)
    high, low, lo = scale.take(2 * i + upper, axis=0).T
    e = decade.take(i) + upper
    m_high = np.ldexp(np.rint(np.ldexp(m, -27)), 27)
    m_low = m - m_high
    p = m * (high + low)
    t = (((m_high * high - p) + m_high * low + m_low * high) + m_low * low
         + m * lo)
    t_int = np.rint(t)
    slow = ~finite
    # t - rint(t) is exact, and within 2^-30 of +-0.5 on a near tie
    near = np.flatnonzero(np.abs(t - t_int) > 0.5 - 2.0**-30)
    if near.size:
        m_int = m[near].astype(np.int64)
        tz = np.frexp((m_int & -m_int).astype(float))[1] - 1
        slow[near[tz + ex[near] - e[near] != 35]] = True
    digits = p.astype(np.int64) + t_int.astype(np.int64)
    # 9.99...95e(E) rounds up to 1.00...0e(E+1)
    carry = digits == 10**18
    digits[carry] = 10**17
    e += carry
    e[m == 0] = 0
    slots = _fill_slots(values, digits, e, block.shape[1])
    for j in np.flatnonzero(slow):
        text = b"%.17e" % values[j]
        slots[j, :-1] = 0
        slots[j, :len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().replace(b"\0", b"")


def _fill_slots(values, digits, e, n_cols):
    """The ``_SLOT``-byte slots of ``values``, one row each, from their 18
    digits and decimal exponents, as a uint8 array over one buffer.

    A slot holds, by byte offset: 0 the sign, "-" or NUL; 1 "d.dd"; 5, 8,
    11, 14 and 17 the five "ddd" groups; 20 "e+dd" or "e+ddd", NUL-padded
    to 5 bytes; 25 the separator, "," or a row's closing newline. Every
    field is stored as one little-endian word through a strided view at
    its offset, whatever its alignment: a "ddd" group as a u4 whose NUL
    fourth byte the next field overwrites, the exponent as a u8 whose last
    three bytes spill over the separator and the next slot's sign and
    "d.dd" (the last slot's into 2 bytes of tail padding). So the order of
    the stores is the layout's: the groups from offset 5 up, then the
    exponent, then sign, "d.dd" and separator. The positive sign and the
    5th byte of a 2-digit exponent stay NUL. ``digits`` is overwritten.
    """
    lead, ddd, exps = _decimal_table()[4:]
    n = len(values)
    buf = np.empty(n * _SLOT + 2, np.uint8)

    def words(offset, dtype):
        return np.ndarray(n, dtype, buf, offset, (_SLOT,))

    first = digits // 10**15
    digits -= first * 10**15
    for offset, unit in zip((5, 8, 11, 14), (10**12, 10**9, 10**6, 10**3)):
        group = digits // unit
        words(offset, "<u4")[...] = ddd.take(group)
        digits -= group * unit
    words(17, "<u4")[...] = ddd.take(digits)
    words(20, "<u8")[...] = exps.take(e + 324)
    slots = buf[:-2].reshape(n, _SLOT)
    slots[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    words(1, "<u4")[...] = lead.take(first)
    slots[:, -1] = ord(",")
    slots[n_cols - 1::n_cols, -1] = ord("\n")
    return slots
