"""CSV rendering of output tables, every value exactly as ``'%.17e' % v``,
a chunk of values at a time (``table_chunks``): the digits in double-double
arithmetic, written into a fixed-size slot per value, 25 or 26 bytes, and
the slots' NUL padding stripped in one pass."""

import functools

import numpy as np

__all__ = ["CSV_CHUNK_VALUES", "table_chunks"]

#: values per numpy pass of ``table_chunks``, as ``max(1, CSV_CHUNK_VALUES
#: // k)`` rows of a k-column table; a pass's work arrays peak at about 87
#: bytes a value (traced), 0.51 MiB for 1228 rows of 5 columns
CSV_CHUNK_VALUES = 6144


def table_chunks(header, columns):
    """A table's ASCII bytes, comma-separated %.17e, as a sequence of
    chunks: the header line, then ``max(1, CSV_CHUNK_VALUES // k)`` rows
    of the k ``columns`` at a time.

    Every value is written exactly as ``'%.17e' % v`` writes it, by
    :func:`_render_rows` in numpy. Only one chunk's rows are stacked and
    rendered at a time, so writing a table holds no more than that.
    """
    yield header.encode() + b"\n"
    step = max(1, CSV_CHUNK_VALUES // len(columns))
    for start in range(0, len(columns[0]), step):
        rows = slice(start, start + step)
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
    * ``scale``, column 2 (ex + 1073) + d for the decade E + d: the
      double-double hi + lo of S = 2^(ex-53) 10^(17-E-d), hi the double
      nearest S, lo the one nearest S - hi, with hi split (Veltkamp) into
      its high 26 bits and the rest, stored as three contiguous rows.

    Then the words :func:`_fill_slots` stores: the ASCII of "d.dd" and of
    "ddd" for 0..999 as u4 ("ddd" NUL-padded), and of "e-324".."e+308" as
    u8, NUL-padded.
    """
    n = 2098  # binades
    return (np.zeros(n, dtype=bool), np.empty(n, dtype=np.int32),
            np.empty(n), np.empty((3, 2 * n)),
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
            scale[:, 2 * i + d] = high, hi - high, lo
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

    Ties: every value whose t lies within 2^-30 of a half-integer, exact
    ties included, is rendered by Python's ``'%.17e'`` one at a time, as
    are +-inf and nan; Python rounds an exact tie half-even. The table's
    rows for the binades of ``block`` that no earlier call met are filled
    in first.

    The work arrays are written in place and dropped once read. Each value
    gets a 25-byte slot (:func:`_fill_slots`), 26 if a decade has 3 digits.
    """
    built, decade, threshold, (high, low, lo) = _decimal_table()[:4]
    values = block.ravel()
    slow = ~np.isfinite(values)
    m, i = np.frexp(np.where(slow, 0.0, np.abs(values)))
    np.ldexp(m, 53, out=m)
    i += 1073
    if not built.take(i).all():
        _fill_binades(np.unique(i[~built[i]]))
    upper = m >= threshold.take(i)
    e = decade.take(i) + upper
    row = 2 * i + upper
    h, l = high.take(row), low.take(row)
    p = np.multiply(m, h + l)
    m_high = np.ldexp(np.rint(np.ldexp(m, -27)), 27)
    m_low = m - m_high
    # t = (((m_high h - p) + m_high l + m_low h) + m_low l) + m lo
    t = m_high * h
    t -= p
    t += np.multiply(m_high, l, out=m_high)
    t += np.multiply(m_low, h, out=h)
    t += np.multiply(m_low, l, out=l)
    # a take into out= is buffered unless its mode is clip or wrap
    t += np.multiply(m, lo.take(row, out=h, mode="clip"), out=h)
    del h, l, m_high, m_low
    t_int = np.rint(t)
    # t - rint(t) is exact, and within 2^-30 of +-0.5 on a near tie
    slow[np.abs(t - t_int) > 0.5 - 2.0**-30] = True
    digits = p.astype(np.int64) + t_int.astype(np.int64)
    # 9.99...95e(E) rounds up to 1.00...0e(E+1)
    carry = digits == 10**18
    digits[carry] = 10**17
    e += carry
    e[m == 0] = 0
    width = 26 if max(e.max(), -e.min()) >= 100 else 25
    del m, i, row, upper, p, t, t_int, carry
    return _fill_slots(values, digits, e, slow, block.shape[1], width)


def _fill_slots(values, digits, e, slow, n_cols, width):
    """The CSV bytes of ``values`` in rows of ``n_cols``: a ``width``-byte
    slot each, filled from its 18 digits (overwritten) and its decimal
    exponent, or for the ``slow`` ones from Python's ``'%.17e'``, and the
    slots' NUL padding stripped by one ``bytearray.replace``.

    A slot holds, by byte offset: 0 the sign, "-" or NUL; 1 "d.dd"; 5, 8,
    11, 14 and 17 the five "ddd" groups; 20 the exponent, "e+dd", or in a
    26-byte slot "e+dd" or "e+ddd" NUL-padded to 5 bytes; ``width - 1``
    the separator, "," or a row's newline. Every field is stored as one
    little-endian word through a strided view at its offset: a "ddd" group
    as a u4 whose NUL fourth byte the next field overwrites, the exponent
    as a u8 whose NUL tail spills over the separator and the next slot's
    sign and "d.dd" (the last slot's into 3 bytes of tail). So the stores
    go in the layout's order: the groups from offset 5 up, the exponent,
    then sign, "d.dd" and separator.
    """
    lead, ddd, exps = _decimal_table()[4:]
    n = len(values)
    buf = bytearray(n * width + 3)

    def words(offset, dtype):
        return np.ndarray(n, dtype, buf, offset, (width,))

    group = digits // 10**15
    first = lead.take(group)
    for offset in range(5, 20, 3):  # digits 10^(19-offset)..10^(17-offset)
        digits -= np.multiply(group, 10 ** (20 - offset), out=group)
        words(offset, "<u4")[...] = ddd.take(
            np.floor_divide(digits, 10 ** (17 - offset), out=group))
    words(20, "<u8")[...] = exps.take(e + 324)
    words(0, "u1")[...] = np.signbit(values) * np.uint8(ord("-"))
    words(1, "<u4")[...] = first
    separator = words(width - 1, "u1")
    separator[...] = ord(",")
    separator[n_cols - 1::n_cols] = ord("\n")
    slots = np.ndarray((n, width), np.uint8, buf)
    for j in np.flatnonzero(slow):
        text = b"%.17e" % values[j]
        slots[j, :-1] = 0
        slots[j, :len(text)] = np.frombuffer(text, np.uint8)
    return buf.replace(b"\0", b"")
