"""CSV rows as UTF-8 bytes, formatted in numpy.

Each block of rows is cut into chunks of ``_CHUNK_ROWS`` rows, and each
chunk becomes one uint8 matrix of every cell's bytes in padded slots, with
a mask of the slots written; the masked bytes are the rows. A table of ids
keeps their bytes end to end, and a chunk pads its cells only to the
widest in it; a float table, one value per segment, is formatted once, in
the calling thread. A write formats its chunks in order on one thread per
CPU of the affinity mask, on the standard library's thread pool; a write
of one chunk starts no thread. The chunks in flight share
``_CHUNK_BYTES`` of padded cells, a chunk over its share being halved, and
the bytes do not depend on the CPU count. Each thread also holds the rest
of its chunk's working set, and the allocator keeps an arena per thread:
on two CPUs the traced peak of a write is a few MB above that on one, by
how the chunks overlap in time, and the resident peak grows with the CPU
count.
Reals are exactly ``format(x, ".17g")``: their 17 digits come from a
double-double product with a power of ten, and Python formats the cells
that product cannot prove (inf, nonzero |x| outside ``_FAST_RANGE``, and
fractions within ``_TIE_BAND`` of a rounding tie).
"""

import functools
import itertools
import os
from collections import deque

import numpy as np

# rows formatted at once, on one thread per CPU: formatting an N=100k market
# or an N=1000 Jacobian at once would hold hundreds of bytes for every row in
# memory. The chunks in flight share _CHUNK_BYTES of padded cells, and a chunk
# over its share (one long id in it) is halved; a share is at most half, 2 MB,
# as on one CPU a larger chunk costs memory and gains no speed
_CHUNK_ROWS, _CHUNK_BYTES = 16384, 1 << 22


def write_csv(out, header, blocks) -> None:
    """Write CSV rows as UTF-8 to the binary stream ``out``.

    ``blocks`` yields lists of equally long columns: a float array, or an
    integer one below 2**53, as ``format(x, ".17g")`` (NaN as an empty
    cell), and ``(table, codes)`` as ``table[codes[i]]`` on row i, ``table``
    being a float array or a sequence of str; strs are quoted by the csv
    module's rules, a carriage return included. Each block's tables are
    flattened in the calling thread, its rows formatted in chunks of
    ``_CHUNK_ROWS`` rows on one thread per CPU, at most one chunk a thread
    in flight, and the chunks written in order; a write of one chunk starts
    no thread. When ``blocks`` raises, the rows of the blocks before are
    written first; the threads are joined on every exit.
    """
    out.write((",".join(header) + "\n").encode())
    # the CPUs this process may run on: its affinity mask, else the CPU count
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    calls = _chunks(blocks, _CHUNK_BYTES // max(2, workers))
    head = list(itertools.islice(calls, 2 if workers > 1 else 0))
    calls = itertools.chain(head, calls)
    if len(head) < 2:
        for call in calls:
            for part in call():
                out.write(part)
        return
    # imported here, as it loads logging: a write of one chunk runs without it
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as executor:
        ahead = deque(executor.submit(call) for call in itertools.islice(calls, workers))
        while ahead:
            parts = ahead.popleft().result()
            ahead.extend(executor.submit(call) for call in itertools.islice(calls, 1))
            for part in parts:
                out.write(part)


def _raise(err):
    raise err


def _chunks(blocks, limit):
    """A call of ``_formatted`` on each chunk of ``blocks``, in file order,
    each table flattened by ``_flat``; then, if ``blocks`` raised, a call
    that raises its error."""
    try:
        for columns in blocks:
            columns = [(*_flat(c[0]), c[1]) if isinstance(c, tuple) else c for c in columns]
            n_rows = len(columns[0][-1] if isinstance(columns[0], tuple) else columns[0])
            for start in range(0, n_rows, _CHUNK_ROWS):
                yield functools.partial(_formatted, columns, slice(start, min(start + _CHUNK_ROWS, n_rows)), limit)
    except Exception as err:
        yield functools.partial(_raise, err)


def _formatted(columns, rows, limit) -> list:
    """The bytes of ``rows`` of ``columns``, in halves while their cells, each
    as wide as the widest of its column, hold more than ``limit`` bytes."""
    spans = [(c[1][c[3][rows]], c[2][c[3][rows]]) if isinstance(c, tuple) else None for c in columns]
    widths = [52 if span is None else max(1, int(span[1].max())) for span in spans]
    n = rows.stop - rows.start
    if n > 1 and n * (sum(widths) + len(widths)) > limit:
        half = rows.start + n // 2
        return _formatted(columns, slice(rows.start, half), limit) + _formatted(columns, slice(half, rows.stop), limit)
    # each cell as padded slots of a uint8 matrix and a mask of the slots written
    cells = [_float_slots(c[rows].astype(float)) if span is None
             else (windows(c[0], w)[span[0]].view(np.uint8).reshape(n, w), np.arange(w) < span[1][:, None])
             for c, span, w in zip(columns, spans, widths)]
    # side by side, each cell followed by a comma, the last by a line end
    ends = np.cumsum([w + 1 for w in widths])
    chars, keep = np.empty((n, ends[-1]), np.uint8), np.empty((n, ends[-1]), bool)
    chars[:, ends - 1], keep[:, ends - 1] = ord(","), True
    chars[:, -1] = ord("\n")
    for (c, k), end, w in zip(cells, ends.tolist(), widths):
        for whole, part in ((chars, c), (keep, k)):
            # each row's slots as one item: a copy moves each run at once
            np.ndarray((n,), f"V{w}", whole, end - 1 - w, whole.strides[:1])[...] = part.view(f"V{w}")[:, 0]
    return [chars[keep]]


def _flat(table) -> tuple:
    """``(flat, start, length)`` of a float array, formatted in the calling
    thread ``_CHUNK_ROWS`` cells at a time, or of a sequence of str quoted by
    the csv module's rules: entry i is ``flat[start[i]:][:length[i]]``, and
    zeros after the last leave room for a window of the longest."""
    if isinstance(table, np.ndarray):
        pieces = (_packed(table[i:i + _CHUNK_ROWS]) for i in range(0, len(table), _CHUNK_ROWS))
        flat, length = map(np.concatenate, zip(*pieces))
    else:
        text = "".join(table)
        if any(c in text for c in ',"\r\n'):
            # quoted, its quotes doubled, where it holds a comma, a quote or a line end,
            # a carriage return included, which readers take for one
            table = ['"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f for f in table]
            text = "".join(table)
        flat = text.encode()
        sizes = map(len, table) if flat.isascii() else (len(field.encode()) for field in table)
        flat, length = np.frombuffer(flat, np.uint8), np.fromiter(sizes, np.intp, len(table))
    start = np.cumsum(length) - length
    return np.concatenate([flat, np.zeros(max(1, length.max()), np.uint8)]), start, length


def windows(flat, width) -> np.ndarray:
    """Item i is ``flat[i:i + width]`` of the uint8 array ``flat``: a gather copies each run at once."""
    return np.ndarray((len(flat) - width + 1,), f"V{width}", flat, strides=(1,))


# |x| range in which _float_slots derives the 17 digits itself: 10**(16 - E)
# and the Veltkamp splits of it and of x stay normal and finite
_FAST_RANGE = (1e-280, 1e280)
# x * 10**(16 - E) < 1e17 is computed within about 1e-14; a fraction within
# this wide margin of 1/2 may round the other way, and Python formats it
_TIE_BAND = 1e-9


def _packed(values) -> tuple:
    """The bytes of the cells of ``values`` end to end, and the length of each."""
    chars, keep = _float_slots(values)
    return chars[keep], keep.sum(axis=1)


def _float_slots(values) -> tuple:
    """``(chars, keep)``: 52 slots a cell, and the mask of those that make
    ``format(x, ".17g")``, or nothing for NaN."""
    a = np.abs(values)
    nan = np.isnan(values)
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    zero = a == 0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, e)
    # log10 may put the exponent one off near a power of ten
    shift = (d >= 10**17).astype(np.int64) - (d < 10**16)
    redo = np.flatnonzero(shift)
    e[redo] += shift[redo]
    d[redo], frac[redo] = _scaled(a[redo], e[redo])
    d += frac > 0.5
    slow = np.flatnonzero(~(fast | nan | zero) | (np.abs(frac - 0.5) < _TIE_BAND) | (d < 10**16) | (d >= 10**17))
    d[slow], e[slow] = 10**16, 0
    # 13 words a cell: the 17 digits as 20 (the sign in the third slot), "0."
    # (fixed notation below 1), the 20 digits again, "e" and the exponent's
    # sign, and the exponent as 4 digits; the mask picks one notation's bytes
    words = np.empty((len(a), 13), np.uint32)
    words[:, 0:5] = words[:, 6:11] = _quad_table()[np.stack([d // 10**k % 10000 for k in (16, 12, 8, 4, 0)], 1)]
    words[:, 5], *signs = np.frombuffer(b"0.  e+  e-  ", np.uint32)
    words[:, 11] = np.where(e < 0, *signs[::-1])
    words[:, 12] = _quad_table()[np.abs(e)]
    chars = words.view(np.uint8)
    chars[:, 2] = ord("-")
    chars[zero, 3] = ord("0")  # over the first of 1.0's digits, which a zero takes
    n_significant = 17 - np.argmax(chars[:, 43:26:-1] != ord("0"), axis=1)
    layout = np.where((e >= -4) & (e < 17), e + 4, 21 + (np.abs(e) >= 100))
    keep = _float_masks()[(layout * 17 + n_significant - 1) * 2 + np.signbit(values)].view(bool).reshape(len(a), 52)
    keep[nan] = False
    for i in slow.tolist():
        text = format(values[i].item(), ".17g").encode()
        chars[i, :len(text)], keep[i] = np.frombuffer(text, np.uint8), np.arange(52) < len(text)
    return chars, keep


def _scaled(a, e) -> tuple:
    """``floor(a * 10**(16 - e))`` as int64 and the fraction left: Dekker's two-product
    of ``a`` and the leading double of the power, plus ``a`` times its trailing double."""
    k = 16 - e
    k0 = int(k.min(initial=0))
    high, low = np.array([_pow10(j) for j in range(k0, int(k.max(initial=0)) + 1)])[k - k0].T
    p = a * high
    (ah, al), (bh, bl) = _split(a), _split(high)
    whole = np.floor(p)
    rest = (p - whole) + ((((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * low)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _split(a) -> tuple:
    """Veltkamp's split of ``a`` into two halves of 26 bits."""
    high = a * 134217729.0  # 2**27 + 1
    high -= high - a
    return high, a - high


@functools.lru_cache(maxsize=None)  # at most the ~570 exponents of _FAST_RANGE
def _pow10(k) -> tuple:
    """10**k as the sum of two doubles, each correctly rounded from integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    a, b = (num / den).as_integer_ratio()
    return num / den, (num * b - a * den) / (den * b)


@functools.cache
def _quad_table() -> np.ndarray:
    """The 4 ASCII digits of 0 to 9999, each as one 4-byte word."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _float_masks() -> np.ndarray:
    """The slots of a float cell written, one 52-byte item per layout (fixed
    notation at exponents -4 to 16, exponent notation with 2 and with 3
    exponent digits), count of significant digits and sign."""
    layout, n_significant, negative = (c.ravel() for c in np.indices((23, 17, 2)))
    fixed, n_significant = layout < 21, n_significant[:, None] + 1
    # the last digit before the point; below 0 in fixed notation below 1
    point = np.where(fixed, layout - 4, 0)[:, None]
    digit = np.arange(17)
    keep = np.zeros((len(layout), 52), bool)
    keep[:, 2] = negative
    keep[:, 3:20] = digit <= point
    keep[:, 20] = layout < 4
    keep[:, 21:22] = n_significant > point + 1
    keep[:, 24:27] = np.arange(3) < -1 - point
    keep[:, 27:44] = (point < digit) & (digit < n_significant)
    keep[:, [44, 45, 50, 51]] = ~fixed[:, None]
    keep[:, 49] = layout == 22
    return keep.view("V52").ravel()
