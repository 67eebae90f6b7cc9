"""Market CSV files read into one tree and its values; ``cli`` documents the format.

The file is read once, as bytes. If it has no quote, CR or NUL byte, is
UTF-8, and its non-blank lines have the header's field count and fit in the
csv module's field limit, numpy splits it: each id column is numbered by
first appearance from its fields' bytes, grouped by width so that a field
costs memory for its own length, and only distinct ids are decoded. Any
other file goes through ``csv.reader`` on a text stream of the bytes.
"""

import codecs
import csv
import io
import operator
import os

import numpy as np

from .csvout import windows
from .errors import MarketFileError
from .hierarchy import MARKET_COLUMNS, OUTSIDE_ID, first_repeat, numbered, tree_from_codes

# zero bytes after the file: a field's window, its length rounded up to 8, ends inside them
_PAD = 8
# bytes split at a time, so that no array holds every delimiter
_BLOCK = 1 << 20
# _MASKS[k] keeps the first k bytes of a uint64 word
_MASKS = np.where(np.arange(8) < np.arange(9)[:, None], 255, 0).astype(np.uint8).view(np.uint64).ravel()


def read_market_csv(path, outside=False) -> tuple:
    """Parse a market CSV into ``(tree, values, outside)``: one tree of every
    market, its products' values matched by id in any row order, and each
    market's ``_outside`` value, which ``outside`` requires of every market
    (without it no market may have one, and ``outside`` is None). Raises
    MarketFileError on unreadable or non-UTF-8 files, missing columns,
    incomplete rows, unparsable values, repeated products, an empty market or
    a missing or unexpected ``_outside`` row; of the problems of the rows, the earliest."""
    try:
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size + _PAD)
            size = fh.readinto(memoryview(data)[:-_PAD])
            data[size:] = fh.read() + bytes(_PAD)  # a stream, or a file that grew
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    return _markets(path, outside, *(_split(path, data) or _read_rows(path, data)))


def _split(path, data):
    """The arguments of ``_markets`` for a file numpy can split, else None.
    ``data`` is emptied, as its bytes are no longer needed."""
    size, begin = len(data) - _PAD, 3 if data.startswith(codecs.BOM_UTF8) else 0
    if any(data.find(c, begin, size) >= 0 for c in (b'"', b"\r", b"\0")) or _utf8_error(data, begin, size):
        return None
    arr = np.frombuffer(data, np.uint8)
    newline = _positions(arr, begin, size, b"\n")
    ends = newline if size == begin or data[size - 1] == ord("\n") else np.append(newline, size)
    starts = np.append(begin, newline[:len(ends) - 1] + 1)
    if not len(ends) or starts[0] == ends[0] or np.max(ends - starts) > csv.field_size_limit():
        return None
    n_commas = data.count(b",", begin, ends[0])
    used = _column_indices(path, data[begin:ends[0]].decode().split(","))
    rows = np.flatnonzero(starts[1:] < ends[1:]) + 1  # the lines of the rows
    starts, ends = starts[rows], ends[rows]
    columns, empty = [[] for _ in used], [[len(rows)]]
    blocks = np.split(np.arange(len(rows), dtype=np.int32), np.searchsorted(starts, range(_BLOCK, size, _BLOCK)))
    for block in filter(len, blocks):
        commas = _positions(arr, starts[block[0]], ends[block[-1]], b",")
        if np.any(np.diff(np.searchsorted(commas, ends[block]), prepend=0) != n_commas):
            return None
        fields = np.column_stack([starts[block] - 1, commas.reshape(len(block), n_commas), ends[block]])
        for column, c in zip(columns, used):
            column += _width_classes(arr, block, fields[:, c] + 1, fields[:, c + 1])
        empty.append(block[(fields[:, [c + 1 for c in used]] == fields[:, used] + 1).any(axis=1)][:1])
    del arr
    data.clear()
    n_read = int(np.concatenate(empty).min())
    problem = f"{path}:{rows[n_read] + 1}: incomplete row" if n_read < len(rows) else None
    tables, codes = zip(*(_numbered(column, len(rows)) for column in columns[:4]))
    return (tables, codes, *_parsed(columns[4], len(rows)), rows + 1, n_read, problem)


def _column_indices(path, header) -> list:
    missing = [c for c in MARKET_COLUMNS if c not in header]
    if missing:
        raise MarketFileError(f"{path}: missing columns: {', '.join(missing)}")
    repeated = [c for c in MARKET_COLUMNS if header.count(c) > 1]
    if repeated:
        raise MarketFileError(f"{path}: column {repeated[0]!r} appears more than once")
    return [header.index(c) for c in MARKET_COLUMNS]


def _utf8_error(data, begin, size):
    try:
        data.isascii() or codecs.utf_8_decode(memoryview(data)[begin:size], None, True)
    except UnicodeDecodeError as err:
        return err


def _positions(arr, begin, end, byte) -> np.ndarray:
    """Offsets of ``byte`` in ``arr[begin:end]``, searched a block at a time."""
    dtype = np.int32 if end < 2**31 else np.int64
    found = [np.flatnonzero(arr[at:min(at + _BLOCK, end)] == byte[0]).astype(dtype) + at
             for at in range(begin, end, _BLOCK)]
    return np.concatenate(found) if found else np.empty(0, dtype)


def _width_classes(arr, rows, start, stop) -> list:
    """``(rows, cells)`` for each width of the fields ``arr[start:stop]``,
    rounded up to 8 bytes: each field zero-padded to the width, as one uint64
    or ``S`` item. Fields hold no NUL, so padding keeps them distinct."""
    length = stop - start
    width = np.maximum(-(-length // 8) * 8, 8)
    order = np.argsort(width, kind="stable")
    classes = []
    for part in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        w = int(width[part[0]])
        cells = windows(arr, w)[start[part]].view(np.uint64).reshape(len(part), w // 8)
        cells &= _MASKS[np.clip(length[part, None] - np.arange(0, w, 8), 0, 8)]
        classes.append((rows[part], cells.ravel() if w == 8 else cells.view(f"S{w}").ravel()))
    return classes


def _numbered(classes, n) -> tuple:
    """The distinct fields of the ``_width_classes`` of ``n`` rows by first
    appearance, decoded, and each row's field's position among them."""
    merged = {}
    for rows, cells in classes:
        merged.setdefault(cells.dtype, []).append((rows, cells))
    keys, ids, firsts = np.empty(n, np.intp), [], []
    for rows, cells in (map(np.concatenate, zip(*parts)) for parts in merged.values()):
        distinct, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
        keys[rows] = inverse.ravel() + len(ids)
        # each field's bytes, then a newline, which no field holds
        chars = np.column_stack([distinct.view(np.uint8).reshape(len(distinct), -1),
                                 np.full(len(distinct), ord("\n"), np.uint8)])
        ids += chars[chars != 0].tobytes().decode().split("\n")[:-1]
        firsts.append(rows[first])
    rank = np.argsort(np.concatenate(firsts or [[]]))
    code = np.empty(len(rank), np.intp)
    code[rank] = np.arange(len(rank))
    return np.fromiter(ids, object, len(ids))[rank].tolist(), code[keys]


def _parsed(classes, n) -> tuple:
    """``float`` of the fields of the ``_width_classes`` of ``n`` rows, the first
    row that is no number (``n`` if none) and its text; ``float`` reads the
    text of a class where numpy's cast of bytes fails, as on non-ASCII digits."""
    values, bad, text = np.empty(n), n, None
    for rows, cells in classes:
        try:
            values[rows] = cells.view(f"S{cells.itemsize}").astype(float)
        except ValueError:
            texts = [t.decode() for t in cells.view(f"S{cells.itemsize}").tolist()]
            values[rows], first = _floats(texts)
            if first < len(rows) and rows[first] < bad:
                bad, text = int(rows[first]), texts[first]
    return values, bad, text


def _floats(texts) -> tuple:
    """``float`` of each text and the first that is no number (``len(texts)`` if none)."""
    try:
        return np.array(texts, dtype=float), len(texts)
    except ValueError:
        for i, text in enumerate(texts):
            try:
                float(text)
            except ValueError:
                return np.nan, i


def _read_rows(path, data) -> tuple:
    """The arguments of ``_markets`` for the file read row by row by ``csv.reader``."""
    size = len(data) - _PAD
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(memoryview(data)[:size]), encoding="utf-8-sig", newline=""))
    rows, lines, problem = [], [], None
    try:
        header = next(reader, None)
        if header is None:
            raise MarketFileError(f"{path}: empty file")
        pick = operator.itemgetter(*_column_indices(path, header))
        # blank lines are skipped; a short row raises IndexError, and so
        # does a row with an empty field: both end reading as incomplete
        for row in filter(None, reader):
            fields = pick(row)
            if "" in fields:
                raise IndexError
            rows.append(fields)
            lines.append(reader.line_num)
    except UnicodeDecodeError:
        # a text stream decodes ahead in blocks, so its line count is not the error's
        line = data.count(b"\n", 0, _utf8_error(data, 0, size).start) + 1
        problem = f"{path}:{line}: not UTF-8 text"
    except IndexError:
        problem = f"{path}:{reader.line_num}: incomplete row"
    except csv.Error as err:
        problem = f"{path}:{reader.line_num}: {err}"
    columns = list(zip(*rows)) or [()] * len(MARKET_COLUMNS)
    tables, codes = zip(*map(numbered, columns[:4]))
    values, bad = _floats(columns[4])
    return tables, codes, values, bad, columns[4][bad] if bad < len(rows) else None, lines, len(rows), problem


def _markets(path, outside, tables, codes, values, bad, text, lines, n_read, problem) -> tuple:
    """Check the rows of a file and build its ``(tree, values, outside)``: from
    the market, group, subgroup and product id ``tables``, each row's ``codes``
    and value, the first row that is no number and its ``text``, the line each
    row ends on, and the ``n_read`` rows before a ``problem`` stopped reading."""
    market_ids, _, _, product_ids = tables
    market, _, _, product = codes
    repeat = first_repeat(market.astype(np.int64) * max(len(product_ids), 1) + product)
    # the rows read all come before the one that stopped reading
    if min(bad, repeat) < n_read:
        what = (f"value {text!r} is not a number" if bad <= repeat
                else f"market {market_ids[market[repeat]]!r} repeats product {product_ids[product[repeat]]!r}")
        raise MarketFileError(f"{path}:{lines[min(bad, repeat)]}: {what}")
    if problem or not n_read:
        raise MarketFileError(problem or f"{path}: no data rows")
    is_outside = product == (product_ids.index(OUTSIDE_ID) if OUTSIDE_ID in product_ids else -1)
    for m in np.flatnonzero(np.bincount(market[~is_outside], minlength=len(market_ids)) == 0)[:1]:
        raise MarketFileError(f"{path}: market {market_ids[m]!r}: cannot build a hierarchy from zero rows")
    outside_row = np.full(len(market_ids), -1)
    outside_row[market[is_outside]] = np.flatnonzero(is_outside)
    for m in np.flatnonzero((outside_row >= 0) != outside)[:1]:
        what = "no" if outside else "an unexpected"
        raise MarketFileError(f"{path}: market {market_ids[m]!r} has {what} {OUTSIDE_ID} row")
    inside = np.flatnonzero(~is_outside) if outside else slice(None)
    tree, order = tree_from_codes(tables, [c[inside] for c in codes])
    return tree, values[inside][order], values[outside_row] if outside else None
