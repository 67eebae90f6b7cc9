"""Market CSV files read into one tree and its values; ``cli`` documents the format.

The file is read once, as bytes. If it has no quote or NUL byte, no CR but in a
CRLF line end, is UTF-8, its non-blank lines have the header's field count and
fit in the csv module's field limit, no required field is blank, and numpy's
cast of bytes to float takes every value, numpy splits it: each id column is
numbered by first appearance from its fields' bytes, grouped by width so that a
field costs memory for its own length, and only distinct ids are decoded. Values
are cast a block (about 1 MiB of the file) at a time, so the reader holds the
file's bytes, the id cells and one block's values. Any other file goes through
``csv.reader``, which alone finds and reports the problems of the rows.
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
# bytes split and cast at a time, so that no array holds every delimiter or value
_BLOCK = 1 << 20


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
    crlf = data.find(b"\r", begin, size) >= 0
    if (any(data.find(c, begin, size) >= 0 for c in (b'"', b"\0")) or _utf8_error(data, begin, size)
            or crlf and data.count(b"\r", begin, size) != data.count(b"\r\n", begin, size)):
        return None
    arr = np.frombuffer(data, np.uint8)
    newline = _positions(arr, begin, size, b"\n")
    ends = newline if size == begin or data[size - 1] == ord("\n") else np.append(newline, size)
    starts = np.append(begin, newline[:len(ends) - 1] + 1)
    ends = ends - (arr[ends - 1] == ord("\r")) if crlf else ends  # a CRLF line ends before its CR
    if not len(ends) or starts[0] == ends[0] or np.max(ends - starts) > csv.field_size_limit():
        return None
    n_commas = data.count(b",", begin, ends[0])
    used = _column_indices(path, data[begin:ends[0]].decode().split(","))
    rows = np.flatnonzero(starts[1:] < ends[1:]) + 1  # the lines of the rows
    starts, ends = starts[rows], ends[rows]
    columns, values = [[] for _ in used], np.empty(len(rows))
    blocks = np.split(np.arange(len(rows), dtype=np.int32), np.searchsorted(starts, range(_BLOCK, size, _BLOCK)))
    for block in filter(len, blocks):
        commas = _positions(arr, starts[block[0]], ends[block[-1]], b",")
        if np.any(np.diff(np.searchsorted(commas, ends[block]), prepend=0) != n_commas):
            return None
        fields = np.column_stack([starts[block] - 1, commas.reshape(len(block), n_commas), ends[block]])
        if np.any(np.diff(fields, axis=1)[:, used] == 1):  # a blank field
            return None
        for column, c in zip(columns, used):
            column += _width_classes(arr, block, fields[:, c] + 1, fields[:, c + 1])
        try:
            for r, cells in columns[4]:
                values[r] = cells.view(f"S{cells.itemsize}").astype(float)
        except ValueError:  # no number, or one that only ``float`` reads, as in non-ASCII digits
            return None
        columns[4].clear()  # only the id columns' classes outlive their block
    del arr
    data.clear()
    tables, codes = zip(*(_numbered(column, len(rows)) for column in columns[:4]))
    return tables, codes, values, rows + 1, None


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
        cells = windows(arr, w)[start[part]].view(np.uint8).reshape(len(part), w)
        cells *= np.arange(w) < length[part, None]
        classes.append((rows[part], cells.view(np.uint64 if w == 8 else f"S{w}").ravel()))
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


def _read_rows(path, data) -> tuple:
    """The arguments of ``_markets`` for the file read row by row by ``csv.reader``."""
    size = len(data) - _PAD
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(memoryview(data)[:size]), encoding="utf-8-sig", newline=""))
    rows, values, lines, problem = [], [], [], None
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
            values.append(float(fields[4]))
            rows.append(fields)
            lines.append(reader.line_num)
    except UnicodeDecodeError:
        # a text stream decodes ahead in blocks, so its line count is not the error's
        line = data.count(b"\n", 0, _utf8_error(data, 0, size).start) + 1
        problem = f"{path}:{line}: not UTF-8 text"
    except ValueError:  # of ``float``; a UnicodeDecodeError, a ValueError too, is caught above
        problem = f"{path}:{reader.line_num}: value {fields[4]!r} is not a number"
    except IndexError:
        problem = f"{path}:{reader.line_num}: incomplete row"
    except csv.Error as err:
        problem = f"{path}:{reader.line_num}: {err}"
    tables, codes = zip(*map(numbered, list(zip(*rows))[:4] or [()] * 4))
    return tables, codes, np.array(values), lines, problem


def _markets(path, outside, tables, codes, values, lines, problem) -> tuple:
    """Check the rows of a file and build its ``(tree, values, outside)``: from
    the market, group, subgroup and product id ``tables``, each row's ``codes``
    and value, and the line each row ends on, of the rows read before a
    ``problem``, if one stopped reading."""
    market_ids, _, _, product_ids = tables
    market, _, _, product = codes
    repeat = first_repeat(market.astype(np.int64) * max(len(product_ids), 1) + product)
    # the rows read all come before the one that stopped reading
    if repeat < len(lines):
        what = f"market {market_ids[market[repeat]]!r} repeats product {product_ids[product[repeat]]!r}"
        raise MarketFileError(f"{path}:{lines[repeat]}: {what}")
    if problem or not len(lines):
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
