"""Dataset parsing, preprocessing, and matrix persistence.

Reads the two MovieLens rating-file layouts, applies the minimum-ratings
user filter with dense index compaction, and round-trips matrices through
the textual STMAT format.
"""

from __future__ import annotations

import itertools
import operator
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix

MATRIX_MAGIC = "STMAT"


class ParseError(ValueError):
    """A malformed rating-file line; carries its 1-based line number in the stream."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RawRatings:
    """Rating triples with their external ids, before compaction."""

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    source: str

    def __len__(self) -> int:
        return int(self.user_ids.size)


@dataclass(frozen=True)
class PreprocessResult:
    """Compacted matrix plus the external-id maps and duplicate count.

    user_ids[k] / item_ids[k] give the external id behind internal
    index k.
    """

    matrix: SparseRatingMatrix
    user_ids: np.ndarray
    item_ids: np.ndarray
    n_duplicates: int


@contextmanager
def open_text(target, mode: str = "r"):
    """Open target as a text file if it is a path, closing it on exit;
    any other target is taken as an open stream and yielded untouched.

    A path opened with mode "w" is written through a temporary file in the
    same directory, which replaces the target only when the block exits
    cleanly; if the block raises, the temporary file is removed and the
    target keeps its old content.
    """
    if not (isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")):
        yield target
    elif mode != "w":
        with open(target, mode) as stream:
            yield stream
    else:
        path = os.fsdecode(target)
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            stream = open(tmp, "x")
        except OSError as exc:
            exc.filename = path  # name the target, not the temporary file
            raise
        try:
            with stream:
                yield stream
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise


def _read_table(lines, n_cols: int, dtype, delimiter=None, n_rows=None) -> np.ndarray:
    """Rows of n_cols numbers parsed from text lines by NumPy's C reader, blank lines
    skipped; with n_rows, exactly n_rows lines are read and none may be blank or bad."""
    lines = itertools.islice(lines, n_rows)
    first = next(filter(str.strip, lines), None)  # loadtxt warns on input without rows
    try:  # loadtxt's messages count rows without blank lines, so give one of our own
        table = np.empty((0, n_cols), dtype) if first is None else np.loadtxt(
            itertools.chain([first], lines), dtype, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"expected {n_cols} {np.dtype(dtype).name} values per line") from exc
    if table.shape[1] != n_cols:
        raise ValueError(f"expected {n_cols} {np.dtype(dtype).name} values per line")
    if n_rows not in (None, len(table)):
        raise ValueError(f"expected {n_rows} lines of values, got {len(table)}")
    return table


def _format_rows(table: np.ndarray, fmt: str, sep: str = " ", block_rows: int = 16384):
    """Yield a table's rows as lines of fmt values joined by sep, one template per block."""
    row = sep.join([fmt] * table.shape[1]) + "\n"
    for start in range(0, len(table), block_rows):
        block = table[start:start + block_rows]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _rating_table(lines, delimiter: str, max_rating: int) -> np.ndarray:
    """(n, 4) table of stripped `user item rating timestamp` lines, ratings in 1..max_rating."""
    lines = map(str.strip, lines)
    if delimiter != "\t":  # loadtxt splits on one character, so `::` becomes a tab
        lines = map(operator.methodcaller("replace", "\t", " "), lines)  # a tab splits nothing
        lines = map(operator.methodcaller("replace", delimiter, "\t"), lines)
    table = _read_table(lines, 4, np.int64, "\t")
    bad = (table[:, 2] < 1) | (table[:, 2] > max_rating)
    if bad.any():
        raise ValueError(f"rating {table[bad.argmax(), 2]} outside 1..{max_rating}")
    return table


def _parse_delimited(source, delimiter: str, source_tag: str, max_rating: int = 5) -> RawRatings:
    with open_text(source) as stream:  # a stream that cannot seek gets no line numbers
        start = stream.tell() if stream.seekable() else None
        try:
            table = _rating_table(stream, delimiter, max_rating)
        except ValueError:
            if start is None:
                raise
            stream.seek(start)  # find the bad line by checking the lines one by one
            for line_no, line in enumerate(stream, start=1):
                try:
                    _rating_table([line], delimiter, max_rating)
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
            raise
    return RawRatings(*table.T.copy(), source_tag)


def parse_ml100k(source) -> RawRatings:
    """Parse tab-separated `user item rating timestamp` lines."""
    return _parse_delimited(source, "\t", "ml100k")


def parse_ml1m(source) -> RawRatings:
    """Parse `user::item::rating::timestamp` lines."""
    return _parse_delimited(source, "::", "ml1m")


def preprocess(raw: RawRatings, min_ratings: int = 20, max_rating: int = 5) -> PreprocessResult:
    """Filter sparse users and compact ids to dense 0-based indices.

    Duplicate (user, item) pairs keep the entry with the latest timestamp
    (file order breaks ties) and are counted.  Users with fewer than
    min_ratings ratings are dropped; items left without any rating vanish
    during compaction.  Surviving external ids map to indices in
    ascending order.
    """
    if min_ratings < 0:
        raise ValueError("min_ratings must be >= 0")
    if len(raw) == 0:
        return PreprocessResult(
            SparseRatingMatrix.from_triples(1, 1, max_rating, []),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0,
        )
    key = raw.user_ids * (raw.item_ids.max() + 1) + raw.item_ids
    # Two stable passes order entries by key, then timestamp, then file order.
    order = np.argsort(raw.timestamps, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    key_sorted = key[order]
    last = np.r_[key_sorted[1:] != key_sorted[:-1], True]
    keep = order[last]
    n_duplicates = len(raw) - keep.size

    users, items, ratings = raw.user_ids[keep], raw.item_ids[keep], raw.ratings[keep]
    ext_users, counts = np.unique(users, return_counts=True)
    surviving = ext_users[counts >= min_ratings]
    mask = np.isin(users, surviving)
    users, items, ratings = users[mask], items[mask], ratings[mask]

    user_ids, u_idx = np.unique(users, return_inverse=True)
    item_ids, i_idx = np.unique(items, return_inverse=True)
    matrix = SparseRatingMatrix(
        max(user_ids.size, 1), max(item_ids.size, 1), max_rating,
        u_idx, i_idx, ratings,
    )
    return PreprocessResult(matrix, user_ids, item_ids, n_duplicates)


def save_matrix(y: SparseRatingMatrix, target):
    """Write the textual STMAT format: header line then `i j r` entries
    sorted by (i, j)."""
    with open_text(target, "w") as stream:
        stream.write(f"{MATRIX_MAGIC} 1 {y.n_users} {y.n_items} {y.max_rating} {y.n_observed}\n")
        stream.writelines(_format_rows(np.column_stack([y.users, y.items, y.ratings]), "%d"))


def load_matrix(source) -> SparseRatingMatrix:
    """Read a matrix written by save_matrix, validating header and count."""
    with open_text(source) as stream:
        header = stream.readline().split()
        if len(header) != 6 or header[0] != MATRIX_MAGIC or header[1] != "1":
            raise ValueError("not a recognized matrix header")
        n_users, n_items, max_rating, count = map(int, header[2:])
        table = _read_table(stream, 3, np.int64, n_rows=count)
        if any(map(str.strip, stream)):
            raise ValueError("trailing data after the declared entry count")
    return SparseRatingMatrix(n_users, n_items, max_rating, *table.T)
