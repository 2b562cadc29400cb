"""Dataset parsing, preprocessing, and matrix persistence.

Reads the two MovieLens rating-file layouts, applies the minimum-ratings
user filter with dense index compaction, and round-trips matrices through
the textual STMAT format.
"""

from __future__ import annotations

import itertools
import operator
import os
import sys
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix

MATRIX_MAGIC = "STMAT"

# both MovieLens layouts rate on 1..5
MAX_RATING = 5

# Rows per block of the text _format_rows builds, and lines per block a failed
# parse re-checks: each block's values live as Python objects while it is
# handled, so the block bounds that memory.
FORMAT_BLOCK = 4096


@dataclass(frozen=True)
class RawRatings:
    """Rating triples with their external ids, before compaction.  A parsed
    file's four arrays are column views of the one table the reader built."""

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray

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


def _read_header(stream, magic: str, kind: str):
    """The four counts of a `magic 1 a b c d` first line, each an integer in
    0..sys.maxsize; anything else raises "not a recognized `kind` header"."""
    header = stream.readline().split()
    try:
        counts = [int(field) for field in header[2:]]
    except ValueError:
        counts = []
    if header[:2] == [magic, "1"] and len(counts) == 4 and all(
            0 <= n <= sys.maxsize for n in counts):
        return counts
    raise ValueError(f"not a recognized {kind} header")


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


def _format_rows(columns, fmt: str, sep: str = " "):
    """Yield the rows of equal-length columns as lines of fmt values joined
    by sep, one template per block of FORMAT_BLOCK rows; a 2-D table `t` is
    passed as `t.T`.  No row-major copy of the whole table is built."""
    row = sep.join([fmt] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), FORMAT_BLOCK):
        block = np.column_stack([c[start:start + FORMAT_BLOCK] for c in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _rating_table(lines, delimiter: str) -> np.ndarray:
    """(n, 4) table of stripped `user item rating timestamp` lines, ratings in 1..MAX_RATING."""
    lines = map(str.strip, lines)
    if delimiter != "\t":  # loadtxt splits on one character, so `::` becomes a tab
        lines = map(operator.methodcaller("replace", "\t", " "), lines)  # a tab splits nothing
        lines = map(operator.methodcaller("replace", delimiter, "\t"), lines)
    table = _read_table(lines, 4, np.int64, "\t")
    bad = (table[:, 2] < 1) | (table[:, 2] > MAX_RATING)
    if bad.any():
        raise ValueError(f"rating {table[bad.argmax(), 2]} outside 1..{MAX_RATING}")
    return table


def _parse_delimited(source, delimiter: str) -> RawRatings:
    """Rating triples of a delimited file; a malformed line raises ValueError("line N:
    ..."), N counting physical lines from the stream's position."""
    with open_text(source) as stream:  # a stream that cannot seek gets no line numbers
        start = stream.tell() if stream.seekable() else None
        try:
            table = _rating_table(stream, delimiter)
        except ValueError:
            if start is None:
                raise
            stream.seek(start)  # find the first block that fails, then its first bad line
            numbered = enumerate(stream, start=1)
            for block in iter(lambda: list(itertools.islice(numbered, FORMAT_BLOCK)), []):
                try:
                    _rating_table([line for _, line in block], delimiter)
                except ValueError:
                    for line_no, line in block:
                        try:
                            _rating_table([line], delimiter)
                        except ValueError as exc:
                            raise ValueError(f"line {line_no}: {exc}") from None
            raise
    return RawRatings(*table.T)


def parse_ml100k(source) -> RawRatings:
    """Parse tab-separated `user item rating timestamp` lines."""
    return _parse_delimited(source, "\t")


def parse_ml1m(source) -> RawRatings:
    """Parse `user::item::rating::timestamp` lines."""
    return _parse_delimited(source, "::")


def preprocess(raw: RawRatings, min_ratings: int = 20) -> PreprocessResult:
    """Filter sparse users and compact ids to dense 0-based indices.

    User and item ids must be non-negative integers; a negative id raises
    ValueError naming the first one.  Duplicate (user, item) pairs keep
    the entry with the latest timestamp (file order breaks ties) and are
    counted.  Users with fewer than min_ratings ratings are dropped; items
    left without any rating vanish during compaction.  Surviving external
    ids map to indices in ascending order.
    """
    if min_ratings < 0:
        raise ValueError("min_ratings must be >= 0")
    if len(raw) == 0:
        return PreprocessResult(
            SparseRatingMatrix.from_triples(1, 1, MAX_RATING, []),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0,
        )
    negative = (raw.user_ids < 0) | (raw.item_ids < 0)
    if negative.any():
        k = negative.argmax()
        kind, value = ("user", raw.user_ids[k]) if raw.user_ids[k] < 0 else ("item", raw.item_ids[k])
        raise ValueError(f"negative {kind} id {value}: ids must be non-negative integers")
    max_item = int(raw.item_ids.max())
    if int(raw.user_ids.max()) * (max_item + 1) + max_item > np.iinfo(np.int64).max:
        # The key would overflow: key on the ids' ranks, which keep their order.
        user_ids, users = np.unique(raw.user_ids, return_inverse=True)
        item_ids, items = np.unique(raw.item_ids, return_inverse=True)
        ranked = preprocess(RawRatings(users, items, raw.ratings, raw.timestamps), min_ratings)
        return PreprocessResult(ranked.matrix, user_ids[ranked.user_ids],
                                item_ids[ranked.item_ids], ranked.n_duplicates)
    # With non-negative ids that fit the key, key order is (user, item) order.
    # Each whole-input temporary is dropped once used: together they are
    # several times the size of the result.
    key = raw.user_ids * (max_item + 1) + raw.item_ids
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    last = np.r_[key_sorted[1:] != key_sorted[:-1], True]
    del key_sorted
    if not last.all():
        # A duplicate key: two stable passes order entries by key, then
        # timestamp, then file order, so each key's last entry is the one
        # to keep.  The keys stay in the same sorted sequence, so `last`
        # still marks each key's last entry.
        order = np.argsort(raw.timestamps, kind="stable")
        order = order[np.argsort(key[order], kind="stable")]
    del key
    keep = order[last]
    del order, last
    n_duplicates = len(raw) - keep.size

    # The kept entries are in key order, so each user's entries form one
    # run: filter and compact users on the run boundaries.
    users = raw.user_ids[keep]
    run_start = np.r_[True, users[1:] != users[:-1]]
    counts = np.diff(np.r_[np.flatnonzero(run_start), users.size])
    if counts.min() < min_ratings:
        mask = np.repeat(counts >= min_ratings, counts)
        keep, users, run_start = keep[mask], users[mask], run_start[mask]
    user_ids = users[run_start]
    del users
    item_ids, i_idx = np.unique(raw.item_ids[keep], return_inverse=True)
    u_idx = np.cumsum(run_start) - 1
    del run_start
    matrix = SparseRatingMatrix(
        max(user_ids.size, 1), max(item_ids.size, 1), MAX_RATING,
        u_idx, i_idx, raw.ratings[keep],
    )
    return PreprocessResult(matrix, user_ids, item_ids, n_duplicates)


def save_matrix(y: SparseRatingMatrix, target):
    """Write the textual STMAT format: header line then `i j r` entries
    sorted by (i, j)."""
    with open_text(target, "w") as stream:
        stream.write(f"{MATRIX_MAGIC} 1 {y.n_users} {y.n_items} {y.max_rating} {y.n_observed}\n")
        stream.writelines(_format_rows([y.users, y.items, y.ratings], "%d"))


def load_matrix(source) -> SparseRatingMatrix:
    """Read a matrix written by save_matrix, validating header and count."""
    with open_text(source) as stream:
        n_users, n_items, max_rating, count = _read_header(stream, MATRIX_MAGIC, "matrix")
        table = _read_table(stream, 3, np.int64, n_rows=count)
        if any(map(str.strip, stream)):
            raise ValueError("trailing data after the declared entry count")
    return SparseRatingMatrix(n_users, n_items, max_rating, *table.T)
