"""Dataset parsing, preprocessing, and matrix persistence.

Reads the two MovieLens rating-file layouts, applies the minimum-ratings
user filter with dense index compaction, and round-trips matrices through
the textual STMAT format.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import SparseRatingMatrix

MATRIX_MAGIC = "STMAT"


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

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


def _parse_delimited(source, delimiter: str, source_tag: str, max_rating: int = 5) -> RawRatings:
    users, items, ratings, stamps = [], [], [], []
    with open_text(source) as stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter)
            if len(parts) != 4:
                raise ParseError(line_no, f"expected 4 fields, got {len(parts)}")
            try:
                u, i, r, t = (int(p) for p in parts)
            except ValueError:
                raise ParseError(line_no, "non-integer field") from None
            if not 1 <= r <= max_rating:
                raise ParseError(line_no, f"rating {r} outside 1..{max_rating}")
            users.append(u)
            items.append(i)
            ratings.append(r)
            stamps.append(t)
    return RawRatings(
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        np.array(ratings, dtype=np.int64),
        np.array(stamps, dtype=np.int64),
        source_tag,
    )


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
        stream.write(
            f"{MATRIX_MAGIC} 1 {y.n_users} {y.n_items} {y.max_rating} {y.n_observed}\n"
        )
        for u, i, r in zip(y.users, y.items, y.ratings):
            stream.write(f"{u} {i} {r}\n")


def load_matrix(source) -> SparseRatingMatrix:
    """Read a matrix written by save_matrix, validating header and count."""
    with open_text(source) as stream:
        header = stream.readline().split()
        if len(header) != 6 or header[0] != MATRIX_MAGIC or header[1] != "1":
            raise ValueError("not a recognized matrix header")
        n_users, n_items, max_rating, count = map(int, header[2:])
        users = np.empty(count, dtype=np.int64)
        items = np.empty(count, dtype=np.int64)
        ratings = np.empty(count, dtype=np.int64)
        for k in range(count):
            parts = stream.readline().split()
            if len(parts) != 3:
                raise ValueError(f"entry {k}: expected 3 fields, got {len(parts)}")
            users[k], items[k], ratings[k] = (int(p) for p in parts)
        if stream.readline().strip():
            raise ValueError("trailing data after the declared entry count")
    return SparseRatingMatrix(n_users, n_items, max_rating, users, items, ratings)
