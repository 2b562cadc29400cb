import io

import numpy as np
import pytest

from stmmmf.core import SparseRatingMatrix
from stmmmf.ingest import (
    ParseError,
    RawRatings,
    load_matrix,
    open_text,
    parse_ml100k,
    parse_ml1m,
    preprocess,
    save_matrix,
)


def raw(triples_with_stamps, source="test"):
    u, i, r, t = (np.array(col) for col in zip(*triples_with_stamps))
    return RawRatings(u, i, r, t, source)


# -------------------------------------------------------------------- parsing

def test_parse_ml100k_line():
    got = parse_ml100k(io.StringIO("196\t242\t3\t881250949\n"))
    assert len(got) == 1
    assert (got.user_ids[0], got.item_ids[0], got.ratings[0]) == (196, 242, 3)
    assert got.timestamps[0] == 881250949


def test_parse_ml100k_empty_stream():
    assert len(parse_ml100k(io.StringIO(""))) == 0


def test_parse_ml100k_malformed_line_number():
    stream = io.StringIO("1\t2\t3\t4\na\tb\tc\td\n")
    with pytest.raises(ParseError) as err:
        parse_ml100k(stream)
    assert err.value.line_no == 2


def test_parse_ml100k_wrong_field_count():
    with pytest.raises(ParseError):
        parse_ml100k(io.StringIO("1\t2\t3\n"))


def test_parse_ml1m_line():
    got = parse_ml1m(io.StringIO("1::1193::5::978300760\n"))
    assert (got.user_ids[0], got.item_ids[0], got.ratings[0]) == (1, 1193, 5)


def test_parse_rating_out_of_scale():
    with pytest.raises(ParseError):
        parse_ml1m(io.StringIO("1::2::0::3\n"))
    with pytest.raises(ParseError):
        parse_ml100k(io.StringIO("1\t2\t6\t3\n"))


def test_parse_ignores_trailing_blank_lines():
    got = parse_ml1m(io.StringIO("1::2::3::4\n\n"))
    assert len(got) == 1


# ---------------------------------------------------------------- preprocess

def test_preprocess_min_ratings_boundary():
    rows = [(1, j, 3, j) for j in range(19)]          # user 1: 19 ratings
    rows += [(2, j, 4, j) for j in range(20)]         # user 2: exactly 20
    result = preprocess(raw(rows), min_ratings=20)
    assert result.matrix.n_users == 1
    assert list(result.user_ids) == [2]
    assert result.matrix.n_observed == 20


def test_preprocess_compaction_ascending_bijection():
    rows = [(50, 900, 2, 0), (7, 30, 5, 1), (7, 900, 1, 2), (50, 30, 4, 3)]
    result = preprocess(raw(rows), min_ratings=0)
    assert list(result.user_ids) == [7, 50]
    assert list(result.item_ids) == [30, 900]
    dense = result.matrix.to_dense()
    assert dense[0, 0] == 5 and dense[0, 1] == 1
    assert dense[1, 0] == 4 and dense[1, 1] == 2


def test_preprocess_duplicates_keep_latest_timestamp():
    rows = [(1, 1, 2, 100), (1, 1, 5, 300), (1, 1, 3, 200), (1, 2, 4, 50)]
    result = preprocess(raw(rows), min_ratings=0)
    assert result.n_duplicates == 2
    dense = result.matrix.to_dense()
    assert dense[0, 0] == 5


def test_preprocess_drops_unrated_items():
    rows = [(1, 10, 3, 0), (2, 10, 4, 1)]
    result = preprocess(raw(rows), min_ratings=0)
    assert result.matrix.n_items == 1


def test_preprocess_idempotent():
    rng = np.random.default_rng(0)
    rows = []
    for u in range(12):
        n = int(rng.integers(1, 30))
        items = rng.permutation(40)[:n]
        rows += [(u, int(j), int(rng.integers(1, 6)), 0) for j in items]
    first = preprocess(raw(rows), min_ratings=10)
    y = first.matrix
    again_rows = [
        (int(first.user_ids[u]), int(first.item_ids[i]), int(r), 0)
        for u, i, r in zip(y.users, y.items, y.ratings)
    ]
    second = preprocess(raw(again_rows), min_ratings=10)
    assert second.matrix.content_hash() == y.content_hash()


def test_preprocess_roundtrip_through_text():
    rows = [(3, 9, 5, 11), (3, 4, 2, 12), (8, 9, 1, 13)]
    result = preprocess(raw(rows), min_ratings=0)
    text = "\n".join(
        f"{result.user_ids[u]}\t{result.item_ids[i]}\t{r}\t0"
        for u, i, r in zip(result.matrix.users, result.matrix.items, result.matrix.ratings)
    )
    reparsed = preprocess(parse_ml100k(io.StringIO(text + "\n")), min_ratings=0)
    assert reparsed.matrix.content_hash() == result.matrix.content_hash()


# ------------------------------------------------------------------- matrices

def test_matrix_roundtrip_identity():
    y = SparseRatingMatrix.from_triples(
        4, 5, 5, [(0, 0, 1), (0, 4, 3), (2, 2, 5), (3, 1, 2)]
    )
    buf = io.StringIO()
    save_matrix(y, buf)
    buf.seek(0)
    assert load_matrix(buf).content_hash() == y.content_hash()


def test_matrix_roundtrip_empty():
    y = SparseRatingMatrix.from_triples(2, 2, 5, [])
    buf = io.StringIO()
    save_matrix(y, buf)
    buf.seek(0)
    back = load_matrix(buf)
    assert back.n_observed == 0 and back.n_users == 2


def test_matrix_header_and_sorted_body(tmp_path):
    y = SparseRatingMatrix.from_triples(3, 4, 5, [(2, 1, 4), (0, 3, 1)])
    path = tmp_path / "y.stmat"
    save_matrix(y, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "STMAT 1 3 4 5 2"
    assert lines[1] == "0 3 1" and lines[2] == "2 1 4"


def test_write_that_raises_keeps_old_file(tmp_path):
    path = tmp_path / "y.stmat"
    save_matrix(SparseRatingMatrix.from_triples(3, 4, 5, [(2, 1, 4)]), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with open_text(path, "w") as stream:
            stream.write("STMAT 1 9 9 5 1\n")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["y.stmat"]


def test_matrix_count_mismatch_rejected():
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 2\n0 0 3\n"))
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 1\n0 0 3\n1 1 4\n"))


def test_matrix_bad_header_rejected():
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("WHAT 1 2 2 5 0\n"))
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 2 2 2 5 0\n"))


def test_matrix_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 1\n0 0 9\n"))
