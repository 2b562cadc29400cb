import io
import tracemalloc
import warnings

import numpy as np
import pytest

from oracle import dense
from stmmmf import ingest
from stmmmf.core import SparseRatingMatrix
from stmmmf.ingest import (
    FORMAT_BLOCK,
    RawRatings,
    load_matrix,
    open_text,
    parse_ml100k,
    parse_ml1m,
    preprocess,
    save_matrix,
)
from stmmmf.synthetic import synthetic_ratings_file


def raw(triples_with_stamps):
    u, i, r, t = (np.array(col) for col in zip(*triples_with_stamps))
    return RawRatings(u, i, r, t)


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
    with pytest.raises(ValueError, match="^line 2: "):
        parse_ml100k(stream)


def test_parse_ml100k_wrong_field_count():
    with pytest.raises(ValueError, match="^line 1: "):
        parse_ml100k(io.StringIO("1\t2\t3\n"))


def test_parse_ml1m_line():
    got = parse_ml1m(io.StringIO("1::1193::5::978300760\n"))
    assert (got.user_ids[0], got.item_ids[0], got.ratings[0]) == (1, 1193, 5)


def test_parse_rating_out_of_scale():
    with pytest.raises(ValueError, match="^line 1: "):
        parse_ml1m(io.StringIO("1::2::0::3\n"))
    with pytest.raises(ValueError, match="^line 1: "):
        parse_ml100k(io.StringIO("1\t2\t6\t3\n"))


def test_parse_ignores_trailing_blank_lines():
    got = parse_ml1m(io.StringIO("1::2::3::4\n\n"))
    assert len(got) == 1


@pytest.mark.parametrize("parse, text, line_no", [
    (parse_ml100k, "1\t2\t3\t4\n\n1\tx\t3\t4\n", 3),     # blank lines count
    (parse_ml1m, "1::2::3::4\n1::2::6::4\n", 2),            # rating out of scale
    (parse_ml100k, "1\t2\t9\t4\n1\tx\t3\t4\n", 1),        # the first bad line wins
    (parse_ml100k, "1\t2\t3\t4\n1\t2\t3\t4\t5\n", 2),     # 5 fields
    (parse_ml1m, "1::2::3::4\n1\t2::3::4\n", 2),           # a tab separates no fields
    (parse_ml1m, "1::2::3::4\n1::2::3::4::\n", 2),          # trailing delimiter
    (parse_ml1m, "\n\n1:2::3::4\n", 3),                    # single colon
])
def test_parse_error_names_physical_line(parse, text, line_no):
    with pytest.raises(ValueError, match=f"^line {line_no}: "):
        parse(io.StringIO(text))


def test_parse_error_counts_lines_from_the_stream_position():
    stream = io.StringIO("user\titem\trating\ttime\n1\t2\t3\t4\n1\tx\t3\t4\n")
    stream.readline()
    with pytest.raises(ValueError, match="^line 2: "):
        parse_ml100k(stream)


def test_parse_error_checks_single_lines_only_in_the_failing_block(monkeypatch):
    # 9,998 good lines, a blank one, then a bad last line: physical line 10,000
    text = "1\t2\t3\t4\n" * 9998 + "\n" + "1\tx\t3\t4\n"
    calls, table = [], ingest._rating_table

    def counting_table(lines, delimiter):
        calls.append(None)
        return table(lines, delimiter)

    monkeypatch.setattr(ingest, "_rating_table", counting_table)
    with pytest.raises(ValueError, match="^line 10000: "):
        parse_ml100k(io.StringIO(text))
    assert len(calls) <= -(-10000 // FORMAT_BLOCK) + FORMAT_BLOCK  # one call per line: 10,001


class Pipe(io.StringIO):
    """A text stream that cannot seek, like a pipe."""

    def seekable(self):
        return False


def test_parse_error_on_a_stream_that_cannot_seek_has_no_line_number():
    assert len(parse_ml100k(Pipe("1\t2\t3\t4\n"))) == 1
    with pytest.raises(ValueError) as err:
        parse_ml100k(Pipe("1\t2\t3\t4\n1\tx\t3\t4\n"))
    assert not str(err.value).startswith("line ")


def test_parse_strips_fields_as_before():
    got = parse_ml1m(io.StringIO(" 7 ::8\t::5:: 9\n"))
    assert (got.user_ids[0], got.item_ids[0], got.ratings[0], got.timestamps[0]) == (7, 8, 5, 9)
    got = parse_ml100k(io.StringIO("\t7\t 8\t5\t9 \r\n"))
    assert (got.user_ids[0], got.item_ids[0], got.ratings[0], got.timestamps[0]) == (7, 8, 5, 9)


def test_empty_inputs_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(parse_ml100k(io.StringIO(""))) == 0
        assert len(parse_ml1m(io.StringIO("\n \n"))) == 0
        assert load_matrix(io.StringIO("STMAT 1 2 2 5 0\n")).n_observed == 0
        with pytest.raises(ValueError):
            load_matrix(io.StringIO("STMAT 1 2 2 5 1\n\n"))


# ---------------------------------------------------------------- preprocess

def test_preprocess_min_ratings_boundary():
    rows = [(1, j, 3, j) for j in range(19)]          # user 1: 19 ratings
    rows += [(2, j, 4, j) for j in range(20)]         # user 2: exactly 20
    result = preprocess(raw(rows), min_ratings=20)
    assert result.matrix.n_users == 1
    assert list(result.user_ids) == [2]
    assert result.matrix.n_observed == 20


def test_preprocess_rejects_negative_min_ratings():
    with pytest.raises(ValueError, match="min_ratings must be >= 0"):
        preprocess(raw([(1, 1, 3, 0)]), min_ratings=-1)


@pytest.mark.parametrize("parse, text", [(parse_ml100k, ""), (parse_ml1m, "\n \n")],
                         ids=["ml100k", "ml1m"])
def test_preprocess_of_no_ratings_is_an_empty_one_by_one_matrix(parse, text):
    result = preprocess(parse(io.StringIO(text)))
    y = result.matrix
    assert (y.n_users, y.n_items, y.max_rating, y.n_observed) == (1, 1, 5, 0)
    assert result.user_ids.size == result.item_ids.size == result.n_duplicates == 0


def test_preprocess_compaction_ascending_bijection():
    rows = [(50, 900, 2, 0), (7, 30, 5, 1), (7, 900, 1, 2), (50, 30, 4, 3)]
    result = preprocess(raw(rows), min_ratings=0)
    assert list(result.user_ids) == [7, 50]
    assert list(result.item_ids) == [30, 900]
    grid = dense(result.matrix)
    assert grid[0, 0] == 5 and grid[0, 1] == 1
    assert grid[1, 0] == 4 and grid[1, 1] == 2


def test_preprocess_duplicates_keep_latest_timestamp():
    rows = [(1, 1, 2, 100), (1, 1, 5, 300), (1, 1, 3, 200), (1, 2, 4, 50)]
    result = preprocess(raw(rows), min_ratings=0)
    assert result.n_duplicates == 2
    grid = dense(result.matrix)
    assert grid[0, 0] == 5


def test_preprocess_negative_ids_would_collide_and_are_rejected():
    # user * (max_item + 1) + item gives (0, -1) and (-1, 4) the same key -1
    rows = [(1, 2, 3, 100), (-1, 4, 5, 100), (0, -1, 4, 100)]
    with pytest.raises(ValueError, match=r"negative user id -1"):
        preprocess(raw(rows), min_ratings=0)
    with pytest.raises(ValueError, match=r"negative item id -7"):
        preprocess(raw([(1, 2, 3, 0), (3, -7, 1, 0), (-2, 1, 1, 0)]), min_ratings=0)


def test_preprocess_ids_whose_key_overflows_keep_their_order():
    # 2**31 * (2**32 + 1) does not fit in int64: the result is the one the
    # same ids give at small values, duplicates included
    big_users, big_items = [3, 2**31 - 1, 2**31], [0, 5, 2**32]
    rows = [(0, 1, 3, 0), (1, 2, 4, 0), (2, 0, 1, 5), (2, 0, 2, 9), (0, 1, 5, 0)]
    small = preprocess(raw(rows), min_ratings=0)
    big = preprocess(raw([(big_users[u], big_items[i], r, t) for u, i, r, t in rows]),
                     min_ratings=0)
    assert big.matrix.content_hash() == small.matrix.content_hash()
    assert list(big.user_ids) == [big_users[u] for u in small.user_ids] == big_users
    assert list(big.item_ids) == [big_items[i] for i in small.item_ids] == big_items
    assert big.n_duplicates == small.n_duplicates == 2


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


def per_line_save_matrix(y, stream):
    """The per-line STMAT writer the block writer replaced, kept as the
    byte reference."""
    stream.write(f"STMAT 1 {y.n_users} {y.n_items} {y.max_rating} {y.n_observed}\n")
    for u, i, r in zip(y.users, y.items, y.ratings):
        stream.write(f"{u} {i} {r}\n")


@pytest.mark.parametrize("n_users, n_items, n_observed", [
    (1, 1, 0), (3, 4, 0), (1, 1, 1), (6, 7, 20), (60, 50, 2_000), (300, 200, 40_000),
])
def test_matrix_bytes_match_per_line_writer(n_users, n_items, n_observed):
    rng = np.random.default_rng(n_observed)
    cells = rng.choice(n_users * n_items, n_observed, replace=False)
    max_rating = int(rng.integers(2, 11))
    y = SparseRatingMatrix(n_users, n_items, max_rating, cells // n_items, cells % n_items,
                           rng.integers(1, max_rating + 1, n_observed))
    got, want = io.StringIO(), io.StringIO()
    save_matrix(y, got)
    per_line_save_matrix(y, want)
    assert got.getvalue() == want.getvalue()
    back = load_matrix(io.StringIO(got.getvalue()))
    assert (back.n_users, back.n_items, back.max_rating) == (n_users, n_items, max_rating)
    for name in ("users", "items", "ratings"):
        np.testing.assert_array_equal(getattr(back, name), getattr(y, name))


@pytest.mark.parametrize("body", [
    "0 0 3\n\n1 1 4\n",           # blank line inside the body
    "\n0 0 3\n1 1 4\n",           # blank line before the first entry
    "0 0 3\n1 1\n",                # 2 fields
    "0 0 3\n1 1 4 2\n",            # 4 fields
    "0 0 3\n1 x 4\n",              # non-integer token
    "0 0 3\n1 1 4.0\n",            # float token
    "# entries\n0 0 3\n1 1 4\n",  # comment line
    "0 0 3 # c\n1 1 4\n",          # trailing comment
    "0 0 3\n",                      # fewer entries than declared
    "",                             # no entries
    "0 0 3\n1 1 4\n0 1 2\n",       # more entries than declared
    "0 0 3\n1 1 4\n\n0 1 2\n",     # data after a blank line
])
def test_matrix_malformed_body_rejected(body):
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 2\n" + body))


@pytest.mark.parametrize("body", ["0 0 3\n1 1 4", "0 0 3\n1 1 4\n\n \n", " 0\t0 3 \n1  1 4\r\n"])
def test_matrix_body_grammar_accepts(body):
    y = load_matrix(io.StringIO("STMAT 1 2 2 5 2\n" + body))
    assert list(y.ratings) == [3, 4]


def test_matrix_count_mismatch_rejected():
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 2\n0 0 3\n"))
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 1\n0 0 3\n1 1 4\n"))


def test_matrix_bad_header_rejected():
    """Every count must be an integer in 0..sys.maxsize."""
    for header in ["WHAT 1 2 2 5 0", "STMAT 2 2 2 5 0", "STMAT 1 2 2 5", "STMAT 1 2 2 5 -1",
                   "STMAT 1 a 2 5 0", "STMAT 1 2 2 5 99999999999999999999", ""]:
        with pytest.raises(ValueError, match="^not a recognized matrix header$"):
            load_matrix(io.StringIO(header + "\n"))


def test_matrix_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        load_matrix(io.StringIO("STMAT 1 2 2 5 1\n0 0 9\n"))


# ------------------------------------------------- set-up memory budgets

N_BUDGET = 40_000  # ratings in the budget tests' file


@pytest.fixture(scope="module")
def rating_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ratings") / "u.data"
    path.write_text(synthetic_ratings_file(seed=3, n_users=400, n_items=600, n_ratings=N_BUDGET))
    return path


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_parse_builds_the_rating_table_once(rating_file):
    """The four columns are views of the one (n, 4) int64 table the reader
    builds: no second copy, which would double the peak."""
    raw, peak = traced_peak(parse_ml100k, rating_file)
    assert len(raw) == N_BUDGET
    assert peak < 1.5 * 32 * N_BUDGET


@pytest.mark.parametrize("min_ratings", [0, 40])
def test_preprocess_peak_stays_under_two_and_a_half_inputs(rating_file, min_ratings):
    """Sort keys, orders and masks are dropped once used, and a filter that
    keeps every user copies nothing: the peak stays under 2.5 times the
    32-byte-per-rating input (3.4 times if every temporary stays alive)."""
    raw = parse_ml100k(rating_file)
    result, peak = traced_peak(preprocess, raw, min_ratings)
    assert (result.matrix.n_observed < N_BUDGET) == (min_ratings > 0)
    assert peak < 2.5 * 32 * N_BUDGET


def test_save_matrix_formats_blocks_not_a_table_copy(rating_file, tmp_path):
    """Rows are formatted a block at a time from the matrix's own columns,
    so the peak stays under one copy of those three int64 columns."""
    y = preprocess(parse_ml100k(rating_file), 0).matrix
    _, peak = traced_peak(save_matrix, y, tmp_path / "y.stmat")
    assert load_matrix(tmp_path / "y.stmat").content_hash() == y.content_hash()
    assert peak < 24 * y.n_observed
