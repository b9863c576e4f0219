import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathweave.errors import EvalError, GraphFormatError
from pathweave.evaluate import evaluate
from pathweave.kernels import PathMatrix
from pathweave.tensor import (
    EdgeSlice,
    MultiRelTensor,
    _CHUNK_CHARS,
    _Irregular,
    _bulk_batches,
    _line_batches,
    _properties,
    _records,
    _signatures,
    _tensor,
    format_triples,
    ingest_triples,
    parse_properties,
    parse_signatures,
    parse_triples,
    read_properties,
    read_signatures,
    read_text,
    read_triples,
)

from conftest import FIXTURE1_TRIPLES
from oracles import count_typed_paths
from util import random_expr, random_tensor


def test_single_edge():
    t = ingest_triples([("h1", "authored", "a1")])
    assert t.n == 2 and t.m == 1
    assert t.slice("authored").pairs == {(0, 1)}


def test_duplicate_triples_collapse():
    t = ingest_triples([("h1", "authored", "a1"), ("h1", "authored", "a1")])
    assert t.slice("authored").nnz == 1


def test_fixture1_counts(fixture1):
    assert fixture1.n == 7
    assert fixture1.m == 4


def test_fixture1_slices(fixture1):
    ids = fixture1.vertices.index
    cites = count_typed_paths(FIXTURE1_TRIPLES, [("cites", False)])
    assert fixture1.slice("cites").pairs == {(ids[t], ids[h]) for (t, h) in cites}
    assert fixture1.slice("cites").pairs == {(ids["a1"], ids["a3"])}
    assert fixture1.slice("authored").nnz == 4


def test_unknown_label(fixture1):
    with pytest.raises(EvalError, match="authored"):
        fixture1.slice("knows")


def test_empty_input_rejected():
    with pytest.raises(GraphFormatError, match="no edges"):
        ingest_triples([])


def test_malformed_row_carries_line_number():
    with pytest.raises(GraphFormatError, match="line 2"):
        ingest_triples([("a", "x", "b"), ("a", "", "b")])


def test_parse_triples_comments_and_errors():
    t = parse_triples("# header\nh1\tauthored\ta1\n\nh2\tauthored\ta1\n")
    assert t.n == 3 and t.slice("authored").nnz == 2
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_triples("h1\tauthored\ta1\nh2 authored a1\n")


def test_round_trip_up_to_renumbering(fixture1):
    text = format_triples(fixture1)
    again = parse_triples(text)
    canonical = lambda t: set(t.to_triples())
    assert canonical(again) == canonical(fixture1)
    # shuffled ingestion order changes ids, never semantics
    shuffled = ingest_triples(list(reversed(FIXTURE1_TRIPLES)))
    assert canonical(shuffled) == canonical(fixture1)


def test_transpose_involution_on_slices(fixture1):
    from pathweave.kernels import transpose

    for label in fixture1.labels:
        m = fixture1.matrix(label)
        assert np.array_equal(transpose(transpose(m)).to_dense(), m.to_dense())


def test_slice_matrix_is_built_once_and_read_only(fixture1):
    for label in fixture1.labels:
        m = fixture1.matrix(label)
        assert fixture1.matrix(label) is m
        arrays = (m.mat.data, m.mat.indices, m.mat.indptr)
        assert not any(arr.flags.writeable for arr in arrays)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0


def test_shared_slice_matrices_survive_evaluation():
    # every evaluation, and every analysis operand, reads the one matrix of
    # each slice; none of them may change it
    rng = np.random.default_rng(2626)
    labels = ("alpha", "beta", "gamma")
    names = [f"v{i}" for i in range(9)]
    tensor = random_tensor(rng, n=len(names), labels=labels, names=names)
    held = {label: tensor.matrix(label) for label in labels}
    for _ in range(200):
        z = evaluate(random_expr(rng, labels, names, depth=6), tensor)
        z.to_dense()
        z.operand()
    for label in labels:
        s = tensor.slice(label)
        fresh = PathMatrix._from_sorted_pairs(s.n, s.tails, s.heads).mat
        shared = tensor.matrix(label)
        assert shared is held[label]
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(shared.mat, attr), getattr(fresh, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), (label, attr)


def test_signatures_attach(fixture1):
    sigs = parse_signatures("authored\tH\tA\ncites\tA\tA\n")
    t = fixture1.with_signatures(sigs)
    assert t.slice("authored").signature == ("H", "A")
    assert t.slice("contains").signature is None


def test_property_file_parsing():
    props = parse_properties("# note\nh1\t1.5\nh2\t2.0\n")
    assert props == {"h1": "1.5", "h2": "2.0"}
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_properties("h1 1.5\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_triples,
            "h1\tauthored\n",
            "line 1: expected `tail<TAB>label<TAB>head`, got 'h1\\tauthored'",
        ),
        (
            parse_triples,
            "# c\n\nh1\t \ta1\n",
            "line 3: expected `tail<TAB>label<TAB>head`, got 'h1\\t \\ta1'",
        ),
        (
            parse_signatures,
            "cites\tA\tA\tA\n",
            "line 1: expected `label<TAB>domain<TAB>range`, got 'cites\\tA\\tA\\tA'",
        ),
        (parse_properties, "h1\t1\nh2 2\n", "line 2: expected `vertex<TAB>value`, got 'h2 2'"),
    ],
)
def test_tsv_error_names_line_and_layout(parse, text, message):
    with pytest.raises(GraphFormatError) as err:
        parse(text)
    assert str(err.value) == message


def test_read_functions_parse_files(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("# g\n h1\tauthored\ta1 \n", encoding="utf-8")
    sigs = tmp_path / "s.tsv"
    sigs.write_text("authored\tH\tA\nauthored\tH\tB\n", encoding="utf-8")
    props = tmp_path / "p.tsv"
    props.write_text("h1\t1.5\n\na1\tx\n", encoding="utf-8")
    assert read_triples(str(graph)).to_triples() == [("h1", "authored", "a1")]
    # a later record for the same key wins
    assert read_signatures(str(sigs)) == {"authored": ("H", "B")}
    assert read_properties(str(props)) == {"h1": "1.5", "a1": "x"}


def test_from_edges_matches_ingest():
    t1 = ingest_triples([("x", "r", "y"), ("y", "r", "z")])
    t2 = MultiRelTensor.from_edges(
        ["x", "y", "z"], {"r": (np.array([0, 1]), np.array([1, 2]))}
    )
    assert set(t1.to_triples()) == set(t2.to_triples())


def test_edge_slice_sorts_and_collapses_pairs():
    rng = np.random.default_rng(5)
    tails = rng.integers(0, 40, 500)
    heads = rng.integers(0, 40, 500)
    s = EdgeSlice("r", 40, tails, heads)
    # 500 draws from 1600 pairs: duplicates are certain
    assert s.nnz < 500
    assert list(zip(s.tails.tolist(), s.heads.tolist())) == sorted(
        set(zip(tails.tolist(), heads.tolist()))
    )
    assert s.tails.dtype == s.heads.dtype == np.int64


def test_edge_slice_order_beyond_int64_key():
    # n * n exceeds int64, so a tail * n + head key would wrap
    n = 4_000_000_000
    s = EdgeSlice("r", n, [n - 1, 3, n - 1, 0, 3, 3], [0, n - 2, 0, n - 1, 7, n - 2])
    assert list(zip(s.tails.tolist(), s.heads.tolist())) == [
        (0, n - 1),
        (3, 7),
        (3, n - 2),
        (n - 1, 0),
    ]


def test_edge_slice_order_limit():
    # n * n - 1 is the largest key, and it fits in uint64 up to n = 2**32
    n = 2**32
    s = EdgeSlice("r", n, [n - 1, 0, n - 1], [n - 1, 5, n - 1])
    assert list(zip(s.tails.tolist(), s.heads.tolist())) == [(0, 5), (n - 1, n - 1)]
    with pytest.raises(GraphFormatError, match=str(n + 1)):
        EdgeSlice("r", n + 1, [0], [0])


# str.splitlines ends a line at each of these
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PADS = [" ", "\xa0", "\x1f", "\u3000"]


_FLAWS = ("comment", "blank", "line end", "padded", "empty", "field count")


@st.composite
def tsv_texts(draw):
    """TSV text of 2 or 3 fields a line: regular rows, which the bulk reader
    takes, with up to three flaws that only the per-line reader handles."""
    width = draw(st.sampled_from((2, 3)))
    # a `#` may sit inside a name, but leading a line it makes a comment
    names = st.tuples(st.sampled_from("abéß名😀"), st.text(alphabet="ab#é名😀", max_size=2))
    names = names.map("".join)
    rows = draw(st.lists(st.lists(names, min_size=width, max_size=width), min_size=1, max_size=8))
    ends = ["\n"] * len(rows)
    for flaw in draw(st.lists(st.sampled_from(_FLAWS), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        j = draw(st.integers(0, len(row) - 1))
        if flaw == "comment":
            rows.insert(i, [draw(st.sampled_from(["#", " #"])) + row[0], *row[1:]])
            ends.insert(i, "\n")
        elif flaw == "blank":
            rows.insert(i, [draw(st.sampled_from(["", " ", "\xa0\x1f"]))])
            ends.insert(i, "\n")
        elif flaw == "line end":
            ends[i] = draw(st.sampled_from(_LINE_ENDS[1:]))
        elif flaw == "padded":
            pad = draw(st.sampled_from(_PADS))
            row[j] = draw(st.sampled_from([pad + row[j], row[j] + pad]))
        elif flaw == "empty":
            row[j] = ""
        elif len(row) > 1 and draw(st.booleans()):
            del row[j]
        else:
            row.insert(j, draw(names))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join("\t".join(row) + end for row, end in zip(rows, ends))


def _reference_tensor(records):
    """First-seen ids and slice order as a loop over the records."""
    index, by_label = {}, {}
    for tail, label, head in records:
        tails, heads = by_label.setdefault(label, ([], []))
        tails.append(index.setdefault(tail, len(index)))
        heads.append(index.setdefault(head, len(index)))
    if not by_label:
        raise GraphFormatError("no edges")
    edges = {label: (np.array(t), np.array(h)) for label, (t, h) in by_label.items()}
    return MultiRelTensor.from_edges(list(index), edges)


_READERS = [
    (parse_triples, "tail<TAB>label<TAB>head", _tensor, _reference_tensor),
    (
        parse_signatures,
        "label<TAB>domain<TAB>range",
        _signatures,
        lambda records: {label: (dom, rng) for label, dom, rng in records},
    ),
    (parse_properties, "vertex<TAB>value", _properties, dict),
]


def _outcome(read):
    """What a reader gives: its result in comparable form, or its error text."""
    try:
        result = read()
    except GraphFormatError as err:
        return "error", str(err)
    if isinstance(result, MultiRelTensor):
        slices = [
            (label, s.tails.tolist(), s.heads.tolist(), s.tails.dtype, s.heads.dtype)
            for label, s in result.slices.items()
        ]
        return "ok", (result.vertices.names, result.vertices.index, slices)
    return "ok", result


@given(tsv_texts())
@settings(max_examples=150, deadline=None)
def test_bulk_and_per_line_readers_agree(text):
    for parse, layout, build, reference in _READERS:
        per_line = _outcome(lambda: build(_line_batches(text, layout)))
        assert per_line == _outcome(lambda: reference(_records(text, layout)))
        try:
            bulk = _outcome(lambda: build(_bulk_batches(text, layout)))
        except _Irregular:
            bulk = per_line
        assert bulk == per_line
        assert _outcome(lambda: parse(text)) == per_line


def test_bulk_reader_chunks_lose_no_record():
    rng = np.random.default_rng(3)
    rows = [
        (f"v{rng.integers(3000)}", f"r{rng.integers(4)}", f"v{rng.integers(3000)}")
        for _ in range(6000)
    ]
    text = "".join(f"{t}\t{l}\t{h}\n" for t, l, h in rows)
    batches = list(_bulk_batches(text, "tail<TAB>label<TAB>head"))
    assert len(batches) > 1
    assert [f for batch in batches for f in batch] == [f for row in rows for f in row]
    # ids continue across chunks in first-seen order
    assert _outcome(lambda: parse_triples(text)) == _outcome(lambda: _reference_tensor(rows))


@pytest.mark.parametrize("end", ["", "\n"])
def test_bulk_reader_takes_regular_text(end):
    text = "h1\tauthored\tété\n名\tcites\th1" + end
    assert list(_bulk_batches(text, "tail<TAB>label<TAB>head")) == [
        ["h1", "authored", "été", "名", "cites", "h1"]
    ]
    # a line break inside a field leaves the text's field count whole
    other_ends = [f"h1\tau{brk}th\tété\n" for brk in _LINE_ENDS[1:]]
    # two lines of 2 and 4 fields make 6, a whole number of records
    short_long = "h1\tauthored\nété\tx\ty\tz\n"
    comments = ["#c\td\te\n" + text, "h1\tx\ty\n#c\td\te\n"]
    # the separators are checked as each chunk is split, the names once read
    for irregular in ("", text + "\n\n", " " + text, short_long, *comments, *other_ends):
        with pytest.raises(_Irregular):
            _tensor(_bulk_batches(irregular, "tail<TAB>label<TAB>head"))


_LONG_LABELS = ("authored", "cites", "contains", "category")


def _long_text(case):
    """A regular triple text of about six bulk chunks, with `case` in it."""
    rng = np.random.default_rng(11)
    rows = [
        [f"v{rng.integers(3000)}", _LONG_LABELS[rng.integers(4)], f"v{rng.integers(3000)}"]
        for _ in range(6000)
    ]
    if case == "padded last":
        rows[-1][1] = rows[-1][1] + " "
    elif case == "empty last":
        rows[-1][2] = ""
    elif case == "label as vertex":
        # a vertex named `cites` in the first chunk and in the last
        rows[3][0] = rows[-3][2] = "cites"
        rows[-2][0] = "authored"
    elif case == "duplicates":
        # triples of the first chunk again in the last, one of them twice
        rows += rows[:40] + [rows[0]]
    return "".join("\t".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("case", ["padded last", "empty last", "label as vertex", "duplicates"])
def test_readers_agree_across_chunks(case):
    text = _long_text(case)
    layout = "tail<TAB>label<TAB>head"
    assert len(list(_bulk_batches(text, layout))) > 4 and len(text) > 4 * _CHUNK_CHARS
    per_line = _outcome(lambda: _tensor(_line_batches(text, layout)))
    assert per_line == _outcome(lambda: _reference_tensor(_records(text, layout)))
    assert _outcome(lambda: parse_triples(text)) == per_line
    if case.endswith("last"):
        # every chunk but the last is regular; the flaw still sends the text
        # to the per-line reader
        with pytest.raises(_Irregular):
            _tensor(_bulk_batches(text, layout))
    else:
        assert _outcome(lambda: _tensor(_bulk_batches(text, layout))) == per_line
    if case == "empty last":
        assert per_line == ("error", f"line 6000: expected `{layout}`, got {text.splitlines()[-1]!r}")
    if case == "label as vertex":
        assert "cites" in per_line[1][0] and "authored" in per_line[1][0]


def test_read_text_skips_a_bom_and_reads_line_ends_as_text(tmp_path):
    plain = "h1\tauthored\ta1\nh1\tcites\th2\n"
    path = tmp_path / "g.tsv"
    path.write_bytes(plain.encode("utf-8"))
    want = _outcome(lambda: read_triples(str(path)))
    assert want[1][0] == ["h1", "a1", "h2"]
    path.write_bytes(b"\xef\xbb\xbf" + plain.encode("utf-8"))
    assert read_text(str(path)) == plain
    assert _outcome(lambda: read_triples(str(path))) == want
    # as a file opened in text mode reads them
    path.write_bytes(b"a\r\nb\rc\n\r\n")
    assert read_text(str(path)) == "a\nb\nc\n\n"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_read_text_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, bom):
    path = tmp_path / "g.tsv"
    path.write_bytes(bom + b"h1\tauthored\ta\xe91\n")
    with pytest.raises(GraphFormatError) as err:
        read_triples(str(path))
    at = len(bom) + len(b"h1\tauthored\ta")
    assert str(err.value) == f"{path}: not UTF-8 at byte offset {at} (invalid continuation byte)"
