import numpy as np
import pytest

from pathweave.errors import EvalError, GraphFormatError
from pathweave.tensor import (
    MultiRelTensor,
    format_triples,
    ingest_triples,
    parse_properties,
    parse_signatures,
    parse_triples,
    read_properties,
    read_signatures,
    read_triples,
)

from conftest import FIXTURE1_TRIPLES
from oracles import count_typed_paths


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
