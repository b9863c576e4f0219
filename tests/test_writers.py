"""Byte-for-byte checks of the output writers against straight-line
per-entry writers built from dense matrices."""

import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pathweave.cli import main
from pathweave.evaluate import evaluate
from pathweave.expr import parse
from pathweave.kernels import PathMatrix, export_tsv
from pathweave.tensor import read_triples

from oracles import dense_reference_eval, min_power_distances

# x -> y -> z -> x is a cycle that w enters and nothing leaves for w, so
# (x, w) is unreachable; s is entered from y and reaches nothing. `also`
# adds a second x -> z route so that two-hop counts exceed one.
TRIPLES = [
    ("w", "next", "x"),
    ("x", "next", "y"),
    ("y", "next", "z"),
    ("z", "next", "x"),
    ("y", "next", "s"),
    ("x", "also", "z"),
    ("w", "also", "y"),
]


def fmt(x):
    return format(float(x), ".12g")


def reference_tsv(dense, names):
    lines = []
    for i in range(len(names)):
        for j in range(len(names)):
            if dense[i, j]:
                w = str(int(dense[i, j])) if dense.dtype.kind == "i" else fmt(dense[i, j])
                lines.append(f"{names[i]}\t{names[j]}\t{w}\n")
    return "".join(lines)


def reference_json(dense, names):
    entries = []
    for i in range(len(names)):
        for j in range(len(names)):
            if dense[i, j]:
                entries.append([names[i], names[j], float(fmt(dense[i, j]))])
    return json.dumps({"n": len(names), "entries": entries}, ensure_ascii=False) + "\n"


def reached_pairs(dist):
    """For each vertex i, {j: hops} over the j != i it reaches in `dist`."""
    n = len(dist)
    return [
        {j: int(dist[i, j]) for j in range(n) if j != i and math.isfinite(dist[i, j])}
        for i in range(n)
    ]


def reference_geodesic(reached, names):
    """(tsv, json) text of the geodesic report, one pair at a time, from
    `reached_pairs`."""
    n = len(names)
    rows, values, pairs = [], {}, []
    eccs = []
    for i in range(n):
        hops = [reached[i][j] for j in sorted(reached[i])]
        ecc = max(hops) if hops else None
        clo = sum(hops) / len(hops) if hops else None
        if ecc is not None:
            eccs.append(ecc)
        rows.append(
            f"{names[i]}\t{'' if ecc is None else fmt(ecc)}\t"
            f"{'' if clo is None else fmt(clo)}\t{len(hops)}\n"
        )
        values[names[i]] = {
            "eccentricity": None if ecc is None else float(fmt(ecc)),
            "closeness": None if clo is None else float(fmt(clo)),
            "reached": len(hops),
        }
        for j in sorted(reached[i]):
            pairs.append([names[i], names[j], reached[i][j]])
    radius = min(eccs) if eccs else None
    diameter = max(eccs) if eccs else None
    tsv = "".join(rows)
    tsv += f"#radius\t{'' if radius is None else fmt(radius)}\n"
    tsv += f"#diameter\t{'' if diameter is None else fmt(diameter)}\n"
    tsv += "".join(f"d\t{a}\t{b}\t{h}\n" for a, b, h in pairs)
    payload = {
        "metric": "geodesic",
        "scalars": {
            "radius": None if radius is None else float(fmt(radius)),
            "diameter": None if diameter is None else float(fmt(diameter)),
        },
        "values": values,
        "distances": pairs,
    }
    return tsv, json.dumps(payload, ensure_ascii=False) + "\n"


@pytest.fixture
def graph(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{t}\t{l}\t{h}\n" for t, l, h in TRIPLES), encoding="utf-8")
    return str(path), read_triples(str(path))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# kind -> (expression, its value from the dense `next` and `also` slices)
EXPRESSIONS = {
    "int": ("A[next] . A[next] + A[also] . A[next]", lambda nxt, also: nxt @ nxt + also @ nxt),
    "float": ("0.3 * A[next] + A[also]", lambda nxt, also: 0.3 * nxt + also),
    "empty": ("A[next] & A[also]", lambda nxt, also: nxt * also),
    "complement": ("not(A[next])", lambda nxt, also: 1 - nxt),
}


@pytest.mark.parametrize("kind", list(EXPRESSIONS))
def test_eval_writers_match_straight_line(graph, kind, capsys):
    path, t = graph
    names = t.vertices.names
    text, value = EXPRESSIONS[kind]
    want = value(t.matrix("next").to_dense(), t.matrix("also").to_dense())
    z = evaluate(parse(text), t)
    assert z.complement == (kind == "complement")
    assert export_tsv(z, names) == reference_tsv(want, names)
    code, out, _ = run(["eval", "--graph", path, "--expr", text], capsys)
    assert (code, out) == (0, reference_tsv(want, names))
    code, out, _ = run(["eval", "--graph", path, "--expr", text, "--format", "json"], capsys)
    assert (code, out) == (0, reference_json(want, names))


def test_export_tsv_matches_straight_line(rng):
    names = [f"v{i}" for i in range(9)]
    for _ in range(20):
        mask = rng.random((9, 9)) < 0.4
        ints = mask * rng.integers(1, 1000, size=(9, 9))
        floats = mask * rng.random((9, 9)) * 1e3
        assert export_tsv(PathMatrix.from_dense(ints), names) == reference_tsv(ints, names)
        assert export_tsv(PathMatrix.from_dense(floats), names) == reference_tsv(floats, names)
        comp = PathMatrix.from_dense(mask.astype(np.int64), complement=True)
        assert comp.complement
        assert export_tsv(comp, names) == reference_tsv(mask.astype(np.int64), names)
    assert export_tsv(PathMatrix.zeros(9), names) == ""


@pytest.mark.parametrize("text", ["A[next]", "A[next] + A[also]", "A[also]", "A[next] & A[also]"])
def test_geodesic_writers_match_straight_line(graph, text, capsys):
    path, t = graph
    names = t.vertices.names
    adj = evaluate(parse(text), t).to_dense()
    want_tsv, want_json = reference_geodesic(reached_pairs(min_power_distances(adj)), names)
    assert run(["geodesic", "--graph", path, "--expr", text], capsys) == (0, want_tsv, "")
    assert run(
        ["geodesic", "--graph", path, "--expr", text, "--format", "json"], capsys
    ) == (0, want_json, "")


def test_geodesic_fixture_has_unreached_cases(graph, capsys):
    path, _ = graph
    code, out, _ = run(["geodesic", "--graph", path, "--expr", "A[next]"], capsys)
    assert code == 0
    assert "s\t\t\t0\n" in out  # s reaches nothing
    assert "d\tx\tw\t" not in out  # nothing reaches w
    payload = json.loads(
        run(["geodesic", "--graph", path, "--expr", "A[next]", "--format", "json"], capsys)[1]
    )
    assert payload["values"]["s"] == {"eccentricity": None, "closeness": None, "reached": 0}


# -- a larger random graph --------------------------------------------------

# 300 vertices by position: 0-239 a random `link` core (0-39 also a dense
# `dense` block), 240-249 sinks the core links to, 250-259 sources linking
# into the core, 260-279 a `link` chain out of vertex 0, and 280-299 joined
# only by `tag`, so isolated under `link`.
_SHAPES = ("v{}", "é{}", "東京{}", 'q"{}', "b\\{}", "ü{}-ß")


def big_triples(rng):
    names = [_SHAPES[i % len(_SHAPES)].format(i) for i in range(300)]
    edges = set()
    for i in range(240):
        edges.update((i, "link", int(j)) for j in rng.choice(240, size=2, replace=False))
    for i in range(240, 250):
        edges.add((int(rng.integers(240)), "link", i))
    for i in range(250, 260):
        edges.add((i, "link", int(rng.integers(240))))
    edges.update((i, "link", i + 1) for i in range(260, 279))
    edges.add((0, "link", 260))
    dense = rng.random((40, 40)) < 0.9
    edges.update((int(i), "dense", int(j)) for i, j in zip(*np.nonzero(dense)))
    edges.update((i, "tag", i + 1) for i in range(280, 299))
    return [(names[t], label, names[h]) for t, label, h in sorted(edges)]


def bfs_distances(adj):
    """Hop counts by a breadth-first search from each vertex; 0 on the
    diagonal, inf where unreached."""
    n = adj.shape[0]
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]
    dist = np.full((n, n), math.inf)
    for s in range(n):
        dist[s, s] = 0
        frontier, hops = [s], 0
        while frontier:
            hops += 1
            reached = []
            for u in frontier:
                for v in succ[u]:
                    if dist[s, v] == math.inf:
                        dist[s, v] = hops
                        reached.append(v)
            frontier = reached
    return dist


@pytest.fixture(scope="module")
def big_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "g.tsv"
    triples = big_triples(np.random.default_rng(1931))
    path.write_text("".join(f"{t}\t{l}\t{h}\n" for t, l, h in triples), encoding="utf-8")
    t = read_triples(str(path))
    assert t.n == 300
    return str(path), t


_DENSE_POWER = " . ".join(["A[dense]"] * 12)

# kind -> expression; its value comes from the dense reference evaluator
BIG_EXPRESSIONS = {
    "int-beyond-2**53": _DENSE_POWER,
    "float": "0.3 * (A[dense] . A[dense] . A[dense]) + 0.7 * (A[link] . A[dense] . A[dense])",
    "unsorted": "(A[link] . A[link]' & not(I)) . A[dense]",
    "complement": "not(A[link])",
}


@pytest.mark.parametrize("kind", list(BIG_EXPRESSIONS))
def test_eval_writers_on_a_larger_graph(big_graph, kind, capsys):
    path, t = big_graph
    names = t.vertices.names
    text = BIG_EXPRESSIONS[kind]
    want = dense_reference_eval(parse(text), t)
    z = evaluate(parse(text), t)
    values = want[want != 0]
    if kind == "int-beyond-2**53":
        assert z.dtype == np.int64 and want.max() < 2**62
        # counts a float64 cannot hold, which must print exactly
        assert any(int(float(v)) != v for v in values.tolist() if v >= 2**53)
    elif kind == "float":
        assert len(set(values.tolist())) > 500
    elif kind == "unsorted":
        assert not z.mat.has_sorted_indices
    else:
        assert z.complement
    assert export_tsv(z, names) == reference_tsv(want, names)
    code, out, _ = run(["eval", "--graph", path, "--expr", text], capsys)
    assert (code, out) == (0, reference_tsv(want, names))
    code, out, _ = run(["eval", "--graph", path, "--expr", text, "--format", "json"], capsys)
    assert (code, out) == (0, reference_json(want, names))


@pytest.mark.parametrize("text", ["A[link]", "A[link]' + A[tag]", "A[link] . A[link] & not(I)"])
def test_geodesic_writers_on_a_larger_graph(big_graph, text, capsys):
    path, t = big_graph
    names = t.vertices.names
    dist = bfs_distances(dense_reference_eval(parse(text), t))
    finite = dist[np.isfinite(dist)]
    reach = np.isfinite(dist).sum(axis=1) - 1
    assert (reach == 0).any() and (reach < t.n - 1).all()  # reaches nothing; never everything
    if text == "A[link]":
        assert finite.max() >= 10
    want_tsv, want_json = reference_geodesic(reached_pairs(dist), names)
    assert run(["geodesic", "--graph", path, "--expr", text], capsys) == (0, want_tsv, "")
    assert run(
        ["geodesic", "--graph", path, "--expr", text, "--format", "json"], capsys
    ) == (0, want_json, "")


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_writers_hold_their_bytes_in_small_chunks(big_graph, monkeypatch, capsys, chunk):
    import pathweave.kernels as kernels

    monkeypatch.setattr(kernels, "_WRITE_CELLS", chunk)
    path, t = big_graph
    names = t.vertices.names
    for text in BIG_EXPRESSIONS.values():
        want = dense_reference_eval(parse(text), t)
        assert export_tsv(evaluate(parse(text), t), names) == reference_tsv(want, names)
    text = "A[link] + A[dense]"
    reached = reached_pairs(bfs_distances(dense_reference_eval(parse(text), t)))
    assert max(len(row) for row in reached) > 7  # a row longer than any chunk
    want_tsv, want_json = reference_geodesic(reached, names)
    assert run(["geodesic", "--graph", path, "--expr", text], capsys) == (0, want_tsv, "")
    assert run(
        ["geodesic", "--graph", path, "--expr", text, "--format", "json"], capsys
    ) == (0, want_json, "")
    code, out, _ = run(["eval", "--graph", path, "--expr", text, "--format", "json"], capsys)
    assert (code, out) == (0, reference_json(dense_reference_eval(parse(text), t), names))


def test_cell_rows_build_a_bounded_chunk_at_a_time(rng, monkeypatch):
    import pathweave.kernels as kernels

    class Spans(np.ndarray):
        """Index array that records the length of each span sliced from it."""

        seen = []

        def __getitem__(self, key):
            Spans.seen.append(key.stop - key.start)
            return np.asarray(self)[key]

    monkeypatch.setattr(kernels, "_WRITE_CELLS", 7)
    lengths = rng.integers(0, 6, size=40)
    lengths[[3, 17]] = [0, 12]  # an empty row, and one longer than a chunk
    indptr = np.append(0, np.cumsum(lengths))
    indices = rng.integers(0, 9, size=indptr[-1]).astype(np.int32)
    codes = rng.integers(0, 4, size=indptr[-1])
    heads = np.array([f"h{j}:" for j in range(9)], dtype=object)
    texts = np.array(["a", "b", "c", "d"], dtype=object)
    leads = [f"r{i}" for i in range(40)]
    rows = list(kernels.cell_rows(leads, heads, indptr, indices.view(Spans), codes, texts))
    want = [
        (leads[i], [f"h{indices[e]}:{texts[codes[e]]}" for e in range(indptr[i], indptr[i + 1])])
        for i in range(40)
    ]
    assert rows == want
    assert sum(Spans.seen) == indptr[-1]
    assert max(Spans.seen) == 12 and sorted(Spans.seen)[-2] <= 7


@pytest.mark.parametrize("kind", ["int-beyond-2**53", "float"])
def test_eval_tsv_is_written_a_row_at_a_time(big_graph, monkeypatch, kind):
    path, t = big_graph
    text = BIG_EXPRESSIONS[kind]
    z = evaluate(parse(text), t)
    assert z.dtype == (np.int64 if kind.startswith("int") else np.float64)
    pieces = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append, writelines=pieces.extend))
    assert main(["eval", "--graph", path, "--expr", text]) == 0
    whole = export_tsv(z, t.vertices.names)
    assert "".join(pieces) == whole
    # one piece per row that holds an entry, never the whole text at once
    assert len(pieces) == len({line.split("\t")[0] for line in whole.splitlines()}) > 1
