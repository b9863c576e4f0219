"""Vertex dictionary and the three-way boolean tensor of a multi-relational network.

A network with m edge labels over one vertex set is stored as m sparse
boolean adjacency slices sharing a single dense integer id space. Ids are
assigned in first-seen order across all labels, so ingestion order changes
ids but never semantics.
"""

from __future__ import annotations

import io
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EvalError, GraphFormatError
from .kernels import PathMatrix


class VertexDictionary:
    """Bijection between vertex names and dense integer ids."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.index[name] = idx
        return idx

    def id(self, name: str) -> int:
        return self.index[name]

    def name(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __iter__(self):
        return iter(self.names)


class EdgeSlice:
    """One boolean adjacency slice: the set of (tail, head) pairs of a label.

    Pairs are kept as parallel sorted id arrays; duplicates are collapsed.
    `signature` optionally names the (domainClass, rangeClass) of the label.
    """

    __slots__ = ("label", "n", "tails", "heads", "signature")

    def __init__(self, label, n, tails, heads, signature=None):
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.size and (tails.min() < 0 or tails.max() >= n):
            raise GraphFormatError(f"slice {label!r}: tail id out of range")
        if heads.size and (heads.min() < 0 or heads.max() >= n):
            raise GraphFormatError(f"slice {label!r}: head id out of range")
        order = np.lexsort((heads, tails))
        tails, heads = tails[order], heads[order]
        if tails.size:
            keep = np.ones(tails.size, dtype=bool)
            keep[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
            tails, heads = tails[keep], heads[keep]
        self.label = label
        self.n = int(n)
        self.tails = tails
        self.heads = heads
        self.signature = signature

    @property
    def nnz(self) -> int:
        return int(self.tails.size)

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.tails.tolist(), self.heads.tolist()))

    def to_matrix(self) -> PathMatrix:
        return PathMatrix.from_pairs(self.n, self.tails, self.heads)


class MultiRelTensor:
    """Immutable n x n x m boolean tensor: m labeled slices over one dictionary."""

    __slots__ = ("vertices", "slices")

    def __init__(self, vertices: VertexDictionary, slices: Mapping[str, EdgeSlice]):
        if not slices:
            raise GraphFormatError("no edges")
        n = len(vertices)
        for s in slices.values():
            if s.n != n:
                raise GraphFormatError(f"slice {s.label!r} has order {s.n}, expected {n}")
        self.vertices = vertices
        self.slices = dict(slices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.slices)

    @property
    def labels(self) -> list[str]:
        return list(self.slices)

    def slice(self, label: str) -> EdgeSlice:
        try:
            return self.slices[label]
        except KeyError:
            raise EvalError(
                f"unknown slice label {label!r}; available: {', '.join(sorted(self.slices))}"
            ) from None

    def matrix(self, label: str) -> PathMatrix:
        return self.slice(label).to_matrix()

    def to_triples(self) -> list[tuple[str, str, str]]:
        """Export as (tail, label, head) name triples, deterministically sorted."""
        out = []
        names = self.vertices.names
        for label, s in self.slices.items():
            for t, h in zip(s.tails.tolist(), s.heads.tolist()):
                out.append((names[t], label, names[h]))
        out.sort(key=lambda r: (r[1], r[0], r[2]))
        return out

    def with_signatures(self, signatures: Mapping[str, tuple[str, str]]) -> "MultiRelTensor":
        """Return a copy with per-label (domainClass, rangeClass) attached."""
        slices = {}
        for label, s in self.slices.items():
            sig = signatures.get(label, s.signature)
            slices[label] = EdgeSlice(label, s.n, s.tails, s.heads, signature=sig)
        return MultiRelTensor(self.vertices, slices)

    @classmethod
    def from_edges(
        cls,
        names: Sequence[str] | int,
        edges: Mapping[str, tuple[np.ndarray, np.ndarray]],
        signatures: Mapping[str, tuple[str, str]] | None = None,
    ) -> "MultiRelTensor":
        """Programmatic constructor from id arrays (used for large synthetic tensors)."""
        if isinstance(names, int):
            names = [f"v{i}" for i in range(names)]
        vertices = VertexDictionary(names)
        n = len(vertices)
        slices = {}
        for label, (tails, heads) in edges.items():
            sig = signatures.get(label) if signatures else None
            slices[label] = EdgeSlice(label, n, tails, heads, signature=sig)
        return cls(vertices, slices)


def ingest_triples(rows: Iterable[Sequence[str]]) -> MultiRelTensor:
    """Build a tensor from (tail, label, head) string triples.

    Vertex ids are assigned first-seen across all labels; duplicate triples
    collapse to one edge. Raises GraphFormatError for empty input or a
    malformed row (reported with its 1-based position).
    """
    vertices = VertexDictionary()
    by_label: dict[str, tuple[list[int], list[int]]] = {}
    count = 0
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise GraphFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        tail, label, head = row
        if not tail or not label or not head:
            raise GraphFormatError(f"line {lineno}: empty tail, label, or head")
        ti = vertices.add(tail)
        hi = vertices.add(head)
        tails, heads = by_label.setdefault(label, ([], []))
        tails.append(ti)
        heads.append(hi)
        count += 1
    if count == 0:
        raise GraphFormatError("no edges")
    n = len(vertices)
    slices = {
        label: EdgeSlice(label, n, tails, heads) for label, (tails, heads) in by_label.items()
    }
    return MultiRelTensor(vertices, slices)


def _records(text: str, layout: str):
    """Yield the stripped fields of each record in TSV `text` laid out as
    `layout` (e.g. `vertex<TAB>value`); blank lines and `#` comments are
    skipped, and a malformed record raises GraphFormatError naming its line."""
    width = layout.count("<TAB>") + 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width or not all(f.strip() for f in fields):
            raise GraphFormatError(f"line {lineno}: expected `{layout}`, got {line!r}")
        yield tuple(f.strip() for f in fields)


def _read(path: str) -> str:
    with io.open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_triples(text: str) -> MultiRelTensor:
    """Parse the TSV triple format: `tail<TAB>label<TAB>head`, `#` comments."""
    return ingest_triples(_records(text, "tail<TAB>label<TAB>head"))


def read_triples(path: str) -> MultiRelTensor:
    return parse_triples(_read(path))


def format_triples(tensor: MultiRelTensor) -> str:
    return "".join(f"{t}\t{l}\t{h}\n" for t, l, h in tensor.to_triples())


def parse_signatures(text: str) -> dict[str, tuple[str, str]]:
    """Parse the signature format: `label<TAB>domainClass<TAB>rangeClass`."""
    return {label: (dom, rng) for label, dom, rng in _records(text, "label<TAB>domain<TAB>range")}


def read_signatures(path: str) -> dict[str, tuple[str, str]]:
    return parse_signatures(_read(path))


def parse_properties(text: str) -> dict[str, str]:
    """Parse a per-vertex property table: `vertex<TAB>value`."""
    return dict(_records(text, "vertex<TAB>value"))


def read_properties(path: str) -> dict[str, str]:
    return parse_properties(_read(path))
