"""Vertex dictionary and the three-way boolean tensor of a multi-relational network.

A network with m edge labels over one vertex set is stored as m sparse
boolean adjacency slices sharing a single dense integer id space. Ids are
assigned in first-seen order across all labels, so ingestion order changes
ids but never semantics.

Files are read as UTF-8; a leading byte-order mark is skipped, and bytes
that are not UTF-8 raise GraphFormatError naming the file and byte offset.

TSV text is split in bulk, a chunk of lines at a time, when it is regular:
only "\\n" line ends, and no comment, blank line, or empty or padded field.
Any other text is read line by line, and that reader words every format
error; both give the same result. Triples take one dictionary probe per
field: each name is recorded at its first position, and one numpy pass
turns those positions into dense ids. The empty-or-padded check then reads
the distinct vertex and label names, not every field.

A slice builds its CSR path matrix on the first ``to_matrix()`` and holds
it, so every evaluation over the tensor shares one matrix per label. Its
data, index and pointer arrays are read-only: no kernel writes into an
operand, and a write into the shared matrix raises instead of changing the
tensor.
"""

from __future__ import annotations

import codecs
import itertools
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
        self.extend(names)

    def extend(self, names: Iterable[str]) -> None:
        """Give each name not yet present the next id, in first-seen order."""
        fresh = list(itertools.filterfalse(self.index.__contains__, dict.fromkeys(names)))
        self.index.update(zip(fresh, range(len(self.names), len(self.names) + len(fresh))))
        self.names += fresh

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
    The path matrix is built on the first `to_matrix()` and held, read-only.
    """

    __slots__ = ("label", "n", "tails", "heads", "signature", "_matrix")

    def __init__(self, label, n, tails, heads, signature=None):
        n = int(n)
        if not 0 <= n <= 2**32:
            # no tensor holds more named vertices, and n * n then fits in uint64
            raise GraphFormatError(f"slice {label!r}: order {n} is outside 0..2**32")
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.size and (tails.min() < 0 or tails.max() >= n):
            raise GraphFormatError(f"slice {label!r}: tail id out of range")
        if heads.size and (heads.min() < 0 or heads.max() >= n):
            raise GraphFormatError(f"slice {label!r}: head id out of range")
        # one key per pair, its two digits in base n, sorts in (tail, head) order
        base = np.uint64(n)
        key = tails.view(np.uint64) * base + heads.view(np.uint64)
        key.sort()
        if key.size:
            key = key[np.append(True, key[1:] != key[:-1])]
        tails, heads = (digit.view(np.int64) for digit in np.divmod(key, base))
        self.label = label
        self.n = n
        self.tails = tails
        self.heads = heads
        self.signature = signature
        self._matrix = None

    @property
    def nnz(self) -> int:
        return int(self.tails.size)

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.tails.tolist(), self.heads.tolist()))

    def to_matrix(self) -> PathMatrix:
        """The slice's {0,1} path matrix: one per slice, its arrays read-only."""
        if self._matrix is None:
            matrix = PathMatrix._from_sorted_pairs(self.n, self.tails, self.heads)
            mat = matrix.mat
            for arr in (mat.data, mat.indices, mat.indptr):
                arr.flags.writeable = False
            self._matrix = matrix
        return self._matrix


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
    fields: list[str] = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise GraphFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        tail, label, head = row
        if not tail or not label or not head:
            raise GraphFormatError(f"line {lineno}: empty tail, label, or head")
        fields += row
    return _build_tensor([fields])


def _first_seen(index: dict, names: list, at) -> np.ndarray:
    """For each of `names`, the position `at` counted when the name first
    entered `index`; a name not yet in `index` enters at its own position."""
    return np.fromiter(map(index.setdefault, names, at), np.int64, len(names))


def _dense_ids(first: np.ndarray) -> np.ndarray:
    """Dense ids in first-seen order from first-appearance positions: the
    k-th position that is its own first appearance gets id k."""
    new = first == np.arange(first.size)
    return (np.cumsum(new) - 1)[first]


def _build_tensor(batches: Iterable[list[str]]) -> MultiRelTensor:
    """Build a tensor from batches of (tail, label, head) fields, each batch
    one flat row-major list. Vertex ids follow first appearance, tail before
    head; slices follow the first appearance of their label."""
    # name -> position of its first appearance; the counters run across batches
    vertices: dict = {}
    labels: dict = {}
    vertex_at, label_at = itertools.count(), itertools.count()
    ends, kinds = [], []
    for fields in batches:
        kind = fields[1::3]
        del fields[1::3]  # leaves tail, head, tail, head, ...
        ends.append(_first_seen(vertices, fields, vertex_at))
        kinds.append(_first_seen(labels, kind, label_at))
    if not kinds:
        return MultiRelTensor(VertexDictionary(), {})  # raises: no edges
    ends = _dense_ids(np.concatenate(ends))
    kinds = _dense_ids(np.concatenate(kinds))
    order = np.argsort(kinds, kind="stable")
    tails, heads = ends[0::2][order], ends[1::2][order]
    stops = np.cumsum(np.bincount(kinds, minlength=len(labels))).tolist()
    n = len(vertices)
    slices = {
        label: EdgeSlice(label, n, tails[start:stop], heads[start:stop])
        for label, start, stop in zip(labels, [0, *stops], stops)
    }
    return MultiRelTensor(VertexDictionary(vertices), slices)


def _tensor(batches: Iterable[list[str]]) -> MultiRelTensor:
    """`_build_tensor` over the field batches of a TSV reader. Raises
    _Irregular if a vertex or label name is empty or padded, which only the
    bulk reader yields; the check reads each distinct name once."""
    tensor = _build_tensor(batches)
    _regular(tensor.vertices.names)
    _regular(tensor.labels)
    return tensor


# str.splitlines ends a line at each of these as well as at "\n"
_OTHER_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# the bulk reader splits this many characters at a time, up to a line end;
# larger chunks are no faster and leave more memory resident after the read
_CHUNK_CHARS = 1 << 14
# the per-line reader hands on this many records at a time
_BATCH_RECORDS = 4096


class _Irregular(Exception):
    """Input the bulk reader leaves to the per-line reader."""


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


def _line_batches(text: str, layout: str):
    """The records of `_records`, as flat row-major field lists of bounded
    batches."""
    records = _records(text, layout)
    while batch := [f for record in itertools.islice(records, _BATCH_RECORDS) for f in record]:
        yield batch


def _bulk_batches(text: str, layout: str):
    """The fields of TSV `text`, as flat row-major lists of bounded chunks of
    lines, split whole rather than line by line. Raises _Irregular unless
    every line ends at "\\n" and holds `layout`'s number of fields, and no
    line is blank or a `#` comment. Fields may be empty or padded: the
    builder checks them with `_regular`."""
    width = layout.count("<TAB>") + 1
    if (
        not text
        or text[0] in "\n#"
        or "\n\n" in text
        or "\n#" in text
        or any(brk in text for brk in _OTHER_LINE_BREAKS)
    ):
        raise _Irregular
    end = len(text) - 1 if text.endswith("\n") else len(text)
    pos = 0
    while pos < end:
        cut = text.find("\n", pos + _CHUNK_CHARS, end)
        cut = end if cut < 0 else cut
        chunk = text[pos:cut]
        pos = cut + 1
        fields = chunk.replace("\n", "\t").split("\t")
        # each line holds `width` fields iff every width-th separator is a
        # line end; "\t" and "\n" are one byte each in UTF-8
        raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
        seps = raw[(raw == 9) | (raw == 10)]
        if len(fields) % width or not np.array_equal(
            np.flatnonzero(seps == 10), np.arange(width - 1, len(fields) - 1, width)
        ):
            raise _Irregular
        yield fields


def _regular(names: Iterable[str]) -> None:
    """Raise _Irregular if any of the distinct `names` is empty or padded:
    the per-line reader strips a field, or refuses it if nothing is left."""
    names = list(names)
    if "" in names or list(map(str.strip, names)) != names:
        raise _Irregular


def _parse(text: str, layout: str, build):
    """`build` applied to the field batches of TSV `text`: read in bulk when
    the text is regular, else line by line, which words every error."""
    try:
        return build(_bulk_batches(text, layout))
    except _Irregular:
        return build(_line_batches(text, layout))


def read_text(path: str) -> str:
    """The text of UTF-8 file `path`, without a leading byte-order mark, its
    "\\r\\n" and "\\r" line ends read as "\\n". Bytes that are not UTF-8
    raise GraphFormatError naming the file and the offset of the first."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # utf-8-sig counts offsets after the byte-order mark
        at = err.start + len(codecs.BOM_UTF8) * data.startswith(codecs.BOM_UTF8)
        raise GraphFormatError(
            f"{path}: not UTF-8 at byte offset {at} ({err.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_triples(text: str) -> MultiRelTensor:
    """Parse the TSV triple format: `tail<TAB>label<TAB>head`, `#` comments."""
    return _parse(text, "tail<TAB>label<TAB>head", _tensor)


def read_triples(path: str) -> MultiRelTensor:
    return parse_triples(read_text(path))


def format_triples(tensor: MultiRelTensor) -> str:
    return "".join(f"{t}\t{l}\t{h}\n" for t, l, h in tensor.to_triples())


def _signatures(batches) -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for fields in batches:
        _regular(set(fields))
        out.update(zip(fields[0::3], zip(fields[1::3], fields[2::3])))
    return out


def parse_signatures(text: str) -> dict[str, tuple[str, str]]:
    """Parse the signature format: `label<TAB>domainClass<TAB>rangeClass`."""
    return _parse(text, "label<TAB>domain<TAB>range", _signatures)


def read_signatures(path: str) -> dict[str, tuple[str, str]]:
    return parse_signatures(read_text(path))


def _properties(batches) -> dict[str, str]:
    out: dict[str, str] = {}
    for fields in batches:
        _regular(set(fields))
        out.update(zip(fields[0::2], fields[1::2]))
    return out


def parse_properties(text: str) -> dict[str, str]:
    """Parse a per-vertex property table: `vertex<TAB>value`."""
    return _parse(text, "vertex<TAB>value", _properties)


def read_properties(path: str) -> dict[str, str]:
    return parse_properties(read_text(path))
