"""Graph construction, ingestion and matrix views for biomolecular networks.

The central type is :class:`LabeledGraph`, an immutable node-indexed graph
with string labels.  Undirected edges are stored once with ``j < k``;
self-loops are dropped at construction and duplicate edges are merged by
summing their weights.  All walk modules operate on these graphs through
the sparse matrix views built here (adjacency, degree, Laplacian).

Input tables are parsed a column at a time by :func:`read_table`, an edge
list ``EDGE_BLOCK`` lines at a time; lines end at ``\\n``, so an error
names the line an editor shows.

Cell-cell interaction (CCI) networks are handled by
:class:`PartitionedCciGraph`, a directed four-partite graph whose layers
are ``sender -> ligand -> receptor -> receiver`` and whose edges may only
connect adjacent layers in the forward direction.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

CCI_LAYERS = ("sender", "ligand", "receptor", "receiver")

# a run of whitespace inside one line; ``str.split()`` splits on the same set
_BLANKS = re.compile(r"[^\S\n]+")

# lines of an edge list parsed at a time: a block's strings are freed before
# the next is split, and smaller blocks save little memory for more calls
EDGE_BLOCK = 8192


class GraphFormatError(ValueError):
    """Malformed edge-list or node-layer input."""


class CciValidationError(ValueError):
    """Edge set violates the four-partite layer constraints."""


def as_int(x, what: str, low: int | None = None) -> int:
    """``x`` as an int of at least ``low``; a ValueError names a string, a bool,
    a non-number, a value with a fraction or one below ``low``."""
    try:
        whole = isinstance(x, (int, np.integer)) or not isinstance(x, str) and float(x).is_integer()
    except TypeError:  # None, a list or another value that is no number
        whole = False
    if not whole or isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{what} {repr(x) if isinstance(x, str) else x} is not an integer")
    x = int(x)
    if low is not None and x < low:
        raise ValueError(f"{what} must be >= {low}, got {x}")
    return x


def as_tuple(values, what: str) -> tuple:
    """``values`` as a tuple; a ValueError names ``what`` given one string."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a sequence, not the string {values!r}")
    return tuple(values)


def node_index(x, n: int, what: str) -> int:
    """``x`` as a node index in ``[0, n)``; a ValueError names any other value, a string too."""
    if not 0 <= as_int(x, what) < n:
        raise ValueError(f"{what} {x} is out of range for {n} nodes")
    return int(x)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledGraph:
    """Node-indexed graph with unique string labels.

    Parameters
    ----------
    labels : tuple of str
        Node labels; index ``i`` refers to ``labels[i]``.
    edges : ndarray of shape (m, 2)
        Integer index pairs.  For undirected graphs each edge appears once
        with ``edges[e, 0] < edges[e, 1]``.
    directed : bool
        Whether edges are ordered pairs.
    weights : ndarray of shape (m,)
        Nonnegative edge weights (1.0 for unweighted input).

    Graphs compare by value (labels, direction, and ``np.array_equal``
    edges and weights) and hash by their labels and direction.
    """

    labels: tuple[str, ...]
    edges: np.ndarray
    directed: bool = False
    weights: np.ndarray | None = None
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        n = len(labels)
        index = dict(zip(labels, range(n)))
        if len(index) != n:
            raise GraphFormatError("node labels must be unique")
        edges = np.asarray(self.edges)
        whole = edges.dtype.kind != "f" or np.isfinite(edges) & (edges == np.trunc(edges))
        if not np.all(whole):
            raise GraphFormatError(f"edge index {edges[~whole][0]} is not an integer")
        edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphFormatError("edge indices out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise GraphFormatError("self-loops are not allowed after construction")
        if not self.directed and edges.size and np.any(edges[:, 0] > edges[:, 1]):
            raise GraphFormatError("undirected edges must be stored with j < k")
        weights = self.weights
        if weights is None:
            weights = np.ones(edges.shape[0])
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != edges.shape[0]:
            raise GraphFormatError("weights length must match edge count")
        if weights.size and (not np.all(np.isfinite(weights)) or weights.min() < 0):
            raise GraphFormatError("edge weights must be finite and >= 0")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", _frozen(edges))
        object.__setattr__(self, "weights", _frozen(weights))
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def index(self, label: str) -> int:
        """Return the node index of ``label``."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def node(self, x, what: str) -> int:
        """Index of node ``x``, a label or an index in ``[0, n)``; ``what`` names a bad index."""
        return self.index(x) if isinstance(x, str) else node_index(x, self.n, what)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            (self.labels, self.directed) == (other.labels, other.directed)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.directed))

    @cached_property
    def components(self) -> np.ndarray:
        """Read-only weak-component id of each node (:func:`weak_labels`):
        every stored edge joins its ends, whatever its weight or direction."""
        return _frozen(weak_labels(self.n, self.edges))

    @cached_property
    def label_array(self) -> np.ndarray:
        """Read-only object array of the labels: one gather at an index
        array takes many labels without a Python int per index."""
        return _frozen(np.array(self.labels, dtype=object))


def _merge_edges(
    edges: np.ndarray, weights: np.ndarray, directed: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonicalize, drop self-loops and merge duplicates (weights summed)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    loops = edges[:, 0] == edges[:, 1]
    n_loops = int(loops.sum())
    if n_loops:
        edges, weights = edges[~loops], weights[~loops]
    if not directed and edges.size:
        edges = np.sort(edges, axis=1)
    if edges.size == 0:
        return edges.reshape(0, 2), weights[:0], n_loops
    # one int64 key per (tail, head) sorts like the rows themselves
    n = int(edges.max()) + 1
    keys, inv = np.unique(edges[:, 0] * n + edges[:, 1], return_inverse=True)
    merged = np.bincount(inv, weights=weights, minlength=keys.size)
    return np.stack([keys // n, keys % n], axis=1), merged, n_loops


def _label_ids(ends, index: dict[str, int]) -> np.ndarray:
    """The ids of the labels ``ends``; ``index`` gives each new label the next id."""
    new = [label for label in dict.fromkeys(ends) if label not in index]
    index.update(zip(new, count(len(index))))
    return np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))


def _indexed_graph(index: dict, ids: np.ndarray, weights, directed: bool) -> LabeledGraph:
    """Graph of the labels of ``index``, emptied first, with an edge per id pair in ``ids``."""
    labels = tuple(index)
    index.clear()
    edges, merged, n_loops = _merge_edges(ids.reshape(-1, 2), weights, directed)
    if not np.all(np.isfinite(merged)):
        u, v = edges[~np.isfinite(merged)][0]
        raise GraphFormatError(f"edge {labels[u]!r}-{labels[v]!r}: merged weight is not finite")
    if n_loops:
        logger.warning("dropped %d self-loop(s) during graph construction", n_loops)
    return LabeledGraph(labels, edges, directed=directed, weights=merged)


def graph_from_edges(
    edge_list,
    directed: bool = False,
    nodes=None,
) -> LabeledGraph:
    """Build a :class:`LabeledGraph` from ``(u, v)`` or ``(u, v, w)`` tuples.

    Labels are assigned indices by first appearance (``nodes`` first, then
    edge endpoints).  Duplicate edges are merged with weight summation and
    self-loops are dropped with a counted warning.
    """
    items = list(edge_list)
    index = dict(zip(dict.fromkeys(map(str, nodes or ())), count()))
    ids = _label_ids([str(label) for item in items for label in (item[0], item[1])], index)
    weights = np.array([float(item[2]) if len(item) > 2 else 1.0 for item in items])
    return _indexed_graph(index, ids, weights, directed)


def read_table(text: str, widths, form: str, table, sep="\t", number=None, unique=False, line0=0):
    """Fields of a headerless table, or of a block of one that follows its
    first ``line0`` lines; ``sep`` is a tab, or ``None`` for any run of
    whitespace.  Lines end at ``\\n``; ``#`` lines and blank lines are
    skipped, and lines and fields are trimmed, a ``\\r`` included.  The
    text is split whole, a column at a time.

    Returns a ``(rows, max(widths))`` object array (``None`` past the end of
    a short row), each row's field count, and the values of the column
    ``number = (column, what, upper)`` checked by :func:`parse_nonnegative`.
    A row whose field count is not in ``widths``, that has an empty field,
    repeats a first field (with ``unique``) or fails its number check is a
    :class:`GraphFormatError` naming the line, and so is a text with no
    rows, unless ``table``, its name in that message, is ``None``.
    """
    rows = [line for line in map(str.strip, text.split("\n")) if line and line[0] != "#"]
    if not rows and table is not None:
        raise GraphFormatError(f"empty {table}: no data rows found")
    if sep is None:
        rows = _BLANKS.sub("\t", "\n".join(rows)).split("\n")
    width = np.fromiter(map(str.count, rows, repeat("\t")), np.int64, len(rows)) + 1
    start = np.concatenate(([0], np.cumsum(width)))
    flat = list(map(str.strip, "\t".join(rows).split("\t")))
    # the first row of a bad shape; the later checks read only the rows before it
    bad = np.append(~np.isin(width, widths), True)
    if "" in flat:
        bad[np.searchsorted(start, flat.index(""), side="right") - 1] = True
    stop = dup = int(bad.argmax())
    fields = np.full((stop, max(widths)), None, dtype=object)
    row = np.repeat(np.arange(stop), width[:stop])
    fields[row, np.arange(row.size) - start[row]] = np.array(flat, dtype=object)[: start[stop]]
    if unique and len(set(labels := fields[:, 0].tolist())) < stop:
        first = {}
        dup = next(k for k, label in enumerate(labels) if first.setdefault(label, k) != k)
    values, fine = (), True
    if number:
        j, what, upper = number
        column = fields[width[:stop] > j, j]
        try:
            values = np.fromiter(map(float, column), np.float64, len(column))
            fine = np.all(np.isfinite(values) & (values >= 0.0) & (values <= upper))
        except ValueError:
            fine = False
    if dup == len(rows) and fine:
        return fields, width, values
    # name the first bad row; within a row, shape goes before a repeat and a
    # repeat before its number
    lines = text.split("\n")
    lineno = [i for i, s in enumerate(map(str.strip, lines), line0 + 1) if s and s[0] != "#"]
    for k in np.flatnonzero(width[:dup] > j) if number else ():
        parse_nonnegative(fields[k, j], lineno[k], what, upper)
    if dup < stop:
        raise GraphFormatError(f"line {lineno[dup]}: duplicate label {fields[dup, 0]!r}")
    raw = lines[lineno[stop] - line0 - 1].removesuffix("\r")
    raise GraphFormatError(
        f"line {lineno[stop]}: expected {form!r} with nonempty fields, got {raw!r}"
    )


def parse_nonnegative(field: str, lineno: int, what: str, upper: float) -> float:
    """``float(field)`` checked to be finite and in ``[0, upper]``, else a
    :class:`GraphFormatError` naming line ``lineno`` and ``what`` it holds."""
    try:
        x = float(field)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: cannot parse {what} {field!r}"
        ) from None
    if not (math.isfinite(x) and 0.0 <= x <= upper):
        bound = "" if upper == math.inf else f" and <= {upper:g}"
        raise GraphFormatError(
            f"line {lineno}: {what} must be finite and >= 0{bound}, got {x}"
        )
    return x


def load_edge_list(text: str, directed: bool = False) -> LabeledGraph:
    """Parse a tab-separated edge list ``u<TAB>v[<TAB>w]``.

    Lines starting with ``#`` and blank lines are skipped.  Labels are
    whitespace-trimmed and case-sensitive; indices are assigned by first
    appearance.  Duplicate edges merge (weights summed, default weight 1)
    and self-loops are dropped with a counted warning.

    The text is read ``EDGE_BLOCK`` lines at a time, and each block's
    labels become ids before the next block is split.

    Raises
    ------
    GraphFormatError
        On a malformed row (with its line number) or empty input.
    """
    index, ids, weights = {}, [], []
    lines = re.compile(f"(?:[^\\n]*\\n){{{EDGE_BLOCK}}}")  # EDGE_BLOCK whole lines
    start = line0 = 0
    while start < len(text):
        stop = m.end() if (m := lines.match(text, start)) else len(text)
        fields, width, w = read_table(
            text[start:stop], (2, 3), "u<TAB>v[<TAB>w]", None,
            number=(2, "weight", math.inf), line0=line0,
        )
        ids.append(_label_ids(fields[:, :2].ravel().tolist(), index))
        weights.append(np.ones(width.size))
        weights[-1][width == 3] = w
        start, line0 = stop, line0 + EDGE_BLOCK
    if not index:
        raise GraphFormatError("empty edge list: no data rows found")
    ids, weights = np.concatenate(ids), np.concatenate(weights)
    return _indexed_graph(index, ids, weights, directed)


def read_text(path) -> str:
    """The UTF-8 text of ``path`` less a leading byte-order mark; a
    GraphFormatError names the file and line of a bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # ``exc.object`` is the input after any byte-order mark, which holds no newline
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def read_edge_list(path) -> LabeledGraph:
    """Read an undirected edge-list TSV file (UTF-8)."""
    return load_edge_list(read_text(path))


# ---------------------------------------------------------------------------
# Matrix views
# ---------------------------------------------------------------------------

def adjacency_matrix(g: LabeledGraph) -> sp.csr_matrix:
    """Sparse adjacency matrix (symmetric with zero diagonal when undirected).

    Entries are the edge weights, i.e. 0/1 for unweighted graphs.
    """
    import scipy.sparse as sp  # graph-stats builds no matrix, so it never loads scipy

    rows = g.edges[:, 0]
    cols = g.edges[:, 1]
    vals = g.weights
    if not g.directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals])
    return sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def degree_vector(g: LabeledGraph) -> np.ndarray:
    """Weighted degree of every node (out-degree for directed graphs)."""
    a = adjacency_matrix(g)
    return np.asarray(a.sum(axis=1)).reshape(-1)


def laplacian(g: LabeledGraph) -> sp.csr_matrix:
    """Graph Laplacian ``degree matrix minus adjacency``.

    Only defined for undirected graphs; symmetrize directed input
    explicitly before calling.
    """
    import scipy.sparse as sp

    if g.directed:
        raise ValueError("laplacian requires an undirected graph; symmetrize first")
    a = adjacency_matrix(g)
    d = np.asarray(a.sum(axis=1)).reshape(-1)
    return sp.diags(d, format="csr") - a


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def weak_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Weak-component id of each of ``n`` nodes joined by the index pairs
    ``edges``; ids count up in the order of each component's smallest node.

    Every edge hooks the larger of its ends' roots onto the smaller, and
    pointers then jump to their roots, until the ends of every edge share
    a root.
    """
    root = np.arange(n)
    while True:
        a, b = root[edges[:, 0]], root[edges[:, 1]]
        split = a != b
        if not split.any():
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def node_subgraph(g: LabeledGraph, node_indices) -> LabeledGraph:
    """Subgraph induced by ``node_indices``, preserving labels and order."""
    keep = np.zeros(g.n, dtype=bool)
    keep[np.asarray(list(node_indices), dtype=np.int64)] = True
    new_id = np.cumsum(keep) - 1
    mask = keep[g.edges[:, 0]] & keep[g.edges[:, 1]]
    edges = new_id[g.edges[mask]]
    labels = tuple(compress(g.labels, keep.tolist()))
    return LabeledGraph(labels, edges, directed=g.directed, weights=g.weights[mask])


def _greatest_id(g: LabeledGraph, comp: np.ndarray) -> int:
    """Id of the largest component in the labelling ``comp`` of a nonempty
    ``g``; on a size tie, the component holding the lexicographically
    smallest label."""
    sizes = np.bincount(comp)
    best = np.flatnonzero(sizes == sizes.max())
    if best.size == 1:
        return int(best[0])
    tied = np.flatnonzero(np.isin(comp, best))
    return int(comp[min(tied, key=g.labels.__getitem__)])


def greatest_component(g: LabeledGraph) -> LabeledGraph:
    """Return the greatest connected component as a label-preserving subgraph.

    Ties on component size break deterministically: the component that
    contains the lexicographically smallest label wins.
    """
    if g.n == 0:
        return g
    return node_subgraph(g, np.flatnonzero(g.components == _greatest_id(g, g.components)))


def graph_stats(g: LabeledGraph) -> dict:
    """Node/edge/fragment counts for the graph and its greatest component."""
    comp = g.components
    in_gc = comp == (_greatest_id(g, comp) if g.n else -1)
    return {
        "nodes": g.n,
        "edges": g.edge_count,
        "fragments": int(comp.max(initial=-1)) + 1,
        "gc_nodes": int(in_gc.sum()),
        # both ends of an edge lie in one component
        "gc_edges": int(in_gc[g.edges[:, 0]].sum()),
    }


# ---------------------------------------------------------------------------
# Cell-cell interaction graphs
# ---------------------------------------------------------------------------

def _check_hops(labels, layer: np.ndarray, pairs: np.ndarray) -> None:
    """Name the first id pair that does not step from a layer to the next; a
    label that is no node has layer -2, which no hop reaches or leaves."""
    bad = np.flatnonzero(layer[pairs[:, 1]] - layer[pairs[:, 0]] != 1)
    if bad.size:
        (u, v), (du, dv) = (labels[i] for i in pairs[bad[0]]), layer[pairs[bad[0]]]
        if min(du, dv) < 0:
            raise CciValidationError(f"edge ({u}, {v}): unknown node {u if du < 0 else v!r}")
        kind = "intra-layer" if du == dv else "reverse-direction" if dv < du else "layer-skipping"
        hop = f"{u} [{CCI_LAYERS[du]}] -> {v} [{CCI_LAYERS[dv]}]"
        raise CciValidationError(f"{kind} edge ({hop}) is not allowed")


@dataclass(frozen=True)
class PartitionedCciGraph:
    """Directed four-partite cell-cell interaction graph.

    ``layer``, a read-only int64 array, holds each node's position (0..3) in
    :data:`CCI_LAYERS`.  Construction rejects an undirected graph and any
    edge that does not step from a layer to the next, so each valid path is
    a ``sender -> ligand -> receptor -> receiver`` chain.  Two compare equal
    when their graphs and layers do.
    """

    graph: LabeledGraph
    layer: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionedCciGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.layer, other.layer)

    def __hash__(self) -> int:
        return hash(self.graph)

    def __post_init__(self) -> None:
        g, layer = self.graph, np.asarray(self.layer)
        if layer.shape != (g.n,):
            raise CciValidationError("one layer assignment per node is required")
        if not g.directed:
            raise CciValidationError("a CCI graph must be directed")
        if (bad := np.flatnonzero(~np.isin(layer, range(len(CCI_LAYERS))))).size:
            value = layer.tolist()[bad[0]]
            raise CciValidationError(f"node {g.labels[bad[0]]!r}: layer {value!r} is not in 0..3")
        object.__setattr__(self, "layer", _frozen(layer.astype(np.int64)))
        _check_hops(g.labels, self.layer, g.edges)

    def layer_counts(self) -> dict[str, int]:
        return dict(zip(CCI_LAYERS, np.bincount(self.layer, minlength=len(CCI_LAYERS)).tolist()))

    def nodes_in_layer(self, layer: str) -> list[int]:
        return np.flatnonzero(self.layer == CCI_LAYERS.index(layer)).tolist()


def build_cci_graph(nodes, edges) -> PartitionedCciGraph:
    """Validate and build a four-partite CCI graph.

    Parameters
    ----------
    nodes : iterable of (label, layer)
        Layer must be one of :data:`CCI_LAYERS`.
    edges : iterable of (label, label)
        Directed edges between nodes, each from a layer to the next.

    Raises
    ------
    CciValidationError
        On an unknown layer or a duplicate node, else naming the first edge
        with a missing endpoint or an intra-layer, layer-skipping or reverse hop.
    """
    index, layer = {}, []
    for label, name in nodes:
        label, name = str(label).strip(), str(name).strip().lower()
        if name not in CCI_LAYERS:
            raise CciValidationError(
                f"node {label!r}: unknown layer {name!r} (expected one of {', '.join(CCI_LAYERS)})"
            )
        if label in index:
            raise CciValidationError(f"duplicate node label {label!r}")
        index[label] = len(layer)
        layer.append(CCI_LAYERS.index(name))
    ids = _label_ids([str(end).strip() for u, v in edges for end in (u, v)], index)
    layer = np.array(layer + [-2] * (len(index) - len(layer)), dtype=np.int64)
    _check_hops(tuple(index), layer, ids.reshape(-1, 2))
    return PartitionedCciGraph(_indexed_graph(index, ids, np.ones(ids.size // 2), True), layer)


def symmetrized_view(cci: PartitionedCciGraph) -> LabeledGraph:
    """Undirected view of a CCI graph with the same node set.

    Each directed edge becomes a single unweighted undirected edge; this is
    the substrate for arc-space walks, which require a reverse arc for
    every arc.
    """
    g = cci.graph
    edges, _, _ = _merge_edges(g.edges, np.ones(g.edge_count), directed=False)
    return LabeledGraph(g.labels, edges, directed=False)


def parse_node_layers(text: str) -> list[tuple[str, str]]:
    """Parse a node-layer TSV (``label<TAB>layer``) into (label, layer) pairs."""
    table = read_table(text, (2,), "label<TAB>layer", "node-layer table", unique=True)
    return list(map(tuple, table[0]))


def parse_label_pairs(text: str) -> list[tuple[str, str]]:
    """Parse a two-column TSV of label pairs (comments and blanks skipped)."""
    return list(map(tuple, read_table(text, (2,), "u<TAB>v", "edge table")[0]))
