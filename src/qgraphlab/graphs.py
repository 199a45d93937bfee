"""Simple undirected graphs as bitmask adjacency, graph6 codec, and
exhaustive enumeration of connected non-isomorphic graphs.

Vertices are integers 0..n-1 and every graph stores, per vertex, the
bitmask of its neighbors.  Graphs are immutable and hashable, so they can
be shared freely across worker processes.  An edge is a (u, v) tuple with
u < v, and every edge list hands out the one shared tuple of EDGE per
vertex pair, so a dataset's many edge lists hold no copies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

__all__ = [
    "Graph",
    "Graph6Error",
    "UnsupportedSizeError",
    "decode_graph6",
    "encode_graph6",
    "read_graph6_file",
    "write_graph6_file",
    "canonical_form",
    "relabel",
    "is_connected",
    "enumerate_connected",
    "connected_graph_count",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_bipartite",
]

MAX_VERTICES = 16  # single size byte in graph6; study scope is n <= 8
_BLANK = " \t\n\r\v\f"  # the whitespace around a graph6 record; any other byte is malformed


def _edge_table() -> tuple[tuple[tuple[int, int] | None, ...], ...]:
    table = [[None] * MAX_VERTICES for _ in range(MAX_VERTICES)]
    for v in range(MAX_VERTICES):
        for u in range(v):
            table[u][v] = table[v][u] = (u, v)
    return tuple(map(tuple, table))


# EDGE[a][b] is the one shared (min(a, b), max(a, b)) tuple of the pair, in
# either order; the diagonal is None.
EDGE = _edge_table()


class Graph6Error(ValueError):
    """Malformed or truncated graph6 record."""


class UnsupportedSizeError(ValueError):
    """Vertex count outside the supported range."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitmask of vertex v.  ``id`` is an optional
    stable identifier (1-based position in the enumeration order, or the
    record number in a graph6 file).
    """

    n: int
    adj: tuple[int, ...]
    id: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbor bits above position {self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @staticmethod
    def from_edges(n: int, edges, id: int | None = None) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj), id)

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as EDGE's (u, v) tuples with u < v, sorted."""
        return [EDGE[u][v] for u in range(self.n) for v in _bits(self.adj[u] >> u + 1 << u + 1)]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def _graph_name(g: Graph) -> str:
    """How messages name a graph: "graph N" by its id, else "graph '<graph6 record>'"."""
    return f"graph {g.id}" if g.id is not None else f"graph '{encode_graph6(g)}'"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------
#
# A record is one size byte chr(63 + n) followed by ceil(n(n-1)/2 / 6) data
# bytes.  The upper-triangle adjacency bits x(0,1), x(0,2), x(1,2),
# x(0,3), ... (column-major) fill 6-bit groups most significant bit first;
# every byte is offset by 63 into the printable range.


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a single-line graph6 record (n <= 16)."""
    bits = _triangle(g.n, g.adj)
    bits += "0" * (-len(bits) % 6)
    return chr(63 + g.n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))


def decode_graph6(text: str) -> Graph:
    """Decode a single-line graph6 record into a Graph.

    Trailing pad bits are ignored rather than checked.  Raises Graph6Error
    for bytes outside the printable 63..126 range or for a record shorter
    than its size byte implies, and UnsupportedSizeError for n > 16.
    """
    return _graph_from_bits(*_record_bits(text))


def _record_bits(text: str) -> tuple[int, str]:
    """A checked graph6 record's vertex count and data bits (see decode_graph6)."""
    text = text.strip(_BLANK)
    if not text:
        raise Graph6Error("empty graph6 record")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside printable graph6 range 63..126")
    n = ord(text[0]) - 63
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"graph6 record for n={n}; supported range is n<={MAX_VERTICES}")
    if n < 1:
        raise Graph6Error(f"graph6 record with vertex count {n}")
    need = (n * (n - 1) // 2 + 5) // 6
    data = text[1:]
    if len(data) < need:
        raise Graph6Error(f"truncated graph6 record: {len(data)} data bytes, expected {need}")
    if len(data) > need:
        raise Graph6Error(f"oversized graph6 record: {len(data)} data bytes, expected {need}")
    return n, "".join(format(ord(ch) - 63, "06b") for ch in data)


def read_graph6_file(path) -> list[Graph]:
    """Read a graph6 file (one record per line, blank lines skipped, after
    the optional ">>graph6<<" header at the very start); ids number the
    records 1, 2, ... in file order.  A malformed record's error starts
    with "path:line:".  Latin-1 reads each byte as one character, so
    _record_bits names a stray byte."""
    graphs = []
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                line = line.removeprefix(">>graph6<<")
            try:
                if line.strip(_BLANK):
                    graphs.append(_graph_from_bits(*_record_bits(line), id=len(graphs) + 1))
            except ValueError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return graphs


def write_graph6_file(graphs, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode_graph6(g) + "\n")


# ---------------------------------------------------------------------------
# Relabeling and connectivity
# ---------------------------------------------------------------------------


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: edge (u,v) maps to (perm[u], perm[v])."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"not a permutation of 0..{g.n - 1}: {perm}")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in _bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj), g.id)


def _layers(adj: tuple[int, ...], start: int, alive: int):
    """Breadth-first layers, as vertex masks, reached from the mask `start`
    through the vertices in `alive`; `start` itself is the first layer.
    The layers are disjoint, so their sum is every vertex reached."""
    seen = layer = start
    while layer:
        yield layer
        grow = 0
        for v in _bits(layer):
            grow |= adj[v]
        layer = grow & alive & ~seen
        seen |= layer


def is_connected(g: Graph) -> bool:
    """True iff the breadth-first layers from vertex 0 cover all vertices."""
    full = (1 << g.n) - 1
    return sum(_layers(g.adj, 1, full)) == full


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------
#
# The canonical form is the lexicographically smallest upper-triangle bit
# string (column-major, the graph6 bit order) over all vertex relabelings.
# The search places vertices one position at a time; at each position only
# vertices achieving the minimal adjacency column can extend an optimal
# labeling, and the incumbent best is updated eagerly so every branch is
# compared against a consistent prefix.  Structural twins are collapsed to
# one candidate since swapping them is an automorphism.


_UNSET = 1 << 20  # above every column of n <= 16 vertices


def _canonical_columns(n: int, adj: tuple[int, ...]) -> list[int]:
    """Columns of the canonical form, column k as a k-bit integer."""
    best = [0] + [_UNSET] * (n - 1)
    _beaten(adj, best, False, [], 0)
    return best


def _beaten(adj: tuple[int, ...], best: list[int], bounded: bool, placed: list[int],
            placed_mask: int) -> bool:
    """Search the labelings that start with `placed`, updating the incumbent
    columns `best`; True, when `bounded`, as soon as one beats them."""
    n, k = len(adj), len(placed)
    if k == n:
        return False
    low = _UNSET
    cand: list[int] = []
    for v in range(n):
        if placed_mask >> v & 1:
            continue
        av = adj[v]
        col = 0
        for j in range(k):
            col = col << 1 | (av >> placed[j] & 1)
        if col < low:
            low = col
            cand = [v]
        elif col == low:
            cand.append(v)
    if low > best[k]:
        return False
    if low < best[k]:
        # the placed prefix equals the incumbent's up to column k, so
        # every completion of it is a smaller string
        if bounded:
            return True
        best[k] = low
        for i in range(k + 1, n):
            best[i] = _UNSET
    seen_twins: list[tuple[int, int]] = []
    for v in cand:
        rv = adj[v] | (1 << v)
        # Swapping structural twins is an automorphism, so one suffices.
        if any(rv | (1 << u) == ru | (1 << v) for u, ru in seen_twins):
            continue
        seen_twins.append((v, rv))
        placed.append(v)
        if _beaten(adj, best, bounded, placed, placed_mask | (1 << v)):
            return True
        placed.pop()
    return False


def canonical_form(g: Graph) -> str:
    """Lexicographically smallest upper-triangle bit string over relabelings.

    Two graphs share a canonical form iff they are isomorphic.
    """
    cols = _canonical_columns(g.n, g.adj)
    return "".join(format(cols[k], f"0{k}b") for k in range(1, g.n))


def _triangle(n: int, adj: tuple[int, ...]) -> str:
    """Upper-triangle bit string x(0,1) x(0,2) x(1,2) x(0,3) ... of an adjacency."""
    return "".join("1" if adj[v] >> u & 1 else "0" for v in range(1, n) for u in range(v))


def _graph_from_bits(n: int, bits: str, id: int | None = None) -> Graph:
    """Inverse of _triangle; bits past the n(n-1)/2 triangle are ignored."""
    adj = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx] == "1":
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(adj), id)


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------
#
# Orderly generation (Read, "Every one a winner", Ann. Discrete Math. 2,
# 1978).  Drop the last column of a canonical form: the rest is the string
# of the labeling restricted to vertices 0..n-2, and a smaller string for
# that subgraph, with vertex n-1 appended last, would beat the canonical
# form.  So every canonical form on n vertices is a canonical form on n-1
# vertices plus one column, and each class arises exactly once, by
# extending its parent with the one column whose bits are canonical.
# Sorted parents extended by columns in increasing order give the classes
# in sorted order.  Disconnected graphs must be kept as parents (a
# connected graph can have a disconnected vertex-deleted subgraph);
# connectivity is filtered at the end.
#
# A parent P on k vertices (columns `cols`) tests all 2^k columns c of the
# new vertex x = k at once.  A relabeling beats the extension at the first
# position d where its column differs from the target (cols[d], or c at
# d = k), and the vertices before d form a tie: each has the target's
# column.  A tie of P-vertices only is a node of P's tie tree, which does
# not depend on c, since no P-vertex's column involves x.  At such a node
# no unplaced P-vertex has a column below cols[d], because P is canonical;
# so only x can beat there, by a column below cols[d] (at d = k the prefix
# is an automorphism of P and x's column is c permuted).  One walk of the
# tree, carrying sets of columns as bitsets over c, finds those beatings,
# and queues the columns whose x ties at a node: the rest of their search,
# past the prefix with x appended, is the bounded `_beaten`.  Swapping two
# structural twins of P is an automorphism of every extension that joins x
# to both or to neither, so the second twin's subtree is walked only for
# the columns that split them.

ENUM_MIN_N = 3
ENUM_MAX_N = 8


@functools.cache
def _near(k: int) -> tuple[int, ...]:
    """near[u], for a new vertex x = k: the set, as a bitset over the 2^k
    columns c, of the c that join x to u (bit k-1-u of c: vertex 0 first)."""
    return tuple(sum(1 << c for c in range(1 << k) if c >> (k - 1 - u) & 1) for u in range(k))


def _extensions(k: int, bits: str) -> list[int]:
    """The columns c, in increasing order, that extend the canonical form
    `bits` on k >= 1 vertices to a canonical form on k + 1."""
    parent = _graph_from_bits(k, bits).adj
    cols = [0] + [int(bits[j * (j - 1) // 2:j * (j + 1) // 2], 2) for j in range(1, k)]
    near, every, full = _near(k), (1 << (1 << k)) - 1, (1 << k) - 1
    # the target's bits at each position, as column sets: cols[d], or c
    targets = [[-(cols[d] >> (d - 1 - j) & 1) & every for j in range(d)] for d in range(k)] + [near]
    # twins[v]: the u < v that are structural twins of v in P
    twins = [sum(1 << u for u in range(v) if (parent[u] ^ parent[v]) & ~(1 << u | 1 << v) == 0)
             for v in range(k)]
    beaten, ties, stack = 0, [], [([], 0, every)]
    while stack and beaten != every:
        prefix, placed, live = stack.pop()
        d = len(prefix)
        # x's column in prefix order ties with the target on `eq` and is
        # smaller on `lt`; `kids` are the P-vertices that tie
        eq, lt, kids = live & ~beaten, 0, full & ~placed
        for u, t in zip(prefix, targets[d]):
            lt |= eq & t & ~near[u]
            eq &= ~(near[u] ^ t)
            kids &= parent[u] if t else ~parent[u]
        beaten |= lt
        if d < k:
            if eq:
                ties.append((prefix, placed, eq))
            for v in _bits(kids):
                # an earlier twin u's subtree covers the c that join x to both or neither
                keep = live
                for u in _bits(twins[v] & kids):
                    keep &= near[u] ^ near[v]
                if keep & ~beaten:
                    stack.append((prefix + [v], placed | 1 << v, keep))
    for prefix, placed, tied in ties:
        for c in _bits(tied & ~beaten):
            subset = int(format(c, f"0{k}b")[::-1], 2)  # x's neighbours as a vertex mask
            adj = tuple(row | (subset >> v & 1) << k for v, row in enumerate(parent)) + (subset,)
            if _beaten(adj, cols + [c], True, prefix + [k], placed | 1 << k):
                beaten |= 1 << c
    return list(_bits(every & ~beaten))


@functools.lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple[str, ...]:
    """Canonical forms of all simple graphs on n vertices (connected or
    not), in sorted order."""
    if n == 1:
        return ("",)
    k = n - 1
    return tuple(bits + format(c, f"0{k}b") for bits in _all_classes(k) for c in _extensions(k, bits))


@functools.lru_cache(maxsize=None)
def _connected_forms(n: int) -> tuple[str, ...]:
    if not ENUM_MIN_N <= n <= ENUM_MAX_N:
        raise UnsupportedSizeError(f"enumeration supports {ENUM_MIN_N} <= n <= {ENUM_MAX_N}, got {n}")
    return tuple(bits for bits in _all_classes(n) if is_connected(_graph_from_bits(n, bits)))


def enumerate_connected(n: int) -> list[Graph]:
    """One canonically labeled representative per isomorphism class of
    connected graphs on n vertices, sorted by canonical form.

    Ids are assigned 1-based in that order.
    """
    return [_graph_from_bits(n, bits, i) for i, bits in enumerate(_connected_forms(n), start=1)]


def connected_graph_count(n: int) -> int:
    """Number of isomorphism classes of connected graphs on n vertices."""
    return len(_connected_forms(n))


# ---------------------------------------------------------------------------
# Named constructions used throughout tests and demos
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to the n-1 leaves."""
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
