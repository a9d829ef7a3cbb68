"""DAG representations, random graph sampling, and graph algorithms.

Adjacency convention: ``adj[k, j]`` is True iff there is an edge ``k -> j``.
Graphs are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrityError, MecSizeError, ParseError
from .rng import substream

__all__ = [
    "Dag",
    "Cpdag",
    "GraphSpec",
    "dag_from_edges",
    "sample_er_dag",
    "sample_sf_dag",
    "sample_dag",
    "topological_order",
    "dag_to_cpdag",
    "enumerate_mec",
    "d_separated",
    "d_separated_adj",
    "reachability_adj",
    "bool_matmul",
    "cycle_free_support",
    "read_edge_list",
    "write_edge_list",
]


def _as_bool_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {a.shape}")
    out = a.copy()
    out.setflags(write=False)
    return out


def bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product of 0/1 matrices as one float64 (BLAS) product
    thresholded at ``> 0``: every count is at most the inner dimension, so
    it is exact and the booleans equal those of a boolean product."""
    return np.matmul(a, b, dtype=np.float64) > 0


def _is_acyclic(adj: np.ndarray) -> bool:
    """No node reaches itself by a walk of length >= 1 (a self-loop counts)."""
    return not reachability_adj(adj).diagonal().any()


@dataclass(frozen=True, eq=False)
class Dag:
    """Directed acyclic graph as a boolean adjacency matrix.

    ``order`` optionally records the causal order used at generation time
    (a permutation of node labels, causes first).
    """

    adj: np.ndarray
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        adj = _as_bool_matrix(self.adj, "adj")
        object.__setattr__(self, "adj", adj)
        if adj.diagonal().any():
            raise IntegrityError("self-loops are not allowed")
        if not _is_acyclic(adj):
            raise IntegrityError("adjacency matrix contains a directed cycle")
        if self.order is not None:
            order = tuple(int(i) for i in self.order)
            if sorted(order) != list(range(adj.shape[0])):
                raise ConfigurationError("order must be a permutation of the nodes")
            object.__setattr__(self, "order", order)

    @property
    def d(self) -> int:
        return self.adj.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adj.sum())

    def edges(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.adj))]

    def parents(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.adj[:, j])

    def __eq__(self, other):
        return isinstance(other, Dag) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash(self.adj.tobytes())


@dataclass(frozen=True, eq=False)
class Cpdag:
    """Completed partially directed acyclic graph.

    ``directed`` holds the compelled edges, ``undirected`` the reversible
    ones (symmetric). The two edge sets are disjoint.
    """

    directed: np.ndarray
    undirected: np.ndarray

    def __post_init__(self):
        directed = _as_bool_matrix(self.directed, "directed")
        undirected = _as_bool_matrix(self.undirected, "undirected")
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        if directed.shape != undirected.shape:
            raise ConfigurationError("directed and undirected parts must have equal shape")
        if not np.array_equal(undirected, undirected.T):
            raise IntegrityError("undirected part must be symmetric")
        if directed.diagonal().any() or undirected.diagonal().any():
            raise IntegrityError("self-loops are not allowed")
        if ((directed | directed.T) & undirected).any():
            raise IntegrityError("an edge cannot be both directed and undirected")
        if not _is_acyclic(directed):
            raise IntegrityError("directed part contains a cycle")

    @property
    def d(self) -> int:
        return self.directed.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, Cpdag)
            and np.array_equal(self.directed, other.directed)
            and np.array_equal(self.undirected, other.undirected)
        )

    def __hash__(self):
        return hash((self.directed.tobytes(), self.undirected.tobytes()))


@dataclass(frozen=True)
class GraphSpec:
    """Random-graph family descriptor: ``ER-k`` or ``SF-k`` on ``d`` nodes."""

    model: str
    d: int
    k: int

    def __post_init__(self):
        if self.model not in ("ER", "SF"):
            raise ConfigurationError(f"unknown graph model {self.model!r}")
        if self.d < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.k < 1:
            raise ConfigurationError("k must be at least 1")
        # k = d - 1 saturates the edge-probability clip (ER) and the
        # attachment fan-in (SF); beyond that no DAG interpretation exists.
        if self.k >= self.d:
            raise ConfigurationError(
                f"{self.model}-{self.k} on {self.d} nodes asks for more edges than a DAG can hold"
            )

    @property
    def label(self) -> str:
        return f"{self.model}-{self.k}(d={self.d})"


def dag_from_edges(d: int, edges, order=None) -> Dag:
    adj = np.zeros((d, d), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    return Dag(adj, order=order)


def sample_er_dag(spec: GraphSpec, seed: int) -> Dag:
    """Sample an Erdos-Renyi DAG with expected edge count ``d * k``.

    Edges appear independently with probability ``p = 2k/(d-1)`` (clipped
    to 1) between position pairs of a uniformly random causal order and are
    oriented along that order.
    """
    if spec.model != "ER":
        raise ConfigurationError(f"expected an ER spec, got {spec.model}")
    rng = substream(seed, "graphs", "er")
    d = spec.d
    p = min(1.0, 2.0 * spec.k / (d - 1))
    perm = rng.permutation(d)
    mask = rng.random((d, d)) < p
    adj = np.zeros((d, d), dtype=bool)
    adj[np.ix_(perm, perm)] = np.triu(mask, 1)  # position pair (a, b) is node pair (perm[a], perm[b])
    return Dag(adj, order=tuple(int(i) for i in perm))


def sample_sf_dag(spec: GraphSpec, seed: int) -> Dag:
    """Sample a scale-free DAG via preferential attachment.

    Construction starts from a complete DAG on the first ``k`` positions;
    each later position attaches ``k`` edges from existing nodes chosen
    proportionally to their total degree, oriented old -> new. Node labels
    are finally shuffled so the causal order is not the identity. The edge
    count is exactly ``k*d - k*(k+1)/2``.
    """
    if spec.model != "SF":
        raise ConfigurationError(f"expected an SF spec, got {spec.model}")
    if spec.k >= spec.d:
        raise ConfigurationError("preferential attachment needs k < d")
    rng = substream(seed, "graphs", "sf")
    d, k = spec.d, spec.k
    pos_adj = np.zeros((d, d), dtype=bool)
    for b in range(k):
        for a in range(b):
            pos_adj[a, b] = True
    degree = np.zeros(d, dtype=float)
    degree[:k] = k - 1
    for new in range(k, d):
        if new == k:
            targets = np.arange(k)
        else:
            weights = degree[:new] / degree[:new].sum()
            targets = rng.choice(new, size=k, replace=False, p=weights)
        for t in targets:
            pos_adj[t, new] = True
            degree[t] += 1
        degree[new] = k
    perm = rng.permutation(d)
    adj = np.zeros((d, d), dtype=bool)
    for a, b in zip(*np.nonzero(pos_adj)):
        adj[perm[a], perm[b]] = True
    return Dag(adj, order=tuple(int(i) for i in perm))


def sample_dag(spec: GraphSpec, seed: int) -> Dag:
    """Sample a DAG from the family ``spec`` names (ER or SF)."""
    return (sample_er_dag if spec.model == "ER" else sample_sf_dag)(spec, seed)


def topological_order(g: Dag) -> tuple[int, ...]:
    """Kahn's method with smallest-index tie-breaking (deterministic)."""
    adj = g.adj
    indeg = adj.sum(axis=0).astype(int)
    heap = [int(i) for i in np.flatnonzero(indeg == 0)]  # ascending, so already a heap
    out = []
    while heap:
        u = heapq.heappop(heap)
        out.append(u)
        for v in np.flatnonzero(adj[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, int(v))
    if len(out) != g.d:
        raise IntegrityError("cycle detected during topological sort")
    return tuple(out)


def reachability_adj(adj: np.ndarray, reflexive: bool = False) -> np.ndarray:
    """Transitive closure of a raw adjacency matrix (no DAG validation).

    Starting from ``adj``, ``closure | closure @ closure`` (by
    ``bool_matmul``) holds every walk of length 1 .. ``2**k`` after ``k``
    steps, so about ``log2 d`` products reach the point where it stops
    growing, cycles and self-loops included.
    """
    closure = np.asarray(adj, dtype=bool)
    while True:
        wider = closure | bool_matmul(closure, closure)
        if np.count_nonzero(wider) == np.count_nonzero(closure):  # closure is a subset of wider
            break
        closure = wider
    if reflexive:
        np.fill_diagonal(wider, True)
    return wider


def cycle_free_support(w: np.ndarray) -> np.ndarray:
    """The support of ``w`` once each cycle loses its weakest edge, ranked by
    ``(|w|, i, j)``, until none is left: edge ``i -> j`` drops iff the edges
    ranked above it, dropped ones included, lead from ``j`` back to ``i``.
    One walk down the edges on a cycle settles them all (DECISIONS.md)."""
    support = w != 0
    on_cycle = support & reachability_adj(support, reflexive=True).T
    keep = support & ~on_cycle
    tails, heads = np.nonzero(on_cycle)
    reach = np.eye(w.shape[0], dtype=bool)
    for k in np.lexsort((heads, tails, np.abs(w[tails, heads])))[::-1]:
        i, j = tails[k], heads[k]
        keep[i, j] = not reach[j, i]
        reach |= np.outer(reach[:, i], reach[j])
    return keep


def _ancestors_of(adj: np.ndarray, nodes) -> np.ndarray:
    """Boolean mask of nodes with a directed path into ``nodes`` (reflexive)."""
    d = adj.shape[0]
    mask = np.zeros(d, dtype=bool)
    stack = list(nodes)
    for u in stack:
        mask[u] = True
    while stack:
        u = stack.pop()
        for p in np.flatnonzero(adj[:, u]):
            if not mask[p]:
                mask[p] = True
                stack.append(int(p))
    return mask


def d_separated_adj(adj: np.ndarray, i: int, j: int, z) -> bool:
    """d-separation of ``i`` and ``j`` given set ``z`` on a raw adjacency matrix.

    Implemented by reachability on the moralized ancestral graph of
    ``{i, j} | z``.
    """
    zset = set(int(v) for v in z)
    d = adj.shape[0]
    if not all(0 <= v < d for v in (i, j, *zset)):
        raise ConfigurationError(f"node indices must lie in range({d})")
    if i == j:
        raise ConfigurationError("i and j must differ")
    if i in zset or j in zset:
        raise ConfigurationError("conditioning set must not contain i or j")
    keep = _ancestors_of(adj, [i, j, *zset])
    sub = adj & keep[:, None] & keep[None, :]
    moral = sub | sub.T
    # Marry parents that share a child.
    for c in np.flatnonzero(keep):
        parents = np.flatnonzero(sub[:, c])
        for a_idx in range(len(parents)):
            for b_idx in range(a_idx + 1, len(parents)):
                a, b = parents[a_idx], parents[b_idx]
                moral[a, b] = moral[b, a] = True
    alive = keep.copy()
    for v in zset:
        alive[v] = False
    # BFS from i over alive nodes.
    seen = {i}
    stack = [i]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(moral[u]):
            v = int(v)
            if alive[v] and v not in seen:
                if v == j:
                    return False
                seen.add(v)
                stack.append(v)
    return True


def d_separated(g: Dag, i: int, j: int, z) -> bool:
    return d_separated_adj(g.adj, i, j, z)


# ---------------------------------------------------------------------------
# CPDAG construction and equivalence-class enumeration
# ---------------------------------------------------------------------------


def _v_structures(adj: np.ndarray, skeleton: np.ndarray) -> np.ndarray:
    """The edges of ``adj``'s v-structures: ``a -> j`` such that ``j`` has
    another parent that ``skeleton`` does not join to ``a``."""
    return adj & bool_matmul(~skeleton & ~np.eye(adj.shape[0], dtype=bool), adj)


def _apply_meek_rules(directed: np.ndarray, undirected: np.ndarray) -> None:
    """Orient undirected edges in place until no rule fires.

    Each round finds every undirected edge x - y that a rule orients
    x -> y and orients them all at once:
      R1: some z -> x with z, y non-adjacent;
      R2: a directed chain x -> z -> y;
      R3: z, w with x - z, x - w, z -> y, w -> y, z, w non-adjacent;
      R4: z, w with x - z, z -> w, w -> y, z, y non-adjacent, x, w adjacent.
    The closure of a PDAG with a consistent extension does not depend on
    the order in which rules fire (Meek 1995). Without one, two hits may
    orient an edge both ways; the 2-cycle fails the caller's acyclicity
    check (DECISIONS.md). R3 and R4 go one node x at a time, so no
    intermediate exceeds d x d.
    """
    apart = ~(directed | directed.T | undirected | np.eye(directed.shape[0], dtype=bool))
    while True:
        hits = bool_matmul(directed.T, apart) | bool_matmul(directed, directed)  # R1, R2
        for x in np.flatnonzero(undirected.any(axis=1)):
            nb = undirected[x]  # y, z and the w of R3 are undirected neighbours of x
            into, nb_apart = directed[np.ix_(nb, nb)], apart[np.ix_(nb, nb)]
            hits[x, nb] |= (into & bool_matmul(nb_apart, into)).any(axis=0)  # R3
            # R4: chains z -> w -> y with x and w adjacent, z and y apart
            chains = bool_matmul(directed[nb] & ~apart[x], directed[:, nb])
            hits[x, nb] |= (nb_apart & chains).any(axis=0)
        hits &= undirected
        if not hits.any():
            return
        directed |= hits
        undirected &= ~(hits | hits.T)


def dag_to_cpdag(g: Dag) -> Cpdag:
    """Equivalence-class representative: v-structures plus rule closure."""
    undirected = g.adj | g.adj.T  # the skeleton, less the v-structures below
    directed = _v_structures(g.adj, undirected)
    undirected &= ~(directed | directed.T)
    _apply_meek_rules(directed, undirected)
    return Cpdag(directed, undirected)


def _mec_size_lower_bound(undirected: np.ndarray) -> int:
    """Product over the chain components of (largest clique size)!.

    A lower bound on the size of the class of a CPDAG with this undirected
    part: its members orient each chain component independently, and every
    ordering of a clique starts some consistent orientation of its
    (chordal) component. A maximum-cardinality search numbers the nodes so
    that each node's numbered neighbours form a clique, the largest of which
    is the largest clique of the component.
    """
    weight = np.zeros(undirected.shape[0], dtype=int)
    numbered = np.zeros(undirected.shape[0], dtype=bool)
    bound, largest = 1, 0
    for _ in range(undirected.shape[0]):
        v = int(np.argmax(np.where(numbered, -1, weight)))
        if weight[v] == 0:  # no numbered neighbour: a new component starts
            bound *= math.factorial(largest)
            largest = 0
        largest = max(largest, int(weight[v]) + 1)
        numbered[v] = True
        weight[undirected[v]] += 1
    return bound * math.factorial(largest)


def enumerate_mec(c: Cpdag, cap: int = 10_000) -> list[Dag]:
    """All consistent DAG extensions of ``c``.

    Recursive orientation with rule-closure pruning. A leaf is a member when
    it has the v-structures of ``c.directed`` (Verma & Pearl 1990); the first
    member is mapped back to ``c`` once, and if it does not map back, ``c``
    is no CPDAG and its class is empty. Raises ``MecSizeError`` when more
    than ``cap`` members exist, before enumerating any when a lower bound on
    the class size already exceeds ``cap``.
    """
    if cap < 1:
        raise ConfigurationError("cap must be at least 1")
    bound = _mec_size_lower_bound(c.undirected)
    if bound > cap:
        raise MecSizeError(f"equivalence class has at least {bound} members, beyond the cap of {cap}")
    skeleton = c.directed | c.directed.T | c.undirected
    v_structures = _v_structures(c.directed, skeleton)

    def leaves(directed, undirected):
        pairs = np.argwhere(np.triu(undirected))
        if pairs.size == 0:  # acyclic: the root is a Cpdag, and cyclic branches are pruned
            if np.array_equal(_v_structures(directed, skeleton), v_structures):
                yield Dag(directed)
            return
        i, j = (int(v) for v in pairs[0])
        for a, b in ((i, j), (j, i)):
            dd = directed.copy()
            uu = undirected.copy()
            dd[a, b] = True
            uu[a, b] = uu[b, a] = False
            _apply_meek_rules(dd, uu)
            if _is_acyclic(dd):
                yield from leaves(dd, uu)

    out: list[Dag] = []
    for member in leaves(c.directed.copy(), c.undirected.copy()):
        if not out and dag_to_cpdag(member) != c:
            return []
        out.append(member)
        if len(out) > cap:
            raise MecSizeError(f"equivalence class exceeds cap of {cap} members")
    return out


# ---------------------------------------------------------------------------
# Edge-list text format: one "src dst" pair per line, 0-indexed, '#' comments
# ---------------------------------------------------------------------------


def read_edge_list(path, d: int | None = None) -> Dag:
    """Read an edge list on ``d`` nodes, by default the count in the ``# N
    nodes`` header that ``write_edge_list`` writes, else one more than the
    largest node id. A ``d`` that disagrees with the header is an error."""
    edges = []
    max_node = -1
    header_d = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and (header := re.match(r"\s*#\s*(\d+)\s+nodes\b", raw)):
                header_d = int(header.group(1))
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'src dst', got {raw.strip()!r}", line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer node id in {raw.strip()!r}", line=lineno) from None
            if i < 0 or j < 0:
                raise ParseError("node ids must be non-negative", line=lineno)
            edges.append((i, j))
            max_node = max(max_node, i, j)
    if header_d is not None and d is not None and d != header_d:
        raise ParseError(f"edge list header gives {header_d} nodes but d={d}", line=1)
    if d is None:
        d = max_node + 1 if header_d is None else header_d
    if d < max_node + 1:
        raise ParseError(f"edge list references node {max_node} but d={d}")
    if d < 1:
        raise ParseError("empty edge list and no node count given")
    return dag_from_edges(d, edges)


def write_edge_list(g: Dag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {g.d} nodes, {g.n_edges} edges\n")
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")
