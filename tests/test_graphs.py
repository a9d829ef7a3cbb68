import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsortbench import graphs
from varsortbench.errors import ConfigurationError, IntegrityError, MecSizeError, ParseError
from varsortbench.graphs import (
    Cpdag,
    _is_acyclic,
    _mec_size_lower_bound,
    Dag,
    GraphSpec,
    d_separated,
    dag_from_edges,
    dag_to_cpdag,
    enumerate_mec,
    reachability_adj,
    read_edge_list,
    sample_er_dag,
    sample_sf_dag,
    topological_order,
    write_edge_list,
)


def random_dag(d, p, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    adj = np.zeros((d, d), dtype=bool)
    for a in range(d):
        for b in range(a + 1, d):
            if rng.random() < p:
                adj[perm[a], perm[b]] = True
    return Dag(adj)


class TestDagType:
    def test_rejects_self_loop(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 0] = True
        with pytest.raises(IntegrityError):
            Dag(adj)

    def test_rejects_cycle(self):
        with pytest.raises(IntegrityError):
            dag_from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_immutable(self):
        g = dag_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_equality_and_parents(self):
        g = dag_from_edges(3, [(0, 2), (1, 2)])
        assert g == dag_from_edges(3, [(1, 2), (0, 2)])
        assert list(g.parents(2)) == [0, 1]
        assert g.n_edges == 2


class TestGraphSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GraphSpec("XX", 10, 2)
        with pytest.raises(ConfigurationError):
            GraphSpec("ER", 1, 1)
        with pytest.raises(ConfigurationError):
            GraphSpec("ER", 10, 0)
        with pytest.raises(ConfigurationError):
            GraphSpec("ER", 4, 4)

    def test_label(self):
        assert GraphSpec("SF", 50, 4).label == "SF-4(d=50)"


class TestErSampler:
    def test_two_nodes_probability_saturates(self):
        # p = 2k/(d-1) = 2 clipped to 1: the single possible edge always appears
        spec = GraphSpec("ER", 2, 1)
        for seed in range(20):
            assert sample_er_dag(spec, seed).n_edges == 1

    def test_mean_edge_count(self):
        # expected edges = d k = 20; Binomial(45, 4/9) over 1000 seeds
        spec = GraphSpec("ER", 10, 2)
        counts = [sample_er_dag(spec, seed).n_edges for seed in range(1000)]
        assert abs(np.mean(counts) - 20.0) < 2.0

    def test_always_acyclic_and_orderable(self):
        spec = GraphSpec("ER", 12, 3)
        for seed in range(25):
            g = sample_er_dag(spec, seed)  # construction validates acyclicity
            order = topological_order(g)
            pos = {node: r for r, node in enumerate(order)}
            assert all(pos[i] < pos[j] for i, j in g.edges())

    def test_recorded_order_is_causal(self):
        g = sample_er_dag(GraphSpec("ER", 8, 2), 3)
        pos = {node: r for r, node in enumerate(g.order)}
        assert all(pos[i] < pos[j] for i, j in g.edges())

    def test_wrong_model_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_er_dag(GraphSpec("SF", 10, 2), 0)


class TestSfSampler:
    def test_three_node_tree(self):
        g = sample_sf_dag(GraphSpec("SF", 3, 1), 7)
        assert g.n_edges == 2
        assert topological_order(g)

    def test_edge_count_formula(self):
        # k d - k (k+1) / 2 edges exactly
        for d, k, seed in [(50, 4, 0), (10, 2, 1), (30, 4, 2)]:
            g = sample_sf_dag(GraphSpec("SF", d, k), seed)
            assert g.n_edges == k * d - k * (k + 1) // 2

    def test_attached_nodes_have_in_degree_k(self):
        spec = GraphSpec("SF", 50, 4)
        g = sample_sf_dag(spec, 11)
        in_degrees = sorted(g.adj.sum(axis=0))
        # the k seed nodes have in-degree 0..k-1, all others exactly k
        assert in_degrees[4:] == [4] * 46
        assert in_degrees[:4] == [0, 1, 2, 3]

    def test_hub_emergence(self):
        spec = GraphSpec("SF", 50, 4)
        hits = 0
        for seed in range(100):
            g = sample_sf_dag(spec, seed)
            total_degree = g.adj.sum(axis=0) + g.adj.sum(axis=1)
            hits += int(total_degree.max() >= 20)
        assert hits >= 90

    def test_k_at_least_d_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphSpec("SF", 4, 4)


def bfs_closure(adj, reflexive):
    """reach[k, j]: a walk of length >= 1 (or 0, if reflexive) leads from k to j."""
    d = adj.shape[0]
    reach = np.eye(d, dtype=bool) if reflexive else np.zeros((d, d), dtype=bool)
    for start in range(d):
        seen = adj[start].copy()
        queue = [int(v) for v in np.flatnonzero(seen)]
        while queue:
            for v in np.flatnonzero(adj[queue.pop(0)] & ~seen):
                seen[v] = True
                queue.append(int(v))
        reach[start] |= seen
    return reach


class TestReachabilityAdj:
    def test_matches_bfs_on_cyclic_matrices(self):
        # Random matrices, not DAGs: cycles and self-loops included.
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(1, 12))
            adj = rng.random((d, d)) < rng.random() * 0.4
            for reflexive in (False, True):
                assert np.array_equal(reachability_adj(adj, reflexive=reflexive), bfs_closure(adj, reflexive))

    def test_chain_needs_every_power(self):
        d = 9
        adj = np.zeros((d, d), dtype=bool)
        adj[np.arange(d - 1), np.arange(1, d)] = True  # 0 -> 1 -> ... -> d-1
        for reflexive in (False, True):
            expected = np.triu(np.ones((d, d), dtype=bool), k=0 if reflexive else 1)
            assert np.array_equal(reachability_adj(adj, reflexive=reflexive), expected)

    def test_self_loop_and_cycles_reach_themselves(self):
        assert reachability_adj(np.ones((1, 1), dtype=bool)).all()
        d = 5
        ring = np.roll(np.eye(d, dtype=bool), 1, axis=1)  # 0 -> 1 -> ... -> 4 -> 0
        assert reachability_adj(ring).all()  # each node returns to itself after d steps
        adj = np.zeros((4, 4), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        reach = reachability_adj(adj)
        assert reach[1, 1] and reach[2, 2] and reach[1, 2] and reach[2, 1]
        assert reach.sum() == 4


def dfs_is_acyclic(adj):
    """Three-colour depth-first search: an edge back onto the stack (a
    self-loop included) closes a cycle."""
    state = [0] * adj.shape[0]  # 0 unvisited, 1 on the stack, 2 done

    def visit(u):
        state[u] = 1
        for v in np.flatnonzero(adj[u]):
            if state[v] == 1 or (state[v] == 0 and not visit(v)):
                return False
        state[u] = 2
        return True

    return all(state[u] or visit(u) for u in range(adj.shape[0]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=0.8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_dag_and_cpdag_accept_exactly_the_acyclic(d, p, extra, seed):
    # A random DAG plus ``extra`` random entries, the diagonal included: about
    # half of the draws hold a cycle.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    adj = np.zeros((d, d), dtype=bool)
    adj[np.ix_(perm, perm)] = np.triu(rng.random((d, d)) < p, k=1)
    adj[rng.integers(0, d, extra), rng.integers(0, d, extra)] = True
    acyclic = dfs_is_acyclic(adj)
    # Undirected edges only where ``adj`` has none, so nothing else is wrong.
    free = np.triu(~(adj | adj.T) & (rng.random((d, d)) < 0.5), k=1)
    for build in (lambda: Dag(adj), lambda: Cpdag(adj, free | free.T)):
        if acyclic:
            build()
        else:
            with pytest.raises(IntegrityError):
                build()


class TestTopologicalOrder:
    def test_empty_graph_tie_breaking(self):
        assert topological_order(dag_from_edges(3, [])) == (0, 1, 2)

    def test_chain(self):
        assert topological_order(dag_from_edges(3, [(2, 0), (0, 1)])) == (2, 0, 1)

    def test_collider(self):
        assert topological_order(dag_from_edges(3, [(0, 2), (1, 2)])) == (0, 1, 2)


class TestDescendantMatrix:
    """A DAG's descendants are the closure of its adjacency."""

    def test_chain(self):
        reach = reachability_adj(dag_from_edges(3, [(0, 1), (1, 2)]).adj)
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 1] = expected[1, 2] = expected[0, 2] = True
        assert np.array_equal(reach, expected)

    def test_empty(self):
        assert not reachability_adj(dag_from_edges(3, []).adj).any()

    def test_triangle(self):
        reach = reachability_adj(dag_from_edges(3, [(0, 1), (0, 2), (1, 2)]).adj)
        assert reach[0, 1] and reach[0, 2] and reach[1, 2]
        assert reach.sum() == 3

    def test_matches_dfs_closure(self):
        for seed in range(20):
            g = random_dag(7, 0.4, seed)
            reach = reachability_adj(g.adj)
            for start in range(7):
                seen = set()
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in np.flatnonzero(g.adj[u]):
                        if v not in seen:
                            seen.add(int(v))
                            stack.append(int(v))
                assert set(np.flatnonzero(reach[start])) == seen


class TestCpdag:
    def test_chain_fully_undirected(self):
        c = dag_to_cpdag(dag_from_edges(3, [(0, 1), (1, 2)]))
        assert not c.directed.any()
        assert c.undirected.sum() == 4  # two undirected edges, symmetric storage

    def test_collider_stays_directed(self):
        c = dag_to_cpdag(dag_from_edges(3, [(0, 1), (2, 1)]))
        assert c.directed[0, 1] and c.directed[2, 1]
        assert not c.undirected.any()

    def test_single_edge_undirected(self):
        c = dag_to_cpdag(dag_from_edges(2, [(0, 1)]))
        assert not c.directed.any()
        assert c.undirected[0, 1] and c.undirected[1, 0]

    def test_validation(self):
        und = np.zeros((2, 2), dtype=bool)
        und[0, 1] = True  # not symmetric
        with pytest.raises(IntegrityError):
            Cpdag(np.zeros((2, 2), dtype=bool), und)


def v_structures_by_loop(adj):
    """Every ``(a, j, b)``, ``a < b``, with ``a -> j <- b`` and ``a``, ``b``
    non-adjacent."""
    d = len(adj)
    found = set()
    for j in range(d):
        parents = [p for p in range(d) if adj[p][j]]
        for a, b in itertools.combinations(parents, 2):
            if not (adj[a][b] or adj[b][a]):
                found.add((a, j, b))
    return found


def verma_pearl_class(g: Dag):
    """``(members, cpdag)`` of ``g``'s equivalence class by Verma & Pearl
    (1990), with no call into the library's CPDAG code: the members are the
    acyclic orientations of ``g``'s skeleton that have ``g``'s v-structures,
    each orientation tried in turn; the CPDAG keeps an edge directed only
    when every member orients it the same way."""
    skeleton = [(i, j) for i in range(g.d) for j in range(i + 1, g.d) if g.adj[i, j] or g.adj[j, i]]
    target = v_structures_by_loop(g.adj.tolist())
    members = []
    for flips in itertools.product((False, True), repeat=len(skeleton)):
        adj = [[False] * g.d for _ in range(g.d)]
        for (i, j), flip in zip(skeleton, flips):
            if flip:
                adj[j][i] = True
            else:
                adj[i][j] = True
        if v_structures_by_loop(adj) == target and dfs_is_acyclic(np.array(adj)):
            members.append(Dag(np.array(adj)))
    directed = np.logical_and.reduce([m.adj for m in members])
    return members, Cpdag(directed, (g.adj | g.adj.T) & ~(directed | directed.T))


class TestEnumerateMec:
    def test_chain_has_three_members(self):
        members = enumerate_mec(dag_to_cpdag(dag_from_edges(3, [(0, 1), (1, 2)])))
        assert len(members) == 3

    def test_collider_is_singleton(self):
        g = dag_from_edges(3, [(0, 1), (2, 1)])
        members = enumerate_mec(dag_to_cpdag(g))
        assert members == [g]

    def test_undirected_triangle_has_six(self):
        und = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(und, False)
        c = Cpdag(np.zeros((3, 3), dtype=bool), und)
        assert len(enumerate_mec(c)) == 6

    def test_cap_overflow(self):
        und = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(und, False)
        c = Cpdag(np.zeros((3, 3), dtype=bool), und)
        with pytest.raises(MecSizeError):
            enumerate_mec(c, cap=3)

    def test_large_class_fails_before_enumerating(self, monkeypatch):
        # the complete DAG on 10 nodes has 10! members; the clique bound
        # rejects it before a single member is checked
        c = dag_to_cpdag(Dag(np.triu(np.ones((10, 10), dtype=bool), 1)))
        calls = []

        def counted(g):
            calls.append(g)
            return dag_to_cpdag(g)

        monkeypatch.setattr(graphs, "dag_to_cpdag", counted)
        with pytest.raises(MecSizeError):
            enumerate_mec(c)
        assert calls == []

    def test_roundtrip_members_map_to_same_class(self):
        for seed in range(15):
            g = random_dag(6, 0.35, seed)
            c = dag_to_cpdag(g)
            members = enumerate_mec(c)
            assert g in members
            for member in members:
                assert dag_to_cpdag(member) == c

    def test_matches_brute_force(self):
        for seed in range(15):
            g = random_dag(5, 0.4, seed + 100)
            got = {m for m in enumerate_mec(dag_to_cpdag(g))}
            expected = {m for m in verma_pearl_class(g)[0]}
            assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_cpdag_and_class_match_verma_pearl(d, p, seed):
    g = random_dag(d, p, seed)
    members, cpdag = verma_pearl_class(g)
    c = dag_to_cpdag(g)
    assert c == cpdag
    got = enumerate_mec(c)
    assert len(got) == len(members) and set(got) == set(members)


def meek_rules_reference(directed, undirected):
    """The pair-by-pair closure that ``graphs._apply_meek_rules`` replaced:
    each undirected edge in ascending (x, y) order, oriented as soon as a
    rule fires."""
    d = directed.shape[0]

    def adjacent(a, b):
        return directed[a, b] or directed[b, a] or undirected[a, b]

    changed = True
    while changed:
        changed = False
        for x in range(d):
            for y in range(d):
                if not undirected[x, y]:
                    continue
                orient = False
                # R1
                for zn in np.flatnonzero(directed[:, x]):
                    if not adjacent(zn, y):
                        orient = True
                        break
                # R2
                if not orient:
                    mid = np.flatnonzero(directed[x] & directed[:, y])
                    if mid.size:
                        orient = True
                # R3
                if not orient:
                    into_y = np.flatnonzero(directed[:, y] & undirected[x])
                    for a_idx in range(len(into_y)):
                        for b_idx in range(a_idx + 1, len(into_y)):
                            a, b = into_y[a_idx], into_y[b_idx]
                            if not adjacent(a, b):
                                orient = True
                                break
                        if orient:
                            break
                # R4
                if not orient:
                    for zn in np.flatnonzero(undirected[x]):
                        if zn == y:
                            continue
                        for w in np.flatnonzero(directed[zn] & directed[:, y]):
                            if adjacent(x, w) and not adjacent(zn, y):
                                orient = True
                                break
                        if orient:
                            break
                if orient:
                    directed[x, y] = True
                    undirected[x, y] = undirected[y, x] = False
                    changed = True


def dag_to_cpdag_reference(g):
    """The parent-pair loop plus ``meek_rules_reference`` that
    ``graphs.dag_to_cpdag`` replaced."""
    d = g.d
    skeleton = g.adj | g.adj.T
    directed = np.zeros((d, d), dtype=bool)
    undirected = skeleton.copy()
    for j in range(d):
        parents = np.flatnonzero(g.adj[:, j])
        for a_idx in range(len(parents)):
            for b_idx in range(a_idx + 1, len(parents)):
                a, b = parents[a_idx], parents[b_idx]
                if not skeleton[a, b]:
                    for p in (a, b):
                        directed[p, j] = True
                        undirected[p, j] = undirected[j, p] = False
    meek_rules_reference(directed, undirected)
    return Cpdag(directed, undirected)


def enumerate_mec_reference(c, cap):
    """The enumeration that ``graphs.enumerate_mec`` replaced: every leaf is
    mapped back to a CPDAG by ``dag_to_cpdag_reference``."""
    bound = _mec_size_lower_bound(c.undirected)
    if bound > cap:
        raise MecSizeError(f"equivalence class has at least {bound} members, beyond the cap of {cap}")
    out = []

    def leaf(directed):
        if not _is_acyclic(directed):
            return
        candidate = Dag(directed.copy())
        if dag_to_cpdag_reference(candidate) == c:
            out.append(candidate)
            if len(out) > cap:
                raise MecSizeError(f"equivalence class exceeds cap of {cap} members")

    def recurse(directed, undirected):
        pairs = np.argwhere(np.triu(undirected))
        if pairs.size == 0:
            leaf(directed)
            return
        i, j = (int(v) for v in pairs[0])
        for a, b in ((i, j), (j, i)):
            dd = directed.copy()
            uu = undirected.copy()
            dd[a, b] = True
            uu[a, b] = uu[b, a] = False
            meek_rules_reference(dd, uu)
            if _is_acyclic(dd):
                recurse(dd, uu)

    recurse(c.directed.copy(), c.undirected.copy())
    return out


def members_or_overflow(enumerate_class, c, cap):
    try:
        return enumerate_class(c, cap=cap)
    except MecSizeError:
        return "overflow"


MEC_CAP = 100


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_cpdag_and_class_match_reference(d, p, seed):
    g = random_dag(d, p, seed)
    c = dag_to_cpdag(g)
    assert c == dag_to_cpdag_reference(g)
    expected = members_or_overflow(enumerate_mec_reference, c, MEC_CAP)
    assert members_or_overflow(enumerate_mec, c, MEC_CAP) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_class_of_any_cpdag_input_matches_reference(d, p, q, seed):
    # A DAG's edges split at random into directed and undirected: most such
    # inputs are no CPDAG, and their class is empty.
    g = random_dag(d, p, seed)
    split = g.adj & (np.random.default_rng(seed + 1).random((d, d)) < q)
    c = Cpdag(g.adj & ~split, split | split.T)
    expected = members_or_overflow(enumerate_mec_reference, c, MEC_CAP)
    assert members_or_overflow(enumerate_mec, c, MEC_CAP) == expected


def path_blocking_oracle(g: Dag, i, j, zset):
    """d-separation by exhaustive enumeration of undirected paths."""
    zset = set(zset)
    reach = reachability_adj(g.adj)

    def blocked(path):
        for idx in range(1, len(path) - 1):
            prev_node, node, next_node = path[idx - 1], path[idx], path[idx + 1]
            collider = g.adj[prev_node, node] and g.adj[next_node, node]
            if collider:
                descendants = {node} | set(np.flatnonzero(reach[node]))
                if not descendants & zset:
                    return True
            elif node in zset:
                return True
        return False

    stack = [(i, [i])]
    while stack:
        node, path = stack.pop()
        if node == j:
            if not blocked(path):
                return False
            continue
        for nxt in range(g.d):
            if nxt in path:
                continue
            if g.adj[node, nxt] or g.adj[nxt, node]:
                stack.append((nxt, path + [nxt]))
    return True


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        assert d_separated(g, 0, 2, [1])
        assert not d_separated(g, 0, 2, [])

    def test_collider(self):
        g = dag_from_edges(3, [(0, 1), (2, 1)])
        assert d_separated(g, 0, 2, [])
        assert not d_separated(g, 0, 2, [1])

    def test_conditioning_on_collider_descendant_opens(self):
        g = dag_from_edges(4, [(0, 1), (2, 1), (1, 3)])
        assert not d_separated(g, 0, 2, [3])

    def test_validation(self):
        g = dag_from_edges(3, [(0, 1)])
        with pytest.raises(ConfigurationError):
            d_separated(g, 0, 0, [])
        with pytest.raises(ConfigurationError):
            d_separated(g, 0, 1, [1])

    def test_negative_index_is_not_an_alias(self):
        # -1 would name node 2 and slip past the "i and j must differ" check.
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            d_separated(g, -1, 2, [])

    def test_out_of_range_index(self):
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            d_separated(g, 0, 3, [])

    def test_negative_conditioning_index(self):
        # -2 would condition on node 1.
        g = dag_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            d_separated(g, 0, 2, [-2])

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(1)
        for seed in range(25):
            d = int(rng.integers(3, 9))
            g = random_dag(d, float(rng.random()), seed + 200)
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(d))
            nxg.add_edges_from(g.edges())
            for _ in range(20):
                i, j = (int(v) for v in rng.choice(d, size=2, replace=False))
                z = [v for v in range(d) if v not in (i, j) and rng.random() < 0.4]
                assert d_separated(g, i, j, z) == nx.is_d_separator(nxg, {i}, {j}, set(z))

    def test_exhaustive_agreement_small_graphs(self):
        # all (i, j, Z) on 4-node graphs, sampled Z on 5-node graphs
        for seed in range(12):
            g = random_dag(4, 0.5, seed)
            nodes = range(4)
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    others = [v for v in nodes if v not in (i, j)]
                    for r in range(len(others) + 1):
                        for z in itertools.combinations(others, r):
                            assert d_separated(g, i, j, z) == path_blocking_oracle(g, i, j, z)
        rng = np.random.default_rng(0)
        for seed in range(12):
            g = random_dag(5, 0.4, seed + 50)
            for _ in range(30):
                i, j = rng.choice(5, size=2, replace=False)
                others = [v for v in range(5) if v not in (i, j)]
                z = [v for v in others if rng.random() < 0.5]
                assert d_separated(g, int(i), int(j), z) == path_blocking_oracle(g, int(i), int(j), z)


class TestEdgeListIo:
    def test_roundtrip(self, tmp_path):
        g = random_dag(6, 0.4, 5)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path, d=6) == g

    def test_roundtrip_keeps_isolated_trailing_nodes(self, tmp_path):
        g = dag_from_edges(6, [(0, 1), (1, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g
        assert read_edge_list(path, d=6) == g
        for d in (5, 7):
            with pytest.raises(ParseError):
                read_edge_list(path, d=d)

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 1\n1 2  # trailing\n")
        g = read_edge_list(path)
        assert g.edges() == [(0, 1), (1, 2)]
        path.write_text("0 1 2\n")
        with pytest.raises(ParseError):
            read_edge_list(path)
        path.write_text("a b\n")
        with pytest.raises(ParseError):
            read_edge_list(path)
        path.write_text("0 7\n")
        with pytest.raises(ParseError):
            read_edge_list(path, d=3)


def sample_er_dag_reference(spec, seed):
    """``sample_er_dag`` as a double loop over position pairs, on the same draws."""
    from varsortbench.rng import substream

    rng = substream(seed, "graphs", "er")
    d = spec.d
    p = min(1.0, 2.0 * spec.k / (d - 1))
    perm = rng.permutation(d)
    mask = rng.random((d, d)) < p
    adj = np.zeros((d, d), dtype=bool)
    for a in range(d):
        for b in range(a + 1, d):
            if mask[a, b]:
                adj[perm[a], perm[b]] = True
    return Dag(adj, order=tuple(int(i) for i in perm))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_property_er_sampler_matches_reference(data, d, seed):
    spec = GraphSpec("ER", d, data.draw(st.integers(min_value=1, max_value=d - 1)))
    g, expected = sample_er_dag(spec, seed), sample_er_dag_reference(spec, seed)
    assert g == expected and g.order == expected.order


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_sampled_graphs_sortable(seed):
    g = sample_er_dag(GraphSpec("ER", 8, 2), seed)
    order = topological_order(g)
    pos = {node: r for r, node in enumerate(order)}
    assert all(pos[i] < pos[j] for i, j in g.edges())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_mec_size_lower_bound(d, p, seed):
    c = dag_to_cpdag(random_dag(d, p, seed))
    assert _mec_size_lower_bound(c.undirected) <= len(enumerate_mec(c))
