"""Two matchers: maximum bipartite matching size, and maximum-weight
maximum-cardinality matching.

The reuse-potential lookahead bounds "how many reuse pairs remain after
this merge" with a maximum bipartite matching between source and target
wires (paper Fig. 9's feasibility relation).  The matching *size* is what
CaQR compares — and the size of a maximum matching is unique (König), so
any maximum-matching algorithm returns the exact value
``networkx.algorithms.bipartite.hopcroft_karp_matching`` would.
:func:`max_bipartite_matching_size` runs Kuhn's augmenting-path algorithm
directly on integer bitmasks (one Python int of target bits per source
row), avoiding the graph-object construction that dominated the
networkx-based lookahead.

The commuting scheduler (paper Section 3.2.2) takes one maximum-weight
matching of each frontier.  Many frontiers have several optimal
matchings, and the one chosen decides the schedule, so
:func:`max_weight_matching` is networkx's ``max_weight_matching``
(Van Rantwijk's primal-dual Edmonds blossom algorithm) with
``maxcardinality=True``, transliterated visit order for visit order:
nodes and neighbours in edge insertion order, blossoms in creation
order.  It works on an edge list, with vertices and blossoms as int ids
and integer duals, and drops networkx's dispatch, graph build and
optimality self-check.  A run leaves no reference cycles.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

__all__ = ["max_bipartite_matching_size", "max_weight_matching"]


def _augment(
    rows: List[int], match_of_target: List[int], source: int, banned: int
) -> Tuple[bool, int]:
    """Try to match *source*, threading the per-phase visited mask.

    A module-level function rather than a closure: a recursive closure
    is a reference cycle per call, left for the cyclic collector.
    """
    available = rows[source] & ~banned
    while available:
        target_bit = available & -available
        available ^= target_bit
        banned |= target_bit
        target = target_bit.bit_length() - 1
        holder = match_of_target[target]
        if holder == -1:
            match_of_target[target] = source
            return True, banned
        grew, banned = _augment(rows, match_of_target, holder, banned)
        if grew:
            match_of_target[target] = source
            return True, banned
    return False, banned


def max_bipartite_matching_size(rows: List[int], num_targets: int) -> int:
    """Size of a maximum matching in the bipartite graph ``source x has an
    edge to target y iff bit y of rows[x] is set``.

    Args:
        rows: one target-bitmask per source vertex.
        num_targets: number of target vertices (bit positions).

    Returns:
        The (unique) maximum-matching size.
    """
    match_of_target = [-1] * num_targets
    size = 0
    for source, mask in enumerate(rows):
        if mask and _augment(rows, match_of_target, source, 0)[0]:
            size += 1
    return size


# -- maximum-weight matching ---------------------------------------------------

Edge = Tuple[int, int]


class Blossom:
    """A non-trivial blossom.

    ``childs`` are its sub-blossoms (vertex or blossom ids), starting
    with the base and going round the blossom; ``edges[i] = (v, w)``
    joins a vertex ``v`` of ``childs[i]`` to a vertex ``w`` of
    ``childs[i + 1]`` (wrapping).  While it is a top-level S-blossom,
    ``mybestedges`` lists its least-slack edges to neighbouring
    S-blossoms, or is ``None`` if not computed yet.
    """

    __slots__ = ("childs", "edges", "mybestedges")

    def __init__(self, childs: List[int], edges: List[Edge]) -> None:
        self.childs = childs
        self.edges = edges
        self.mybestedges: Optional[List[Edge]] = None


class _Blossoming:
    """One run of the primal-dual blossom algorithm.

    Vertices are ids ``0..n-1`` in first-appearance order; each new
    blossom takes the next id, so ids follow creation order and are never
    reused.  Per-id state lives in lists (``label``: 0 free, 1 S, 2 T, 5
    S with a breadcrumb; ``-1`` stands for networkx's ``None`` and
    ``NoNode`` in vertex and parent slots).  ``blossomdual`` holds the
    live blossoms' duals in creation order: where networkx iterates its
    ``blossomparent`` or ``blossomdual`` dicts, this iterates the
    vertices and then ``blossomdual``.  Vertex duals and slacks are
    doubled, so integer weights keep every dual an integer.

    The methods recurse where networkx runs a trampoline; the depth is
    the blossom nesting depth, at most ``n / 2``.
    """

    def __init__(self, adjacency: List[Dict[int, int]], maxweight: int) -> None:
        n = len(adjacency)
        self.n = n
        self.adjacency = adjacency
        self.mate = [-1] * n
        self.label = [0] * n
        self.labeledge: List[Optional[Edge]] = [None] * n
        self.bestedge: List[Optional[Edge]] = [None] * n
        self.inblossom = list(range(n))
        self.blossomparent = [-1] * n
        self.blossombase = list(range(n))
        self.blossoms: List[Optional[Blossom]] = [None] * n
        self.dualvar = [maxweight] * n
        self.blossomdual: Dict[int, int] = {}
        # allowable (zero-slack) edges, keyed ``v * n + w`` both ways
        self.allowedge: Set[int] = set()
        self.queue: List[int] = []

    def slack(self, v: int, w: int) -> int:
        """Twice the slack of edge ``(v, w)`` (not inside blossoms)."""
        return self.dualvar[v] + self.dualvar[w] - 2 * self.adjacency[v][w]

    def leaves(self, b: int) -> List[int]:
        """Blossom *b*'s vertices, in networkx's stack order."""
        n, blossoms = self.n, self.blossoms
        found = []
        stack = list(blossoms[b].childs)
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossoms[t].childs)
            else:
                found.append(t)
        return found

    def assign_label(self, w: int, t: int, v: int) -> None:
        """Label the top-level blossom of vertex *w* with *t*, reached from
        vertex *v* (``-1``: none)."""
        b = self.inblossom[w]
        label = self.label
        label[w] = label[b] = t
        edge = (v, w) if v >= 0 else None
        self.labeledge[w] = self.labeledge[b] = edge
        self.bestedge[w] = self.bestedge[b] = None
        if t == 1:
            # an S-blossom: queue its vertices
            if b >= self.n:
                self.queue.extend(self.leaves(b))
            else:
                self.queue.append(b)
        else:
            # a T-blossom: its base's mate becomes S
            base = self.blossombase[b]
            self.assign_label(self.mate[base], 1, base)

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from S-vertices *v* and *w*: the base of the new
        blossom they close, or ``-1`` for an augmenting path."""
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = self.blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # the base of blossom b is single
                v = -1
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                # b is a T-blossom; one more step back
                v = labeledge[b][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """Make the S-blossom with *base* closed by edge ``(v, w)``."""
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        blossomparent, bestedge, adjacency = self.blossomparent, self.bestedge, self.adjacency
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = len(label)
        path: List[int] = []
        edgs: List[Edge] = [(v, w)]
        record = Blossom(path, edgs)
        self.blossoms.append(record)
        self.blossombase.append(base)
        blossomparent.append(-1)
        blossomparent[bb] = b
        label.append(0)
        labeledge.append(None)
        bestedge.append(None)
        # trace back from v to base
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # trace back from w to base
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        self.blossomdual[b] = 0
        # T-vertices turn S inside the new S-blossom: queue them
        for v in self.leaves(b):
            if label[inblossom[v]] == 2:
                self.queue.append(v)
            inblossom[v] = b
        # least-slack edges to each neighbouring S-blossom
        n, slack = self.n, self.slack
        bestedgeto: Dict[int, Edge] = {}
        for bv in path:
            if bv >= n:
                sub = self.blossoms[bv]
                if sub.mybestedges is not None:
                    nblist = sub.mybestedges
                    sub.mybestedges = None
                else:
                    nblist = [
                        (v, w) for v in self.leaves(bv) for w in adjacency[v] if v != w
                    ]
            else:
                nblist = [(bv, w) for w in adjacency[bv] if bv != w]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        record.mybestedges = mybestedges = list(bestedgeto.values())
        mybestedge = None
        mybestslack = 0
        for k in mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Dissolve top-level blossom *b*; mid-stage, relabel a T-blossom's
        sub-blossoms."""
        n = self.n
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        blossomparent, blossomdual = self.blossomparent, self.blossomdual
        record = self.blossoms[b]
        for s in record.childs:
            blossomparent[s] = -1
            if s >= n:
                if endstage and blossomdual[s] == 0:
                    self.expand_blossom(s, endstage)
                else:
                    for v in self.leaves(s):
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            # walk from the sub-blossom the label entered through to the base
            childs, edges = record.childs, record.edges
            allowedge, bestedge = self.allowedge, self.bestedge
            entrychild = inblossom[labeledge[b][1]]
            j = childs.index(entrychild)
            if j & 1:
                # odd start: go forward and wrap
                j -= len(childs)
                jstep = 1
            else:
                # even start: go backward
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                # relabel the T-sub-blossom
                if jstep == 1:
                    p, q = edges[j]
                else:
                    q, p = edges[j - 1]
                label[w] = 0
                label[q] = 0
                self.assign_label(w, 2, v)
                allowedge.add(p * n + q)
                allowedge.add(q * n + p)
                j += jstep
                if jstep == 1:
                    v, w = edges[j]
                else:
                    w, v = edges[j - 1]
                allowedge.add(v * n + w)
                allowedge.add(w * n + v)
                j += jstep
            # the base T-sub-blossom keeps its mate's label
            bw = childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            # the rest of the way round: T if reachable from outside
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                if bv >= n:
                    for v in self.leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = 0
                    label[self.mate[self.blossombase[bv]]] = 0
                    self.assign_label(v, 2, labeledge[v][0])
                j += jstep
        label[b] = 0
        labeledge[b] = None
        self.bestedge[b] = None
        del blossomdual[b]

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched and unmatched edges round blossom *b* from vertex
        *v* to the base, making *v*'s sub-blossom the new base."""
        n, mate, blossomparent = self.n, self.mate, self.blossomparent
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            self.augment_blossom(t, v)
        record = self.blossoms[b]
        childs, edges = record.childs, record.edges
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = childs[j]
            if jstep == 1:
                w, x = edges[j]
            else:
                x, w = edges[j - 1]
            if t >= n:
                self.augment_blossom(t, w)
            j += jstep
            t = childs[j]
            if t >= n:
                self.augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        record.childs = childs[i:] + childs[:i]
        record.edges = edges[i:] + edges[:i]
        self.blossombase[b] = self.blossombase[record.childs[0]]

    def augment_matching(self, v: int, w: int) -> None:
        """Augment along the path through S-vertices *v* and *w*."""
        n, mate, inblossom, labeledge = self.n, self.mate, self.inblossom, self.labeledge
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    # reached a single vertex
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    self.augment_blossom(bt, j)
                mate[j] = s

    def solve(self) -> List[int]:
        """Run every stage; returns ``mate`` (``-1``: single)."""
        n, adjacency, mate = self.n, self.adjacency, self.mate
        inblossom, dualvar, blossomdual = self.inblossom, self.dualvar, self.blossomdual
        blossomparent, allowedge, queue = self.blossomparent, self.allowedge, self.queue
        slack = self.slack
        while True:
            # a stage: find one augmenting path
            size = len(self.label)
            self.label = label = [0] * size
            self.labeledge = [None] * size
            self.bestedge = bestedge = [None] * size
            for b in blossomdual:
                self.blossoms[b].mybestedges = None
            allowedge.clear()
            queue.clear()
            for v in range(n):
                if mate[v] < 0 and label[inblossom[v]] == 0:
                    self.assign_label(v, 1, -1)
            augmented = False
            while True:
                # a substage: label until an augmenting path turns up
                while queue and not augmented:
                    v = queue.pop()
                    for w in adjacency[v]:
                        if w == v:
                            continue
                        bv = inblossom[v]
                        bw = inblossom[w]
                        if bv == bw:
                            continue  # internal to a blossom
                        key = v * n + w
                        if key not in allowedge:
                            kslack = dualvar[v] + dualvar[w] - 2 * adjacency[v][w]
                            if kslack <= 0:
                                allowedge.add(key)
                                allowedge.add(w * n + v)
                        if key in allowedge:
                            if label[bw] == 0:
                                # w is free: label it T and its mate S
                                self.assign_label(w, 2, v)
                            elif label[bw] == 1:
                                # w is S: a new blossom or an augmenting path
                                base = self.scan_blossom(v, w)
                                if base != -1:
                                    self.add_blossom(base, v, w)
                                else:
                                    self.augment_matching(v, w)
                                    augmented = True
                                    break
                            elif label[w] == 0:
                                # w is inside a T-blossom, not reached yet
                                label[w] = 2
                                self.labeledge[w] = (v, w)
                        elif label[bw] == 1:
                            # least-slack edge to a different S-blossom
                            if bestedge[bv] is None or kslack < slack(*bestedge[bv]):
                                bestedge[bv] = (v, w)
                        elif label[w] == 0:
                            # least-slack edge to a free or unreached vertex
                            if bestedge[w] is None or kslack < slack(*bestedge[w]):
                                bestedge[w] = (v, w)
                if augmented:
                    break

                # no augmenting path: move the duals by the least delta
                deltatype = -1
                delta = 0
                deltaedge: Optional[Edge] = None
                deltablossom = -1
                # delta2: least slack from an S-vertex to a free vertex
                for v in range(n):
                    if label[inblossom[v]] == 0 and bestedge[v] is not None:
                        d = slack(*bestedge[v])
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 2
                            deltaedge = bestedge[v]
                # delta3: half the least slack between two S-blossoms
                for ids in (range(n), blossomdual):
                    for b in ids:
                        if (
                            blossomparent[b] == -1
                            and label[b] == 1
                            and bestedge[b] is not None
                        ):
                            d = slack(*bestedge[b]) // 2
                            if deltatype == -1 or d < delta:
                                delta = d
                                deltatype = 3
                                deltaedge = bestedge[b]
                # delta4: the least dual of a T-blossom
                for b in blossomdual:
                    if (
                        blossomparent[b] == -1
                        and label[b] == 2
                        and (deltatype == -1 or blossomdual[b] < delta)
                    ):
                        delta = blossomdual[b]
                        deltatype = 4
                        deltablossom = b
                if deltatype == -1:
                    # maximum cardinality reached; the final dual update
                    # networkx makes only serves its self-check
                    break

                for v in range(n):
                    top = label[inblossom[v]]
                    if top == 1:
                        dualvar[v] -= delta
                    elif top == 2:
                        dualvar[v] += delta
                for b in blossomdual:
                    if blossomparent[b] == -1:
                        if label[b] == 1:
                            blossomdual[b] += delta
                        elif label[b] == 2:
                            blossomdual[b] -= delta

                if deltatype == 4:
                    self.expand_blossom(deltablossom, False)
                else:
                    v, w = deltaedge
                    allowedge.add(v * n + w)
                    allowedge.add(w * n + v)
                    queue.append(v)

            if not augmented:
                return mate
            # end of a stage: expand the S-blossoms whose dual is zero
            for b in list(blossomdual):
                if (
                    b in blossomdual
                    and blossomparent[b] == -1
                    and label[b] == 1
                    and blossomdual[b] == 0
                ):
                    self.expand_blossom(b, True)


def max_weight_matching(
    edges: Iterable[Tuple[Hashable, Hashable, int]],
) -> Set[Tuple[Hashable, Hashable]]:
    """A maximum-cardinality matching of greatest weight among those.

    The matching ``networkx.max_weight_matching(G, maxcardinality=True)``
    returns for the graph ``G`` built by ``add_weighted_edges_from(edges)``,
    ties included: a repeated edge keeps its first position and its last
    weight, and self-loops are ignored.

    Args:
        edges: ``(a, b, weight)`` triples with integer weights; their
            order fixes the node and neighbour order that breaks ties.

    Returns:
        The matched pairs, each once, oriented by first appearance.
    """
    index: Dict[Hashable, int] = {}
    nodes: List[Hashable] = []
    adjacency: List[Dict[int, int]] = []
    for a, b, weight in edges:
        for node in (a, b):
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
                adjacency.append({})
        i, j = index[a], index[b]
        adjacency[i][j] = weight
        adjacency[j][i] = weight
    if not nodes:
        return set()
    maxweight = 0
    for i, row in enumerate(adjacency):
        for j, weight in row.items():
            if i != j and weight > maxweight:
                maxweight = weight
    mate = _Blossoming(adjacency, maxweight).solve()
    return {(nodes[v], nodes[w]) for v, w in enumerate(mate) if v < w}
