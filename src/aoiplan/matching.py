"""Per-slot resource-block assignment as min-cost bipartite b-matching.

Each slot's assignment subproblem is a linear program over 0/1-relaxed
variables with unit capacity on the RB side and a load cap on the BS side.
Its constraint matrix is totally unimodular, so an integral optimum always
exists; this module finds one directly with a successive-shortest-path
min-cost flow that only augments along negative-cost paths (the empty
assignment is feasible, so positive-weight edges are never selected).

Warm starts.  Callers solving the same slot at nearby water levels may
pass the selection solved last as a ``hint``.  The hint is returned only
when it is certifiably the selection the flow solver would return, so the
output stays a pure function of the weights and the cap.  The flow solver
stops at the first augmenting path costing at least ``-stop_tol``, and
successive path costs do not decrease, so its result costs at most
``K * stop_tol`` above the optimum.  Any other selection differs from the
hint by cycles of the hint's residual graph; when every such cycle costs
more than ``margin = 4 * K * stop_tol``, every other selection costs more
than ``margin`` above the hint, so the flow solver's result, being within
``K * stop_tol`` of the optimum, is the hint itself.  A hint within the
margin of a tie is refused, so every output bit is the same with or
without hints.  The certificate reports the hint's slack, the cost of its
cheapest residual cycle, and accepts the hint when the slack exceeds the
margin; kept with ``max|w|``, which fixes the margin, the slack settles any
later test of the same selection at the same weights with a larger margin
without running the certificate again.

Repairs.  A refused hint is repaired before the flow solver runs.  First
its entries with ``w >= 0`` are dropped: ``_ssp`` never selects them, so
the trimmed hint may still be its selection.  Then, a bounded number of
times, the cheapest residual cycle the certificate found is cancelled
(Klein's cycle-cancelling step; Ahuja, Magnanti and Orlin, *Network
Flows*, 1993, section 9.6) and the result certified again.  Only a
certified selection is returned, and a certified selection is exactly the
flow solver's, so repairs change speed and never results.  Cancelling a
cycle of cost c leaves its reverse, of cost -c, in the new residual graph,
so a cycle costing at least ``-margin`` (a near-tie) cannot lead to a
certified selection; the repair stops there, and the flow solver runs
whenever no repair certifies.

Certified pieces.  The same certificate, with an extra margin, vouches
for one selection H over a whole gap of levels [s, q].  On an active
entry (level above its floor iota) the weight is
``w = phi(mu) + mu*ln(iota) - iota`` with ``phi(mu) = mu - mu*ln(mu)``, so
a simple residual cycle that adds ``d`` entries net, d in {-1, 0, +1}
(only the sink-to-source link changes the flow value), costs
``d*phi(mu) + affine(mu)``.  For d = 0 that is affine and for d = +1
concave, so its minimum over [s, q] lies at an endpoint; for d = -1 it is
convex with second derivative ``1/mu <= 1/s``, so it never falls more than
``(q - s)**2 / (8*s)`` below its smaller endpoint value.  When no floor
lies inside the gap every entry keeps its sign across it, so the residual
graph, and with it the set of cycles, is the same at every level of the
gap.  If H passes the certificate at both ends with ``extra`` at least
that curvature term plus ``4 * K * stop_tol`` at q plus room for
rounding, every cycle costs more than ``4 * K * stop_tol`` at every level
in between (``max|w|``, hence ``stop_tol``, grows with the level), which
is the per-level certificate; so the kernel returns H there, and H can be
priced without solving.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AssignmentProblem", "BinaryAssignment", "min_cost_b_matching"]

REPAIR_ROUNDS = 8  # cycle cancellations tried on a refused hint before ``_ssp``


@dataclass(frozen=True)
class AssignmentProblem:
    """weights[n, k] is the cost of giving RB k to BS n; cap bounds each row."""

    weights: np.ndarray
    bs_capacity: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be an (N, K) matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not (isinstance(self.bs_capacity, (int, np.integer)) and self.bs_capacity >= 1):
            raise ValueError(f"bs_capacity must be an integer >= 1, got {self.bs_capacity!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def trusted(cls, weights: np.ndarray, bs_capacity: int) -> "AssignmentProblem":
        """A problem over a finite float (N, K) matrix and an integer cap
        >= 1, taken as given: the solver's own weights are finite by
        construction, so their checks are skipped."""
        problem = object.__new__(cls)
        object.__setattr__(problem, "weights", weights)
        object.__setattr__(problem, "bs_capacity", bs_capacity)
        return problem


@dataclass
class BinaryAssignment:
    select: np.ndarray  # (N, K) of {0, 1}
    total_weight: float
    cert: tuple | None = None  # (slack, max|w|) when ``select`` was certified


def _stop_tol(w_max: float) -> float:
    """Path cost above which ``_ssp`` stops augmenting, negated, for
    weights of largest magnitude ``w_max``."""
    return 1e-12 * (1.0 + w_max)


def _ssp(weights: np.ndarray, cap: int) -> np.ndarray:
    """Successive-shortest-path min-cost flow on the strictly-negative edges."""
    N, K = weights.shape
    wl = weights.tolist()
    pairs = [(n, k) for n in range(N) for k in range(K) if wl[n][k] < 0.0]
    select = np.zeros((N, K), dtype=np.int8)
    if not pairs:
        return select

    SRC = 0
    SNK = 1 + N + K
    nnode = N + K + 2
    head = [[] for _ in range(nnode)]
    eto, ecap, ecost = [], [], []

    def add(u, v, c, w):
        head[u].append(len(eto)); eto.append(v); ecap.append(c); ecost.append(w)
        head[v].append(len(eto)); eto.append(u); ecap.append(0); ecost.append(-w)

    rows = sorted({n for n, _ in pairs})
    cols = sorted({k for _, k in pairs})
    for n in rows:
        add(SRC, 1 + n, cap, 0.0)
    pair_edges = []
    for n, k in pairs:
        pair_edges.append((len(eto), n, k))
        add(1 + n, 1 + N + k, 1, wl[n][k])
    for k in cols:
        add(1 + N + k, SNK, 1, 0.0)

    # valid initial potentials: forward shortest distances in the s->BS->RB->t DAG
    pot = [0.0] * nnode
    rb_dist = {k: 0.0 for k in cols}
    for n, k in pairs:
        w = wl[n][k]
        if w < rb_dist[k]:
            rb_dist[k] = w
    for k, d in rb_dist.items():
        pot[1 + N + k] = d
    pot[SNK] = min(rb_dist.values())

    stop_tol = _stop_tol(float(np.abs(weights).max()))
    INF = float("inf")

    while True:
        dist = [INF] * nnode
        prev = [-1] * nnode
        done = [False] * nnode
        dist[SRC] = 0.0
        heap = [(0.0, SRC)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == SNK:
                # every node still open is at least d away, and the
                # potential update below caps distances at d
                break
            pu = pot[u]
            for e in head[u]:
                if ecap[e] <= 0:
                    continue
                v = eto[e]
                if done[v]:
                    continue
                rc = ecost[e] + pu - pot[v]
                if rc < 0.0:
                    rc = 0.0  # clip FP noise; true reduced costs are >= 0
                nd = d + rc
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = e
                    heapq.heappush(heap, (nd, v))
        if dist[SNK] == INF:
            break
        true_cost = dist[SNK] + pot[SNK] - pot[SRC]
        if true_cost >= -stop_tol:
            break
        d_snk = dist[SNK]
        for v in range(nnode):
            pot[v] += dist[v] if dist[v] < d_snk else d_snk
        v = SNK
        while v != SRC:
            e = prev[v]
            ecap[e] -= 1
            ecap[e ^ 1] += 1
            v = eto[e ^ 1]

    for eid, n, k in pair_edges:
        if ecap[eid] == 0:
            select[n, k] = 1
    return select


def _certificate(w: np.ndarray, cap: int, hint: np.ndarray) -> tuple:
    """(slack, cycle) of ``hint``: its cheapest residual cycle's cost and,
    when that cost is negative, the cycle itself.

    The residual graph of ``hint`` has nodes source, sink, the N base
    stations and the K resource blocks.  On any residual cycle an RB sits
    between two of the other nodes, so each RB is collapsed into edges:
    base station n takes RB k from its owner n' (cost w[n,k] - w[n',k]),
    takes free RB k to the sink (w[n,k]), or the sink takes owned RB k back
    from n' (-w[n',k]); only strictly negative entries are edges, as in
    ``_ssp``.  The source links a station with load to a station with
    spare capacity, or to the sink, at cost 0; composing these free moves
    onto the RB edges leaves a graph on the N stations plus the sink whose
    cycles are the hint's residual cycles apart from the no-op cycles of
    the source alone.  Floyd-Warshall finds each node's cheapest cycle and
    keeps, for every pair, the first hop of the path it found.  ``slack``
    is the cheapest of those cycles (inf when there is none); the hint is
    ``_ssp``'s selection when ``slack > 4 * K * stop_tol`` (see the module
    docstring).  A hint that picks a non-negative entry, shares a column,
    overloads a row or is not 0/1 gets slack -inf and no cycle.

    ``cycle`` is ``(cost, moves)``, read off the first hops from the node
    with the cheapest cycle until a node repeats: a simple cycle of the
    collapsed graph with its cost, each move ``(n, k, o)`` giving RB k to
    station n (none when n is the sink) and taking it from station o (none
    when o is the sink).
    """
    N, K = w.shape
    if hint.shape != (N, K):
        return -math.inf, None
    cols = w.T.tolist()
    ones = hint.ravel().tolist()
    owner = [-1] * K
    load = [0] * N
    for p in np.flatnonzero(hint).tolist():
        n, k = divmod(p, K)
        if ones[p] != 1 or owner[k] >= 0 or not cols[k][n] < 0.0:
            return -math.inf, None
        owner[k] = n
        load[n] += 1
    if max(load) > cap:
        return -math.inf, None

    SNK = N
    INF = math.inf
    dist = [[INF] * (N + 1) for _ in range(N + 1)]
    rb = [[-1] * (N + 1) for _ in range(N + 1)]  # RB each edge moves
    for k, col in enumerate(cols):
        o = owner[k]
        if o < 0:
            for n, c in enumerate(col):
                if c < 0.0 and c < dist[n][SNK]:
                    dist[n][SNK] = c            # take the free RB
                    rb[n][SNK] = k
            continue
        w_o = col[o]
        if -w_o < dist[SNK][o]:
            dist[SNK][o] = -w_o                 # drop the owned RB
            rb[SNK][o] = k
        for n, c in enumerate(col):
            if c < 0.0 and n != o:
                c -= w_o
                if c < dist[n][o]:
                    dist[n][o] = c              # take the RB from its owner
                    rb[n][o] = k
    # compose the free moves through the source: from a station with load,
    # or the sink, on to a station with spare capacity, or the sink; the
    # composed edge lands where its RB edge does
    gives = [n for n in range(N) if load[n]] + [SNK]
    spare = [n for n in range(N) if load[n] < cap] + [SNK]
    lands = {}  # (i, c) -> b for each composed edge
    for i, row in enumerate(dist):
        into = [row[b] for b in gives]
        via = min(into)
        if via < INF:
            b = gives[into.index(via)]
            for c in spare:
                if via < row[c]:
                    row[c] = via
                    rb[i][c] = rb[i][b]
                    lands[i, c] = b
    nodes = range(N + 1)
    hop = [list(nodes) for _ in nodes]  # first hop of the path found
    for m in nodes:
        # with pivot m skip row m and column m: they change only when m
        # already closes a negative cycle, and then the slack is negative
        # whatever follows
        dm = dist[m]
        out = [(j, dm[j]) for j in nodes if j != m and dm[j] < INF]
        if not out:
            continue
        for i in nodes:
            di = dist[i]
            dim = di[m]
            if dim == INF or i == m:
                continue
            hi = hop[i]
            him = hi[m]
            for j, dmj in out:
                c = dim + dmj
                if c < di[j]:
                    di[j] = c
                    hi[j] = him
    diag = [dist[i][i] for i in nodes]
    slack = min(diag)
    if not slack < 0.0:
        return slack, None
    i = diag.index(slack)
    at, path = {}, []
    u = i
    while u not in at:
        at[u] = len(path)
        path.append(u)
        u = hop[u][i]
    cost = 0.0
    moves = []
    for u in path[at[u]:]:
        v = hop[u][i]
        k, b = rb[u][v], lands.get((u, v), v)
        if k < 0:
            return slack, None
        cost += (w[u, k] if u != SNK else 0.0) - (w[b, k] if b != SNK else 0.0)
        moves.append((u, k, b))
    return slack, (cost, moves)


def _cancel(select: np.ndarray, moves) -> np.ndarray:
    """``select`` with a cycle's moves applied (see :func:`_certificate`)."""
    out = select.copy()
    snk = select.shape[0]
    for n, k, o in moves:
        if n != snk:
            out[n, k] = 1
        if o != snk:
            out[o, k] = 0
    return out


def _repaired(w: np.ndarray, cap: int, hint: np.ndarray) -> tuple:
    """(selection, (slack, max|w|)) of the first certified of ``hint``,
    ``hint`` without its non-negative entries, and the selections reached
    from it by cancelling each one's cheapest residual cycle, at most
    ``REPAIR_ROUNDS`` times; (None, None) when none certifies (see the
    module docstring).
    """
    N, K = w.shape
    w_max = float(np.abs(w).max())
    margin = 4.0 * K * _stop_tol(w_max)
    select = hint
    slack, cycle = _certificate(w, cap, select)
    if slack == -math.inf and hint.shape == (N, K):
        drop = (hint != 0) & (w >= 0.0)
        if drop.any():
            select = np.where(drop, 0, hint).astype(hint.dtype)
            slack, cycle = _certificate(w, cap, select)
    for _ in range(REPAIR_ROUNDS):
        if slack > margin or cycle is None or cycle[0] >= -margin:
            break
        select = _cancel(select, cycle[1])
        slack, cycle = _certificate(w, cap, select)
    if slack > margin:
        return select, (slack, w_max)
    return None, None


def min_cost_b_matching(problem: AssignmentProblem, hint: np.ndarray | None = None
                        ) -> BinaryAssignment:
    """Minimize sum(w * a) over binary assignments with both capacity families.

    Only strictly negative edges can appear in an optimum (dropping a
    non-negative edge never hurts), so all-positive weights yield the empty
    assignment.  Among tied optima, which one is returned is not pinned to
    a documented rule (it need not be the lexicographically first support);
    what holds is that the result is a deterministic function of the
    weights and the cap.  ``hint`` is an optional (N, K) 0/1 candidate,
    usually the selection solved at a nearby level; it changes only the
    speed, never the result (see :func:`_repaired`).  A certified hint is
    returned as the selection itself, and a certified result carries its
    certificate's ``(slack, max|w|)`` as ``cert``.
    """
    w = problem.weights
    cap = int(problem.bs_capacity)
    N, K = w.shape

    col_min = w.min(axis=0)
    active_cols = col_min < 0.0
    if not active_cols.any():
        return BinaryAssignment(np.zeros((N, K), dtype=np.int8), 0.0)

    # fast path: per-column best row, valid whenever it respects the row cap
    best_row = np.argmin(w, axis=0)
    counts = np.bincount(best_row[active_cols], minlength=N)
    select = cert = None
    if counts.max() <= cap:
        select = np.zeros((N, K), dtype=np.int8)
        select[best_row[active_cols], np.nonzero(active_cols)[0]] = 1
    elif hint is not None:
        select, cert = _repaired(w, cap, hint)
    if select is None:
        select = _ssp(w, cap)
    total = float(np.sum(w[select.astype(bool)]))
    return BinaryAssignment(select, total, cert)
