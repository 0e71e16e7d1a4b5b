"""Standard-cell clustering.

Clustering shrinks the std-cell population to at most k groups by greedy
heavy-edge coarsening: repeatedly merge the pair of groups with the largest
connectivity-per-combined-area score. A pair's connectivity starts as its
std-std edge weight in the design's `Netlist.clique_graph`. Each group holds
its own best pair, and one heap over those per-group bests yields the
global best pair, so a merge rescores only the pairs it changed.
Macros and terminals pass through unchanged; nets are rewired with one
zero-offset pin per touched cluster, and nets falling entirely inside one
cluster are dropped. The placement netlist's own `clique_graph` is what the
force-directed engine solves over and the policy network propagates along.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .netlist import KIND_STD, Net, Netlist, Node, Pin, Placement


def default_cluster_count(macro_count: int) -> int:
    return min(512, max(16, 4 * macro_count))


@dataclass(frozen=True)
class Cluster:
    members: tuple[int, ...]  # original std-cell node ids
    area: float


@dataclass(eq=False)
class ClusteredNetlist:
    clusters: list[Cluster]
    cluster_of: np.ndarray  # per-original-node cluster index, -1 for non-std
    placement_netlist: Netlist  # macros + terminals + cluster pseudo-nodes
    orig_to_placement: np.ndarray  # original non-std node id -> placement id, -1 for std
    cluster_to_placement: np.ndarray  # cluster index -> placement id

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def cluster_std_cells(netlist: Netlist, k: int) -> ClusteredNetlist:
    """Coarsen std cells into at most k clusters.

    Each step merges the pair of groups with the largest score w/(area_a +
    area_b), ties broken toward the lexicographically smallest group-id pair:
    the smallest key (-score, lo, hi) over all live pairs. Merging stops when
    that score is not positive; the lowest-id groups are then merged until k
    remain.

    Each group g keeps best[g], the smallest key among its own pairs, and
    the heap holds these keys (lazily: an entry counts only while it equals
    best[lo] and best[hi]). The smallest pair key overall is the smallest of
    the per-group minima, so the heap top is the same global argmax a heap
    of every pair would give. Merging b into a (a < b) changes only the
    pairs of a. It revisits best[a], every group whose best pair was with a
    or b (a per-group set names them), and every other neighbour of b,
    whose weight to a grew: that one takes the new (n, a) key if it is
    smaller than best[n]. The other neighbours of a are skipped, and that
    is exact: their weight to a is unchanged and areas are not negative, so
    a's area did not shrink, their (n, a) score did not rise, and their key
    cannot drop below best[n]. (A pair of negative weight scores below zero,
    where greedy merging stops anyway.) Scores are pure functions of the
    netlist, so the result is deterministic.
    """
    if k <= 0:
        raise ValueError(f"cluster count k must be >= 1, got {k}")

    std_ids = [n.id for n in netlist.nodes if n.kind == KIND_STD]
    group_members: dict[int, list[int]] = {i: [i] for i in std_ids}
    group_area: dict[int, float] = {i: netlist.nodes[i].area for i in std_ids}
    adj: dict[int, dict[int, float]] = {i: {} for i in std_ids}
    graph = netlist.clique_graph
    is_std = np.zeros(netlist.num_nodes, dtype=bool)
    is_std[std_ids] = True
    both = is_std[graph.edges_i] & is_std[graph.edges_j]
    for a, b, w in zip(graph.edges_i[both].tolist(), graph.edges_j[both].tolist(),
                       graph.weights[both].tolist()):
        adj[a][b] = adj[b][a] = w

    def best_key(g: int):
        """Smallest (-score, lo, hi) among g's pairs; None without neighbours."""
        area_g = group_area[g]
        top, partner = 0.0, -1
        for n, w in adj[g].items():
            s = w / (area_g + group_area[n])
            if partner < 0 or s > top or (s == top and n < partner):
                top, partner = s, n
        if partner < 0:
            return None
        return (-top, g, partner) if g < partner else (-top, partner, g)

    best = {g: key for g in std_ids if (key := best_key(g)) is not None}
    heap = list(best.values())
    heapq.heapify(heap)
    # pairs_with[g]: the groups whose best pair is with g. A best key
    # (-score, lo, hi) of group g pairs it with lo + hi - g.
    pairs_with: dict[int, set[int]] = {g: set() for g in std_ids}
    for g, key in best.items():
        pairs_with[key[1] + key[2] - g].add(g)

    def merge(a: int, b: int) -> None:
        keep, gone = (a, b) if a < b else (b, a)
        group_members[keep].extend(group_members.pop(gone))
        group_area[keep] += group_area.pop(gone)
        gone_adj = adj.pop(gone)
        adj[keep].pop(gone, None)
        for nbr, w in gone_adj.items():
            if nbr == keep:
                continue
            adj[nbr].pop(gone, None)
            adj[keep][nbr] = adj[keep].get(nbr, 0.0) + w
            adj[nbr][keep] = adj[keep][nbr]

    while len(group_members) > k and heap:
        key = heapq.heappop(heap)
        neg, a, b = key
        if best.get(a) != key or best.get(b) != key:  # stale entry
            continue
        if -neg <= 0.0:
            break  # only zero-connectivity pairs remain
        rescan = pairs_with.pop(a) | pairs_with.pop(b)
        rescan -= {a, b}  # the merged pair itself
        changed = [n for n in adj[b] if n != a and n not in rescan]
        merge(a, b)  # a < b: a keeps the group
        del best[b]
        pairs_with[a] = set()
        for n in (a, *rescan):
            key = best_key(n)  # None only for an `a` left without neighbours
            if key is None:
                del best[n]
                continue
            best[n] = key
            pairs_with[key[1] + key[2] - n].add(n)
            heapq.heappush(heap, key)
        area_a = group_area[a]
        adj_a = adj[a]
        for n in changed:
            old = best[n]
            s = adj_a[n] / (group_area[n] + area_a)
            key = (-s, n, a) if n < a else (-s, a, n)
            if key < old:
                pairs_with[old[1] + old[2] - n].discard(n)
                pairs_with[a].add(n)
                best[n] = key
                heapq.heappush(heap, key)

    # Force down to k by merging the lowest-id groups (zero connectivity left).
    while len(group_members) > k:
        merge(*sorted(group_members)[:2])

    # Placement netlist: non-std nodes first (original order), then clusters.
    orig_to_placement = [-1] * netlist.num_nodes
    pnodes: list[Node] = []
    for n in netlist.nodes:
        if n.kind == KIND_STD:
            continue
        orig_to_placement[n.id] = len(pnodes)
        pnodes.append(Node(id=len(pnodes), name=n.name, width=n.width, height=n.height,
                           kind=n.kind, movable=n.movable))
    first_cluster = len(pnodes)

    clusters = []
    cluster_of = [-1] * netlist.num_nodes
    for ci, gid in enumerate(sorted(group_members)):
        members = tuple(sorted(group_members[gid]))
        area = group_area[gid]
        side = math.sqrt(area)
        clusters.append(Cluster(members=members, area=area))
        for m in members:
            cluster_of[m] = ci
        pnodes.append(Node(id=len(pnodes), name=f"clu{ci}", width=side, height=side,
                           kind=KIND_STD, movable=True))

    cluster_pins = [Pin(node=first_cluster + ci) for ci in range(len(clusters))]
    pnets: list[Net] = []
    for net in netlist.nets:
        pins: list[Pin] = []
        seen_clusters: set[int] = set()
        for pin in net.pins:
            ci = cluster_of[pin.node]
            if ci < 0:
                pins.append(Pin(node=orig_to_placement[pin.node],
                                offset_x=pin.offset_x, offset_y=pin.offset_y))
            elif ci not in seen_clusters:
                seen_clusters.add(ci)
                pins.append(cluster_pins[ci])
        if len(pins) == 1 and seen_clusters:
            continue  # internal to one cluster
        pnets.append(Net(id=len(pnets), name=net.name, pins=tuple(pins),
                         weight=net.weight))

    return ClusteredNetlist(
        clusters=clusters,
        cluster_of=np.array(cluster_of, dtype=np.int64),
        placement_netlist=replace(netlist, nodes=pnodes, nets=pnets),
        orig_to_placement=np.array(orig_to_placement, dtype=np.int64),
        cluster_to_placement=np.arange(first_cluster, len(pnodes), dtype=np.int64),
    )


def base_placement(clustered: ClusteredNetlist, placement: Placement) -> Placement:
    """Map an original-netlist placement onto the placement netlist.

    Non-std nodes carry their position and placed flag over; clusters start
    unplaced.
    """
    out = Placement.empty(clustered.placement_netlist.num_nodes)
    carried = clustered.orig_to_placement >= 0
    pids = clustered.orig_to_placement[carried]
    out.positions[pids] = placement.positions[carried]
    out.placed[pids] = placement.placed[carried]
    return out
