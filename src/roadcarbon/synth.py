"""Synthetic city generator and the routing-based emission oracle.

Each region is a jittered grid road network with seeded edge deletions
(kept connected) and road classes assigned by edge-betweenness rank.
Communities are grid blocks; travel demand follows a gravity model over
seeded populations.  Labels come from shortest-path routing: every flow
pays length times a per-class emission factor along its minimum-travel-time
path.  All numeric conventions here are synthetic-world defaults, not
measured values.  ``SynthParams`` holds one field per ``gen-synth`` flag;
the module constants fix the rest of the world: ``DEFAULT_SPEEDS_KMH``,
``DEFAULT_EMISSION_FACTORS``, ``CLASS_SHARES``, ``EXTENT_JITTER``,
``INTRA_FLOW_SCALE``, ``INTER_FLOW_SCALE``, ``POP_DEGREE_EXP``,
``POP_SIGMA`` and ``ACTIVITY_SIGMA``.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError
from .data import Dataset
from .graphs import ROAD_CLASSES, Hierarchy, ODFlow, RoadGraph, build_road_graph

logger = logging.getLogger(__name__)

DEFAULT_SPEEDS_KMH = {
    "motorway": 100.0,
    "primary": 70.0,
    "secondary": 50.0,
    "residential": 30.0,
    "other": 40.0,
}

# loosely inverse to speed: slow stop-and-go roads emit more per km
DEFAULT_EMISSION_FACTORS = {
    "motorway": 0.15,
    "primary": 0.2,
    "secondary": 0.25,
    "residential": 0.3,
    "other": 0.22,
}

# betweenness rank shares, highest rank first
CLASS_SHARES = (("motorway", 0.10), ("primary", 0.20), ("secondary", 0.30))

EXTENT_JITTER = 0.85  # per-region extent multiplier ~ U(1-j, 1+j)
INTRA_FLOW_SCALE = 1e-3
INTER_FLOW_SCALE = 0.08
# population = base * (0.5 + degree)^exp * lognormal(sigma): demand tracks
# road density (as in real cities) with an independent component on top
POP_DEGREE_EXP = 2.0
POP_SIGMA = 0.45
# per-region lognormal multiplier on inter-region demand only; this slice
# of the label is visible through OD flows but not through road structure
ACTIVITY_SIGMA = 0.5


@dataclass
class SynthParams:
    n_regions: int = 8
    grid_side: int = 4
    communities: int = 8
    gravity_gamma: float = 2.0
    k_nearest_regions: int = 4
    region_extent_km: float = 20.0
    edge_deletion_frac: float = 0.2
    noise_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.n_regions < 1:
            raise ConfigError("n_regions must be >= 1")
        if self.grid_side < 2:
            raise ConfigError("grid_side must be >= 2")
        if not (1 <= self.communities <= self.grid_side**2):
            raise ConfigError("communities must be between 1 and grid_side^2")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.k_nearest_regions < 1:
            raise ConfigError("k_nearest_regions must be >= 1")
        if not 0 <= self.edge_deletion_frac < 1:
            raise ConfigError("edge_deletion_frac must be in [0, 1)")
        if self.gravity_gamma < 0:
            raise ConfigError("gravity_gamma must be >= 0")
        if self.region_extent_km <= 0:
            raise ConfigError("region_extent_km must be > 0")


# ---------------------------------------------------------------------------
# graph utilities (plain python, desk-scale sizes)


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def edge_betweenness(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Brandes edge betweenness over unweighted undirected edges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    scores = np.zeros(len(edges))
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order.append(u)
            for v, k in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append((u, k))
        delta = [0.0] * n
        for w in reversed(order):
            for u, k in preds[w]:
                contribution = sigma[u] / sigma[w] * (1.0 + delta[w])
                scores[k] += contribution
                delta[u] += contribution
    return scores


def _classes_by_betweenness(scores: np.ndarray) -> list[str]:
    """Rank edges by betweenness; top decile motorway, then primary, etc."""
    m = len(scores)
    order = sorted(range(m), key=lambda k: (-scores[k], k))
    classes = ["residential"] * m
    cursor = 0
    for name, share in CLASS_SHARES:
        take = max(1, round(m * share)) if m else 0
        for k in order[cursor : cursor + take]:
            classes[k] = name
        cursor += take
        if cursor >= m:
            break
    return classes


def shortest_path_arcs(
    graph: RoadGraph, source: int, speeds: dict[str, float]
) -> tuple[np.ndarray, list[int | None]]:
    """Dijkstra by travel time (length/class speed) from one intersection.

    Returns (times, pred_arc) where pred_arc[v] is the arc index entering v
    on the best path, or None for the source/unreached nodes.
    """
    n = graph.n_nodes
    times = np.full(n, np.inf)
    pred: list[int | None] = [None] * n
    arc_time = graph.arc_length_km / np.array(
        [speeds[ROAD_CLASSES[c]] for c in graph.arc_class]
    )
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    for k, u in enumerate(graph.arc_src):
        out_arcs[u].append(k)
    times[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        t, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for k in out_arcs[u]:
            v = graph.arc_dst[k]
            nt = t + arc_time[k]
            if nt < times[v]:
                times[v] = nt
                pred[v] = k
                heapq.heappush(heap, (nt, v))
    return times, pred


def _path_emission(
    graph: RoadGraph, pred: list[int | None], dest: int, factors: dict[str, float]
) -> float:
    total = 0.0
    v = dest
    while pred[v] is not None:
        k = pred[v]
        total += graph.arc_length_km[k] * factors[ROAD_CLASSES[graph.arc_class[k]]]
        v = graph.arc_src[k]
    return total


# ---------------------------------------------------------------------------
# emission oracle


def oracle_emission(
    road_graphs: dict[str, RoadGraph],
    hierarchy: Hierarchy,
    community_od: list[ODFlow],
    region_od: list[ODFlow],
    *,
    region_centroids_km: dict[str, tuple[float, float]] | None = None,
    region_extent_km: float = 20.0,
) -> dict[str, float]:
    """Routing-based region emission totals.

    Intra-region flows run along minimum-travel-time paths between community
    representative intersections; each flow pays length times the class
    emission factor over its path.  An unreachable pair falls back to
    straight-line distance times the worst class factor (warning logged).
    Inter-region flows have no connecting roads in this world and pay the
    straight-line centroid distance times the worst factor by convention,
    split half to each endpoint region.
    """
    worst = max(DEFAULT_EMISSION_FACTORS.values())
    totals = {region: 0.0 for region in road_graphs}

    rep_of_community: dict[str, int] = {}
    for region, graph in road_graphs.items():
        members: dict[str, list[int]] = {}
        for i, node_id in enumerate(graph.node_ids):
            members.setdefault(hierarchy.node_to_community[node_id], []).append(i)
        for community, idx in members.items():
            xy = graph.node_xy[idx]
            centroid = xy.mean(axis=0)
            best = min(idx, key=lambda i: (np.linalg.norm(graph.node_xy[i] - centroid), i))
            rep_of_community[community] = best

    dijkstra_cache: dict[tuple[str, int], tuple[np.ndarray, list]] = {}
    for record in community_od:
        region = hierarchy.community_to_region[record.origin]
        dest_region = hierarchy.community_to_region[record.dest]
        if region != dest_region:
            raise ValueError(
                f"community OD {record.origin}->{record.dest} crosses regions"
            )
        graph = road_graphs[region]
        src = rep_of_community[record.origin]
        dst = rep_of_community[record.dest]
        key = (region, src)
        if key not in dijkstra_cache:
            dijkstra_cache[key] = shortest_path_arcs(graph, src, DEFAULT_SPEEDS_KMH)
        times, pred = dijkstra_cache[key]
        if math.isinf(times[dst]):
            straight = (
                np.linalg.norm(graph.node_xy[src] - graph.node_xy[dst]) * region_extent_km
            )
            logger.warning(
                "unreachable OD pair %s->%s, straight-line fallback", record.origin, record.dest
            )
            totals[region] += record.flow * straight * worst
        else:
            path = _path_emission(graph, pred, dst, DEFAULT_EMISSION_FACTORS)
            totals[region] += record.flow * path

    if region_od and region_centroids_km is None:
        raise ValueError("region-level OD flows require region_centroids_km")
    for record in region_od:
        ax, ay = region_centroids_km[record.origin]
        bx, by = region_centroids_km[record.dest]
        dist = math.hypot(ax - bx, ay - by)
        contribution = record.flow * dist * worst
        totals[record.origin] += contribution / 2.0
        totals[record.dest] += contribution / 2.0
    return totals


# ---------------------------------------------------------------------------
# generator


def _community_blocks(grid_side: int, n_communities: int) -> np.ndarray:
    """Assign grid cells to roughly square contiguous blocks."""
    rows_of_blocks = max(1, round(math.sqrt(n_communities)))
    cols_of_blocks = math.ceil(n_communities / rows_of_blocks)
    assignment = np.zeros(grid_side * grid_side, dtype=np.int64)
    for r in range(grid_side):
        for c in range(grid_side):
            br = min(r * rows_of_blocks // grid_side, rows_of_blocks - 1)
            bc = min(c * cols_of_blocks // grid_side, cols_of_blocks - 1)
            block = min(br * cols_of_blocks + bc, n_communities - 1)
            assignment[r * grid_side + c] = block
    return assignment


def _generate_region(
    region_id: str,
    params: SynthParams,
    rng: np.random.Generator,
    extent_km: float,
):
    """One region's nodes/segments/communities; returns raw records."""
    g = params.grid_side
    n = g * g
    jitter = rng.uniform(-0.04, 0.04, size=(n, 2))
    positions = np.zeros((n, 2))
    for r in range(g):
        for c in range(g):
            positions[r * g + c] = (c / (g - 1), r / (g - 1))
    positions = np.clip(positions + jitter, 0.0, 1.0)

    candidates = []
    for r in range(g):
        for c in range(g):
            i = r * g + c
            if c + 1 < g:
                candidates.append((i, i + 1))
            if r + 1 < g:
                candidates.append((i, i + g))

    edges = list(candidates)
    order = rng.permutation(len(edges))
    to_delete = int(len(edges) * params.edge_deletion_frac)
    deleted = 0
    for k in order:
        if deleted >= to_delete:
            break
        trial = [e for e in edges if e != candidates[k]]
        if _connected(n, trial):
            edges = trial
            deleted += 1

    scores = edge_betweenness(n, edges)
    classes = _classes_by_betweenness(scores)

    spacing_km = extent_km / (g - 1)
    node_ids = [f"{region_id}n{i:03d}" for i in range(n)]
    nodes = [(node_ids[i], positions[i, 0], positions[i, 1]) for i in range(n)]
    segments = []
    for k, (u, v) in enumerate(edges):
        mid = (positions[u] + positions[v]) / 2.0
        base = np.linalg.norm(positions[u] - positions[v]) * extent_km
        length = max(base * (1.0 + rng.uniform(-0.15, 0.15)), spacing_km * 0.2)
        segments.append((node_ids[u], node_ids[v], mid[0], mid[1], length, classes[k]))

    blocks = _community_blocks(g, params.communities)
    present = sorted(set(blocks.tolist()))
    community_ids = {b: f"{region_id}c{j}" for j, b in enumerate(present)}
    node_to_community = {node_ids[i]: community_ids[blocks[i]] for i in range(n)}

    degrees = np.zeros(n)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    # region activity: long-range demand unexplainable by road structure
    activity = rng.lognormal(mean=0.0, sigma=ACTIVITY_SIGMA)
    populations = (
        120.0
        * (0.5 + degrees) ** POP_DEGREE_EXP
        * rng.lognormal(mean=0.0, sigma=POP_SIGMA, size=n)
    )
    pop_by_node = {node_ids[i]: float(populations[i]) for i in range(n)}
    return nodes, segments, node_to_community, pop_by_node, activity


def generate_synthetic(params: SynthParams) -> Dataset:
    """Deterministic synthetic dataset; same params give byte-identical output."""
    params.validate()
    root = np.random.SeedSequence(params.seed)
    region_seeds = root.spawn(params.n_regions + 1)
    label_rng = np.random.default_rng(region_seeds[-1])

    meta_rows = max(1, int(math.sqrt(params.n_regions)))
    meta_cols = math.ceil(params.n_regions / meta_rows)
    region_ids = [f"r{i:03d}" for i in range(params.n_regions)]

    road_graphs: dict[str, RoadGraph] = {}
    node_to_community: dict[str, str] = {}
    community_to_region: dict[str, str] = {}
    community_od: list[ODFlow] = []
    region_centroids_km: dict[str, tuple[float, float]] = {}
    region_pop: dict[str, float] = {}
    region_activity: dict[str, float] = {}

    for idx, region_id in enumerate(region_ids):
        rng = np.random.default_rng(region_seeds[idx])
        extent_km = params.region_extent_km * rng.uniform(1.0 - EXTENT_JITTER, 1.0 + EXTENT_JITTER)
        nodes, segments, mapping, pop_by_node, activity = _generate_region(
            region_id, params, rng, extent_km
        )
        graph = build_road_graph(region_id, nodes, segments)
        road_graphs[region_id] = graph
        node_to_community.update(mapping)
        for community in sorted(set(mapping.values())):
            community_to_region[community] = region_id

        members: dict[str, list[int]] = {}
        for i, node_id in enumerate(graph.node_ids):
            members.setdefault(mapping[node_id], []).append(i)
        pops = {
            c: sum(pop_by_node[graph.node_ids[i]] for i in idxs)
            for c, idxs in members.items()
        }
        centroids = {c: graph.node_xy[idxs].mean(axis=0) for c, idxs in members.items()}
        region_pop[region_id] = sum(pops.values())
        region_activity[region_id] = activity

        communities = sorted(members)
        for a in communities:
            for b in communities:
                if a == b:
                    continue
                dist = np.linalg.norm(centroids[a] - centroids[b])
                flow = INTRA_FLOW_SCALE * pops[a] * pops[b] / dist**params.gravity_gamma
                community_od.append(ODFlow(a, b, "community", float(flow)))

        row, col = divmod(idx, meta_cols)
        region_centroids_km[region_id] = (
            (col + 0.5) * params.region_extent_km,
            (row + 0.5) * params.region_extent_km,
        )

    adjacency: list[tuple[str, str]] = []
    for idx, region_id in enumerate(region_ids):
        row, col = divmod(idx, meta_cols)
        for dr, dc in ((0, 1), (1, 0)):
            r2, c2 = row + dr, col + dc
            j = r2 * meta_cols + c2
            if c2 < meta_cols and j < params.n_regions:
                pair = tuple(sorted((region_id, region_ids[j])))
                adjacency.append(pair)
    adjacency = sorted(set(adjacency))

    region_od: list[ODFlow] = []
    if params.n_regions > 1:
        for a in region_ids:
            ax, ay = region_centroids_km[a]
            others = sorted(
                (r for r in region_ids if r != a),
                key=lambda r: (
                    math.hypot(region_centroids_km[r][0] - ax, region_centroids_km[r][1] - ay),
                    r,
                ),
            )
            for b in others[: params.k_nearest_regions]:
                bx, by = region_centroids_km[b]
                dist = math.hypot(bx - ax, by - ay)
                flow = (
                    INTER_FLOW_SCALE
                    * region_activity[a] * region_pop[a]
                    * region_activity[b] * region_pop[b]
                    / dist**params.gravity_gamma
                )
                region_od.append(ODFlow(a, b, "region", float(flow)))
        region_od.sort(key=lambda rec: (rec.origin, rec.dest))

    hierarchy = Hierarchy(node_to_community, community_to_region)
    oracle = oracle_emission(
        road_graphs,
        hierarchy,
        community_od,
        region_od,
        region_centroids_km=region_centroids_km,
        region_extent_km=params.region_extent_km,
    )
    labels = {}
    for region_id in region_ids:
        noise = math.exp(params.noise_std * label_rng.standard_normal()) if params.noise_std else 1.0
        labels[region_id] = float(oracle[region_id] * noise)

    return Dataset(
        road_graphs=road_graphs,
        hierarchy=hierarchy,
        community_od=community_od,
        region_od=region_od,
        region_adjacency=adjacency,
        labels=labels,
    )
