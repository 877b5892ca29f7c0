"""Independent brute-force references shared by layer and acceptance tests,
the arc sets and entry-sum loss the kernel and gradient tests share, the
region-cache recorder the epoch-lag tests share, and the per-line CSV
loader the columnar one is checked against."""

import csv
import math
from pathlib import Path

import numpy as np

from roadcarbon.data import HEADERS, Dataset, DatasetError, _utf8_problem
from roadcarbon.graphs import GraphValidationError, Hierarchy, ODFlow, RoadGraph, build_road_graph
from roadcarbon.tensor import Arcs, Tensor, attend, matmul


def dense_egat_reference(V, E, src, dst, params, slope=0.2):
    """Per-node-loop implementation of the convolution, O(N^2)-style.

    Mirrors the math from first principles: per destination, score every
    incoming arc (plus a zero-feature self-loop), softmax, and sum the
    attention-weighted transformed source rows.
    """
    n, _ = V.shape
    W, U, a = params.W.values, params.U.values, params.a.values
    d_e = params.d_e
    incoming = {i: [] for i in range(n)}
    for k, (s, d) in enumerate(zip(src, dst)):
        incoming[d].append((s, E[k]))
    for i in range(n):
        incoming[i].append((i, np.zeros(d_e)))
    V_out = np.zeros((n, W.shape[1]))
    for i in range(n):
        scores = []
        for j, e in incoming[i]:
            cat = np.concatenate([V[i], e, V[j]])
            h = (cat @ U @ a).item()
            scores.append(h if h >= 0 else slope * h)
        scores = np.array(scores)
        exps = np.exp(scores - scores.max())
        alpha = exps / exps.sum()
        for (j, _), w in zip(incoming[i], alpha):
            V_out[i] += w * (V[j] @ W)
    if len(src):
        E_out = np.stack(
            [
                np.concatenate([V[d], E[k], V[s]]) @ params.A.values
                for k, (s, d) in enumerate(zip(src, dst))
            ]
        )
    else:
        E_out = np.zeros((0, params.A.values.shape[1]))
    return V_out, E_out


def random_arc_graph(rng, n, d_in=3, d_e=2):
    V = rng.normal(size=(n, d_in))
    m = int(rng.integers(1, max(2, n * 2)))
    src = rng.integers(0, n, size=m)
    dst = (src + 1 + rng.integers(0, n - 1, size=m)) % n
    E = rng.normal(size=(m, d_e))
    return V, E, src, dst


def layer_arcs(src, dst, n, rows=None):
    """The two arc sets ``egat_layer`` takes: the arcs from ``rows`` rows
    (default n) into the first n, and the same arcs with self-loops."""
    arcs = Arcs(src, dst, n, rows)
    return arcs, arcs.with_loops()


def in_order(seg, n_seg):
    """Arcs that read every row in order, row k into segment ``seg[k]``."""
    seg = np.asarray(seg, dtype=np.int64)
    return Arcs(np.arange(seg.size), seg, n_seg, seg.size)


def gather(x, idx):
    """Rows ``x[idx]``, repeats allowed, as ``attend`` with unit weights:
    one arc per gathered row, so backward scatter-adds to the source rows."""
    idx = np.asarray(idx, dtype=np.int64)
    arcs = Arcs(idx, np.arange(idx.size), idx.size, x.shape[0])
    return attend(x, Tensor(np.ones((idx.size, 1))), arcs)


def entry_sum(x):
    """The sum of ``x``'s entries as a 1x1 tensor, ``1' X 1`` from two matmuls."""
    n, d = x.shape
    return matmul(matmul(Tensor(np.ones((1, n))), x), Tensor(np.ones((d, 1))))


def record_caches(model):
    """Wrap ``model.predict_batch`` to record ``(cache.epoch, cache bytes)``
    at every call, training steps and validation alike; returns the list the
    records go to.  The bytes cover every region's cached row, in region
    order."""
    seen = []
    predict_batch = model.predict_batch

    def recording(prepared, region_ids, cache, record=None):
        rows = tuple((rid, cache.reps[rid].tobytes()) for rid in sorted(cache.reps))
        seen.append((cache.epoch, rows))
        return predict_batch(prepared, region_ids, cache, record)

    model.predict_batch = recording
    return seen


# the CSV loader as it was before the columnar path: every file read and
# every record checked one line at a time


def _read_rows(path: Path, problems: list[str]):
    """The data rows of one CSV file as ``(lineno, fields)``, problems recorded.

    One record per line: an unbalanced quote stays inside its own line.
    """
    name = path.name
    if not path.exists():
        problems.append(f"missing file {name}")
        return []
    header = HEADERS[name]
    rows = []
    saw_header = False
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                # without a quote character csv's dialect splits exactly at commas
                fields = next(csv.reader((line,))) if '"' in line else line.split(",")
                if not saw_header:
                    if fields != header:
                        problems.append(
                            f"{name}:{lineno}: expected header {','.join(header)}, got {line}"
                        )
                        return []
                    saw_header = True
                    continue
                if len(fields) != len(header):
                    problems.append(
                        f"{name}:{lineno}: expected {len(header)} fields, got {len(fields)}"
                    )
                    continue
                # str.split's list reserves 12 slots; a tuple holds just the fields
                rows.append((lineno, tuple(fields)))
    except OSError as exc:
        problems.append(f"{name}: cannot read: {exc.strerror or exc}")
        return []
    except UnicodeDecodeError:
        problems.append(_utf8_problem(path))
        return []
    if not saw_header:
        problems.append(f"{name}: empty file, header required")
    return rows


def _parse_float(text: str, name: str, lineno: int, problems: list[str]) -> float:
    """Parse one finite number.  Otherwise the problem is recorded and NaN
    returned, which fails every later range check silently."""
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{name}:{lineno}: not a number: {text!r}")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"{name}:{lineno}: not a finite number: {text!r}")
        return math.nan
    return value


def reference_load_dataset(directory) -> Dataset:
    """Parse and cross-validate one dataset directory.

    Every malformed row and referential-integrity violation is collected and
    reported together in a single DatasetError.
    """
    directory = Path(directory)
    problems: list[str] = []

    node_rows = _read_rows(directory / "nodes.csv", problems)
    edge_rows = _read_rows(directory / "edges.csv", problems)
    od_rows = _read_rows(directory / "od.csv", problems)
    label_rows = _read_rows(directory / "labels.csv", problems)
    adj_rows = _read_rows(directory / "region_adjacency.csv", problems)

    node_region: dict[str, str] = {}
    node_community: dict[str, str] = {}
    community_region: dict[str, str] = {}
    nodes_by_region: dict[str, list] = {}
    for lineno, (region, community, node_id, lon_s, lat_s) in node_rows:
        if node_id in node_region:
            problems.append(f"nodes.csv:{lineno}: duplicate node id {node_id}")
            continue
        lon = _parse_float(lon_s, "nodes.csv", lineno, problems)
        lat = _parse_float(lat_s, "nodes.csv", lineno, problems)
        if lon < 0.0 or lon > 1.0 or lat < 0.0 or lat > 1.0:
            problems.append(
                f"nodes.csv:{lineno}: node {node_id}: relative coordinates outside [0,1]"
            )
        if community in community_region and community_region[community] != region:
            problems.append(
                f"nodes.csv:{lineno}: community {community} already assigned to region "
                f"{community_region[community]}"
            )
            continue
        community_region[community] = region
        node_region[node_id] = region
        node_community[node_id] = community
        nodes_by_region.setdefault(region, []).append((node_id, lon, lat))

    segments_by_region: dict[str, list] = {r: [] for r in nodes_by_region}
    for lineno, (u, v, lon_s, lat_s, len_s, cls) in edge_rows:
        lon = _parse_float(lon_s, "edges.csv", lineno, problems)
        lat = _parse_float(lat_s, "edges.csv", lineno, problems)
        length = _parse_float(len_s, "edges.csv", lineno, problems)
        if u not in node_region:
            problems.append(f"edges.csv:{lineno}: unknown node {u}")
            continue
        if v not in node_region:
            problems.append(f"edges.csv:{lineno}: unknown node {v}")
            continue
        if node_region[u] != node_region[v]:
            problems.append(
                f"edges.csv:{lineno}: segment {u}-{v} crosses regions "
                f"{node_region[u]} and {node_region[v]}"
            )
            continue
        if u == v:
            problems.append(f"edges.csv:{lineno}: self-loop segment at node {u}")
            continue
        if length <= 0:
            problems.append(f"edges.csv:{lineno}: segment {u}-{v}: non-positive length {length}")
            continue
        segments_by_region[node_region[u]].append((u, v, lon, lat, length, cls))

    regions = set(nodes_by_region)
    communities = set(community_region)
    community_od: list[ODFlow] = []
    region_od: list[ODFlow] = []
    seen_od = set()
    for lineno, (level, origin, dest, flow_s) in od_rows:
        flow = _parse_float(flow_s, "od.csv", lineno, problems)
        if level not in ("community", "region"):
            problems.append(f"od.csv:{lineno}: unknown level {level!r}")
            continue
        known = communities if level == "community" else regions
        bad = False
        for area in (origin, dest):
            if area not in known:
                problems.append(f"od.csv:{lineno}: unknown {level} {area}")
                bad = True
        if bad:
            continue
        if origin == dest:
            problems.append(f"od.csv:{lineno}: origin and destination are both {origin}")
            continue
        if (level, origin, dest) in seen_od:
            problems.append(f"od.csv:{lineno}: duplicate OD record {level} {origin}->{dest}")
            continue
        seen_od.add((level, origin, dest))
        if flow < 0:
            problems.append(f"od.csv:{lineno}: negative flow {flow}")
            continue
        record = ODFlow(origin, dest, level, flow)
        (community_od if level == "community" else region_od).append(record)

    labels: dict[str, float] = {}
    for lineno, (region, value_s) in label_rows:
        value = _parse_float(value_s, "labels.csv", lineno, problems)
        if region not in regions:
            problems.append(f"labels.csv:{lineno}: unknown region {region}")
            continue
        if region in labels:
            problems.append(f"labels.csv:{lineno}: duplicate label for region {region}")
            continue
        if value <= 0:
            problems.append(f"labels.csv:{lineno}: emission must be positive, got {value}")
            continue
        labels[region] = value
    for region in sorted(regions - set(labels)):
        problems.append(f"labels.csv: region {region} has no label")

    adjacency: list[tuple[str, str]] = []
    seen_adj = set()
    for lineno, (a, b) in adj_rows:
        bad = False
        for area in (a, b):
            if area not in regions:
                problems.append(f"region_adjacency.csv:{lineno}: unknown region {area}")
                bad = True
        if bad:
            continue
        if a == b:
            problems.append(f"region_adjacency.csv:{lineno}: region adjacent to itself: {a}")
            continue
        key = (min(a, b), max(a, b))
        if key in seen_adj:
            continue
        seen_adj.add(key)
        adjacency.append(key)
    adjacency.sort()

    road_graphs: dict[str, RoadGraph] = {}
    if not problems:
        for region in sorted(regions):
            try:
                road_graphs[region] = build_road_graph(
                    region, nodes_by_region[region], segments_by_region[region]
                )
            except GraphValidationError as exc:
                problems.append(str(exc))

    if problems:
        raise DatasetError("dataset validation failed:\n" + "\n".join(problems))

    return Dataset(
        road_graphs=road_graphs,
        hierarchy=Hierarchy(dict(node_community), dict(community_region)),
        community_od=community_od,
        region_od=region_od,
        region_adjacency=adjacency,
        labels=labels,
    )
