"""CSV dataset loading with referential-integrity validation, plus writing
and deterministic region splitting.

File contract (all headers mandatory, UTF-8 with an optional byte-order mark,
one record per line, '.' decimal, '#' comments):
    nodes.csv            region_id,community_id,node_id,rel_lon,rel_lat
    edges.csv            node_u,node_v,rel_lon,rel_lat,length_km,road_class
    od.csv               level,origin_id,dest_id,flow        (level: community|region)
    labels.csv           region_id,emission_tco2
    region_adjacency.csv region_a,region_b
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import GraphValidationError, Hierarchy, ODFlow, RoadGraph, build_road_graph

HEADERS = {
    "nodes.csv": ["region_id", "community_id", "node_id", "rel_lon", "rel_lat"],
    "edges.csv": ["node_u", "node_v", "rel_lon", "rel_lat", "length_km", "road_class"],
    "od.csv": ["level", "origin_id", "dest_id", "flow"],
    "labels.csv": ["region_id", "emission_tco2"],
    "region_adjacency.csv": ["region_a", "region_b"],
}


_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class DatasetError(ValueError):
    """Raised with every load problem listed, one per line."""


@dataclass
class Dataset:
    road_graphs: dict[str, RoadGraph]
    hierarchy: Hierarchy
    community_od: list[ODFlow]
    region_od: list[ODFlow]
    region_adjacency: list[tuple[str, str]]
    labels: dict[str, float]

    @property
    def region_ids(self) -> list[str]:
        return sorted(self.road_graphs)


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


def _utf8_problem(path: Path) -> str:
    """Cite the first byte of ``path`` that is not UTF-8 by its line, lines
    counted as text mode with ``newline=""`` counts them."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_LINE_BREAK.findall(data[: exc.start].decode("utf-8"))) + 1
        return f"{path.name}:{lineno}: not valid UTF-8 (byte {data[exc.start]:#04x})"
    return f"{path.name}: not valid UTF-8"  # the file changed while it was read


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


def load_dataset(directory) -> Dataset:
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


@contextmanager
def atomic_write(path):
    """Text handle whose contents replace ``path`` whole or not at all.

    Writes go to a temporary file beside ``path`` that ``os.replace`` moves
    into place once the block completes; any failure deletes it and leaves a
    previous file untouched.  Lines are written without newline translation.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(x) -> str:
    """Shortest repr that round-trips the float exactly."""
    return repr(float(x))


def write_dataset(ds: Dataset, directory) -> None:
    """Write the five CSV files; deterministic given the dataset contents."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with atomic_write(directory / "nodes.csv") as fh:
        w = csv.writer(fh)
        w.writerow(HEADERS["nodes.csv"])
        for region in ds.region_ids:
            graph = ds.road_graphs[region]
            for i, node_id in enumerate(graph.node_ids):
                w.writerow(
                    [
                        region,
                        ds.hierarchy.node_to_community[node_id],
                        node_id,
                        _fmt(graph.node_xy[i, 0]),
                        _fmt(graph.node_xy[i, 1]),
                    ]
                )

    with atomic_write(directory / "edges.csv") as fh:
        w = csv.writer(fh)
        w.writerow(HEADERS["edges.csv"])
        from .graphs import ROAD_CLASSES

        for region in ds.region_ids:
            graph = ds.road_graphs[region]
            for k in range(graph.n_segments):
                a = 2 * k  # forward arc of the segment pair
                w.writerow(
                    [
                        graph.node_ids[graph.arc_src[a]],
                        graph.node_ids[graph.arc_dst[a]],
                        _fmt(graph.arc_feats[a, 0]),
                        _fmt(graph.arc_feats[a, 1]),
                        _fmt(graph.arc_length_km[a]),
                        ROAD_CLASSES[graph.arc_class[a]],
                    ]
                )

    with atomic_write(directory / "od.csv") as fh:
        w = csv.writer(fh)
        w.writerow(HEADERS["od.csv"])
        for record in ds.community_od + ds.region_od:
            w.writerow([record.level, record.origin, record.dest, _fmt(record.flow)])

    with atomic_write(directory / "labels.csv") as fh:
        w = csv.writer(fh)
        w.writerow(HEADERS["labels.csv"])
        for region in ds.region_ids:
            w.writerow([region, _fmt(ds.labels[region])])

    with atomic_write(directory / "region_adjacency.csv") as fh:
        w = csv.writer(fh)
        w.writerow(HEADERS["region_adjacency.csv"])
        for a, b in ds.region_adjacency:
            w.writerow([a, b])


def split_dataset(
    ds: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[list[str], list[str], list[str]]:
    """Seeded shuffle then contiguous partition of region ids.

    Train and val sizes round down; the remainder goes to test.  The three
    lists are disjoint and exhaustive; any empty split is an error.
    """
    f_train, f_val, f_test = fractions
    if min(f_train, f_val, f_test) <= 0:
        raise DatasetError(f"split fractions must be positive, got {fractions}")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise DatasetError(f"split fractions must sum to 1, got {fractions}")
    ids = np.array(ds.region_ids)
    rng = np.random.default_rng(seed)
    order = ids[rng.permutation(len(ids))]
    n = len(ids)
    n_train = int(n * f_train)
    n_val = int(n * f_val)
    train = order[:n_train].tolist()
    val = order[n_train : n_train + n_val].tolist()
    test = order[n_train + n_val :].tolist()
    if not train or not val or not test:
        raise DatasetError(
            f"split of {n} regions at {fractions} leaves an empty part "
            f"({len(train)}/{len(val)}/{len(test)})"
        )
    return train, val, test
