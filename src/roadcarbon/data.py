"""CSV dataset loading with referential-integrity validation, plus writing
and deterministic region splitting.

File contract (all headers mandatory, UTF-8 with an optional byte-order mark,
one record per line, '.' decimal, '#' comments):
    nodes.csv            region_id,community_id,node_id,rel_lon,rel_lat
    edges.csv            node_u,node_v,rel_lon,rel_lat,length_km,road_class
    od.csv               level,origin_id,dest_id,flow        (level: community|region)
    labels.csv           region_id,emission_tco2
    region_adjacency.csv region_a,region_b

``load_dataset`` has two readers and one builder.  Each file that decodes is
read whole, once.  ``_read_columns`` splits its text into columns when it holds
no quote, no '#' and no whitespace other than the line breaks '\r\n', '\r'
and '\n', and each line has the file's number of fields.  Any other file
(comments, blank and padded lines, quoted fields, other Unicode line breaks,
a missing, unreadable or non-UTF-8 file) goes to ``_read_rows``, which takes
it one line at a time and records its problems; its rows are transposed into
the same columns.  ``_columnar_dataset`` checks those columns a column at a
time, each numeric column through one ``map(float, ...)`` (so it accepts
exactly the numbers ``float`` accepts) and every other condition (ids,
ranges, affiliations, unknown, duplicate and self references, labels) as a
set or array test, and builds the dataset from arrays.

If a reader recorded a problem or a columnar check fails, the per-line pass
``_record_problems`` goes over the same rows and names every problem by file
and line; it builds nothing.  Both check sets accept the same datasets, so a
dataset the per-line pass finds nothing wrong with is a fault of this module
and raises RuntimeError, never a DatasetError.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import eq
from pathlib import Path

import numpy as np

from .graphs import Hierarchy, ODFlow, RoadGraph, road_class_codes, road_graph_from_arrays

HEADERS = {
    "nodes.csv": ["region_id", "community_id", "node_id", "rel_lon", "rel_lat"],
    "edges.csv": ["node_u", "node_v", "rel_lon", "rel_lat", "length_km", "road_class"],
    "od.csv": ["level", "origin_id", "dest_id", "flow"],
    "labels.csv": ["region_id", "emission_tco2"],
    "region_adjacency.csv": ["region_a", "region_b"],
}


_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# the characters whose presence sends a file to the per-line reader: the
# quote, the comment mark, and every character for which ``str.isspace`` holds
# except the two that make up the line breaks '\r\n', '\r' and '\n'
_PER_LINE_MARKS = (
    '"#\t\x0b\x0c\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004'
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


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


def _read_rows(path: Path, problems: list[str], text: str | None = None):
    """The data rows of one CSV file as ``(lineno, fields)``, problems recorded.
    ``text`` is the file's text if it has been read; otherwise the file is
    read here.

    One record per line: an unbalanced quote stays inside its own line.
    """
    name = path.name
    if text is None and not path.exists():
        problems.append(f"missing file {name}")
        return []
    header = HEADERS[name]
    rows = []
    saw_header = False
    try:
        if text is None:
            fh = open(path, newline="", encoding="utf-8-sig")
        else:
            fh = io.StringIO(text, newline="")
        with fh:
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
                rows.append((lineno, fields))
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


def _read_columns(text: str, header: list[str]) -> list[list[str]] | None:
    """The data rows of one CSV file's text as its columns, or None if the
    text needs the per-line reader: it holds one of ``_PER_LINE_MARKS``, its
    first line is not the header, or a line has the wrong number of fields.
    Its data rows are then lines 2 to n + 1."""
    if any(mark in text for mark in _PER_LINE_MARKS):
        return None
    # with no other Unicode line break left, splitlines splits as the reader does
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        return None
    rows, k = lines[1:], len(header)
    if not rows:
        return [[] for _ in header]
    # each line break becomes a field of its own, which every k-th field after
    # a row is exactly when each line holds k fields
    fields = ",\n,".join(rows).split(",")
    if len(fields) != (k + 1) * len(rows) - 1 or fields[k :: k + 1].count("\n") != len(rows) - 1:
        return None
    return [fields[j :: k + 1] for j in range(k)]


def _finite_column(texts: list[str]) -> np.ndarray | None:
    """``float`` of every text as one array, or None if one is not a finite
    number."""
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _columnar_dataset(nodes, edges, od, labels, adjacency) -> Dataset | None:
    """The dataset of these columns, or None if a record fails a check;
    ``_record_problems`` then names it."""
    region, community, node_id, lon, lat = nodes
    lon, lat = _finite_column(lon), _finite_column(lat)
    if lon is None or lat is None or len(set(node_id)) < len(node_id):
        return None
    xy = np.stack([lon, lat], axis=1)
    if not ((xy >= 0.0) & (xy <= 1.0)).all():
        return None
    community_region = dict(zip(community, region))
    if len(set(zip(community, region))) > len(community_region):
        return None  # a community in two regions

    u, v, *numbers, road_class = edges
    numbers = [_finite_column(column) for column in numbers]  # rel_lon, rel_lat, length_km
    if any(column is None for column in numbers):
        return None
    seg_feats = np.stack(numbers, axis=1)
    n, m = len(node_id), len(u)
    node_index = dict(zip(node_id, range(n)))
    ends = np.fromiter(map(node_index.get, chain(u, v), repeat(-1)), dtype=np.int64, count=2 * m)
    ends = ends.reshape(2, m).T
    if (ends < 0).any() or (ends[:, 0] == ends[:, 1]).any() or (seg_feats[:, 2] <= 0.0).any():
        return None
    region_ids = sorted(set(region))
    region_index = dict(zip(region_ids, range(len(region_ids))))
    node_region = np.fromiter(map(region_index.get, region), dtype=np.int64, count=n)
    seg_region = node_region[ends[:, 0]]
    if (seg_region != node_region[ends[:, 1]]).any():
        return None

    level, origin, dest, flow = od
    flows = _finite_column(flow)
    # a (level, area) pair is known only at a known level
    known = {("community", c) for c in community_region} | {("region", r) for r in region_ids}
    if (
        flows is None
        or (flows < 0.0).any()
        or not known.issuperset(zip(level, origin))
        or not known.issuperset(zip(level, dest))
        or any(map(eq, origin, dest))
        or len(set(zip(level, origin, dest))) < len(level)
    ):
        return None
    records = list(map(ODFlow, origin, dest, level, flows.tolist()))

    label_region, emission = labels
    values = _finite_column(emission)
    if (
        values is None
        or (values <= 0.0).any()
        or len(set(label_region)) < len(label_region)
        or region_index.keys() != set(label_region)
    ):
        return None

    area_a, area_b = adjacency
    if not region_index.keys() >= set(area_a).union(area_b) or any(map(eq, area_a, area_b)):
        return None

    # group nodes and segments by region, each group in file order
    node_order = np.argsort(node_region, kind="stable")
    seg_order = np.argsort(seg_region, kind="stable")
    node_bounds = np.r_[0, np.cumsum(np.bincount(node_region, minlength=len(region_ids)))]
    seg_bounds = np.r_[0, np.cumsum(np.bincount(seg_region, minlength=len(region_ids)))]
    position = np.empty(n, dtype=np.int64)  # of each node in its region's group
    position[node_order] = np.arange(n) - node_bounds[node_region[node_order]]
    seg_class = road_class_codes(road_class)
    ids = np.array(node_id, dtype=object)
    road_graphs: dict[str, RoadGraph] = {}
    for r, region_id in enumerate(region_ids):
        group = node_order[node_bounds[r] : node_bounds[r + 1]]
        segments = seg_order[seg_bounds[r] : seg_bounds[r + 1]]
        road_graphs[region_id] = road_graph_from_arrays(
            region_id,
            ids[group].tolist(),
            xy[group],
            position[ends[segments]],
            seg_feats[segments],
            seg_class[segments],
        )
    return Dataset(
        road_graphs=road_graphs,
        hierarchy=Hierarchy(dict(zip(node_id, community)), community_region),
        community_od=[record for record in records if record.level == "community"],
        region_od=[record for record in records if record.level == "region"],
        region_adjacency=sorted(set(zip(map(min, area_a, area_b), map(max, area_a, area_b)))),
        labels=dict(zip(label_region, values.tolist())),
    )


def load_dataset(directory) -> Dataset:
    """Parse and cross-validate one dataset directory.

    ``_columnar_dataset`` builds the dataset from the columns of the five
    files.  Otherwise every malformed row and referential-integrity
    violation is collected and reported together in a single DatasetError.
    """
    directory = Path(directory)
    problems: list[str] = []
    tables = [_read_table(directory / name, problems) for name in HEADERS]
    if not problems:
        dataset = _columnar_dataset(*(columns for _, columns in tables))
        if dataset is not None:
            return dataset
    _record_problems(*(zip(linenos, *columns) for linenos, columns in tables), problems)
    if not problems:
        raise RuntimeError(
            f"{directory}: the columnar checks refused a dataset the per-line checks accept"
        )
    raise DatasetError("dataset validation failed:\n" + "\n".join(problems))


def _read_table(path: Path, problems: list[str]) -> tuple[range | list[int], list[list[str]]]:
    """The line numbers and columns of one CSV file's data rows, problems
    recorded."""
    header = HEADERS[path.name]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        rows = _read_rows(path, problems)  # which names the fault
    else:
        columns = _read_columns(text, header)
        if columns is not None:
            return range(2, len(columns[0]) + 2), columns
        rows = _read_rows(path, problems, text)
    linenos = [lineno for lineno, _ in rows]
    return linenos, [[fields[j] for _, fields in rows] for j in range(len(header))]


def _record_problems(nodes, edges, od, labels, adjacency, problems: list[str]) -> None:
    """Record every problem of these rows, one ``(lineno, *fields)`` at a
    time, cited by file and line."""
    node_region: dict[str, str] = {}
    community_region: dict[str, str] = {}
    for lineno, region, community, node_id, lon_s, lat_s in nodes:
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

    for lineno, u, v, lon_s, lat_s, len_s, _ in edges:
        _parse_float(lon_s, "edges.csv", lineno, problems)
        _parse_float(lat_s, "edges.csv", lineno, problems)
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

    regions = set(node_region.values())
    communities = set(community_region)
    seen_od = set()
    for lineno, level, origin, dest, flow_s in od:
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

    labelled = set()
    for lineno, region, value_s in labels:
        value = _parse_float(value_s, "labels.csv", lineno, problems)
        if region not in regions:
            problems.append(f"labels.csv:{lineno}: unknown region {region}")
            continue
        if region in labelled:
            problems.append(f"labels.csv:{lineno}: duplicate label for region {region}")
            continue
        if value <= 0:
            problems.append(f"labels.csv:{lineno}: emission must be positive, got {value}")
            continue
        labelled.add(region)
    for region in sorted(regions - labelled):
        problems.append(f"labels.csv: region {region} has no label")

    for lineno, a, b in adjacency:
        bad = False
        for area in (a, b):
            if area not in regions:
                problems.append(f"region_adjacency.csv:{lineno}: unknown region {area}")
                bad = True
        if bad:
            continue
        if a == b:
            problems.append(f"region_adjacency.csv:{lineno}: region adjacent to itself: {a}")


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
