import codecs
import csv
import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_impl import reference_load_dataset

from roadcarbon.data import (
    _PER_LINE_MARKS,
    HEADERS,
    DatasetError,
    load_dataset,
    split_dataset,
    write_dataset,
)
from roadcarbon.synth import SynthParams, generate_synthetic


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SynthParams(n_regions=10, seed=5, grid_side=3))


def write_minimal(tmp_path, **overrides):
    """One region, two communities of one node each, one segment, one OD pair."""
    files = {
        "nodes.csv": (
            "region_id,community_id,node_id,rel_lon,rel_lat\n"
            "r0,c0,n0,0.0,0.0\n"
            "r0,c1,n1,1.0,1.0\n"
        ),
        "edges.csv": (
            "node_u,node_v,rel_lon,rel_lat,length_km,road_class\n"
            "n0,n1,0.5,0.5,2.0,primary\n"
        ),
        "od.csv": "level,origin_id,dest_id,flow\ncommunity,c0,c1,1.0\n",
        "labels.csv": "region_id,emission_tco2\nr0,0.4\n",
        "region_adjacency.csv": "region_a,region_b\n",
    }
    files.update(overrides)
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    return tmp_path


def test_minimal_fixture_loads(tmp_path):
    ds = load_dataset(write_minimal(tmp_path))
    assert ds.region_ids == ["r0"]
    assert ds.road_graphs["r0"].n_segments == 1
    assert len(ds.community_od) == 1
    assert ds.labels["r0"] == 0.4


def test_comments_and_blank_lines_ignored(tmp_path):
    write_minimal(
        tmp_path,
        **{
            "od.csv": "# demand records\nlevel,origin_id,dest_id,flow\n\ncommunity,c0,c1,1.0\n"
        },
    )
    ds = load_dataset(tmp_path)
    assert len(ds.community_od) == 1


def test_missing_file_reported(tmp_path):
    path = write_minimal(tmp_path)
    (path / "od.csv").unlink()
    with pytest.raises(DatasetError, match="missing file od.csv"):
        load_dataset(path)


def test_unknown_od_community_cites_row(tmp_path):
    path = write_minimal(
        tmp_path, **{"od.csv": "level,origin_id,dest_id,flow\ncommunity,c0,nope,1.0\n"}
    )
    with pytest.raises(DatasetError, match=r"od.csv:2: unknown community nope"):
        load_dataset(path)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("labels.csv", "region_id,emission_tco2\nr0,abc\n", "labels.csv:2: not a number"),
        ("labels.csv", "region_id,emission_tco2\nr0,nan\n", "labels.csv:2: not a finite number"),
        (
            "edges.csv",
            "node_u,node_v,rel_lon,rel_lat,length_km,road_class\nn0,n1,0.5,0.5,nan,primary\n",
            "edges.csv:2: not a finite number",
        ),
        (
            "od.csv",
            "level,origin_id,dest_id,flow\ncommunity,c0,c1,inf\n",
            "od.csv:2: not a finite number",
        ),
    ],
    ids=["abc-label", "nan-label", "nan-length", "inf-flow"],
)
def test_malformed_number_cites_line(tmp_path, name, content, message):
    path = write_minimal(tmp_path, **{name: content})
    with pytest.raises(DatasetError, match=message) as exc:
        load_dataset(path)
    assert len(str(exc.value).splitlines()) == 2  # the header line plus this one problem


NODES = "region_id,community_id,node_id,rel_lon,rel_lat\nr0,c0,n0,0.0,0.0\n"
EDGES = "node_u,node_v,rel_lon,rel_lat,length_km,road_class\nn0,n1,0.5,0.5,2.0,primary\n"


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("nodes.csv", NODES + "r0,c1,n1,1.5,1.0\n", "nodes.csv:3: node n1: relative coordinates outside [0,1]"),
        ("nodes.csv", NODES + "r0,c1,n1,1.0,-0.1\n", "nodes.csv:3: node n1: relative coordinates outside [0,1]"),
        ("edges.csv", EDGES + "n1,n1,0.5,0.5,1.0,primary\n", "edges.csv:3: self-loop segment at node n1"),
        ("edges.csv", EDGES + "n1,n0,0.5,0.5,0.0,primary\n", "edges.csv:3: segment n1-n0: non-positive length 0.0"),
        ("edges.csv", EDGES + "n1,n0,0.5,0.5,-2,primary\n", "edges.csv:3: segment n1-n0: non-positive length -2.0"),
    ],
    ids=["lon-above-1", "lat-below-0", "self-loop", "zero-length", "negative-length"],
)
def test_invalid_road_graph_row_cites_line(tmp_path, name, content, message):
    # reported beside the other problems of the dataset, not after them
    od = "level,origin_id,dest_id,flow\ncommunity,c0,nope,1.0\n"
    path = write_minimal(tmp_path, **{name: content, "od.csv": od})
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    lines = str(exc.value).splitlines()[1:]
    assert sorted(lines) == sorted([message, "od.csv:2: unknown community nope"])


def test_non_utf8_byte_cites_line(tmp_path):
    path = write_minimal(tmp_path)
    (path / "labels.csv").write_bytes(b"region_id,emission_tco2\r\nr\xe9,0.4\r\n")
    with pytest.raises(DatasetError, match=r"labels.csv:2: not valid UTF-8 \(byte 0xe9\)"):
        load_dataset(path)


def test_csv_path_that_is_a_directory_reported(tmp_path):
    path = write_minimal(tmp_path)
    (path / "od.csv").unlink()
    (path / "od.csv").mkdir()
    with pytest.raises(DatasetError, match="od.csv: cannot read"):
        load_dataset(path)


def test_byte_order_mark_accepted(tmp_path):
    path = write_minimal(tmp_path)
    for name in ("nodes.csv", "labels.csv"):
        (path / name).write_bytes(codecs.BOM_UTF8 + (path / name).read_bytes())
    ds = load_dataset(path)
    assert ds.labels == {"r0": 0.4}
    assert ds.road_graphs["r0"].node_ids == ["n0", "n1"]


def test_quoted_fields_parse_as_csv_and_stay_on_their_line(tmp_path):
    path = write_minimal(
        tmp_path,
        **{
            "labels.csv": 'region_id,"emission_tco2"\n"r0","0.4"\n',
            "od.csv": 'level,origin_id,dest_id,flow\ncommunity,c0,"c1,1.0\n',
        },
    )
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert str(exc.value).splitlines()[1:] == ["od.csv:2: expected 4 fields, got 3"]


@given(st.text(st.characters(blacklist_characters='"\r\n\x00'), min_size=1, max_size=40))
@settings(max_examples=300)
def test_quote_free_line_splits_as_csv(line):
    line = line.strip()  # as the loader strips each line and skips blank ones
    assume(line)
    assert line.split(",") == next(csv.reader([line]))


def test_violations_collected_together(tmp_path):
    path = write_minimal(
        tmp_path,
        **{
            "od.csv": (
                "level,origin_id,dest_id,flow\n"
                "community,c0,nope,1.0\n"
                "community,c0,c0,1.0\n"
                "region,r0,r9,1.0\n"
            ),
            "labels.csv": "region_id,emission_tco2\nr0,-3.0\n",
        },
    )
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert "unknown community nope" in msg
    assert "origin and destination are both c0" in msg
    assert "unknown region r9" in msg
    assert "must be positive" in msg


def test_missing_label_reported(tmp_path):
    path = write_minimal(tmp_path, **{"labels.csv": "region_id,emission_tco2\n"})
    with pytest.raises(DatasetError, match="region r0 has no label"):
        load_dataset(path)


def test_wrong_header_rejected(tmp_path):
    path = write_minimal(
        tmp_path, **{"labels.csv": "region,co2\nr0,1.0\n"}
    )
    with pytest.raises(DatasetError, match="expected header region_id,emission_tco2"):
        load_dataset(path)


def test_cross_region_segment_rejected(tmp_path):
    path = write_minimal(
        tmp_path,
        **{
            "nodes.csv": (
                "region_id,community_id,node_id,rel_lon,rel_lat\n"
                "r0,c0,n0,0.0,0.0\n"
                "r0,c1,n1,1.0,1.0\n"
                "r1,c2,n2,0.5,0.5\n"
            ),
            "edges.csv": (
                "node_u,node_v,rel_lon,rel_lat,length_km,road_class\n"
                "n0,n1,0.5,0.5,2.0,primary\n"
                "n1,n2,0.5,0.5,1.0,primary\n"
            ),
            "labels.csv": "region_id,emission_tco2\nr0,0.4\nr1,0.1\n",
        },
    )
    with pytest.raises(DatasetError, match="crosses regions"):
        load_dataset(path)


def test_duplicate_od_rejected(tmp_path):
    path = write_minimal(
        tmp_path,
        **{
            "od.csv": (
                "level,origin_id,dest_id,flow\n"
                "community,c0,c1,1.0\n"
                "community,c0,c1,2.0\n"
            )
        },
    )
    with pytest.raises(DatasetError, match="duplicate OD record"):
        load_dataset(path)


def test_round_trip_write_then_load(small_dataset, tmp_path):
    write_dataset(small_dataset, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.region_ids == small_dataset.region_ids
    for r in small_dataset.region_ids:
        a, b = small_dataset.road_graphs[r], loaded.road_graphs[r]
        assert a.node_ids == b.node_ids
        assert np.array_equal(a.node_feats, b.node_feats)
        assert np.array_equal(a.arc_feats, b.arc_feats)
        assert np.array_equal(a.arc_src, b.arc_src)
        assert np.array_equal(a.arc_dst, b.arc_dst)
    assert loaded.labels == small_dataset.labels
    assert loaded.region_adjacency == small_dataset.region_adjacency
    assert [(r.origin, r.dest, r.flow) for r in loaded.community_od] == [
        (r.origin, r.dest, r.flow) for r in small_dataset.community_od
    ]
    assert [(r.origin, r.dest, r.flow) for r in loaded.region_od] == [
        (r.origin, r.dest, r.flow) for r in small_dataset.region_od
    ]


def assert_bitwise_equal(a, b, where="dataset"):
    """Recursive equality that tells -0.0 from 0.0 and compares array bytes."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_bitwise_equal(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a.hex() == b.hex(), where
    else:
        assert a == b, where


worlds = st.builds(
    lambda n, side, c, seed: SynthParams(
        n_regions=n, grid_side=side, communities=min(c, side * side), seed=seed
    ),
    st.integers(2, 4),
    st.integers(2, 3),
    st.integers(1, 9),
    st.integers(0, 2**16),
)

# numeric columns of each file, by position
NUMERIC = {"nodes.csv": [3, 4], "edges.csv": [2, 3, 4], "od.csv": [3], "labels.csv": [1]}


@given(params=worlds)
@settings(max_examples=20, deadline=None)
def test_write_then_load_is_bitwise_exact(tmp_path_factory, params):
    ds = generate_synthetic(params)
    directory = tmp_path_factory.mktemp("world")
    write_dataset(ds, directory)
    loaded = load_dataset(directory)
    assert_bitwise_equal(ds.road_graphs, loaded.road_graphs, "road_graphs")
    assert_bitwise_equal(ds.hierarchy.node_to_community, loaded.hierarchy.node_to_community)
    assert ds.hierarchy.community_to_region == loaded.hierarchy.community_to_region
    for name in ("community_od", "region_od", "region_adjacency", "labels"):
        assert_bitwise_equal(getattr(ds, name), getattr(loaded, name), name)


@given(params=worlds, data=st.data())
@settings(max_examples=30, deadline=None)
def test_one_bad_number_is_cited_by_file_and_line(tmp_path_factory, params, data):
    directory = tmp_path_factory.mktemp("world")
    write_dataset(generate_synthetic(params), directory)
    name = data.draw(st.sampled_from(sorted(NUMERIC)), label="file")
    path = directory / name
    lines = path.read_text(encoding="utf-8").splitlines()
    assume(len(lines) > 1)
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    column = data.draw(st.sampled_from(NUMERIC[name]), label="column")
    bad = data.draw(st.sampled_from(["x", "nan", "inf"]), label="value")
    fields = lines[row].split(",")
    fields[column] = bad
    lines[row] = ",".join(fields)
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    kind = "not a number" if bad == "x" else "not a finite number"
    with pytest.raises(DatasetError) as exc:
        load_dataset(directory)
    assert f"{name}:{row + 1}: {kind}: {bad!r}" in str(exc.value).splitlines()


def test_split_sizes_and_rounding(small_dataset):
    train, val, test = split_dataset(small_dataset, (0.7, 0.15, 0.15), seed=3)
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_disjoint_exhaustive_deterministic(small_dataset):
    a = split_dataset(small_dataset, (0.7, 0.15, 0.15), seed=3)
    b = split_dataset(small_dataset, (0.7, 0.15, 0.15), seed=3)
    assert a == b
    c = split_dataset(small_dataset, (0.7, 0.15, 0.15), seed=4)
    assert a != c
    union = sorted(a[0] + a[1] + a[2])
    assert union == small_dataset.region_ids
    assert not (set(a[0]) & set(a[1]) or set(a[0]) & set(a[2]) or set(a[1]) & set(a[2]))


def test_split_rejects_bad_fractions(small_dataset):
    with pytest.raises(DatasetError, match="positive"):
        split_dataset(small_dataset, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(DatasetError, match="sum to 1"):
        split_dataset(small_dataset, (0.5, 0.2, 0.2), seed=0)


def test_split_rejects_empty_part():
    tiny = generate_synthetic(SynthParams(n_regions=2, seed=1, grid_side=2, communities=4))
    with pytest.raises(DatasetError, match="empty part"):
        split_dataset(tiny, (0.5, 0.25, 0.25), seed=0)


# ---------------------------------------------------------------------------
# the columnar loader against the per-line reference
#
# A world is written by ``write_dataset`` and then edited as text.  Each
# edit below aims at one problem message (``PROBLEM_EDITS``, keyed by a
# pattern of it) or at one format the per-line reader takes
# (``FORMAT_EDITS``); ``pick(n)`` chooses among n candidates.  The loader
# must give what ``reference_load_dataset`` gives: the same Dataset, arrays
# bitwise and dicts and lists in order, or the same error text.


@dataclasses.dataclass
class CsvFile:
    lines: list  # header first, no line breaks
    state: str = "file"  # or "missing" or "directory"
    ending: str = "\r\n"
    bom: bool = False
    bad_byte_line: int | None = None


def _field(line, column):
    fields = line.split(",")
    return fields[column] if column < len(fields) else ""


def _set_field(lines, row, column, value):
    fields = lines[row].split(",")
    fields += [""] * (column + 1 - len(fields))
    fields[column] = value
    lines[row] = ",".join(fields)


def _data_row(files, name, pick):
    """A data row of ``name``; a file without one gets one."""
    lines = files[name].lines
    while len(lines) < 2:
        lines.append(",".join(["x"] * len(HEADERS[name])))
    return 1 + pick(len(lines) - 1)


def _pick_file(files, pick):
    return files[sorted(files)[pick(len(files))]]


def _set(name, columns, values):
    """One of ``values`` in one of ``columns`` of a data row of ``name``."""

    def edit(files, pick):
        row = _data_row(files, name, pick)
        _set_field(files[name].lines, row, columns[pick(len(columns))], values[pick(len(values))])

    return edit


def _set_numeric(values):
    def edit(files, pick):
        name = sorted(NUMERIC)[pick(len(NUMERIC))]
        _set(name, NUMERIC[name], values)(files, pick)

    return edit


def _copy_id(name, source, target):
    """A reference to itself: field ``target`` takes the row's ``source``."""

    def edit(files, pick):
        lines = files[name].lines
        row = _data_row(files, name, pick)
        _set_field(lines, row, target, _field(lines[row], source))

    return edit


def _from_other_region(name, column, region_of):
    """Field ``column`` of a data row takes the value it has in a row of
    another region ("zz" if there is none)."""

    def edit(files, pick):
        lines = files[name].lines
        row = _data_row(files, name, pick)
        here = region_of(files, lines[row])
        others = [line for line in lines[1:] if region_of(files, line) != here]
        value = _field(others[pick(len(others))], column) if others else "zz"
        _set_field(lines, row, column, value)

    return edit


def _node_region(files, line):
    """The region of an edge's first node."""
    node = _field(line, 0)
    return next((_field(n, 0) for n in files["nodes.csv"].lines[1:] if _field(n, 2) == node), None)


def _state(state):
    def edit(files, pick):
        _pick_file(files, pick).state = state

    return edit


def _non_utf8(files, pick):
    f = _pick_file(files, pick)
    f.bad_byte_line = pick(len(f.lines) + 1)


def _empty_file(files, pick):
    _pick_file(files, pick).lines = []


def _wrong_header(files, pick):
    lines = _pick_file(files, pick).lines
    if lines:
        lines[0] = [lines[0] + ",extra", lines[0].replace("_", "-", 1)][pick(2)]


def _field_count(files, pick):
    name = sorted(files)[pick(len(files))]
    row = _data_row(files, name, pick)
    lines = files[name].lines
    lines[row] = [lines[row] + ",x", lines[row].rsplit(",", 1)[0]][pick(2)]


def _duplicate_row(name):
    def edit(files, pick):
        lines = files[name].lines
        row = _data_row(files, name, pick)
        lines.insert(1 + pick(len(lines)), lines[row])

    return edit


def _delete_row(name):
    def edit(files, pick):
        del files[name].lines[_data_row(files, name, pick)]

    return edit


def _unknown_od_area(files, pick):
    """An area no level knows, or a record at the other level."""
    lines = files["od.csv"].lines
    row = _data_row(files, "od.csv", pick)
    column = pick(3)  # the level, the origin or the destination
    if column == 0:
        other = {"community": "region", "region": "community"}.get(_field(lines[row], 0), "region")
        _set_field(lines, row, 0, other)
    else:
        _set_field(lines, row, column, "zz")


# a pattern of one problem message -> an edit after which the reference records it
PROBLEM_EDITS = {
    "missing file": _state("missing"),
    "cannot read": _state("directory"),
    "not valid UTF-8": _non_utf8,
    "empty file, header required": _empty_file,
    "expected header": _wrong_header,
    "fields, got": _field_count,
    "not a number": _set_numeric(["x", "", "0x1", "1..0", "1__0", "_1"]),
    "not a finite number": _set_numeric(["nan", "inf", "-Infinity", "1e999"]),
    r"relative coordinates outside \[0,1\]": _set("nodes.csv", [3, 4], ["2", "-1", "1.0000001"]),
    "already assigned to region": _from_other_region(
        "nodes.csv", 1, lambda files, line: _field(line, 0)
    ),
    "duplicate node id": _duplicate_row("nodes.csv"),
    r"edges\.csv:\d+: unknown node": _set("edges.csv", [0, 1], ["zz"]),
    "crosses regions": _from_other_region("edges.csv", 1, _node_region),
    "self-loop segment": _copy_id("edges.csv", 0, 1),
    "non-positive length": _set("edges.csv", [4], ["0", "-0.0", "-1"]),
    "unknown level": _set("od.csv", [0], ["city", "Community", ""]),
    r"od\.csv:\d+: unknown (community|region)": _unknown_od_area,
    "origin and destination are both": _copy_id("od.csv", 1, 2),
    "duplicate OD record": _duplicate_row("od.csv"),
    "negative flow": _set("od.csv", [3], ["-1", "-1e-300"]),
    r"labels\.csv:\d+: unknown region": _set("labels.csv", [0], ["zz"]),
    "duplicate label": _duplicate_row("labels.csv"),
    "emission must be positive": _set("labels.csv", [1], ["-0.0", "0", "-2"]),
    "has no label": _delete_row("labels.csv"),
    r"region_adjacency\.csv:\d+: unknown region": _set("region_adjacency.csv", [0, 1], ["zz"]),
    "region adjacent to itself": _copy_id("region_adjacency.csv", 0, 1),
}


def _spell_number(files, pick):
    """A number as ``float`` also reads it, the same one or another."""
    name = sorted(NUMERIC)[pick(len(NUMERIC))]
    row = _data_row(files, name, pick)
    column = NUMERIC[name][pick(len(NUMERIC[name]))]
    value = _field(files[name].lines[row], column)
    spellings = [
        "+" + value,
        value[0] + "_" + value[1:] if value[:2].isdigit() else value,
        value.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
        "+.5",
        "1_0",
        "１",
    ]
    _set_field(files[name].lines, row, column, spellings[pick(len(spellings))])


def _insert_line(texts):
    def edit(files, pick):
        lines = _pick_file(files, pick).lines
        lines.insert(pick(len(lines) + 1), texts[pick(len(texts))])

    return edit


def _edit_line(change):
    """``change(line, pick)`` applied to one line of one file, header included."""

    def edit(files, pick):
        lines = _pick_file(files, pick).lines
        if lines:
            row = pick(len(lines))
            lines[row] = change(lines[row], pick)

    return edit


def _quote(line, pick):
    fields = line.split(",")
    column = pick(len(fields))
    fields[column] = f'"{fields[column]}"'
    return ",".join(fields)


def _pad(line, pick):
    pad = [" ", "\t", "\xa0", "\u3000"][pick(4)]
    return [pad + line, line + pad][pick(2)]


def _commented_region(files, pick):
    """A region commented out in both files that would name it."""
    files["nodes.csv"].lines.append("#zz,#zzc,#zzn,0.5,0.5")
    files["labels.csv"].lines.append("#zz,1.0")


def _quoted_road_class(files, pick):
    lines = files["edges.csv"].lines
    row = _data_row(files, "edges.csv", pick)
    _set_field(lines, row, 5, f'"{_field(lines[row], 5)}"')


def _padded_segment(files, pick):
    """A segment line with a trailing space, read into its road class by a
    reader that does not strip the line."""
    lines = files["edges.csv"].lines
    row = _data_row(files, "edges.csv", pick)
    lines[row] += " "


def _foreign_break(files, pick):
    """Two lines joined at a character ``str.splitlines`` breaks at but the
    file reader does not."""
    lines = _pick_file(files, pick).lines
    if len(lines) > 2:
        row = 1 + pick(len(lines) - 2)
        mark = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"[pick(8)]
        lines[row : row + 2] = [lines[row] + mark + lines[row + 1]]


def _bom(files, pick):
    _pick_file(files, pick).bom = True


def _ending(files, pick):
    _pick_file(files, pick).ending = ["\r\n", "\n", "\r"][pick(3)]


FORMAT_EDITS = {
    "number spelling": _spell_number,
    "comment line": _insert_line(["# note", "#", "#a,b,c,d,e,f"]),
    "commented-out region": _commented_region,
    "blank line": _insert_line(["", "  ", "\t"]),
    "quoted field": _edit_line(_quote),
    "quoted road class": _quoted_road_class,
    "padded line": _edit_line(_pad),
    "padded segment": _padded_segment,
    "foreign line break": _foreign_break,
    "byte-order mark": _bom,
    "line ending": _ending,
}

EDITS = {**PROBLEM_EDITS, **FORMAT_EDITS}


def _write_files(directory, files):
    for name, f in files.items():
        path = directory / name
        path.unlink(missing_ok=True)
        if f.state == "directory":
            path.mkdir()
        if f.state != "file":
            continue
        encoded = [(line + f.ending).encode("utf-8") for line in f.lines]
        if f.bad_byte_line is not None:
            encoded.insert(min(f.bad_byte_line, len(encoded)), b"r\xe9,1" + f.ending.encode())
        path.write_bytes((codecs.BOM_UTF8 if f.bom else b"") + b"".join(encoded))


def _read_files(directory):
    return {
        name: CsvFile((directory / name).read_text(encoding="utf-8").splitlines())
        for name in HEADERS
    }


def _outcome(load, directory):
    try:
        return load(directory)
    except DatasetError as exc:
        return str(exc)


def assert_loads_as_reference(directory):
    got = _outcome(load_dataset, directory)
    want = _outcome(reference_load_dataset, directory)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_bitwise_equal(got, want)
    return want


@pytest.fixture(scope="module")
def oracle_world(tmp_path_factory):
    directory = tmp_path_factory.mktemp("oracle")
    params = SynthParams(n_regions=3, grid_side=3, communities=3, seed=7)
    write_dataset(generate_synthetic(params), directory)
    return _read_files(directory)


# each deterministic edit below runs at its first, middle and last choices
CHOICES = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: max(n - 1, 0)}


def _copy(files):
    return {name: dataclasses.replace(f, lines=list(f.lines)) for name, f in files.items()}


@pytest.mark.parametrize("choice", sorted(CHOICES))
@pytest.mark.parametrize("message", sorted(PROBLEM_EDITS))
def test_each_problem_edit_records_its_message(oracle_world, tmp_path, message, choice):
    files = _copy(oracle_world)
    PROBLEM_EDITS[message](files, CHOICES[choice])
    _write_files(tmp_path, files)
    result = assert_loads_as_reference(tmp_path)
    assert isinstance(result, str)
    assert re.search(message, result), result


@pytest.mark.parametrize("choice", sorted(CHOICES))
@pytest.mark.parametrize("variant", sorted(FORMAT_EDITS))
def test_each_format_edit_loads_as_reference(oracle_world, tmp_path, variant, choice):
    files = _copy(oracle_world)
    FORMAT_EDITS[variant](files, CHOICES[choice])
    _write_files(tmp_path, files)
    assert_loads_as_reference(tmp_path)


def _spaced_road_class(files, pick):
    """A road class with a space in it, which reads as ``other``."""
    lines = files["edges.csv"].lines
    row = _data_row(files, "edges.csv", pick)
    _set_field(lines, row, 5, ["living street", "motorway link", '"primary "'][pick(3)])


# the unedited world, a spaced road class and every format edit but the
# foreign line break (which leaves a line with too many fields) keep it valid
VALID_FORMAT_EDITS = {
    "none": lambda files, pick: None,
    "spaced road class": _spaced_road_class,
    **FORMAT_EDITS,
}
del VALID_FORMAT_EDITS["foreign line break"]


def _not_reached(*args):
    raise AssertionError("a valid dataset reached the per-line checks")


@pytest.mark.parametrize("choice", sorted(CHOICES))
@pytest.mark.parametrize("variant", sorted(VALID_FORMAT_EDITS))
def test_valid_dataset_never_reaches_the_per_line_checks(
    oracle_world, tmp_path, monkeypatch, variant, choice
):
    files = _copy(oracle_world)
    VALID_FORMAT_EDITS[variant](files, CHOICES[choice])
    _write_files(tmp_path, files)
    want = reference_load_dataset(tmp_path)
    monkeypatch.setattr("roadcarbon.data._record_problems", _not_reached)
    assert_bitwise_equal(load_dataset(tmp_path), want)


def test_columnar_refusal_of_a_valid_dataset_is_not_a_dataset_error(
    oracle_world, tmp_path, monkeypatch
):
    _write_files(tmp_path, _copy(oracle_world))
    monkeypatch.setattr("roadcarbon.data._columnar_dataset", lambda *columns: None)
    with pytest.raises(RuntimeError, match="per-line checks accept") as exc:
        load_dataset(tmp_path)
    assert not isinstance(exc.value, DatasetError)


@given(params=worlds, data=st.data())
@settings(max_examples=150, deadline=None)
def test_load_matches_per_line_reference(tmp_path_factory, params, data):
    directory = tmp_path_factory.mktemp("world")
    write_dataset(generate_synthetic(params), directory)
    files = _read_files(directory)

    def pick(n):
        return data.draw(st.integers(0, max(n - 1, 0)))

    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        EDITS[data.draw(st.sampled_from(sorted(EDITS)), label="edit")](files, pick)
    _write_files(directory, files)
    assert_loads_as_reference(directory)


def test_per_line_marks_are_quote_comment_and_spaces_but_line_breaks():
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()} - {"\r", "\n"}
    assert set(_PER_LINE_MARKS) == {'"', "#"} | spaces
    assert len(_PER_LINE_MARKS) == len(set(_PER_LINE_MARKS))
