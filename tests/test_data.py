import codecs
import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roadcarbon.data import DatasetError, load_dataset, split_dataset, write_dataset
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
