import numpy as np
import pytest

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
