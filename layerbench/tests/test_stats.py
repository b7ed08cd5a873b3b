"""The ``ds.stats()`` parser on stats strings printed by Ray 2.49.2."""

import os

import pytest

from layerbench.stats import new_operators, parse_stats

DATA = os.path.join(os.path.dirname(__file__), "data")


def _load(name: str) -> str:
    with open(os.path.join(DATA, name)) as f:
        return f.read()


def test_task_and_actor_operators():
    read, clip = parse_stats(_load("stats_clip_raster.txt"))
    assert read["name"] == "ReadParquet->SplitBlocks(16)"
    assert (read["tasks"], read["blocks"], read["rows"], read["bytes"]) == (1, 16, 256, 16810944)
    assert read["wall_s"] == pytest.approx(1.04)
    assert read["remote_wall_s"] == pytest.approx(0.33985)
    assert read["remote_cpu_s"] == pytest.approx(0.04599)
    assert read["udf_s"] == 0.0
    assert clip["name"] == "MapBatches(_ClipRasterActor)"
    assert (clip["tasks"], clip["blocks"], clip["rows"], clip["bytes"]) == (8, 8, 256, 16810944)
    assert clip["wall_s"] == pytest.approx(2.48)
    assert clip["remote_wall_s"] == pytest.approx(2.68)
    assert clip["remote_cpu_s"] == pytest.approx(2.03)
    assert clip["udf_s"] == pytest.approx(10.64)
    assert not clip["cached"]


def test_microsecond_totals():
    (op,) = parse_stats(_load("stats_from_arrow.txt"))
    assert op["name"] == "FromArrow"
    assert op["number"] == 0
    assert op["remote_wall_s"] == pytest.approx(83.96e-6)
    assert op["remote_cpu_s"] == pytest.approx(62.8e-6)
    assert (op["rows"], op["bytes"], op["blocks"]) == (1389296, 55571840, 8)


def test_new_operators_drops_upstream():
    text = _load("stats_clip_raster.txt")
    upstream = text[: text.index("Operator 2")]
    assert [o["name"] for o in new_operators(text, upstream)] == ["MapBatches(_ClipRasterActor)"]
    assert len(new_operators(text, None)) == 2


def test_header_variants():
    text = (
        "Operator 1 ReadRange: [execution cached]\n"
        "Operator 2 Sort: executed in 1.5s\n\n"
        "\tSuboperator 0 SortSample: 4 tasks executed, 4 blocks produced\n"
        "\t* Remote cpu time: 1.0ms min, 2.0ms max, 1.5ms mean, 6.0ms total\n"
    )
    cached, sort, sample = parse_stats(text)
    assert cached["cached"] and cached["tasks"] == 0
    assert sort["wall_s"] == pytest.approx(1.5)
    assert sample["kind"] == "Suboperator"
    assert (sample["tasks"], sample["blocks"]) == (4, 4)
    assert sample["remote_cpu_s"] == pytest.approx(0.006)


def test_unrelated_text_yields_nothing():
    assert parse_stats("Dataset throughput:\n\t* Ray Data throughput: 1 rows/s\n") == []
