"""Result sinks: canonical float text, RFC-4180 framing, manifests."""

import json
import math

from kacmix.chaos import ChaosReport, ChaosRow, SlopeFit
from kacmix.picard import gaussian_grid_density
from kacmix.runio import (
    chaos_summary,
    format_value,
    write_csv,
    write_density_csv,
    write_json,
    write_manifest,
)


def test_format_value_canonical_text():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(True) == "true" and format_value(False) == "false"
    assert format_value(42) == "42"
    assert format_value("m2") == "m2"
    # 17 significant digits round-trip every double exactly
    for x in (math.pi, 2.0 ** -52, -1.5e-300, 1e300, 7.0 / 11.0):
        assert float(format_value(x)) == x


def test_write_csv_uses_crlf_and_minimal_quoting(tmp_path):
    path = tmp_path / "t.csv"
    n = write_csv(path, ["a", "b"], [[1, 'x,y'], [2, 'plain']])
    assert n == 2
    raw = path.read_bytes()
    assert raw == b'a,b\r\n1,"x,y"\r\n2,plain\r\n'


def test_write_json_is_stable(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 1, "a": [1.5, None]})
    assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'


def test_manifest_round_trip_with_fixed_clock(tmp_path):
    path = tmp_path / "manifest.json"
    m = write_manifest(
        path,
        command="simulate",
        version="0.1.0",
        seed=7,
        config={"sim": {"N": 4}},
        row_counts={"simulate.csv": 8},
        now="2026-01-01T00:00:00+00:00",
    )
    loaded = json.loads(path.read_text())
    assert loaded == m
    assert loaded["wall_clock_utc"] == "2026-01-01T00:00:00+00:00"
    assert loaded["row_counts"] == {"simulate.csv": 8}


def test_density_csv_row_per_grid_node(tmp_path):
    f = gaussian_grid_density(L=4.0, n_v=33)
    n = write_density_csv(tmp_path / "d.csv", f)
    assert n == 33
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "v,f" and len(lines) == 34


def test_chaos_summary_maps_nan_slopes_to_null(tmp_path):
    row = ChaosRow(
        N=8, s=1, t=0.5, observable="g", kac_mean=0.0, kac_stderr=1e-3,
        mf_mean=0.0, mf_stderr=1e-3, delta=0.0, pass_3sigma=True, underpowered=False,
    )
    fits = (
        SlopeFit(s=1, t=0.5, observable="g", slope=float("nan"),
                 slope_stderr=float("nan"), n_points=2),
        SlopeFit(s=2, t=0.5, observable="g", slope=-0.9, slope_stderr=0.1, n_points=4),
    )
    report = ChaosReport(rows=(row,), slopes=fits, seed=3, n_ref=80, ref_replicas=4)
    summary = chaos_summary(report)
    assert summary["pass_fraction"] == 1.0
    assert summary["worst_row"]["N"] == 8
    assert summary["slope_fits"][0]["slope"] is None
    assert summary["slope_fits"][1]["slope"] == -0.9
    # the digest must serialize: nan would poison strict JSON consumers
    text = json.dumps(summary, allow_nan=False)
    assert "NaN" not in text
