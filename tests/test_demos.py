"""The demo scripts under `demos/` run to the end and print their tables."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# script stem -> (first line of its output, text of its last table's title)
TABLES = {
    "relaxation": ("fourth moment, two-point initial data", "m2 drift across the run:"),
    "chaos_sweep": ("N-particle marginals vs the tensorized", "pair gap E[v1^2 v2^2] - mu2^2"),
    "hierarchy_tour": ("pair/triple mixture: M=2", "integral remainder factor"),
}


@pytest.mark.parametrize("stem", sorted(TABLES))
def test_demo_runs_and_prints_its_tables(stem, capsys):
    header, last = TABLES[stem]
    runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith(header)
    assert last in out
