"""tests/outdiff.py: a tree matches itself, and a changed column shows."""

from __future__ import annotations

import shutil

from outdiff import REPO, compare, diff_tables, parse

CASES = ["default/simulate-rwa/csv", "detuned/simulate-lab/json",
         "default/scan-gamma/csv"]


def test_a_tree_matches_itself():
    results = compare(REPO, REPO, CASES)
    assert sorted(r.name for r in results) == sorted(CASES)
    assert all(r.same for r in results), [r.line() for r in results]


def test_a_perturbed_column_is_reported(tmp_path):
    """A copy whose defect purity is off by 1e-9 differs from the tree in
    simulate's stdout, in the purity_tls column alone, and nowhere else."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    liouville = tmp_path / "src" / "tlspurify" / "liouville.py"
    text = liouville.read_text()
    line = "    p0 = x[..., 0] + x[..., 2]\n"
    assert text.count(line) == 1
    liouville.write_text(text.replace(line, line[:-1] + " + 1e-9\n"))

    results = {r.name: r for r in compare(REPO, tmp_path, CASES)}
    changed = results.pop("default/simulate-rwa/csv")
    assert (changed.exit_same, changed.stderr_same,
            changed.stdout_same) == (True, True, False)
    table = changed.table
    assert (table.command, table.rows_added, table.meta) == ("simulate", 0,
                                                             [])
    [column] = table.columns
    # every sample moves by 2 p0 1e-9, with p0 (the defect's ground
    # population) between 1/2 and 1
    assert (column.name, column.cells, column.flips) == ("purity_tls", 601,
                                                         {})
    assert 1e-9 <= column.max_abs <= 2e-9
    assert column.max_rel <= 4e-9
    assert "DIFF default/simulate-rwa/csv stdout differs: purity_tls: 601 " \
        "cells, max abs 1." in changed.line()
    json_case = results.pop("detuned/simulate-lab/json")
    assert json_case.stdout_same is False
    assert [c.name for c in json_case.table.columns] == ["purity_tls"]
    assert results["default/scan-gamma/csv"].same


def test_flips_rows_and_metadata_are_reported():
    """Two small tables: a label flip, a relabelled number, a changed
    metadata key and a removed row, each reported as such."""
    old = ("# region-map\n# model.J = 0.1\n# meta gamma = 1.0\n"
           "check,x,region\na,1.0,B\nb,2.0,B\nc,4.0,C\n")
    new = ("# region-map\n# model.J = 0.1\n# meta gamma = 2.0\n"
           "check,x,region\na,1.5,C\nb,unphysical,B\n")
    diff = diff_tables(parse(old), parse(new))
    assert (diff.rows_added, diff.meta) == (-1, ["meta gamma"])
    x, region = diff.columns
    assert (x.cells, x.max_abs, x.max_rel) == (2, 0.5, 0.5 / 1.5)
    assert x.flips == {("<number>", "unphysical"): 1}
    assert x.by_row == {"a": (0.5, 0.5 / 1.5)}
    assert (region.cells, region.flips) == (1, {("B", "C"): 1})
    assert diff.text() == (
        "1 rows removed; metadata meta gamma; x: 2 cells, max abs 0.5, "
        "max rel 0.333, flips <number>->unphysical x1; region: 1 cells, "
        "flips B->C x1")
    header = diff_tables(parse(old), parse(old.replace("region", "label")))
    assert (header.columns, header.text()) == (None, "header differs")
