"""tests/outdiff.py: a tree matches itself, and a changed column shows."""

from __future__ import annotations

import shutil

from outdiff import REPO, compare

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
    line = "    p0 = x[0] + x[2]\n"
    assert text.count(line) == 1
    liouville.write_text(text.replace(line, "    p0 = x[0] + x[2] + 1e-9\n"))

    results = {r.name: r for r in compare(REPO, tmp_path, CASES)}
    changed = results.pop("default/simulate-rwa/csv")
    assert (changed.exit_same, changed.stderr_same,
            changed.stdout_same) == (True, True, False)
    assert changed.columns == ["purity_tls"]
    assert "DIFF default/simulate-rwa/csv stdout differs" in changed.line()
    assert results["detuned/simulate-lab/json"].stdout_same is False
    assert results["default/scan-gamma/csv"].same
