"""The benchmark's workloads, solved in-process through the command line.

Every level that converges today must keep converging by the same path, so
a change that moves ``levels_converged`` fails here, not only in the
benchmark; and every embedding constant's ascent must keep converging.  The
workload configs are read, never written.
"""

import json
from pathlib import Path

import pytest

from competefem.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# level -> path of every level that converges; square-2d's level 1 has no
# free dofs and its level 5 fails (a known solver defect)
EXPECTED = {
    "readme-1d": {n: "newton" for n in range(1, 8)},
    "conv-1d-deep": {**{n: "newton" for n in range(1, 8)}, 8: "homotopy"},
    "square-2d": {n: "newton" for n in range(2, 5)},
}


def test_every_workload_is_covered():
    assert sorted(p.stem for p in WORKLOADS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_converged_levels_keep_their_path(tmp_path, workload):
    out = tmp_path / "out"
    rc = main(["solve", str(WORKLOADS / f"{workload}.json"), "--out-dir", str(out),
               "--seed", "11"])
    report = json.loads((out / "solve_report.json").read_text())
    levels = report["levels"]
    paths = {lv["level"]: lv["path"] for lv in levels if lv["converged"]}
    assert {n: paths.get(n) for n in EXPECTED[workload]} == EXPECTED[workload]
    assert rc == (0 if all(lv["converged"] for lv in levels) else 3)
    constants = report["constants"]
    assert constants["lambda1p_converged"] is True
    assert {r: s["converged"] for r, s in constants["S"].items()} == \
        dict.fromkeys(constants["S"], True)
