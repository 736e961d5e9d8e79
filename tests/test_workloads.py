"""The benchmark's workloads, solved in-process through the command line.

Every level that converges today must keep converging by the same path, so
a change that moves ``levels_converged`` fails here, not only in the
benchmark; and every embedding constant's ascent must keep converging.  The
workload configs are read, never written.  Two configs that used to fail
with a positive sphere margin, lift1d and convNU, must keep converging
from the starts that mend them.  long1d keeps visible a level that
converges only by the identity homotopy, and a failure above it.
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
    "conv-1d-deep": {n: "newton" for n in range(1, 9)},
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


def test_conv_1d_deep_stays_on_one_branch(tmp_path):
    # every level's zero lies on L1's branch: L8 fails Newton from the guess
    # and converges from the prolongated L7 zero instead of jumping to 0.56
    out = tmp_path / "out"
    assert main(["solve", str(WORKLOADS / "conv-1d-deep.json"), "--out-dir", str(out),
                 "--seed", "11"]) == 0
    levels = json.loads((out / "solve_report.json").read_text())["levels"]
    base = levels[0]["grad_norm_p"]
    assert all(abs(lv["grad_norm_p"] - base) <= 0.01 * base for lv in levels)
    assert [lv["start"] for lv in levels] == ["guess"] * 7 + ["coarser"]


# lift1d: a boundary lift whose L2-L5 left the guess's branch by homotopy and
# failed at L5; convNU: conv-1d-deep on non-uniform nodes, which failed at L8
LIFT1D = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0, "q": 2.0, "levels": 5,
    "f": {"kind": "manufactured_plus_power", "a1": 0.05, "a2": 0.05, "alpha": 2.0, "beta": 2.0},
    "T": {"kind": "boundary_lift", "u0": {"kind": "affine", "a": 0.1, "b": 0.05}},
    "sphere_samples": 200, "initial_guess": "exact",
}
CONV_NU = {
    **json.loads((WORKLOADS / "conv-1d-deep.json").read_text()),
    "domain": {"kind": "mesh", "mesh": {"dim": 1, "nodes": [0, 0.2, 0.45, 0.7, 1]}},
}


@pytest.mark.parametrize("config,starts", [
    (LIFT1D, ["guess"] + ["coarser"] * 4),
    (CONV_NU, ["guess"] * 7 + ["coarser"]),
], ids=["lift1d", "convNU"])
def test_failure_table_rows_converge_by_newton(tmp_path, config, starts):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out-dir", str(out), "--seed", "11"]) == 0
    levels = json.loads((out / "solve_report.json").read_text())["levels"]
    assert all(lv["converged"] and lv["path"] == "newton" for lv in levels)
    assert [lv["start"] for lv in levels] == starts


# long1d: the README problem on (0, 2), whose L1 (2 dofs) converges only by
# the identity homotopy and whose L3 fails with a sampled sphere margin of
# +14 (a known solver defect)
LONG1D = {
    "domain": {"kind": "interval", "a": 0.0, "b": 2.0, "elements": 3},
    "levels": 3, "f": {"kind": "manufactured_p3q2"}, "initial_guess": "exact",
}


def test_long1d_converges_by_the_homotopy_and_fails_above(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(LONG1D))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out-dir", str(out), "--seed", "11"]) == 3
    levels = json.loads((out / "solve_report.json").read_text())["levels"]
    assert {lv["level"]: lv["path"] for lv in levels if lv["converged"]} == {
        1: "homotopy", 2: "newton"}
