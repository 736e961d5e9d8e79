"""The benchmark's workloads and the failure-table rows, solved through the command line.

Every level that converges today must keep converging by the same path, so
a change that moves ``levels_converged`` fails here, not only in the
benchmark; and every embedding constant's ascent must keep converging.  The
workload configs are read, never written.  Each failure-table row (a
config that failed with a positive sampled sphere margin) and readmeNU, the
README problem on nonuniform nodes, is a file under ``reproducers/``,
pinned at ``--seed 11`` by its exit code and, per level, its path and
start: lift1d and convNU converge by Newton from the starts that mend them
and readmeNU from the guess; long1d, p18 and nodal1d converge on every
level, descending the energy where Newton fails from every start; and
lift2d, p18id and p18lift, whose f reads T(u) and so has no energy, still
fail (at levels 4, 4 and 3), sooner than the identity homotopy did.
"""

from pathlib import Path

import pytest

from competefem.cli import main

from oracles import read_report

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# level -> path of every level that converges; square-2d's level 1 has no
# free dofs and its level 5 converges by the energy descent
EXPECTED = {
    "readme-1d": {n: "newton" for n in range(1, 8)},
    "conv-1d-deep": {n: "newton" for n in range(1, 9)},
    "square-2d": {**{n: "newton" for n in range(2, 5)}, 5: "energy"},
}


def test_every_workload_is_covered():
    assert sorted(p.stem for p in WORKLOADS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_converged_levels_keep_their_path(tmp_path, workload):
    out = tmp_path / "out"
    rc = main(["solve", str(WORKLOADS / f"{workload}.json"), "--out-dir", str(out),
               "--seed", "11"])
    report = read_report(out / "solve_report.json")
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
    levels = read_report(out / "solve_report.json")["levels"]
    base = levels[0]["grad_norm_p"]
    assert all(abs(lv["grad_norm_p"] - base) <= 0.01 * base for lv in levels)
    assert [lv["start"] for lv in levels] == ["guess"] * 7 + ["coarser"]


# the failure-table rows, one config file each under reproducers/; lift1d and
# convNU once failed at L5 and L8
REPRODUCERS = Path(__file__).resolve().parent / "reproducers"
ORIGIN, GUESS, COARSER = ("newton", "origin"), ("newton", "guess"), ("newton", "coarser")
ENERGY, FAILED = ("energy", None), ("failed", None)
# row -> (exit code, [(path, start) of each level in the report])
ROWS = {
    "lift1d": (0, [GUESS] + [COARSER] * 4),
    "convNU": (0, [GUESS] * 7 + [COARSER]),
    "readmeNU": (0, [GUESS] * 7),
    "long1d": (0, [ENERGY, COARSER, ENERGY]),
    "p18": (0, [ORIGIN, COARSER, COARSER, ENERGY]),
    "nodal1d": (0, [ENERGY] + [COARSER] * 3),
    "lift2d": (3, [ORIGIN, COARSER, FAILED]),
    "p18id": (3, [ORIGIN, COARSER, FAILED]),
    "p18lift": (3, [ORIGIN, FAILED]),
}
# the identity homotopy's iterations on the level where each failing row fails
HOMOTOPY_ITERS = {"lift2d": 360, "p18id": 309, "p18lift": 232}
# reproducers of outcomes other than a level's path, pinned in test_config_cli.py
OUTCOMES = ["conv_scale_huge", "hugeR", "lift_huge"]


def test_every_reproducer_is_pinned():
    assert sorted(p.stem for p in REPRODUCERS.glob("*.json")) == sorted([*ROWS, *OUTCOMES])


@pytest.mark.parametrize("row", sorted(ROWS))
def test_failure_table_rows_are_pinned(tmp_path, row):
    code, paths = ROWS[row]
    out = tmp_path / "out"
    assert main(["solve", str(REPRODUCERS / f"{row}.json"), "--out-dir", str(out),
                 "--seed", "11"]) == code
    report = read_report(out / "solve_report.json")
    levels = report["levels"]
    assert [(lv["path"], lv["start"]) for lv in levels] == paths
    tol = report["config"]["tol"]
    assert all(lv["residual_sup"] <= tol and lv["grad_norm_p"] <= lv["R"]
               for lv in levels if lv["converged"])
    if code:
        # Newton from the coarser zero, or from the origin, and no descent
        assert levels[-1]["newton_iters"] < HOMOTOPY_ITERS[row]
