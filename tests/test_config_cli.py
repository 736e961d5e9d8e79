import csv
import json
from pathlib import Path

import numpy as np
import pytest

from competefem.cli import main
from competefem.config import (
    ConfigError,
    build_instance,
    emit_config,
    parse_config,
    parse_config_dict,
)


MINIMAL = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0,
    "q": 2.0,
    "f": {"kind": "zero"},
    "T": {"kind": "identity"},
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL))
        assert spec.levels == 5
        assert spec.quad_order == 4
        assert spec.policy == "refuse"
        assert spec.tol == 1e-10
        assert spec.p_crit == 6.0
        assert spec.safety == 1.1
        assert spec.f["envelope"]["r"] == 2.0

    def test_exponent_order_rejected(self, tmp_path):
        bad = dict(MINIMAL, q=3.0)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "EXPONENT_ORDER"

    def test_alpha_at_the_open_endpoint_rejected(self, tmp_path):
        bad = dict(MINIMAL, f={"kind": "signed_power", "a1": 0.1, "alpha": 5.0})
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "H1_RANGE"
        assert "(0, 5.0)" in str(err.value)

    def test_unknown_catalog_ids(self, tmp_path):
        for patch, code in (
            ({"f": {"kind": "mystery"}}, "UNKNOWN_CATALOG"),
            ({"T": {"kind": "mystery"}}, "UNKNOWN_CATALOG"),
            ({"domain": {"kind": "moebius"}}, "UNKNOWN_CATALOG"),
        ):
            bad = dict(MINIMAL, **patch)
            with pytest.raises(ConfigError) as err:
                parse_config(write_config(tmp_path, bad))
            assert err.value.code == code

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.code == "MALFORMED_JSON"

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(MINIMAL, tolerance=1e-8)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"

    def test_certificate_support_enforced(self, tmp_path):
        bad = dict(MINIMAL, f={"kind": "signed_power", "a1": 0.1, "alpha": 3.0})
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "UNSUPPORTED_CERTIFICATE"
        conv = dict(
            MINIMAL,
            f={"kind": "signed_power", "a1": 0.1, "alpha": 1.0},
            T={"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, conv))
        assert err.value.code == "UNSUPPORTED_CERTIFICATE"

    def test_small_exponents_need_regularisation(self, tmp_path):
        bad = dict(MINIMAL, p=2.5, q=1.5)
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"
        ok = dict(bad, eps_reg=1e-8)
        spec = parse_config(write_config(tmp_path, ok))
        assert spec.eps_reg == 1e-8

    def test_initial_guess_requires_manufactured(self, tmp_path):
        bad = dict(MINIMAL, initial_guess="exact")
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert err.value.code == "BAD_FIELD"

    def test_roundtrip(self, tmp_path):
        obj = {
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
            "p": 3.0, "q": 2.0, "levels": 6, "seed": 17,
            "f": {"kind": "manufactured_plus_power",
                  "a1": 0.25, "alpha": 2.0, "a2": 0.0, "beta": 2.0},
            "T": {"kind": "convolution",
                  "kernel": {"shape": "hat", "width": 0.25}},
            "initial_guess": "exact",
        }
        spec = parse_config_dict(obj)
        again = parse_config_dict(json.loads(emit_config(spec)))
        assert again == spec
        assert emit_config(again) == emit_config(spec)

    def test_mesh_domain(self, tmp_path):
        obj = dict(MINIMAL, domain={
            "kind": "mesh", "mesh": {"dim": 1, "nodes": [0.0, 0.3, 0.6, 1.0]}
        })
        spec = parse_config_dict(obj)
        inst = build_instance(spec)
        assert inst.hierarchy.dims()[0] == 2


class TestBuildInstance:
    def test_solution_dependence_flags(self):
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "manufactured_p3q2"}))
        assert not build_instance(spec).convection.solution_dependent
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "signed_power",
                                                  "a1": 0.2, "alpha": 1.0}))
        assert build_instance(spec).convection.solution_dependent

    def test_exact_guess_resolved(self):
        spec = parse_config_dict(dict(MINIMAL, f={"kind": "manufactured_p3q2"},
                                      initial_guess="exact"))
        inst = build_instance(spec)
        assert inst.initial_guess is not None
        np.testing.assert_allclose(inst.initial_guess(np.array([0.5])), 0.25)


MANUFACTURED_CLI = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0, "q": 2.0, "levels": 4,
    "f": {"kind": "manufactured_p3q2"},
    "T": {"kind": "identity"},
    "seed": 3,
    "sphere_samples": 32,
    "initial_guess": "exact",
}

CONVOLUTION_CLI = dict(
    MANUFACTURED_CLI,
    f={"kind": "manufactured_plus_power", "a1": 0.1, "a2": 0.1, "alpha": 2.0, "beta": 2.0},
    T={"kind": "convolution", "kernel": {"shape": "box", "width": 0.25}},
)


class TestCli:
    def test_solve_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "ok"
        assert len(report["levels"]) == 4
        csv_text = (out / "solve_report.csv").read_text().splitlines()
        assert csv_text[0] == ("level,dim,grad_norm_p,residual_sup,R,apriori_margin,"
                               "diag_a,diag_b,diag_c_strong,diag_c_full,newton_iters")
        assert len(csv_text) == 5

    def test_csv_cells_equal_json_values(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        levels = json.loads((out / "solve_report.json").read_text())["levels"]
        with (out / "solve_report.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == len(levels)
        assert levels[-1]["diag_a"] is None  # the finest level has no diagnostics
        for row, level in zip(rows, levels):
            for column, cell in zip(header, row):
                value = level[column]
                if value is None:
                    assert cell == ""
                else:
                    assert float(cell) == value, (level["level"], column)

    def test_solve_zero_rhs_all_zero_rows(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, f={"kind": "zero"},
                                          initial_guess=None))
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        for row in report["levels"]:
            assert row["grad_norm_p"] == pytest.approx(0.0, abs=1e-12)

    def test_check_pass_and_fail_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["check", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "hypothesis_report.json").read_text())
        assert payload["all_pass"] is True
        assert payload["reports"][0]["margin"] == 1.0

        failing = dict(MANUFACTURED_CLI,
                       f={"kind": "signed_power", "a1": 20.0, "alpha": 1.0},
                       initial_guess=None)
        cfg2 = write_config(tmp_path, failing, "failing.json")
        assert main(["check", str(cfg2), "--out-dir", str(out)]) == 2
        payload = json.loads((out / "hypothesis_report.json").read_text())
        assert payload["all_pass"] is False

    def test_solve_hypothesis_refusal_exit_2_report_written(self, tmp_path):
        failing = dict(MANUFACTURED_CLI,
                       f={"kind": "signed_power", "a1": 20.0, "alpha": 1.0},
                       initial_guess=None)
        cfg = write_config(tmp_path, failing)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 2
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "hypothesis_failed"
        assert (out / "solve_report.csv").read_text().startswith("level,")

    def test_constants_report(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["constants", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["safety"] == 1.1
        assert payload["lambda1p"] > 0
        for entry in payload["S"].values():
            assert entry["value"] == pytest.approx(1.1 * entry["raw"], rel=1e-12)

    def test_space_provenance_names_p_star_below_the_dimension(self, tmp_path):
        # unit square with p = 1.8 < N = 2, so p_crit = p* = Np/(N-p) = 18
        probe = {
            "domain": {"kind": "unit_square"}, "p": 1.8, "q": 1.4, "levels": 4,
            "eps_reg": 1e-8,
            "f": {"kind": "constant", "c": 1.0, "envelope": {"alpha": 0.5, "beta": 0.5}},
        }
        out = tmp_path / "out"
        assert main(["check", str(write_config(tmp_path, probe)), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "hypothesis_report.json").read_text())
        constants = payload["constants"]
        assert constants["p_crit"] == pytest.approx(18.0, rel=1e-14)
        space = constants["S_space"]
        assert space["value"] == constants["S"][repr(18.0)]["value"]
        assert "p* = Np/(N-p) = 18 (p < N)" in space["provenance"]
        assert "p >= N" not in space["provenance"]
        assert payload["all_pass"] is True

    def test_study_rates(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, levels=5))
        out = tmp_path / "out"
        assert main(["study", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "study.csv").read_text().splitlines()
        assert rows[0] == "level,dim,h_max,error_w1p,rate_w1p,error_l2,rate_l2"
        last = rows[-1].split(",")
        assert float(last[4]) >= 0.8  # measured convergence rate
        errors = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_study_requires_manufactured(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, f={"kind": "zero"},
                                          initial_guess=None))
        assert main(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_config_error_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, q=5.0))
        assert main(["solve", str(cfg)]) == 1
        assert main(["solve", str(tmp_path / "missing.json")]) == 1

    def test_seed_and_levels_overrides(self, tmp_path):
        cfg = write_config(tmp_path, MANUFACTURED_CLI)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out),
                     "--levels", "3", "--seed", "99"]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert len(report["levels"]) == 3
        assert report["seed"] == 99

    @pytest.mark.parametrize("config", [MANUFACTURED_CLI, CONVOLUTION_CLI],
                             ids=["identity", "convolution"])
    def test_byte_identical_reports_for_same_seed(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["solve", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "solve_report.json").read_bytes() == \
            (out2 / "solve_report.json").read_bytes()
        assert (out1 / "solve_report.csv").read_bytes() == \
            (out2 / "solve_report.csv").read_bytes()

    def test_sphere_quantiles_in_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(write_config(tmp_path, MANUFACTURED_CLI)),
                     "--out-dir", str(out)]) == 0
        for level in json.loads((out / "solve_report.json").read_text())["levels"]:
            assert level["sphere_margin"] <= level["sphere_q05"] <= level["sphere_median"]
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, sphere_samples=0), "none.json")
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        for level in json.loads((out / "solve_report.json").read_text())["levels"]:
            assert level["sphere_margin"] is None
            assert level["sphere_q05"] is None and level["sphere_median"] is None

    @pytest.mark.parametrize("quad_order", [1, 2, 4])
    def test_readme_config_solves_at_every_quad_order(self, tmp_path, quad_order):
        # a 1D rule with two points once made x look like a 2D point array
        cfg = write_config(tmp_path, dict(MANUFACTURED_CLI, quad_order=quad_order,
                                          levels=3, sphere_samples=1000))
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "ok" and len(report["levels"]) == 3
