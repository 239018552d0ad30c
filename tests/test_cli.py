import json

import numpy as np
import pytest

import kdvessel as kv
from kdvessel.cli import main
from kdvessel.suite import EXPECTED_FAILURES


def run(args):
    return main(list(args))


class TestFieldDump:
    def test_soliton_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "field.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"x_min": -1.0, "x_max": 1.0, "nx": 9,
                     "t_min": -0.5, "t_max": 0.5, "nt": 9},
        }))
        code = run(["soliton", "--k", "1", "--b-abs", "1.4142135623730951",
                    "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,t,tau,beta,q"
        assert len(lines) == 1 + 9 * 9
        # the (x=0, t=0) row carries tau = 2, beta = -1, q = -2
        row = [ln for ln in lines[1:] if ln.startswith("0,0,")]
        assert len(row) == 1
        vals = [float(v) for v in row[0].split(",")]
        assert vals[2] == pytest.approx(2.0, abs=1e-12)
        assert vals[3] == pytest.approx(-1.0, abs=1e-12)
        assert vals[4] == pytest.approx(-2.0, abs=1e-12)

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["soliton", "--k", "0.8,1.3", "--b-abs", "1.0,1.0", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_spectral_dump(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(["spectral", "--k", "0.7,1.1", "--b-abs", "0.6,0.6",
                    "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,t,tau,beta,q"

    def test_spectral_q_is_exact_on_the_x_boundary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        grid = {"x_min": -1.0, "x_max": 1.0, "nx": 9, "t_min": -0.2, "t_max": 0.2, "nt": 9}
        cfg.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "spec.csv"
        assert run(["spectral", "--k", "0.7,1.1", "--b-abs", "0.6,0.6",
                    "--config", str(cfg), "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1).reshape(9, 9, 5)
        assert np.all(np.isfinite(data))
        vessel = kv.build_discrete_vessel(
            kv.DiscreteSpectrum(k=np.array([0.7, 1.1]), b=np.array([0.6, 0.6], dtype=complex)))
        for row in (*data[0], *data[-1]):
            x, t, tau, beta, q = row
            state = kv.evaluate(vessel, x, t)
            assert q == pytest.approx(2.0 * state.beta_prime, rel=1e-12, abs=1e-14)
            assert beta == pytest.approx(state.beta, rel=1e-12, abs=1e-14)
            assert tau == pytest.approx(state.tau, rel=1e-12)

    def test_wide_soliton_grid_writes_inf_tau(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        grid = {"x_min": -200.0, "x_max": 200.0, "nx": 401,
                "t_min": -0.05, "t_max": 0.05, "nt": 9}
        cfg.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "wide.csv"
        assert run(["soliton", "--k", "3", "--b-abs", "2", "--config", str(cfg),
                    "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1).reshape(401, 9, 5)
        x, t, tau, beta, q = np.moveaxis(data, -1, 0)
        assert np.all(np.isfinite(beta)) and np.all(np.isfinite(q))
        logtau, sign = kv.log_tau_soliton(kv.SolitonSpec(k=[3.0], b=[2.0]), x, t)
        assert np.all(sign == 1.0)
        beyond = logtau > np.log(np.finfo(float).max)
        assert beyond.any() and not beyond.all()
        assert np.array_equal(np.isinf(tau), beyond)
        assert np.all(tau[beyond] > 0)

    def test_negative_wavenumber_is_config_error(self, tmp_path):
        code = run(["soliton", "--k", "-1", "--b-abs", "1", "--out",
                    str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": {"type": "soliton", "k": [1.0],
                                              "b_abs": [1.0], "bogus": 1}}))
        code = run(["soliton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["soliton", "--config", str(cfg)]) == 2


class TestEvolve:
    def test_default_gate_is_numerical_failure(self, tmp_path):
        # the conservation gate (1e-9) fires on the truncated lattice
        code = run(["evolve", "--out", str(tmp_path / "t.csv")])
        assert code == 3

    def test_with_gate_disabled(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "evolution": {"k0": 1.0, "M": 2, "p0": [1.0, 1.0, 1.0, 1.0],
                          "t_end": 0.2, "steps": 100, "conservation_tol": "inf"},
        }))
        code = run(["evolve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p[-2],p[-1],p[1],p[2],conservation"
        assert len(lines) == 1 + 101


class TestCheckCommands:
    def test_transfer_command(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["transfer", "--out", str(out), "--seed", "7"])
        assert code == 0
        report = json.loads(out.read_text())
        assert {"check", "value", "tolerance", "pass", "runtime_ms"} <= set(
            report["checks"][0]
        )

    def test_scatter_command(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["scatter", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = [c["check"] for c in report["checks"]]
        assert "scatter.gl_residual" in names and "scatter.sign_sigma" in names

    def test_verify_command(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0

    def test_transfer_nonpositive_residual_is_numerical_failure(self, monkeypatch, capsys):
        # a zero residual at h/2 would give order = inf and a PASS unguarded
        monkeypatch.setattr(kv.transfer, "ds_residual",
                            lambda vessel, lam, x, t, h: 1e-6 if h == 1e-3 else 0.0)
        assert run(["transfer"]) == 3
        assert "transfer.ds_order" in capsys.readouterr().err


class TestSuite:
    def test_quick_suite_reports_known_failures(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["suite", "--level", "quick", "--out", str(out)])
        assert code == 1  # the truncation-impossible identities fail honestly
        report = json.loads(out.read_text())
        failed = {c["check"] for c in report["checks"] if not c["pass"]}
        assert failed == set(EXPECTED_FAILURES)
        assert report["header"]["seed"] == 20240601

    def test_subset_of_checks(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["soliton_profile", "cauchy_determinant"]}))
        out = tmp_path / "report.json"
        code = run(["suite", "--level", "quick", "--config", str(cfg),
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(c["pass"] for c in report["checks"])

    def test_unknown_check_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": ["nope"]}))
        assert run(["suite", "--config", str(cfg)]) == 2

    def test_tolerance_override(self, tmp_path):
        # loosening the fixed-vector tolerance flips the named check; the
        # stated acceptance tolerance itself is never changed by default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "checks": [{"name": "fixed_vector", "tolerance": 100.0}],
            "output": {"path": str(tmp_path / "report.json"), "format": "json"},
        }))
        code = run(["suite", "--level", "quick", "--config", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert all(c["pass"] and c["tolerance"] == 100.0 for c in report["checks"])

    @pytest.mark.parametrize("override", [
        # would turn both kdv_residual.order gates into "> 1e-2" and fail
        # kdv_residual.runtime_s
        {"name": "kdv_residual", "tolerance": 1e-2},
        # would relax the bit-exact rhs_vs_bruteforce and drop the 3.5-4.5
        # band of integrator_order
        {"name": "coefficient_evolution", "tolerance": 1e-12},
    ])
    def test_override_of_non_error_gate_rejected(self, tmp_path, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [override]}))
        assert run(["suite", "--level", "quick", "--config", str(cfg)]) == 2
        assert override["name"] in capsys.readouterr().err
