import argparse
import json
import operator
import re

import numpy as np
import pytest

import kdvessel as kv
from kdvessel import suite
from kdvessel.cli import _write_csv, build_vessel_from_config, main
from kdvessel.suite import EXPECTED_FAILURES


def run(args):
    return main(list(args))


# the sub-checks of every criterion, in report order
SUITE_CHECK_NAMES = [
    "soliton_profile.max_error", "soliton_profile.runtime_s",
    "cauchy_determinant.rel_error", "cauchy_determinant.runtime_s",
    *(f"vessel_identities.{c}[{v}]" for v in ("soliton", "discrete", "quadrature")
      for c in ("lyapunov", "normalization")),
    *(f"evolution_conditions.{c}[{v}]" for v in ("soliton", "discrete", "quadrature")
      for c in ("residual", "order", "construction", "construction_order")),
    "kdv_residual.max[soliton2]", "kdv_residual.order[soliton2]",
    "kdv_residual.max[soliton3]", "kdv_residual.order[soliton3]", "kdv_residual.runtime_s",
    *(f"transfer.{c}[{v}]" for v in ("soliton1", "soliton2", "discrete", "quadrature")
      for c in ("symmetry", "ds_order", "intertwining")),
    "gelfand_levitan.residual[soliton1]", "gelfand_levitan.node_doubling[soliton1]",
    "gelfand_levitan.residual[soliton2]", "gelfand_levitan.node_doubling[soliton2]",
    "fixed_vector.discrete", "fixed_vector.quadrature",
    "moment_recursion.max",
    "coefficient_evolution.rhs_vs_bruteforce", "coefficient_evolution.conservation",
    "coefficient_evolution.symmetry", "coefficient_evolution.integrator_order",
    "periodicity.x_shift", "periodicity.t_shift",
    "kernel_diag_sign.match_error", "kernel_diag_sign.sigma_consistent",
]


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
        logtau, sign = kv.log_tau(kv.build_soliton(kv.SolitonSpec(k=[3.0], b=[2.0])), x, t)
        assert np.all(sign == 1.0)
        beyond = logtau > np.log(np.finfo(float).max)
        assert beyond.any() and not beyond.all()
        assert np.array_equal(np.isinf(tau), beyond)
        assert np.all(tau[beyond] > 0)

    def test_singular_soliton_point_is_numerical_failure(self, tmp_path, capsys,
                                                          close_soliton,
                                                          close_soliton_first_gated):
        # the dump stops at the first point in C order that core's gate
        # refuses, before the grid's first zero pivot at (5.0, 0.909...)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": close_soliton,
                                   "grid": {"x_min": -30.0, "x_max": 30.0, "nx": 301,
                                            "t_min": -1.0, "t_max": 1.0, "nt": 23}}))
        out = tmp_path / "field.csv"
        assert run(["soliton", "--config", str(cfg), "--out", str(out)]) == 3
        x, t, message = close_soliton_first_gated
        assert x < 5.0
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert f"[at x={x}, t={t}]" in message
        assert not out.exists()

    def test_build_overflow_is_numerical_failure(self, tmp_path, capsys):
        # |b|^2 overflows the Gram matrix, so the build's self-check meets a
        # non-finite M: a numerical failure naming its point, with no
        # RuntimeWarning (an error under the test settings), not a
        # configuration error
        out = tmp_path / "field.csv"
        assert run(["soliton", "--k", "1", "--b-abs", "1e160", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Gram operator X overflowed")
        assert "[at x=" in err
        assert not out.exists()

    def test_vessel_field_is_named_once(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": {"k": ["a"], "b_abs": [1.0]}}))
        assert run(["soliton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: vessel.k[0]: expected a finite number\n")

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

    @pytest.mark.parametrize("command, config, flags, path", [
        ("soliton", None, ["--k", "abc", "--b-abs", "1"], "--k"),
        ("spectral", {"vessel": {"type": "quadrature", "s_max": "a", "nodes": 8,
                                 "density": {"gaussian": {"amplitude": 0.5}}}},
         [], "vessel.s_max"),
        ("evolve", {"evolution": {"M": "x"}}, [], "evolution.M"),
        ("suite", {"checks": [{"name": "fixed_vector", "tolerance": "x"}]}, [],
         "checks[0].tolerance"),
        ("scatter", {"scatter": {"x": "a"}}, [], "scatter.x"),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command, config,
                                              flags, path):
        args = [command, *flags, "--out", str(tmp_path / "out")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 2
        assert f"{path}: expected a number" in capsys.readouterr().err


SMALL_GRID = {"x_min": -1.0, "x_max": 1.0, "nx": 9, "t_min": -0.2, "t_max": 0.2, "nt": 9}

# a fast valid config of each command, and the start of what it writes
COMMAND_CONFIGS = {
    "soliton": ({"vessel": {"k": [1.0], "b_abs": [1.0]}, "grid": SMALL_GRID}, "x,t,tau"),
    "spectral": ({"vessel": {"k": [0.7, 1.1], "b_abs": [0.6, 0.6]}, "grid": SMALL_GRID},
                 "x,t,tau"),
    "evolve": ({"evolution": {"steps": 10, "conservation_tol": None}}, "t,p[-2]"),
    "transfer": ({"vessel": {"type": "soliton", "k": [1.2], "b_abs": [1.0]}}, "{"),
    "scatter": ({"scatter": {"nodes": 301}}, "{"),
    "verify": ({"grid": {**SMALL_GRID, "nx": 41}}, "{"),
    "suite": ({"checks": ["cauchy_determinant"]}, "{"),
}


def per_value_csv(header, columns):
    """CSV text formed value by value with ``f"{v:.17g}"``, as a reference."""
    rows = zip(*(np.asarray(c).ravel().tolist() for c in columns))
    return "\n".join([header, *(",".join(f"{v:.17g}" for v in row) for row in rows)]) + "\n"


class TestCsvWriter:
    WIDE = ({"type": "soliton", "k": [3.0], "b_abs": [2.0]},
            {"x_min": -200.0, "x_max": 200.0, "nx": 401, "t_min": -0.05, "t_max": 0.05, "nt": 9})
    DISCRETE = ({"type": "discrete", "k": [0.7, 1.1, 1.6], "b_abs": [0.6, 0.4, 0.3]},
                {"x_min": -4.0, "x_max": 3.5, "nx": 41, "t_min": -0.5, "t_max": 0.3, "nt": 11})

    @pytest.mark.parametrize("case", ["wide_soliton", "discrete"])
    def test_dump_is_the_per_value_text(self, tmp_path, capsys, case):
        vcfg, gcfg = self.WIDE if case == "wide_soliton" else self.DISCRETE
        grid = kv.Grid2D(**gcfg)
        fields = suite.grid_fields(build_vessel_from_config(vcfg)[0], grid)
        X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
        expected = per_value_csv("x,t,tau,beta,q", (X, T, fields.tau, fields.beta, fields.q))
        if case == "wide_soliton":
            assert ",inf," in expected  # far rows carry tau = inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": vcfg, "grid": gcfg}))
        command = "soliton" if case == "wide_soliton" else "spectral"
        out = tmp_path / "field.csv"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        capsys.readouterr()
        assert run([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    def test_special_values(self, tmp_path):
        values = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308, 1.0])
        columns = [values, values[::-1].copy()]
        out = tmp_path / "special.csv"
        _write_csv(str(out), "a,b", columns)
        text = out.read_text()
        assert text == per_value_csv("a,b", columns)
        assert text.splitlines()[1:4] == ["inf,1", "-inf,1.7976931348623157e+308",
                                          "nan,4.9406564584124654e-324"]
        assert text.splitlines()[4] == "-0,-0"
        lead = ["%.17g" % v for v in values.tolist()]
        _write_csv(str(out), "key,a,b", columns, lead=(lead,))
        assert out.read_text() == per_value_csv("key,a,b", [values, *columns])


class TestConfigLoader:
    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_unknown_top_level_key_rejected(self, tmp_path, capsys, command):
        # a misspelt section must not fall back silently to the defaults
        config, _ = COMMAND_CONFIGS[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "vesel": {"type": "soliton"}}))
        assert run([command, "--config", str(cfg)]) == 2
        assert "config.vesel: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_output_path_receives_the_output(self, tmp_path, capsys, command):
        config, start = COMMAND_CONFIGS[command]
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "output": {"path": str(out)}}))
        assert run([command, "--config", str(cfg)]) == 0
        text = out.read_text()
        assert text.startswith(start)
        assert text not in capsys.readouterr().out
        if start == "{":
            assert json.loads(text)["header"]["n_fail"] == 0

    @pytest.mark.parametrize("command", ["suite", "soliton", "verify"])
    def test_format_flag_rejected(self, command):
        with pytest.raises(SystemExit) as err:
            run([command, "--format", "json"])
        assert err.value.code == 2

    def test_output_format_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"path": str(tmp_path / "r.json"),
                                              "format": "json"}}))
        assert run(["transfer", "--config", str(cfg)]) == 2
        assert "output.format: unknown key" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run(["transfer", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command, config", [
        ("evolve", {"evolution": {"M": 0}}),
        ("evolve", {"evolution": {"k0": 0.0}}),
        ("evolve", {"evolution": {"k0": -1.0}}),
        ("evolve", {"evolution": {"p0": [1.0, 1.0, 1.0, -0.5]}}),
        ("evolve", {"evolution": {"p0": [1.0, 2.0, 3.0, 4.0]}}),
        ("evolve", {"evolution": {"p0": [1.0, 1.0]}}),
        ("evolve", {"evolution": {"steps": 0}}),
        ("scatter", {"scatter": {"nodes": 200}}),
        ("scatter", {"scatter": {"x": 0.5, "y": 0.7}}),
        ("scatter", {"scatter": {"x": 0.7, "y": 0.7}}),
    ], ids=["M=0", "k0=0", "k0<0", "p0-negative", "p0-asymmetric", "p0-length", "steps=0",
            "even-nodes", "x<y", "x=y"])
    def test_out_of_range_input_is_config_error(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        section = "evolution" if command == "evolve" else command
        assert capsys.readouterr().err.startswith(f"configuration error: {section}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, message", [
        *(pytest.param(command, {"vessel": vessel}, "vessel: expected an object",
                       id=f"{command}-vessel={vessel!r}")
          for command in ("soliton", "spectral") for vessel in ([1, 2], "abc", 5)),
        pytest.param("suite", {"checks": [{"name": ["a"]}]},
                     "checks[0].name: expected a check name", id="suite-list-name"),
    ])
    def test_mistyped_section_is_config_error(self, tmp_path, capsys, command, config,
                                              message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")
        assert not (tmp_path / "out").exists()


# each integer config field: its command and a fast config around one value
INT_FIELDS = {
    "evolution.M": ("evolve", 3, lambda v: {"evolution": {
        "M": v, "t_end": 0.01, "steps": 2, "conservation_tol": "inf"}}),
    "evolution.steps": ("evolve", 4, lambda v: {"evolution": {
        "steps": v, "conservation_tol": "inf"}}),
    "grid.nx": ("soliton", 9, lambda v: {"vessel": {"k": [1.0], "b_abs": [1.0]},
                                         "grid": {**SMALL_GRID, "nx": v}}),
    "grid.nt": ("soliton", 11, lambda v: {"vessel": {"k": [1.0], "b_abs": [1.0]},
                                         "grid": {**SMALL_GRID, "nt": v}}),
    "vessel.nodes": ("spectral", 8, lambda v: {
        "vessel": {"type": "quadrature", "s_max": 1.0, "nodes": v,
                   "density": {"gaussian": {"amplitude": 0.5}}},
        "grid": SMALL_GRID}),
    "scatter.nodes": ("scatter", 301, lambda v: {"scatter": {"nodes": v}}),
}


class TestIntegerFields:
    @pytest.mark.parametrize("value", [2.7, "2.7", True, False], ids=repr)
    @pytest.mark.parametrize("field", sorted(INT_FIELDS))
    def test_non_integer_is_config_error(self, tmp_path, capsys, field, value):
        command, _, config = INT_FIELDS[field]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config(value)))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        expected = "a number" if isinstance(value, bool) else "an integer"
        assert f"{field}: expected {expected}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", sorted(INT_FIELDS))
    def test_integral_float_is_the_integer(self, tmp_path, field):
        command, value, config = INT_FIELDS[field]
        outputs = []
        for v in (value, float(value)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config(v)))
            out = tmp_path / f"out-{v!r}"
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
            text = out.read_text()
            if command == "scatter":  # a JSON report: compare its checks, not runtimes
                text = [(c["check"], c["value"]) for c in json.loads(text)["checks"]]
            outputs.append(text)
        assert outputs[0] == outputs[1]


QUADRATURE_8 = {"type": "quadrature", "s_max": 1.0, "nodes": 8,
                "density": {"gaussian": {"amplitude": 0.5}}}

# a NaN or +-inf input: its command, config (or None), flags and the field named
NON_FINITE = {
    "evolution.t_end=nan": ("evolve", {"evolution": {"t_end": "nan"}}, [], "evolution.t_end"),
    "evolution.k0=nan": ("evolve", {"evolution": {"k0": "nan"}}, [], "evolution.k0"),
    "evolution.conservation_tol=nan": ("evolve", {"evolution": {"conservation_tol": "nan"}},
                                       [], "evolution.conservation_tol"),
    "evolution.t_end=inf": ("evolve", {"evolution": {"t_end": "inf"}}, [], "evolution.t_end"),
    "evolution.p0=[NaN]": ("evolve", {"evolution": {"p0": [float("nan")] * 4}}, [],
                           "evolution.p0[0]"),
    "grid.x_min=-inf": ("soliton", {"vessel": {"k": [1.0], "b_abs": [1.0]},
                                    "grid": {**SMALL_GRID, "x_min": "-inf"}}, [], "grid.x_min"),
    "grid.t_max=Infinity": ("spectral", {"vessel": QUADRATURE_8,
                                         "grid": {**SMALL_GRID, "t_max": float("inf")}}, [],
                            "grid.t_max"),
    "--k nan": ("soliton", None, ["--k", "nan", "--b-abs", "1"], "--k"),
    "--b-abs inf": ("spectral", None, ["--k", "1", "--b-abs", "inf"], "--b-abs"),
    "vessel.k=[NaN]": ("spectral", {"vessel": {"k": [float("nan")], "b_abs": [1.0]}}, [],
                       "vessel.k[0]"),
    "vessel.s_max=nan": ("spectral", {"vessel": {**QUADRATURE_8, "s_max": "nan"}}, [],
                         "vessel.s_max"),
    "checks.tolerance=nan": ("suite", {"checks": [{"name": "fixed_vector",
                                                   "tolerance": "nan"}]}, [],
                             "checks[0].tolerance"),
    "--tolerance nan": ("verify", None, ["--tolerance", "nan"], "--tolerance"),
    "--tolerance inf": ("verify", None, ["--tolerance", "inf"], "--tolerance"),
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_is_config_error(self, tmp_path, capsys, case):
        command, config, flags, path = NON_FINITE[case]
        out = tmp_path / "out"
        args = [command, *flags, "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 2
        assert f"{path}: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "Infinity", float("inf"), None], ids=repr)
    def test_infinite_conservation_tol_turns_the_gate_off(self, tmp_path, tol):
        # the default config exits 3 with the gate on (TestEvolve)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evolution": {"conservation_tol": tol}}))
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 501


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(COMMAND_CONFIGS["soliton"][0]))
        argv = ["soliton", "--config", str(cfg), "--out", str(tmp_path / "f.csv")]
        assert run(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for command in ("soliton", "evolve", "suite"):
            config, _ = COMMAND_CONFIGS[command]
            cfg.write_text(json.dumps(config))
            assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert built == []

    @pytest.mark.parametrize("command", ["soliton", "spectral", "evolve", "scatter", "verify"])
    def test_seed_only_where_it_is_read(self, command):
        with pytest.raises(SystemExit) as err:
            run([command, "--seed", "7"])
        assert err.value.code == 2


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

    def test_overflowing_flow_is_numerical_failure(self, tmp_path, capsys):
        # p0 = 1e200 overflows every pair product at t = 0, to infinities of
        # both signs, so the residual is NaN: one line naming the sample, no
        # file and no RuntimeWarning (an error under the test settings),
        # with the conservation gate off
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "evolution": {"M": 4, "p0": [1e200] * 8, "t_end": 0.1, "steps": 10,
                          "conservation_tol": "inf"},
        }))
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: conservation residual is nan at t=0.0\n")
        assert not out.exists()


class TestCheckCommands:
    def test_transfer_command(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["transfer", "--out", str(out), "--seed", "7"])
        assert code == 0
        report = json.loads(out.read_text())
        assert {"check", "value", "tolerance", "pass", "runtime_ms"} <= set(
            report["checks"][0]
        )
        assert [c["check"] for c in report["checks"]] == ["transfer.symmetry",
                                                          "transfer.ds_order"]

    def test_scatter_command(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["scatter", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [c["check"] for c in report["checks"]] == ["scatter.gl_residual",
                                                          "scatter.sign_sigma"]

    def test_verify_command(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0

    def test_far_field_scatter_names_the_kernel_overflow(self, tmp_path, capsys):
        # x = 20 and x0 = 400 evaluate on the pair, but K(20, s) carries
        # e^{2 (s - 20)}, past the float range at the first Simpson node s = x0
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps({
            "vessel": {"type": "soliton", "k": [1.0, 2.0], "b_abs": [1.4142135623730951, 2.0]},
            "scatter": {"x0": 400, "x": 20, "y": 0.3}}))
        assert run(["scatter", "--config", str(cfg), "--out", str(tmp_path / "far.out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: K(20.0, 400.0) overflowed [at x=400.0, t=0.0]\n")

    def test_scatter_values_are_the_direct_calls(self, tmp_path):
        vcfg = {"type": "soliton", "k": [0.7, 1.1], "b_abs": [0.5, 0.5]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": vcfg, "scatter": {"x0": -0.2, "x": 1.2,
                                                               "y": 0.4, "nodes": 101}}))
        out = tmp_path / "report.json"
        assert run(["scatter", "--config", str(cfg), "--out", str(out)]) == 0
        gl, sign = json.loads(out.read_text())["checks"]
        vessel = build_vessel_from_config(vcfg)[0]
        omega, kval = kv.gl_kernels(vessel, -0.2, 1.2, 0.4)
        res = kv.gl_residual(vessel, -0.2, 1.2, 0.4, quadrature_nodes=101)
        rep = kv.q_from_K_diag(vessel, 0.8)
        assert (gl["check"], gl["value"], gl["tolerance"], gl["pass"]) == (
            "scatter.gl_residual", res, 1e-8, True)
        assert gl["detail"] == f"Omega={omega:.6e}, K={kval:.6e}, 101 Simpson nodes"
        assert (sign["check"], sign["value"], sign["tolerance"], sign["pass"]) == (
            "scatter.sign_sigma", 1.0, 1.0, True)
        assert sign["detail"] == rep.describe() and rep.sigma == 1

    def test_verify_value_is_the_direct_residual(self, tmp_path):
        vcfg = {"type": "discrete", "k": [0.7, 1.1], "b_abs": [0.2, 0.2]}
        gcfg = {"x_min": -2.0, "x_max": 2.0, "nx": 81, "t_min": -0.2, "t_max": 0.2, "nt": 21}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vessel": vcfg, "grid": gcfg}))
        out = tmp_path / "report.json"
        assert run(["verify", "--config", str(cfg), "--out", str(out),
                    "--tolerance", "0.5"]) == 0
        (check,) = json.loads(out.read_text())["checks"]
        grid = kv.Grid2D(**gcfg)
        X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
        q = kv.evaluate_fields(build_vessel_from_config(vcfg)[0], X, T).q
        res = np.abs(kv.kdv_residual(q, grid)).max()
        assert (check["check"], check["value"], check["tolerance"], check["pass"]) == (
            "verify.kdv_residual_max", res, 0.5, res < 0.5)

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
        assert [c["check"] for c in report["checks"]] == SUITE_CHECK_NAMES
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

    def test_empty_check_list_rejected(self, tmp_path, monkeypatch, capsys):
        # an empty list is not "no checks key": it must not run all twelve
        def must_not_run(*args, **kwargs):
            pytest.fail("the suite ran although the check list is empty")

        monkeypatch.setattr(suite, "run_suite", must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": []}))
        assert run(["suite", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert "checks: expected a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_tolerance_override(self, tmp_path):
        # loosening the fixed-vector tolerance flips the named check; the
        # stated acceptance tolerance itself is never changed by default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "checks": [{"name": "fixed_vector", "tolerance": 100.0}],
            "output": {"path": str(tmp_path / "report.json")},
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

    def test_refused_override_exits_before_any_check_runs(self, tmp_path, monkeypatch):
        def must_not_run(level, rng):
            pytest.fail("kdv_residual ran although its override is refused")

        monkeypatch.setitem(suite.CHECKS, "kdv_residual", must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": [{"name": "kdv_residual", "tolerance": 1e-2}]}))
        assert run(["suite", "--level", "quick", "--config", str(cfg)]) == 2

    def test_every_verdict_follows_its_printed_rule(self):
        # the rule each line prints between "need" and the tolerance, read
        # independently of suite.RULES
        rules = {"<": operator.lt, ">": operator.gt, "==": operator.eq,
                 "within 0.5 of": lambda value, tol: abs(value - tol) < 0.5}
        _, results = suite.run_suite(level="quick")
        results += suite.scatter_checks(build_vessel_from_config(
            {"type": "soliton", "k": [1.0], "b_abs": [1.4142135623730951]})[0])
        for r in results:
            status, rule, tol = re.match(r"\[(PASS|FAIL)\] .*\(need (.+) (\S+), \d+ ms\)$",
                                         r.line().split("\n")[0]).groups()
            assert tol == f"{r.tolerance:.3e}", r.check
            assert (status == "PASS") == rules[rule](r.value, r.tolerance) == r.passed, r.check

    def test_error_bound_families_match_the_gates(self):
        # the families whose every sub-check is a positive upper bound on an
        # error, read off a run: the set the CLI accepts overrides for
        _, results = suite.run_suite(level="quick")
        families = {}
        for r in results:
            bound = r.rule == "<" and r.tolerance > 0 and not r.check.endswith(".runtime_s")
            family = r.check.split(".", 1)[0]
            families[family] = families.get(family, True) and bound
        assert set(suite.ERROR_BOUND_FAMILIES) == {f for f, ok in families.items() if ok}
