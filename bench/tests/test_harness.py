"""The benchmark's own checks: each oracle rejects a corrupted output, and
a failed operation is counted, never dropped.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
import run
import worker
import workloads
from kdvessel import cli, soliton, suite


def _field_op(tmp_path, op_id, command, vessel, grid):
    op = workloads._field_op(op_id, command, vessel, grid, np.random.default_rng(7), 6)
    workloads.write_configs([op], str(tmp_path))
    return op


@pytest.fixture
def soliton1(tmp_path):
    return _field_op(tmp_path, "s1", "soliton", {"type": "soliton", "k": [0.9], "b_abs": [1.3]},
                     workloads._grid(-5, 5, 21, -0.5, 0.5, 9))


@pytest.fixture
def discrete3(tmp_path):
    return _field_op(tmp_path, "d3", "spectral",
                     {"type": "discrete", "k": [0.8, 1.3, 2.1], "b_abs": [0.2, 0.25, 0.15]},
                     workloads._grid(-3, 3, 15, -0.3, 0.3, 9))


@pytest.fixture
def wide(tmp_path):
    return _field_op(tmp_path, "w1", "soliton", {"type": "soliton", "k": [3.0], "b_abs": [2.0]},
                     workloads._grid(-200, 200, 401, -0.05, 0.05, 9))


@pytest.fixture
def lattice(tmp_path):
    op = {"id": "lat", "kind": "evolve", "command": "evolve",
          "config": {"evolution": {"k0": 1.0, "M": 3, "p0": [3e-3, 2e-3, 1e-3, 1e-3, 2e-3, 3e-3],
                                   "t_end": 0.02, "steps": 6, "conservation_tol": "inf"}}}
    workloads.write_configs([op], str(tmp_path))
    return op


def _vessel(op):
    return cli.build_vessel_from_config(op["config"]["vessel"])[0]


def _field_check(op, text):
    return oracles.check_field(op, text, _vessel(op), soliton.one_soliton_reference)


def _perturb(text, row, col, rel):
    """Move one CSV value v (data row ``row``, column ``col``) by rel * (1 + |v|)."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    v = float(fields[col])
    fields[col] = repr(v + rel * (1.0 + abs(v)))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _run(op):
    out = workloads.run_op(op, cli, suite)
    assert out.rc == 0, out.error
    return out.output


def _run_rc(op):
    return workloads.run_op(op, cli, suite).rc


@pytest.mark.parametrize("fixture", ["soliton1", "discrete3"])
@pytest.mark.parametrize("col", [2, 3, 4])  # tau, beta, q
def test_field_oracle_rejects_a_perturbed_value(request, fixture, col):
    op = request.getfixturevalue(fixture)
    text = _run(op)
    assert _field_check(op, text) is None
    nx, nt = op["config"]["grid"]["nx"], op["config"]["grid"]["nt"]
    i, j = next((i, j) for i, j in oracles.sample_points(op) if 0 < i < nx - 1)
    row = i * nt + j
    assert _field_check(op, _perturb(text, row, col, 1e-6)) is not None


def test_field_oracle_rejects_a_truncated_or_shifted_dump(soliton1):
    text = _run(soliton1)
    lines = text.split("\n")
    assert _field_check(soliton1, "\n".join(lines[:-2]) + "\n") is not None
    assert _field_check(soliton1, _perturb(text, 3, 0, 1e-2)) is not None


def _log_domain_dump(op):
    """The wide dump a far-field fix would write: tau = e^{log tau}, inf past the float range."""
    g = op["config"]["grid"]
    spec = _vessel(op).metadata["spec"]
    xs, ts = oracles._grid_axes(g)
    rows = [oracles.FIELD_HEADER]
    for x in xs:
        for t in ts:
            logtau, _ = soliton.log_tau_soliton(spec, x, t)
            tau = math.exp(logtau) if logtau <= oracles.LOG_MAX else math.inf
            rows.append(",".join(repr(float(v)) for v in (
                x, t, tau, soliton.beta_soliton(spec, x, t), soliton.q_soliton(spec, x, t))))
    return "\n".join(rows) + "\n"


def test_field_oracle_checks_the_far_field_in_the_scaled_domain(wide):
    assert _run_rc(wide) == 3  # the known overflow defect of the seed commit
    text = _log_domain_dump(wide)
    assert _field_check(wide, text) is None
    nt = wide["config"]["grid"]["nt"]
    xs = oracles._grid_axes(wide["config"]["grid"])[0]
    i, j = next((i, j) for i, j in oracles.sample_points(wide) if xs[i] > 120)
    row = i * nt + j
    assert "beta" in _field_check(wide, _perturb(text, row, 3, 1e-6))
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    assert fields[2] == "inf"
    fields[2] = "1e308"
    lines[row + 1] = ",".join(fields)
    assert "tau" in _field_check(wide, "\n".join(lines))


def test_suite_oracle_rejects_a_flipped_verdict():
    header, results = suite.run_suite(level="quick", seed=3)
    args = (list(suite.CHECKS), suite.EXPECTED_FAILURES)
    assert oracles.check_suite(header, results, *args) is None
    passing = next(i for i, r in enumerate(results) if r.passed)
    failing = next(i for i, r in enumerate(results) if not r.passed)
    for i in (passing, failing):
        flipped = list(results)
        flipped[i] = dataclasses.replace(results[i], passed=not results[i].passed)
        assert oracles.check_suite(header, flipped, *args) is not None


def test_evolve_oracle_rejects_corruption(lattice):
    text = _run(lattice)
    assert oracles.check_evolve(lattice, text) is None
    last = lattice["config"]["evolution"]["steps"]
    # one side of a mirror pair: breaks p_N = p_-N
    assert "p_N" in oracles.check_evolve(lattice, _perturb(text, last, 1, 1e-9))
    # both sides of the first step: symmetric, but not the RK4 step
    both = _perturb(_perturb(text, 1, 1, 1e-9), 1, 6, 1e-9)
    assert "RK4" in oracles.check_evolve(lattice, both)
    assert "conservation" in oracles.check_evolve(lattice, _perturb(text, last, 7, 0.5))


class _Roster:
    """A harness over a hand-picked roster, with an optional forced mismatch."""

    workload = "fields_small_n"

    def __init__(self, ops, mismatch_ids=()):
        self.ops = ops
        self.mismatch_ids = mismatch_ids

    def run(self, op):
        return workloads.run_op(op, cli, suite)

    def verify(self, outcome):
        if outcome.op["id"] in self.mismatch_ids:
            return "forced mismatch"
        return _field_check(outcome.op, outcome.output)


def test_failed_and_mismatched_operations_are_counted(soliton1, discrete3, wide):
    passes = worker.run_until(_Roster([soliton1, wide, discrete3], {"d3"}), 0, 6)
    outcomes = [o for p in passes for o in p.outcomes]
    assert len(passes) == 2 and len(outcomes) == 6
    by_id = {o.op["id"]: o for o in outcomes}
    assert by_id["w1"].rc == 3 and by_id["w1"].failed and by_id["w1"].work == 0
    assert by_id["d3"].rc == 0 and by_id["d3"].failed and by_id["d3"].work == 0
    assert not by_id["s1"].failed and by_id["s1"].work == 21 * 9
    metrics, extra = worker.end_to_end("fields_small_n", passes)
    assert extra["ops_failed_frac"] == pytest.approx(4 / 6)
    assert metrics["ops_ok_frac"][0] == pytest.approx(2 / 6)


def test_an_exception_is_an_outcome_not_a_crash(soliton1):
    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    out = workloads.run_op(soliton1, Broken, suite)
    assert out.rc is None and out.failed and "boom" in out.error


def test_setup_time_leaves_out_the_reference_windows_and_normalizes_each_stage():
    # 0.3 s before the first window, then stages of 0.2, 0.1 and 0.4 s
    timings = {"setup_windows_s": [0.05, 0.05, 0.05, 0.05], "setup_stages_s": [0.2, 0.1, 0.4],
               "setup_speeds": [2.0, 2.0, 1.0, 1.0]}
    raw, norm = run.setup_seconds(0.3 + 0.15 + 0.7, timings)
    assert raw == pytest.approx(1.0)
    assert norm == pytest.approx(0.3 / 2 + 0.2 / 2 + 0.1 / 1.5 + 0.4 / 1)
