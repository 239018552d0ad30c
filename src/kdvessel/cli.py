"""Configuration-driven command line entry point.

Subcommands build vessels, dump fields, and run verification checks:

    soliton | spectral    field dump (CSV columns x,t,tau,beta,q)
    evolve                coefficient trajectory on a symmetric lattice
    transfer              transfer-function checks for one vessel
    scatter               reconstruction-kernel identity and potential sign
    verify                KdV residual of a vessel's q field
    suite                 the full named-check battery

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error (malformed numbers included), 3 numerical failure (singular Gram
operator, pole hit, ...).

Configuration is a single JSON document; unknown keys are rejected with
the offending field path.  CSV output uses '.' decimals, LF line endings
and 17 significant digits, so identical config and seed reproduce
bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import core, evolution, soliton, spectral, suite, transfer, verify
from .exceptions import ConfigError, VesselError

_FIELD_HEADER = "x,t,tau,beta,q"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(value, path, kind=float):
    """``kind(value)`` for a numeric flag or config field; ConfigError naming ``path``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc


def _positive_list(obj, path):
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    vals = []
    for i, v in enumerate(obj):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"{path}[{i}]: expected a number")
        vals.append(float(v))
    return vals


def _density_from_config(cfg, path):
    _require_keys(cfg, {"gaussian", "constant"}, (), path)
    if len(cfg) != 1:
        raise ConfigError(f"{path}: give exactly one density family")
    if "gaussian" in cfg:
        sub = cfg["gaussian"]
        _require_keys(sub, {"amplitude", "width"}, ("amplitude",), f"{path}.gaussian")
        amp = _number(sub["amplitude"], f"{path}.gaussian.amplitude")
        width = _number(sub.get("width", 1.0), f"{path}.gaussian.width")
        if width <= 0:
            raise ConfigError(f"{path}.gaussian.width: must be positive")
        return lambda s: amp * np.exp(-((np.asarray(s, float) / width) ** 2))
    sub = cfg["constant"]
    _require_keys(sub, {"value"}, ("value",), f"{path}.constant")
    val = _number(sub["value"], f"{path}.constant.value")
    return lambda s: np.full_like(np.asarray(s, dtype=float), val, dtype=complex)


def build_vessel_from_config(cfg, path="vessel"):
    """Construct the configured vessel; raises ConfigError on bad fields."""
    _require_keys(cfg, {"type", "k", "b_abs", "flavor", "period",
                        "s_max", "nodes", "density"}, ("type",), path)
    vtype = cfg["type"]
    try:
        if vtype == "soliton":
            _require_keys(cfg, {"type", "k", "b_abs"}, ("k", "b_abs"), path)
            k = _positive_list(cfg["k"], f"{path}.k")
            b = _positive_list(cfg["b_abs"], f"{path}.b_abs")
            spec = soliton.SolitonSpec(k=np.array(k), b=np.array(b, dtype=complex))
            return soliton.build_soliton(spec), spec
        if vtype == "discrete":
            _require_keys(cfg, {"type", "k", "b_abs", "flavor", "period"},
                          ("k", "b_abs"), path)
            k = _positive_list(cfg["k"], f"{path}.k")
            b = _positive_list(cfg["b_abs"], f"{path}.b_abs")
            flavor = cfg.get("flavor", "almost_periodic")
            period = cfg.get("period")
            spec = spectral.DiscreteSpectrum(
                k=np.array(k), b=np.array(b, dtype=complex),
                flavor=flavor,
                period=None if period is None else _number(period, f"{path}.period"),
            )
            return spectral.build_discrete_vessel(spec), spec
        if vtype == "quadrature":
            _require_keys(cfg, {"type", "s_max", "nodes", "density"},
                          ("s_max", "nodes", "density"), path)
            density = _density_from_config(cfg["density"], f"{path}.density")
            spec = spectral.gauss_legendre_spectrum(
                _number(cfg["s_max"], f"{path}.s_max"),
                _number(cfg["nodes"], f"{path}.nodes", int), density,
            )
            return spectral.build_quadrature_vessel(spec), spec
    except VesselError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.type: unknown vessel type {vtype!r}")


def grid_from_config(cfg, path="grid"):
    keys = ("x_min", "x_max", "nx", "t_min", "t_max", "nt")
    _require_keys(cfg, set(keys), keys, path)
    fields = {key: _number(cfg[key], f"{path}.{key}", int if key in ("nx", "nt") else float)
              for key in keys}
    try:
        return verify.Grid2D(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_config(args, default=None):
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return {} if default is None else default


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def _fields(vessel, grid):
    """beta, beta' and tau of a vessel on every grid point, indexed [ix, it].

    Solitons use the overflow-safe scaled evaluator (tau = inf past the
    float range); other vessels go through the batched evaluator.
    """
    X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
    if vessel.kind == "soliton":
        return soliton.fields_soliton(vessel.metadata["spec"], X, T)
    return core.evaluate_fields(vessel, X, T)


def _field_rows(vessel, grid):
    """CSV rows x,t,tau,beta,q with the exact q = 2 beta'."""
    fields = _fields(vessel, grid)
    tau_vals, beta_vals, q_vals = fields.tau, fields.beta, fields.q
    rows = [_FIELD_HEADER]
    for i, x in enumerate(grid.xs):
        for j, t in enumerate(grid.ts):
            rows.append(",".join(_fmt(v) for v in
                                 (x, t, tau_vals[i, j], beta_vals[i, j], q_vals[i, j])))
    return "\n".join(rows) + "\n"


def _cmd_field_dump(args):
    cfg = _load_config(args)
    vcfg = dict(cfg.get("vessel", {}))
    vessel_type = args.command
    if vessel_type == "spectral":
        vessel_type = "quadrature" if vcfg.get("type") == "quadrature" else "discrete"
    vcfg.setdefault("type", vessel_type)
    if args.k is not None:
        vcfg["k"] = [_number(v, "--k") for v in args.k.split(",")]
    if args.b_abs is not None:
        vcfg["b_abs"] = [_number(v, "--b-abs") for v in args.b_abs.split(",")]
    if vcfg["type"] != vessel_type:
        raise ConfigError(f"vessel.type: expected {vessel_type!r}")
    gcfg = cfg.get("grid", {
        "x_min": -5.0, "x_max": 5.0, "nx": 41, "t_min": -0.5, "t_max": 0.5, "nt": 9,
    })
    _apply_output_config(args, cfg)
    vessel, _ = build_vessel_from_config(vcfg)
    grid = grid_from_config(gcfg)
    _write_text(args.out, _field_rows(vessel, grid))
    return 0


def _cmd_evolve(args):
    cfg = _load_config(args)
    _apply_output_config(args, cfg)
    ecfg = cfg.get("evolution", {})
    _require_keys(ecfg, {"k0", "M", "p0", "t_end", "steps", "conservation_tol"},
                  (), "evolution")
    k0 = _number(ecfg.get("k0", 1.0), "evolution.k0")
    M = _number(ecfg.get("M", 2), "evolution.M", int)
    lat = evolution.make_lattice(k0, M)
    p0 = (_positive_list(ecfg["p0"], "evolution.p0") if "p0" in ecfg
          else np.ones(lat.size))
    t_end = _number(ecfg.get("t_end", 0.5), "evolution.t_end")
    steps = _number(ecfg.get("steps", 500), "evolution.steps", int)
    tol = ecfg.get("conservation_tol", 1e-9)
    tol = np.inf if tol is None else _number(tol, "evolution.conservation_tol")
    traj = evolution.integrate_b(lat, p0, np.linspace(0.0, t_end, steps + 1),
                                 conservation_tol=tol)
    header = "t," + ",".join(f"p[{m}]" for m in lat.indices) + ",conservation"
    rows = [header]
    for i, t in enumerate(traj.times):
        rows.append(",".join(_fmt(v) for v in
                             (t, *traj.p[i], traj.conservation[i])))
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# check-style commands
# ---------------------------------------------------------------------------

def _emit_report(args, header, results):
    lines = suite.format_report_lines(header, results)
    print("\n".join(lines))
    if args.out:
        fmt = getattr(args, "format", "json") or "json"
        if fmt == "json":
            _write_text(args.out, json.dumps(
                suite.report_as_dict(header, results), indent=2, sort_keys=True
            ) + "\n")
        else:
            _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _emit_command_report(args, t0, results):
    """Report of the transfer, scatter or verify command, timed from t0."""
    header = suite.report_header("custom", args.seed, [args.command],
                                 (time.perf_counter() - t0) * 1e3, results)
    return _emit_report(args, header, results)


def _cmd_transfer(args):
    cfg = _load_config(args)
    vcfg = cfg.get("vessel", {"type": "soliton", "k": [1.2], "b_abs": [1.5491933384829668]})
    vessel, _ = build_vessel_from_config(vcfg)
    t0 = time.perf_counter()
    results = suite.transfer_checks(vessel, np.random.default_rng(args.seed), 100)
    return _emit_command_report(args, t0, results)


def _cmd_scatter(args):
    cfg = _load_config(args)
    vcfg = cfg.get("vessel", {"type": "soliton", "k": [1.0], "b_abs": [1.4142135623730951]})
    vessel, _ = build_vessel_from_config(vcfg)
    scfg = cfg.get("scatter", {})
    _require_keys(scfg, {"x0", "x", "y", "nodes"}, (), "scatter")
    x0 = _number(scfg.get("x0", 0.0), "scatter.x0")
    x = _number(scfg.get("x", 1.5), "scatter.x")
    y = _number(scfg.get("y", 0.7), "scatter.y")
    nodes = _number(scfg.get("nodes", 201), "scatter.nodes", int)
    t0 = time.perf_counter()
    omega, kval = transfer.gl_kernels(vessel, x0, x, y)
    res = transfer.gl_residual(vessel, x0, x, y, quadrature_nodes=nodes)
    rep = transfer.q_from_K_diag(vessel, 0.5 * (x + y))
    results = [
        suite.CheckResult("scatter.gl_residual", res, 1e-8, res < 1e-8,
                          (time.perf_counter() - t0) * 1e3,
                          f"Omega={omega:.6e}, K={kval:.6e}, {nodes} Simpson nodes", "lt"),
        suite.CheckResult("scatter.sign_sigma", float(rep.sigma), 1.0, rep.sigma == 1,
                          (time.perf_counter() - t0) * 1e3, rep.describe(), "gt"),
    ]
    return _emit_command_report(args, t0, results)


def _cmd_verify(args):
    cfg = _load_config(args)
    vcfg = cfg.get("vessel", {"type": "soliton", "k": [0.8, 1.3],
                              "b_abs": [1.2649110640673518, 1.61245154965971]})
    vessel, _ = build_vessel_from_config(vcfg)
    gcfg = cfg.get("grid", {"x_min": -6.0, "x_max": 6.0, "nx": 481,
                            "t_min": -0.6, "t_max": 0.6, "nt": 49})
    grid = grid_from_config(gcfg)
    t0 = time.perf_counter()
    q = verify.SampledField(grid=grid, values=_fields(vessel, grid).q, label="q")
    res_h = verify.kdv_residual(q, accuracy=4).max_valid()
    results = [
        suite.CheckResult("verify.kdv_residual_max", res_h, float(args.tolerance),
                          res_h < float(args.tolerance),
                          (time.perf_counter() - t0) * 1e3,
                          f"accuracy-4 stencils, hx={grid.hx:.4g} ht={grid.ht:.4g}", "lt"),
    ]
    return _emit_command_report(args, t0, results)


def _cmd_suite(args):
    cfg = _load_config(args)
    checks = None
    overrides = {}
    if cfg.get("checks"):
        entries = cfg["checks"]
        if not isinstance(entries, list):
            raise ConfigError("checks: expected a list")
        checks = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                checks.append(entry)
            else:
                _require_keys(entry, {"name", "tolerance"}, ("name",), f"checks[{i}]")
                name = entry["name"]
                checks.append(name)
                if "tolerance" in entry:
                    if name not in suite.ERROR_BOUND_FAMILIES:
                        raise ConfigError(f"checks[{i}]: {name}: only the error-bound "
                                          f"families {suite.ERROR_BOUND_FAMILIES} take a tolerance")
                    overrides[name] = _number(entry["tolerance"], f"checks[{i}].tolerance")
    _apply_output_config(args, cfg)
    try:
        header, results = suite.run_suite(level=args.level, seed=args.seed,
                                          checks=checks)
    except KeyError as exc:
        raise ConfigError(f"checks: {exc}") from exc
    if overrides:
        results = [_override_tolerance(r, overrides) for r in results]
        header = suite.report_header(header["level"], header["seed"], header["checks"],
                                     header["runtime_ms"], results)
    return _emit_report(args, header, results)


def _override_tolerance(result, overrides):
    """The result re-judged at its family's override tolerance, if it has one."""
    tol = overrides.get(result.check.split(".", 1)[0])
    return result if tol is None else replace(result, tolerance=tol, passed=result.value < tol)


def _apply_output_config(args, cfg):
    out_cfg = cfg.get("output")
    if out_cfg is None:
        return
    _require_keys(out_cfg, {"path", "format"}, (), "output")
    if args.out is None and "path" in out_cfg:
        args.out = str(out_cfg["path"])
    if getattr(args, "format", None) is None and "format" in out_cfg:
        if out_cfg["format"] not in ("csv", "json"):
            raise ConfigError("output.format: must be 'csv' or 'json'")
        args.format = out_cfg["format"]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kdvessel",
        description="Build KdV vessel realizations and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=20240601)

    for name in ("soliton", "spectral"):
        p = sub.add_parser(name, help=f"dump {name} vessel fields as CSV")
        common(p)
        p.add_argument("--k", help="comma-separated wavenumbers")
        p.add_argument("--b-abs", dest="b_abs", help="comma-separated |b| amplitudes")

    p = sub.add_parser("evolve", help="integrate the coefficient system")
    common(p)

    p = sub.add_parser("transfer", help="transfer-function checks")
    common(p)

    p = sub.add_parser("scatter", help="reconstruction-kernel checks")
    common(p)

    p = sub.add_parser("verify", help="KdV residual of a vessel field")
    common(p)
    p.add_argument("--tolerance", type=float, default=1e-3)

    p = sub.add_parser("suite", help="run the named verification checks")
    common(p)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "soliton": _cmd_field_dump, "spectral": _cmd_field_dump, "evolve": _cmd_evolve,
        "transfer": _cmd_transfer, "scatter": _cmd_scatter, "verify": _cmd_verify,
        "suite": _cmd_suite,
    }
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VesselError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
