"""Configuration-driven command line entry point.

Subcommands build vessels, dump fields, and run verification checks:

    soliton | spectral    field dump (CSV columns x,t,tau,beta,q)
    evolve                coefficient trajectory on a symmetric lattice
    transfer              transfer-function checks for one vessel
    scatter               reconstruction-kernel identity and potential sign
    verify                KdV residual of a vessel's q field
    suite                 the full named-check battery

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error, 3 numerical failure (singular Gram operator, pole hit, ...).

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

import numpy as np

from . import core, evolution, soliton, spectral, suite, transfer, verify
from .exceptions import ConfigError, NumericalConsistencyError, VesselError

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
        amp = float(sub["amplitude"])
        width = float(sub.get("width", 1.0))
        if width <= 0:
            raise ConfigError(f"{path}.gaussian.width: must be positive")
        return lambda s: amp * np.exp(-((np.asarray(s, float) / width) ** 2))
    sub = cfg["constant"]
    _require_keys(sub, {"value"}, ("value",), f"{path}.constant")
    val = float(sub["value"])
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
                flavor=flavor, period=None if period is None else float(period),
            )
            return spectral.build_discrete_vessel(spec), spec
        if vtype == "quadrature":
            _require_keys(cfg, {"type", "s_max", "nodes", "density"},
                          ("s_max", "nodes", "density"), path)
            density = _density_from_config(cfg["density"], f"{path}.density")
            spec = spectral.gauss_legendre_spectrum(
                float(cfg["s_max"]), int(cfg["nodes"]), density
            )
            return spectral.build_quadrature_vessel(spec), spec
    except VesselError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.type: unknown vessel type {vtype!r}")


def grid_from_config(cfg, path="grid"):
    _require_keys(cfg, {"x_min", "x_max", "nx", "t_min", "t_max", "nt"},
                  ("x_min", "x_max", "nx", "t_min", "t_max", "nt"), path)
    try:
        return verify.Grid2D(
            float(cfg["x_min"]), float(cfg["x_max"]), int(cfg["nx"]),
            float(cfg["t_min"]), float(cfg["t_max"]), int(cfg["nt"]),
        )
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


def _cmd_field_dump(args, vessel_type):
    cfg = _load_config(args)
    vcfg = dict(cfg.get("vessel", {}))
    vcfg.setdefault("type", vessel_type)
    if args.k is not None:
        vcfg["k"] = [float(v) for v in args.k.split(",")]
    if args.b_abs is not None:
        vcfg["b_abs"] = [float(v) for v in args.b_abs.split(",")]
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
    k0 = float(ecfg.get("k0", 1.0))
    M = int(ecfg.get("M", 2))
    lat = evolution.make_lattice(k0, M)
    p0 = np.asarray(ecfg.get("p0", np.ones(lat.size)), dtype=float)
    t_end = float(ecfg.get("t_end", 0.5))
    steps = int(ecfg.get("steps", 500))
    tol = ecfg.get("conservation_tol", 1e-9)
    tol = np.inf if tol in ("inf", None) else float(tol)
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


def _cmd_transfer(args):
    cfg = _load_config(args)
    vcfg = cfg.get("vessel", {"type": "soliton", "k": [1.2], "b_abs": [1.5491933384829668]})
    vessel, _ = build_vessel_from_config(vcfg)
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    x, t = 0.3, 0.1
    state = core.evaluate(vessel, x, t)
    lams = suite._sample_lambdas(rng, vessel, 100)
    worst = max(transfer.symmetry_residual(vessel, lam, x, t, state=state) for lam in lams)
    r_h = transfer.ds_residual(vessel, 0.7 + 0.4j, x, t, h=1e-3)
    r_h2 = transfer.ds_residual(vessel, 0.7 + 0.4j, x, t, h=5e-4)
    try:
        order = verify.convergence_order(r_h, r_h2)
    except ValueError as exc:
        raise NumericalConsistencyError(
            f"transfer.ds_order: {exc} (r_h={r_h:.3e}, r_h/2={r_h2:.3e})"
        ) from exc
    results = [
        suite.CheckResult("transfer.symmetry", worst, 1e-10, worst < 1e-10,
                          (time.perf_counter() - t0) * 1e3,
                          f"seed={args.seed}, 100 lambdas", "lt"),
        suite.CheckResult("transfer.ds_order", order, 1.9, order > 1.9,
                          (time.perf_counter() - t0) * 1e3, "", "gt"),
    ]
    header = suite.report_header("custom", args.seed, ["transfer"],
                                 (time.perf_counter() - t0) * 1e3, results)
    return _emit_report(args, header, results)


def _cmd_scatter(args):
    cfg = _load_config(args)
    vcfg = cfg.get("vessel", {"type": "soliton", "k": [1.0], "b_abs": [1.4142135623730951]})
    vessel, _ = build_vessel_from_config(vcfg)
    scfg = cfg.get("scatter", {})
    _require_keys(scfg, {"x0", "x", "y", "nodes"}, (), "scatter")
    x0 = float(scfg.get("x0", 0.0))
    x = float(scfg.get("x", 1.5))
    y = float(scfg.get("y", 0.7))
    nodes = int(scfg.get("nodes", 201))
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
    header = suite.report_header("custom", args.seed, ["scatter"],
                                 (time.perf_counter() - t0) * 1e3, results)
    return _emit_report(args, header, results)


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
    header = suite.report_header("custom", args.seed, ["verify"],
                                 (time.perf_counter() - t0) * 1e3, results)
    return _emit_report(args, header, results)


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
                checks.append(entry["name"])
                if "tolerance" in entry:
                    overrides[entry["name"]] = float(entry["tolerance"])
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
    """The result re-judged at its family's override tolerance.

    Only positive upper bounds on a measured error take an override; an
    override reaching an order, band, runtime or exact-match gate is a
    ConfigError.
    """
    name = result.check.split(".", 1)[0]
    if name not in overrides:
        return result
    if (result.mode != "lt" or result.tolerance <= 0
            or result.check.endswith(".runtime_s")):
        raise ConfigError(f"checks: {name}: tolerance override would change the "
                          f"gate of {result.check}")
    tol = overrides[name]
    return suite.CheckResult(result.check, result.value, tol, result.value < tol,
                             result.runtime_ms, result.detail, result.mode)


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "soliton":
            return _cmd_field_dump(args, "soliton")
        if args.command == "spectral":
            vessel_type = "discrete"
            cfg = _load_config(args)
            if cfg.get("vessel", {}).get("type") == "quadrature":
                vessel_type = "quadrature"
            return _cmd_field_dump(args, vessel_type)
        if args.command == "evolve":
            return _cmd_evolve(args)
        if args.command == "transfer":
            return _cmd_transfer(args)
        if args.command == "scatter":
            return _cmd_scatter(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VesselError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main() -> None:
    raise SystemExit(main())
