"""Configuration-driven command line entry point, a thin layer over the suite.

Subcommands build vessels, dump fields, and run verification checks:

    soliton | spectral    field dump (CSV columns x,t,tau,beta,q)
    evolve                coefficient trajectory on a symmetric lattice
    transfer              transfer-function checks for one vessel
    scatter               reconstruction-kernel identity and potential sign
    verify                KdV residual of a vessel's q field
    suite                 the full named-check battery

Every command reads its JSON configuration through one loader, which
rejects unknown keys with the offending field path (top-level keys per
command) and applies ``output.path``.  ``transfer``, ``scatter`` and
``verify`` run a check body of :mod:`kdvessel.suite` on the configured
vessel; they and ``suite`` write text lines to stdout and the JSON report
to ``--out``.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error (malformed numbers and out-of-range inputs included), 3 numerical
failure (singular Gram operator, pole hit, ...).

CSV output uses '.' decimals, LF line endings and 17 significant digits,
so identical config reproduces bit-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import evolution, soliton, spectral, suite, verify
from .exceptions import ConfigError, InvalidSpecError, VesselError


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


def _number(value, path, kind=float, allow_inf=False):
    """A numeric flag or config field as a float, or for ``kind=int`` as an
    int (integral floats such as 48.0 included); ConfigError naming ``path``
    for a bool, a non-number, NaN, +-inf (unless ``allow_inf``) or a
    non-integral value where an int is due."""
    try:
        if isinstance(value, bool):
            raise TypeError("a bool is not a number")
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    if math.isnan(number) or (math.isinf(number) and not allow_inf):
        raise ConfigError(f"{path}: expected a finite number{' or inf' if allow_inf else ''}, "
                          f"got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(number)


def _positive_list(obj, path):
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    vals = []
    for i, v in enumerate(obj):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ConfigError(f"{path}[{i}]: expected a finite number")
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
    """Construct the configured vessel; ConfigError on bad fields and on
    specs the builder refuses, while a numerical failure of the build's
    self-check (an overflowing X) propagates as it is."""
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
    except InvalidSpecError as exc:
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


def _load_config(args):
    """The command's config ({} without --config); ``output.path`` fills --out."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r} ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    _require_keys(cfg, {*_COMMANDS[args.command][1], "output"}, (), "config")
    out_cfg = cfg.get("output", {})
    _require_keys(out_cfg, {"path"}, (), "output")
    if args.out is None and "path" in out_cfg:
        args.out = str(out_cfg["path"])
    return cfg


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(path, header, columns):
    """CSV of equal-length 1-D array columns at 17 significant digits.

    Each column goes through ``tolist()`` first: formatting Python floats
    is faster than formatting numpy scalars, with the same text.
    """
    rows = zip(*(c.tolist() for c in columns))
    _write_text(path, "\n".join([header, *(",".join(f"{v:.17g}" for v in row)
                                           for row in rows)]) + "\n")


def _report(args, level, checks, runtime_ms, results):
    """Header built from the final results; text to stdout, JSON to --out."""
    header = suite.report_header(level, args.seed, checks, runtime_ms, results)
    print("\n".join(suite.format_report_lines(header, results)))
    if args.out:
        _write_text(args.out, json.dumps(suite.report_as_dict(header, results),
                                         indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# field dumps
# ---------------------------------------------------------------------------

def _cmd_field_dump(args, cfg):
    vcfg = cfg.get("vessel", {})
    if not isinstance(vcfg, dict):
        raise ConfigError("vessel: expected an object")
    vcfg = dict(vcfg)
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
    vessel, _ = build_vessel_from_config(vcfg)
    grid = grid_from_config(gcfg)
    fields = suite.grid_fields(vessel, grid)  # q is the exact 2 beta'
    X, T = np.meshgrid(grid.xs, grid.ts, indexing="ij")
    _write_csv(args.out, "x,t,tau,beta,q",
               [a.ravel() for a in (X, T, fields.tau, fields.beta, fields.q)])
    return 0


def _cmd_evolve(args, cfg):
    ecfg = cfg.get("evolution", {})
    _require_keys(ecfg, {"k0", "M", "p0", "t_end", "steps", "conservation_tol"},
                  (), "evolution")
    k0 = _number(ecfg.get("k0", 1.0), "evolution.k0")
    M = _number(ecfg.get("M", 2), "evolution.M", int)
    t_end = _number(ecfg.get("t_end", 0.5), "evolution.t_end")
    steps = _number(ecfg.get("steps", 500), "evolution.steps", int)
    tol = ecfg.get("conservation_tol", 1e-9)
    tol = np.inf if tol is None else _number(tol, "evolution.conservation_tol", allow_inf=True)
    try:  # the lattice, p0 and time grid are validated where they are used
        lat = evolution.make_lattice(k0, M)
        p0 = (_positive_list(ecfg["p0"], "evolution.p0") if "p0" in ecfg
              else np.ones(lat.size))
        traj = evolution.integrate_b(lat, p0, np.linspace(0.0, t_end, steps + 1),
                                     conservation_tol=tol)
    except InvalidSpecError as exc:
        raise ConfigError(f"evolution: {exc}") from exc
    _write_csv(args.out, "t," + ",".join(f"p[{m}]" for m in lat.indices) + ",conservation",
               [traj.times, *traj.p.T, traj.conservation])
    return 0


# ---------------------------------------------------------------------------
# check commands
# ---------------------------------------------------------------------------

def _scatter_body(args, cfg, vessel):
    scfg = cfg.get("scatter", {})
    _require_keys(scfg, {"x0", "x", "y", "nodes"}, (), "scatter")
    kwargs = {key: _number(v, f"scatter.{key}", int if key == "nodes" else float)
              for key, v in scfg.items()}
    try:
        return suite.scatter_checks(vessel, **kwargs)
    except InvalidSpecError as exc:  # x <= y or a node count Simpson cannot use
        raise ConfigError(f"scatter: {exc}") from exc


def _verify_body(args, cfg, vessel):
    grid = grid_from_config(cfg.get("grid", {"x_min": -6.0, "x_max": 6.0, "nx": 481,
                                             "t_min": -0.6, "t_max": 0.6, "nt": 49}))
    return suite.verify_checks(vessel, grid, _number(args.tolerance, "--tolerance"))


# default vessel and suite body of each check command
_CHECK_COMMANDS = {
    "transfer": ({"type": "soliton", "k": [1.2], "b_abs": [1.5491933384829668]},
                 lambda args, cfg, vessel: suite.transfer_checks(
                     vessel, np.random.default_rng(args.seed), 100)),
    "scatter": ({"type": "soliton", "k": [1.0], "b_abs": [1.4142135623730951]},
                _scatter_body),
    "verify": ({"type": "soliton", "k": [0.8, 1.3],
                "b_abs": [1.2649110640673518, 1.61245154965971]}, _verify_body),
}


def _cmd_check(args, cfg):
    """transfer, scatter or verify: build the vessel, run its suite body, report."""
    default_vessel, body = _CHECK_COMMANDS[args.command]
    vessel, _ = build_vessel_from_config(cfg.get("vessel", default_vessel))
    t0 = time.perf_counter()
    results = body(args, cfg, vessel)
    return _report(args, "custom", [args.command], (time.perf_counter() - t0) * 1e3, results)


def _cmd_suite(args, cfg):
    checks = None
    overrides = {}
    if "checks" in cfg:
        entries = cfg["checks"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("checks: expected a non-empty list")
        checks = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                checks.append(entry)
            else:
                _require_keys(entry, {"name", "tolerance"}, ("name",), f"checks[{i}]")
                name = entry["name"]
                if not isinstance(name, str):
                    raise ConfigError(f"checks[{i}].name: expected a check name, got {name!r}")
                checks.append(name)
                if "tolerance" in entry:
                    if name not in suite.ERROR_BOUND_FAMILIES:
                        raise ConfigError(f"checks[{i}]: {name}: only the error-bound "
                                          f"families {suite.ERROR_BOUND_FAMILIES} take a tolerance")
                    overrides[name] = _number(entry["tolerance"], f"checks[{i}].tolerance")
    try:
        header, results = suite.run_suite(level=args.level, seed=args.seed,
                                          checks=checks)
    except KeyError as exc:
        raise ConfigError(f"checks: {exc}") from exc
    results = [_override_tolerance(r, overrides) for r in results]
    return _report(args, header["level"], header["checks"], header["runtime_ms"], results)


def _override_tolerance(result, overrides):
    """The result re-judged at its family's override tolerance, if it has one."""
    tol = overrides.get(result.check.split(".", 1)[0])
    return result if tol is None else replace(result, tolerance=tol, passed=result.value < tol)


# the command of each subcommand and the top-level config keys it reads
# (every command also reads "output")
_COMMANDS = {
    "soliton": (_cmd_field_dump, ("vessel", "grid")),
    "spectral": (_cmd_field_dump, ("vessel", "grid")),
    "evolve": (_cmd_evolve, ("evolution",)),
    "transfer": (_cmd_check, ("vessel",)),
    "scatter": (_cmd_check, ("vessel", "scatter")),
    "verify": (_cmd_check, ("vessel", "grid")),
    "suite": (_cmd_suite, ("checks",)),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argparse tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kdvessel",
        description="Build KdV vessel realizations and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path ('-' for stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=20240601)

    for name in ("soliton", "spectral"):
        p = sub.add_parser(name, help=f"dump {name} vessel fields as CSV")
        common(p, seed=False)
        p.add_argument("--k", help="comma-separated wavenumbers")
        p.add_argument("--b-abs", dest="b_abs", help="comma-separated |b| amplitudes")

    p = sub.add_parser("evolve", help="integrate the coefficient system")
    common(p, seed=False)

    p = sub.add_parser("transfer", help="transfer-function checks")
    common(p)

    p = sub.add_parser("scatter", help="reconstruction-kernel checks")
    common(p)

    p = sub.add_parser("verify", help="KdV residual of a vessel field")
    common(p)
    p.add_argument("--tolerance", default=1e-3)

    p = sub.add_parser("suite", help="run the named verification checks")
    common(p)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args, _load_config(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VesselError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
