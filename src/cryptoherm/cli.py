"""Batch command-line front end.

Reads a JSON run configuration, dispatches to the library, and writes
machine-readable artifacts plus a short human summary.  Exit codes: 0 on
success, 1 on numerical failure (error name on stderr), 2 on configuration
error.  Output is byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evolution, models, quasistationary
from .errors import (
    ConfigError,
    NumericalError,
    ParseError,
    SingularMatrix,
    ValidationError,
)
from .linalg import biorthogonal_decompose, norm_fro
from .metric import DysonFamily, hermitize, metric_from_spectral
from .quasistationary import SAMPLERS, qs_certify, qs_scan, stationarity_residual

COMMANDS = (
    "decompose",
    "metric",
    "hermitize",
    "evolve",
    "naive-evolve",
    "crosscheck",
    "qs-check",
    "qs-scan",
    "demo",
)

_TOP_KEYS = {
    "command", "model", "dyson", "grid", "step", "phi0", "psi0", "kappa",
    "t", "tolerances", "seed", "trials", "n", "sampler", "output",
}
_TOLERANCE_KEYS = {"tol_qs", "decompose_tol"}


@dataclass
class RunConfig:
    command: str
    matrix: np.ndarray | None = None
    taylor: evolution.TaylorHamiltonian | None = None
    scenario: str | None = None
    dyson: DysonFamily | None = None
    grid: np.ndarray | None = None
    step: float | None = None
    phi0: np.ndarray | None = None
    psi0: np.ndarray | None = None
    kappa: np.ndarray | None = None
    t_eval: float = 0.0
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    trials: int | None = None
    dim: int | None = None
    sampler: str | None = None
    output_path: str | None = None
    output_format: str = "csv"


# ---------------------------------------------------------------------------
# parsing helpers: every helper appends human-readable messages to `errors`
# instead of raising, so a single ValidationError can list all violations.
# ---------------------------------------------------------------------------

def _finite_number(obj) -> bool:
    return isinstance(obj, (int, float)) and np.isfinite(obj)


def _complex_entry(obj, errors, where):
    if _finite_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_finite_number(x) for x in obj):
        return complex(obj[0], obj[1])
    errors.append(f"{where} must be a finite number or a [re, im] pair")
    return 0j


def _vector(obj, errors, where):
    if not isinstance(obj, list) or not obj:
        errors.append(f"{where} must be a non-empty list")
        return None
    return np.array([_complex_entry(x, errors, f"{where}[{i}]") for i, x in enumerate(obj)])


def _matrix(obj, errors, where):
    if not isinstance(obj, list) or not obj:
        errors.append(f"{where} must be a non-empty list of rows")
        return None
    n = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            errors.append(f"{where} row {i} must have {n} entries (square matrix)")
            return None
        rows.append([_complex_entry(x, errors, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows)


def _reject_unknown(obj, allowed, errors, where):
    for key in obj:
        if key not in allowed:
            errors.append(f"unknown key {key!r} in {where}")


def _parse_model(obj, errors):
    if not isinstance(obj, dict):
        errors.append("model must be an object")
        return None, None, None
    _reject_unknown(obj, {"matrix", "taylor", "scenario"}, errors, "model")
    given = [k for k in ("matrix", "taylor", "scenario") if k in obj]
    if len(given) != 1:
        errors.append("model must contain exactly one of: matrix, taylor, scenario")
        return None, None, None
    matrix = taylor = scenario = None
    if "matrix" in obj:
        matrix = _matrix(obj["matrix"], errors, "model.matrix")
    if "taylor" in obj:
        if not isinstance(obj["taylor"], list) or not obj["taylor"]:
            errors.append("model.taylor must be a non-empty list of matrices")
        else:
            coeffs = [
                _matrix(c, errors, f"model.taylor[{m}]") for m, c in enumerate(obj["taylor"])
            ]
            if all(c is not None for c in coeffs):
                dims = {c.shape for c in coeffs}
                if len(dims) != 1:
                    errors.append("model.taylor coefficients must share one dimension")
                else:
                    taylor = evolution.TaylorHamiltonian(tuple(coeffs))
    if "scenario" in obj:
        scenario = obj["scenario"]
        if scenario != "falsification":
            errors.append(f"unknown scenario {scenario!r} (available: falsification)")
    return matrix, taylor, scenario


def _parse_dyson(obj, errors):
    if not isinstance(obj, dict):
        errors.append("dyson must be an object")
        return None
    kind = obj.get("kind")
    if kind == "constant":
        _reject_unknown(obj, {"kind", "matrix"}, errors, "dyson")
        if "matrix" not in obj:
            errors.append("dyson of kind constant needs a matrix")
            return None
        m = _matrix(obj["matrix"], errors, "dyson.matrix")
        if m is None or errors:
            return None
        try:
            return DysonFamily.constant(m)
        except SingularMatrix:
            errors.append("dyson.matrix must be invertible")
            return None
    if kind == "exp_poly":
        _reject_unknown(obj, {"kind", "generator", "theta"}, errors, "dyson")
        if "generator" not in obj or "theta" not in obj:
            errors.append("dyson of kind exp_poly needs generator and theta")
            return None
        g = _matrix(obj["generator"], errors, "dyson.generator")
        theta = obj["theta"]
        if not isinstance(theta, list) or not all(_finite_number(x) for x in theta):
            errors.append("dyson.theta must be a list of finite real numbers")
            return None
        if g is None or errors:
            return None
        return DysonFamily.exp_poly(g, theta)
    errors.append("dyson.kind must be 'constant' or 'exp_poly'")
    return None


def _parse_grid(obj, errors):
    if not isinstance(obj, dict):
        errors.append("grid must be an object")
        return None
    _reject_unknown(obj, {"t_start", "t_end", "n_samples"}, errors, "grid")
    if (
        not _finite_number(obj.get("t_start"))
        or not _finite_number(obj.get("t_end"))
        or not isinstance(obj.get("n_samples"), int)
    ):
        errors.append("grid needs finite t_start, t_end and integer n_samples")
        return None
    t_start = float(obj["t_start"])
    t_end = float(obj["t_end"])
    n_samples = int(obj["n_samples"])
    if n_samples < 2:
        errors.append("grid.n_samples must be >= 2")
        return None
    if not t_start < t_end:
        errors.append("grid needs t_start < t_end")
        return None
    return np.linspace(t_start, t_end, n_samples)


def parse_config(document: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ``ParseError`` for malformed JSON and ``ValidationError`` (listing
    every violation) for schema problems.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseError("configuration must be a JSON object")

    errors: list[str] = []
    _reject_unknown(data, _TOP_KEYS, errors, "configuration")

    command = data.get("command")
    if command not in COMMANDS:
        errors.append(f"command must be one of {', '.join(COMMANDS)}; got {command!r}")
        raise ValidationError("; ".join(errors))

    cfg = RunConfig(command=command)

    if "model" in data:
        cfg.matrix, cfg.taylor, cfg.scenario = _parse_model(data["model"], errors)
    if "dyson" in data:
        dyson_errors: list[str] = []
        cfg.dyson = _parse_dyson(data["dyson"], dyson_errors)
        errors.extend(dyson_errors)
    if "grid" in data:
        cfg.grid = _parse_grid(data["grid"], errors)
    if "step" in data:
        if not _finite_number(data["step"]) or not data["step"] > 0:
            errors.append("step must be a positive finite number")
        else:
            cfg.step = float(data["step"])
    if "phi0" in data:
        cfg.phi0 = _vector(data["phi0"], errors, "phi0")
    if "psi0" in data:
        cfg.psi0 = _vector(data["psi0"], errors, "psi0")
    if "kappa" in data:
        if not isinstance(data["kappa"], list) or not all(
            _finite_number(x) for x in data["kappa"]
        ):
            errors.append("kappa must be a list of finite real numbers")
        else:
            cfg.kappa = np.array(data["kappa"], dtype=float)
            if (cfg.kappa <= 0).any():
                errors.append("kappa entries must be strictly positive")
    if "t" in data:
        if not _finite_number(data["t"]):
            errors.append("t must be a finite number")
        else:
            cfg.t_eval = float(data["t"])
    if "tolerances" in data:
        if not isinstance(data["tolerances"], dict):
            errors.append("tolerances must be an object")
        else:
            _reject_unknown(data["tolerances"], _TOLERANCE_KEYS, errors, "tolerances")
            for key, value in data["tolerances"].items():
                if key in _TOLERANCE_KEYS and (
                    not isinstance(value, (int, float)) or not value > 0
                ):
                    errors.append(f"tolerances.{key} must be a positive number")
            cfg.tolerances = dict(data["tolerances"])
    if "seed" in data:
        if not isinstance(data["seed"], int):
            errors.append("seed must be an integer")
        else:
            cfg.seed = data["seed"]
    if "trials" in data:
        if not isinstance(data["trials"], int) or data["trials"] < 1:
            errors.append("trials must be a positive integer")
        else:
            cfg.trials = data["trials"]
    if "n" in data:
        if not isinstance(data["n"], int) or data["n"] < 2:
            errors.append("n must be an integer >= 2")
        else:
            cfg.dim = data["n"]
    if "sampler" in data:
        if data["sampler"] not in SAMPLERS:
            errors.append(f"sampler must be one of {', '.join(sorted(SAMPLERS))}")
        else:
            cfg.sampler = data["sampler"]
    if "output" in data:
        if not isinstance(data["output"], dict):
            errors.append("output must be an object")
        else:
            _reject_unknown(data["output"], {"path", "format"}, errors, "output")
            if "path" in data["output"]:
                cfg.output_path = str(data["output"]["path"])
            if "format" in data["output"]:
                if data["output"]["format"] not in ("csv", "json"):
                    errors.append("output.format must be 'csv' or 'json'")
                else:
                    cfg.output_format = data["output"]["format"]

    _validate_command(cfg, errors)
    if errors:
        raise ValidationError("; ".join(errors))
    return cfg


def _validate_command(cfg: RunConfig, errors: list[str]):
    need = lambda cond, msg: None if cond else errors.append(msg)
    cmd = cfg.command
    if cmd == "decompose":
        need(cfg.matrix is not None, "decompose needs model.matrix")
    elif cmd == "metric":
        need(cfg.matrix is not None, "metric needs model.matrix")
        need(cfg.kappa is not None, "metric needs kappa")
        if cfg.matrix is not None and cfg.kappa is not None:
            need(
                cfg.kappa.shape[0] == cfg.matrix.shape[0],
                f"kappa needs {cfg.matrix.shape[0]} entries, got {cfg.kappa.shape[0]}",
            )
    elif cmd == "hermitize":
        need(cfg.matrix is not None, "hermitize needs model.matrix")
        need(cfg.dyson is not None, "hermitize needs dyson")
        if cfg.matrix is not None and cfg.dyson is not None:
            need(
                cfg.dyson.dim == cfg.matrix.shape[0],
                "dyson dimension does not match model.matrix",
            )
    elif cmd in ("evolve", "naive-evolve", "crosscheck"):
        if cfg.scenario is None:
            need(cfg.taylor is not None, f"{cmd} needs model.taylor or model.scenario")
            need(cfg.dyson is not None, f"{cmd} needs dyson")
            need(cfg.grid is not None, f"{cmd} needs grid")
            need(cfg.phi0 is not None, f"{cmd} needs phi0")
            if cfg.taylor is not None:
                dim = cfg.taylor.dim
                if cfg.dyson is not None:
                    need(cfg.dyson.dim == dim, "dyson dimension does not match model.taylor")
                if cfg.phi0 is not None:
                    need(cfg.phi0.shape[0] == dim, f"phi0 needs {dim} entries")
                if cfg.psi0 is not None:
                    need(cfg.psi0.shape[0] == dim, f"psi0 needs {dim} entries")
        need(cfg.step is not None, f"{cmd} needs a positive step")
        if cmd == "crosscheck":
            need(cfg.psi0 is None, "crosscheck derives psi0; do not supply it")
    elif cmd == "qs-check":
        need(cfg.taylor is not None, "qs-check needs model.taylor")
        if cfg.taylor is not None:
            need(cfg.taylor.degree >= 1, "qs-check needs at least two taylor coefficients")
    elif cmd == "qs-scan":
        need(cfg.sampler is not None, "qs-scan needs sampler")
        need(cfg.trials is not None, "qs-scan needs trials")
        need(cfg.dim is not None, "qs-scan needs n")
        if cfg.dim is not None:
            try:  # every sampler plants spectra with a minimum gap
                quasistationary._planted_top(cfg.dim)
            except ValueError as exc:
                errors.append(str(exc))
    if cmd in ("evolve", "naive-evolve", "crosscheck", "demo") and cfg.step is not None:
        # the integrator's own plan: step divides the grid, within MAX_SUBSTEPS
        grid = _scenario_inputs(cfg)[3]
        if grid is not None:
            try:
                evolution._substep_plan(grid, cfg.step)
            except ValueError as exc:
                errors.append(str(exc))


# ---------------------------------------------------------------------------
# serialization (full precision; reruns are byte identical)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray) -> list:
    return [[_pair(x) for x in row] for row in np.asarray(m)]


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def _write_trajectory_csv(path: Path, traj: evolution.StateTrajectory) -> Path:
    n = traj.phi.shape[1]
    header = ["t"]
    header += [f"phi{i}_{p}" for i in range(n) for p in ("re", "im")]
    header += [f"psi{i}_{p}" for i in range(n) for p in ("re", "im")]
    header += ["overlap_re", "overlap_im", "drift"]
    drift = np.maximum.accumulate(np.abs(traj.overlap - traj.overlap[0]))
    lines = [",".join(header)]
    for k, t in enumerate(traj.times):
        row = [_fmt(t)]
        for v in traj.phi[k]:
            row += [_fmt(v.real), _fmt(v.imag)]
        for v in traj.psi[k]:
            row += [_fmt(v.real), _fmt(v.imag)]
        row += [_fmt(traj.overlap[k].real), _fmt(traj.overlap[k].imag), _fmt(drift[k])]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _trajectory_json(traj: evolution.StateTrajectory) -> dict:
    drift = np.maximum.accumulate(np.abs(traj.overlap - traj.overlap[0]))
    return {
        "times": [float(t) for t in traj.times],
        "phi": [[_pair(v) for v in row] for row in traj.phi],
        "psi": [[_pair(v) for v in row] for row in traj.psi],
        "overlap": [_pair(v) for v in traj.overlap],
        "drift": [float(d) for d in drift],
    }


def _write_trajectory(path_base: Path, traj, fmt: str) -> Path:
    if fmt == "json":
        return _write_json(path_base.with_suffix(".json"), _trajectory_json(traj))
    return _write_trajectory_csv(path_base.with_suffix(".csv"), traj)


def _trajectory_summary(traj: evolution.StateTrajectory) -> dict:
    return {
        "samples": int(traj.times.size),
        "max_norm_drift": float(traj.max_norm_drift),
        "max_metric_drift": float(traj.max_metric_drift),
        "overlap_initial": _pair(traj.overlap[0]),
        "overlap_final": _pair(traj.overlap[-1]),
        "metric_norm_initial": float(traj.metric_norm[0]),
        "metric_norm_final": float(traj.metric_norm[-1]),
    }


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _scenario_inputs(cfg: RunConfig):
    if cfg.scenario is not None or cfg.command == "demo":
        ham, fam, phi0, grid = models.scenario_falsification()
        grid = cfg.grid if cfg.grid is not None else grid
        return ham, fam, phi0, grid
    return cfg.taylor, cfg.dyson, cfg.phi0, cfg.grid


def _run_decompose(cfg, out, quiet):
    tol = cfg.tolerances.get("decompose_tol", 1e-10)
    system = biorthogonal_decompose(cfg.matrix, tol)
    payload = {
        "eigenvalues": [_pair(e) for e in system.eigenvalues],
        "right_vectors": _matrix_json(system.right_vectors),
        "left_vectors": _matrix_json(system.left_vectors),
        "condition_estimate": float(system.condition_estimate),
        "biorthonormality_residual": float(system.biorthonormality_residual()),
        "completeness_residual": float(system.completeness_residual()),
    }
    path = _write_json(out / "decomposition.json", payload)
    if not quiet:
        print(f"wrote {path} ({system.dim} eigenvalues)")
    return [path]


def _run_metric(cfg, out, quiet):
    system = biorthogonal_decompose(cfg.matrix, cfg.tolerances.get("decompose_tol", 1e-10))
    theta = metric_from_spectral(system, cfg.kappa)
    residual = stationarity_residual(cfg.matrix, theta.matrix)
    payload = {
        "theta": _matrix_json(theta.matrix),
        "min_eig": theta.min_eig,
        "max_eig": theta.max_eig,
        "quasi_hermiticity_residual": residual,
    }
    path = _write_json(out / "metric.json", payload)
    if not quiet:
        print(f"wrote {path} (residual {residual:.3e})")
    return [path]


def _run_hermitize(cfg, out, quiet):
    omega = cfg.dyson.omega(cfg.t_eval)
    h = hermitize(cfg.matrix, omega)
    residual = norm_fro(h - h.conj().T) / max(norm_fro(h), np.finfo(float).tiny)
    eigs = np.sort_complex(np.linalg.eigvals(h))
    payload = {
        "h": _matrix_json(h),
        "hermiticity_residual": float(residual),
        "eigenvalues": [_pair(e) for e in eigs],
        "t": cfg.t_eval,
    }
    path = _write_json(out / "hermitize.json", payload)
    if not quiet:
        print(f"wrote {path} (Hermiticity residual {residual:.3e})")
    return [path]


def _run_evolve(cfg, out, quiet, naive=False):
    ham, fam, phi0, grid = _scenario_inputs(cfg)
    step = cfg.step if cfg.step is not None else 1e-3
    propagate = evolution.propagate_naive if naive else evolution.propagate_pair
    traj = propagate(ham, fam, phi0, cfg.psi0, grid, step)
    base = "naive_trajectory" if naive else "trajectory"
    paths = [
        _write_trajectory(out / base, traj, cfg.output_format),
        _write_json(out / f"{base}_summary.json", _trajectory_summary(traj)),
    ]
    if not quiet:
        print(
            f"wrote {paths[0]} (overlap drift {traj.max_norm_drift:.3e}, "
            f"metric-norm drift {traj.max_metric_drift:.3e})"
        )
    return paths


def _run_crosscheck(cfg, out, quiet):
    ham, fam, phi0, grid = _scenario_inputs(cfg)
    step = cfg.step if cfg.step is not None else 1e-3
    report = evolution.crosscheck_pictures(ham, fam, phi0, grid, step)
    payload = {
        "dev_pair_lower": report.dev_pair_lower,
        "dev_pair_operators": report.dev_pair_operators,
        "dev_lower_operators": report.dev_lower_operators,
        "max_pairwise_deviation": report.max_pairwise_deviation(),
        "samples": int(report.times.size),
    }
    path = _write_json(out / "crosscheck.json", payload)
    if not quiet:
        print(f"wrote {path} (max deviation {report.max_pairwise_deviation():.3e})")
    return [path]


def _run_qs_check(cfg, out, quiet):
    tol = cfg.tolerances.get("tol_qs", quasistationary.DEFAULT_TOL_QS)
    cert = qs_certify(cfg.taylor, tol)
    payload = {
        "status": cert.status,
        "kappa": None if cert.kappa is None else [float(k) for k in cert.kappa],
        "first_violation_order": cert.first_violation_order,
        "residuals": [float(r) for r in cert.residuals],
        "detail": cert.detail,
        "theta": None if cert.metric is None else _matrix_json(cert.metric.matrix),
    }
    path = _write_json(out / "certificate.json", payload)
    if not quiet:
        print(f"wrote {path} (status {cert.status})")
    return [path]


def _run_qs_scan(cfg, out, quiet, seed_override=None):
    tol = cfg.tolerances.get("tol_qs", quasistationary.DEFAULT_TOL_QS)
    seed = cfg.seed if seed_override is None else seed_override
    stats = qs_scan(cfg.sampler, cfg.trials, cfg.dim, seed, tol)
    payload = dict(stats.as_flat_dict())
    payload["sampler"] = cfg.sampler
    path = _write_json(out / "qs_scan.json", payload)
    if not quiet:
        print(
            f"wrote {path} (compatible {stats.compatible}, "
            f"incompatible {stats.incompatible}, exceptional {stats.exceptional})"
        )
    return [path]


def _run_demo(cfg, out, quiet):
    ham, fam, phi0, grid = models.scenario_falsification()
    step = cfg.step if cfg.step is not None else 1e-3
    covariant = evolution.propagate_pair(ham, fam, phi0, None, grid, step)
    naive = evolution.propagate_naive(ham, fam, phi0, None, grid, step)
    covariant_drift = max(covariant.max_norm_drift, covariant.max_metric_drift)
    ratio = naive.max_metric_drift / max(covariant_drift, np.finfo(float).tiny)
    paths = [
        _write_trajectory(out / "covariant", covariant, cfg.output_format),
        _write_trajectory(out / "naive", naive, cfg.output_format),
        _write_json(
            out / "demo_summary.json",
            {
                "covariant_norm_drift": covariant.max_norm_drift,
                "covariant_metric_drift": covariant.max_metric_drift,
                "naive_norm_drift": naive.max_norm_drift,
                "naive_metric_drift": naive.max_metric_drift,
                "naive_to_covariant_ratio": float(ratio),
            },
        ),
    ]
    if not quiet:
        print(
            f"wrote {paths[0]} and {paths[1]}: covariant metric-norm drift "
            f"{covariant.max_metric_drift:.3e} vs naive {naive.max_metric_drift:.3e} "
            f"(ratio {ratio:.1e})"
        )
    return paths


def run(cfg: RunConfig, out_dir, seed_override=None, quiet=False) -> list[Path]:
    """Execute a validated configuration; returns the written artifact paths."""
    out = Path(cfg.output_path) if cfg.output_path else Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.command == "decompose":
        return _run_decompose(cfg, out, quiet)
    if cfg.command == "metric":
        return _run_metric(cfg, out, quiet)
    if cfg.command == "hermitize":
        return _run_hermitize(cfg, out, quiet)
    if cfg.command == "evolve":
        return _run_evolve(cfg, out, quiet, naive=False)
    if cfg.command == "naive-evolve":
        return _run_evolve(cfg, out, quiet, naive=True)
    if cfg.command == "crosscheck":
        return _run_crosscheck(cfg, out, quiet)
    if cfg.command == "qs-check":
        return _run_qs_check(cfg, out, quiet)
    if cfg.command == "qs-scan":
        return _run_qs_scan(cfg, out, quiet, seed_override)
    if cfg.command == "demo":
        return _run_demo(cfg, out, quiet)
    raise ValidationError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cryptoherm",
        description="Finite-dimensional quantum dynamics with time-dependent metrics.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"ParseError: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        run(cfg, args.out, seed_override=args.seed, quiet=args.quiet)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
