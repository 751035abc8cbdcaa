"""Batch command-line front end.

Reads a JSON run configuration, dispatches to the library, and writes
machine-readable artifacts plus a short human summary.  Exit codes: 0 on
success, 1 on numerical failure or exhausted memory (error name on stderr),
2 on configuration error.  Output is byte-identical across reruns of the
same configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import evolution, models, quasistationary
from .errors import (
    ConfigError,
    NumericalError,
    ParseError,
    SingularMatrix,
    ValidationError,
)
from .linalg import BIORTHO_TOL, biorthogonal_decompose, norm_fro
from .metric import DysonFamily, hermitize, metric_from_spectral
from .quasistationary import SAMPLERS, qs_certify, qs_scan, stationarity_residual


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
    n: int | None = None
    sampler: str | None = None
    output_path: str | None = None
    output_format: str = "csv"


# ---------------------------------------------------------------------------
# parsing: every parser returns the RunConfig fields it sets and appends
# human-readable messages to `errors` instead of raising, so a single
# ValidationError can list all violations.
# ---------------------------------------------------------------------------

def _finite_number(obj) -> bool:
    """A JSON number, not a boolean, within the float range."""
    return type(obj) in (int, float) and abs(obj) <= sys.float_info.max


def _integer(low: int) -> Callable[[object], bool]:
    """Predicate: a JSON integer, not a boolean, no smaller than ``low``."""
    return lambda obj: type(obj) is int and obj >= low


def _complex_entry(obj, errors, where):
    if _finite_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_finite_number(x) for x in obj):
        return complex(obj[0], obj[1])
    errors.append(f"{where} must be a finite number or a [re, im] pair")
    return 0j


def _complex_entries(entries: list, errors, where) -> np.ndarray:
    """The complex array of a flat list of finite numbers and [re, im] pairs.

    The whole list is converted and checked at once; only a list that fails
    goes entry by entry, which names each offending entry ``where(k)``.
    Values at the float maximum go that way too, because an integer beyond
    the float range converts to it.
    """
    pairs = [x if type(x) is list else (x, 0.0) for x in entries]
    try:
        values = np.array(pairs, dtype=float)
        numbers = set(map(type, chain.from_iterable(pairs))) <= {int, float}
    except (TypeError, ValueError, OverflowError):
        values, numbers = None, False
    in_range = numbers and values.shape == (len(entries), 2)
    if in_range and (np.abs(values) < sys.float_info.max).all():
        return values.view(complex)[:, 0]
    return np.array([_complex_entry(x, errors, where(k)) for k, x in enumerate(entries)])


def _matrix(obj, errors, where):
    if not isinstance(obj, list) or not obj:
        errors.append(f"{where} must be a non-empty list of rows")
        return None
    n = len(obj)
    ragged = next((i for i, row in enumerate(obj) if not isinstance(row, list) or len(row) != n), n)
    entries = [x for row in obj[:ragged] for x in row]
    matrix = _complex_entries(entries, errors, lambda k: f"{where}[{k // n}][{k % n}]")
    if ragged < n:
        errors.append(f"{where} row {ragged} must have {n} entries (square matrix)")
        return None
    return matrix.reshape(n, n)


def _reject_unknown(obj, allowed, errors, where):
    errors.extend(f"unknown key {key!r} in {where}" for key in obj if key not in allowed)


def _scalar(name, ok, message, convert):
    """Parser of a scalar key: sets field ``name`` to ``convert(value)``."""
    def parse(value, errors):
        if ok(value):
            return {name: convert(value)}
        errors.append(message)
        return {}
    return parse


def _vector(name):
    """Parser of a complex vector key that sets the field of the same name."""
    def parse(obj, errors):
        if not isinstance(obj, list) or not obj:
            errors.append(f"{name} must be a non-empty list")
            return {}
        return {name: _complex_entries(obj, errors, lambda k: f"{name}[{k}]")}
    return parse


def _parse_model(obj, errors):
    if not isinstance(obj, dict):
        errors.append("model must be an object")
        return {}
    _reject_unknown(obj, {"matrix", "taylor", "scenario"}, errors, "model")
    given = [k for k in ("matrix", "taylor", "scenario") if k in obj]
    if len(given) != 1:
        errors.append("model must contain exactly one of: matrix, taylor, scenario")
        return {}
    if "matrix" in obj:
        matrix = _matrix(obj["matrix"], errors, "model.matrix")
        return {} if matrix is None else {"matrix": matrix}
    if "scenario" in obj:
        if obj["scenario"] != "falsification":
            errors.append(f"unknown scenario {obj['scenario']!r} (available: falsification)")
        return {"scenario": obj["scenario"]}
    if not isinstance(obj["taylor"], list) or not obj["taylor"]:
        errors.append("model.taylor must be a non-empty list of matrices")
        return {}
    coeffs = [_matrix(c, errors, f"model.taylor[{m}]") for m, c in enumerate(obj["taylor"])]
    if any(c is None for c in coeffs):
        return {}
    if len({c.shape for c in coeffs}) != 1:
        errors.append("model.taylor coefficients must share one dimension")
        return {}
    return {"taylor": evolution.TaylorHamiltonian(tuple(coeffs))}


def _parse_dyson(obj, errors):
    if not isinstance(obj, dict):
        errors.append("dyson must be an object")
        return {}
    kind = obj.get("kind")
    keys = {"constant": ("matrix",), "exp_poly": ("generator", "theta")}.get(kind)
    if keys is None:
        errors.append("dyson.kind must be 'constant' or 'exp_poly'")
        return {}
    start = len(errors)
    _reject_unknown(obj, {"kind", *keys}, errors, "dyson")
    if any(key not in obj for key in keys):
        errors.append(f"dyson of kind {kind} needs {' and '.join(keys)}")
        return {}
    m = _matrix(obj[keys[0]], errors, f"dyson.{keys[0]}")
    theta = obj.get("theta", [])
    if not isinstance(theta, list) or not all(_finite_number(x) for x in theta):
        errors.append("dyson.theta must be a list of finite real numbers")
    if m is None or len(errors) > start:
        return {}
    if kind == "exp_poly":
        return {"dyson": DysonFamily.exp_poly(m, theta)}
    try:
        return {"dyson": DysonFamily.constant(m)}
    except SingularMatrix:
        errors.append("dyson.matrix must be invertible")
        return {}


def _parse_grid(obj, errors):
    if not isinstance(obj, dict):
        errors.append("grid must be an object")
        return {}
    _reject_unknown(obj, {"t_start", "t_end", "n_samples"}, errors, "grid")
    t_start, t_end, n_samples = (obj.get(k) for k in ("t_start", "t_end", "n_samples"))
    # every interval takes at least one substep, so the substep cap bounds
    # n_samples before linspace allocates the grid
    cap = evolution.MAX_SUBSTEPS + 1
    numbers = _finite_number(t_start) and _finite_number(t_end) and _integer(2)(n_samples)
    if not (numbers and t_start < t_end and n_samples <= cap):
        errors.append(f"grid needs finite t_start < t_end and integer n_samples in [2, {cap}]")
        return {}
    return {"grid": np.linspace(float(t_start), float(t_end), n_samples)}


def _parse_tolerances(obj, errors):
    if not isinstance(obj, dict):
        errors.append("tolerances must be an object")
        return {}
    allowed = {"tol_qs", "decompose_tol"}
    _reject_unknown(obj, allowed, errors, "tolerances")
    errors.extend(
        f"tolerances.{key} must be a positive number"
        for key, value in obj.items()
        if key in allowed and not (_finite_number(value) and value > 0)
    )
    return {"tolerances": dict(obj)}


def _parse_output(obj, errors):
    if not isinstance(obj, dict):
        errors.append("output must be an object")
        return {}
    _reject_unknown(obj, {"path", "format"}, errors, "output")
    fields = {}
    if isinstance(obj.get("path"), str) and obj["path"]:
        fields["output_path"] = obj["path"]
    elif "path" in obj:
        errors.append("output.path must be a non-empty string")
    if obj.get("format", "csv") not in ("csv", "json"):
        errors.append("output.format must be 'csv' or 'json'")
    elif "format" in obj:
        fields["output_format"] = obj["format"]
    return fields


#: every accepted top-level key and its parser
_KEYS = {
    "command": lambda value, errors: {"command": value},
    "model": _parse_model,
    "dyson": _parse_dyson,
    "grid": _parse_grid,
    "step": _scalar(
        "step", lambda x: _finite_number(x) and x > 0, "step must be a positive finite number",
        float,
    ),
    "phi0": _vector("phi0"),
    "psi0": _vector("psi0"),
    "kappa": _scalar(
        "kappa",
        lambda x: isinstance(x, list) and all(_finite_number(k) and k > 0 for k in x),
        "kappa must be a list of strictly positive finite numbers",
        lambda x: np.array(x, dtype=float),
    ),
    "t": _scalar("t_eval", _finite_number, "t must be a finite number", float),
    "tolerances": _parse_tolerances,
    "seed": _scalar("seed", _integer(0), "seed must be an integer >= 0", int),
    "trials": _scalar(
        "trials",
        lambda x: _integer(1)(x) and x <= quasistationary.MAX_TRIALS,
        f"trials must be an integer in [1, {quasistationary.MAX_TRIALS}]",
        int,
    ),
    "n": _scalar("n", _integer(2), "n must be an integer >= 2", int),
    "sampler": _scalar(
        "sampler",
        lambda x: isinstance(x, str) and x in SAMPLERS,
        f"sampler must be one of {', '.join(sorted(SAMPLERS))}",
        str,
    ),
    "output": _parse_output,
}


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
    fields: dict = {}
    _reject_unknown(data, _KEYS, errors, "configuration")
    for key, value in data.items():
        if key in _KEYS:
            fields.update(_KEYS[key](value, errors))

    command = fields.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        errors.append(f"command must be one of {', '.join(COMMANDS)}; got {command!r}")
        raise ValidationError("; ".join(errors))
    # the falsification scenario fills the propagation inputs a config leaves out:
    # always for demo, given model.scenario for the other commands with a step
    if command == "demo" or ("scenario" in fields and "step" in COMMANDS[command].needs):
        defaults = zip(("taylor", "dyson", "phi0", "grid"), models.scenario_falsification())
        fields = {**dict(defaults), **({"step": 1e-3} if command == "demo" else {}), **fields}

    cfg = RunConfig(**fields)
    _validate_command(cfg, errors)
    if errors:
        raise ValidationError("; ".join(errors))
    return cfg


def _validate_command(cfg: RunConfig, errors: list[str]):
    """The command's inputs from ``COMMANDS``, every sized input against the
    model dimension, the step plan of a propagation and the command's own check."""
    command = COMMANDS[cfg.command]
    # a needed key's field is its last dotted part: model.matrix -> matrix
    missing = [key for key in command.needs if getattr(cfg, key.rpartition(".")[2]) is None]
    errors.extend(f"{cfg.command} needs {key}" for key in missing)

    sized = {"model": cfg.taylor if cfg.taylor is not None else cfg.matrix}
    sized.update((key, getattr(cfg, key)) for key in ("dyson", "phi0", "psi0", "kappa"))
    # TaylorHamiltonian and DysonFamily have a dim, arrays a length
    dims = {key: getattr(v, "dim", None) or len(v) for key, v in sized.items() if v is not None}
    dim = dims.pop("model", None)
    errors.extend(
        f"{key} needs dimension {dim}, got {d}" for key, d in dims.items() if dim not in (None, d)
    )

    if missing:
        return
    try:
        if "step" in command.needs:  # the integrator's own plan: step divides the grid
            evolution._substep_plan(cfg.grid, cfg.step)
        command.check(cfg)
    except ValueError as exc:
        errors.append(str(exc))


# ---------------------------------------------------------------------------
# serialization (full precision; reruns are byte identical)
# ---------------------------------------------------------------------------

def _pairs(array) -> np.ndarray:
    """A complex scalar or array as a float array of [re, im] pairs."""
    return np.stack([array.real, array.imag], -1)


def _json_array(array: np.ndarray, level: int) -> str:
    """A float array as ``json.dumps(array.tolist(), indent=2)`` writes it at
    nesting ``level``: one ``%r`` template carries the nesting of the shape,
    filled with every float at once."""
    template = "%r"
    for axis in reversed(range(array.ndim)):
        size = array.shape[axis]
        if size == 0:
            template = "[]"
            continue
        pad = "\n" + "  " * (level + axis + 1)
        close = "\n" + "  " * (level + axis) + "]"
        template = "[" + pad + ("," + pad).join([template] * size) + close
    text = template % tuple(array.ravel().tolist())
    if not np.isfinite(array).all():
        # JSON's spelling of the floats repr writes as nan, inf and -inf
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for string-keyed dicts,
    lists and JSON scalars, where float arrays stand for their ``tolist()``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64:
            return _json_array(obj, level)
        obj = obj.tolist()
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_json(v, level + 1)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, level + 1) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _write_json(path: Path, obj) -> Path:
    path.write_text(_json(obj) + "\n")
    return path


def _write_trajectory(path_base: Path, traj: evolution.StateTrajectory, fmt: str) -> Path:
    drift = np.maximum.accumulate(np.abs(traj.overlap - traj.overlap[0]))
    if fmt == "json":
        return _write_json(
            path_base.with_suffix(".json"),
            {
                "times": traj.times,
                "phi": _pairs(traj.phi),
                "psi": _pairs(traj.psi),
                "overlap": _pairs(traj.overlap),
                "drift": drift,
            },
        )
    n = traj.phi.shape[1]
    header = ["t"]
    header += [f"{v}{i}_{p}" for v in ("phi", "psi") for i in range(n) for p in ("re", "im")]
    header += ["overlap_re", "overlap_im", "drift"]
    # one complex table viewed as [re, im] columns; t and drift keep only re
    table = np.column_stack([traj.times, traj.phi, traj.psi, traj.overlap, drift]).view(float)
    values = np.delete(table, [1, -1], axis=1)
    # one "%.17g" row template per row under the header, which holds no "%"
    row = ",".join(["%.17g"] * values.shape[1])
    template = "\n".join([",".join(header)] + [row] * values.shape[0]) + "\n"
    path = path_base.with_suffix(".csv")
    path.write_text(template % tuple(values.ravel().tolist()))
    return path


# ---------------------------------------------------------------------------
# command handlers: each writes its artifacts into `out` and returns the
# written paths and a one-line summary
# ---------------------------------------------------------------------------

def _run_decompose(cfg, out):
    system = biorthogonal_decompose(cfg.matrix, cfg.tolerances.get("decompose_tol", BIORTHO_TOL))
    payload = {
        "eigenvalues": _pairs(system.eigenvalues),
        "right_vectors": _pairs(system.right_vectors),
        "left_vectors": _pairs(system.left_vectors),
        "condition_estimate": float(system.condition_estimate),
        "biorthonormality_residual": float(system.biorthonormality_residual()),
        "completeness_residual": float(system.completeness_residual()),
    }
    path = _write_json(out / "decomposition.json", payload)
    return [path], f"wrote {path} ({system.dim} eigenvalues)"


def _run_metric(cfg, out):
    system = biorthogonal_decompose(cfg.matrix, cfg.tolerances.get("decompose_tol", BIORTHO_TOL))
    theta = metric_from_spectral(system, cfg.kappa)
    residual = stationarity_residual(cfg.matrix, theta.matrix)
    payload = {
        "theta": _pairs(theta.matrix),
        "min_eig": theta.min_eig,
        "max_eig": theta.max_eig,
        "quasi_hermiticity_residual": residual,
    }
    path = _write_json(out / "metric.json", payload)
    return [path], f"wrote {path} (residual {residual:.3e})"


def _run_hermitize(cfg, out):
    h = hermitize(cfg.matrix, cfg.dyson, cfg.t_eval)
    residual = norm_fro(h - h.conj().T) / max(norm_fro(h), np.finfo(float).tiny)
    payload = {
        "h": _pairs(h),
        "hermiticity_residual": float(residual),
        "eigenvalues": _pairs(np.sort_complex(np.linalg.eigvals(h))),
        "t": cfg.t_eval,
    }
    path = _write_json(out / "hermitize.json", payload)
    return [path], f"wrote {path} (Hermiticity residual {residual:.3e})"


def _run_evolve(cfg, out, naive=False):
    propagate = evolution.propagate_naive if naive else evolution.propagate_pair
    traj = propagate(cfg.taylor, cfg.dyson, cfg.phi0, cfg.psi0, cfg.grid, cfg.step)
    base = "naive_trajectory" if naive else "trajectory"
    paths = [
        _write_trajectory(out / base, traj, cfg.output_format),
        _write_json(
            out / f"{base}_summary.json",
            {
                "samples": int(traj.times.size),
                "max_norm_drift": float(traj.max_norm_drift),
                "max_metric_drift": float(traj.max_metric_drift),
                "overlap_initial": _pairs(traj.overlap[0]),
                "overlap_final": _pairs(traj.overlap[-1]),
                "metric_norm_initial": float(traj.metric_norm[0]),
                "metric_norm_final": float(traj.metric_norm[-1]),
            },
        ),
    ]
    return paths, (
        f"wrote {paths[0]} (overlap drift {traj.max_norm_drift:.3e}, "
        f"metric-norm drift {traj.max_metric_drift:.3e})"
    )


def _run_crosscheck(cfg, out):
    report = evolution.crosscheck_pictures(cfg.taylor, cfg.dyson, cfg.phi0, cfg.grid, cfg.step)
    payload = {
        "dev_pair_lower": report.dev_pair_lower,
        "dev_pair_operators": report.dev_pair_operators,
        "dev_lower_operators": report.dev_lower_operators,
        "max_pairwise_deviation": report.max_pairwise_deviation(),
        "samples": int(report.times.size),
    }
    path = _write_json(out / "crosscheck.json", payload)
    return [path], f"wrote {path} (max deviation {report.max_pairwise_deviation():.3e})"


def _run_qs_check(cfg, out):
    tol = cfg.tolerances.get("tol_qs", quasistationary.DEFAULT_TOL_QS)
    cert = qs_certify(cfg.taylor, tol)
    payload = {
        "status": cert.status,
        "kappa": cert.kappa,
        "first_violation_order": cert.first_violation_order,
        "residuals": [float(r) for r in cert.residuals],
        "detail": cert.detail,
        "theta": None if cert.metric is None else _pairs(cert.metric.matrix),
    }
    path = _write_json(out / "certificate.json", payload)
    return [path], f"wrote {path} (status {cert.status})"


def _run_qs_scan(cfg, out):
    tol = cfg.tolerances.get("tol_qs", quasistationary.DEFAULT_TOL_QS)
    stats = qs_scan(cfg.sampler, cfg.trials, cfg.n, cfg.seed, tol)
    path = _write_json(out / "qs_scan.json", {**stats.as_flat_dict(), "sampler": cfg.sampler})
    return [path], (
        f"wrote {path} (compatible {stats.compatible}, "
        f"incompatible {stats.incompatible}, exceptional {stats.exceptional})"
    )


def _run_demo(cfg, out):
    # both rules in one RK4 run; each trajectory equals its propagator's bit for bit
    covariant, naive = evolution._propagate_doublet(
        cfg.taylor, cfg.dyson, cfg.phi0, cfg.psi0, cfg.grid, cfg.step, (True, False)
    )
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
    return paths, (
        f"wrote {paths[0]} and {paths[1]}: covariant metric-norm drift "
        f"{covariant.max_metric_drift:.3e} vs naive {naive.max_metric_drift:.3e} "
        f"(ratio {ratio:.1e})"
    )


def _no_psi0(cfg):
    if cfg.psi0 is not None:
        raise ValueError("crosscheck derives psi0; do not supply it")


def _two_coefficients(cfg):
    if cfg.taylor.degree < 1:
        raise ValueError("qs-check needs at least two taylor coefficients")


class _Command(NamedTuple):
    #: (cfg, out) -> (written paths, summary line)
    handler: Callable
    #: config keys the command needs; the RunConfig field is the last dotted part
    needs: tuple = ()
    #: cfg -> anything; raises ValueError when the command rejects its inputs
    check: Callable = lambda cfg: None


_PROPAGATION = ("model.taylor", "dyson", "grid", "phi0", "step")

#: every command, in the order the usage message lists them
COMMANDS = {
    "decompose": _Command(_run_decompose, ("model.matrix",)),
    "metric": _Command(_run_metric, ("model.matrix", "kappa")),
    "hermitize": _Command(_run_hermitize, ("model.matrix", "dyson")),
    "evolve": _Command(_run_evolve, _PROPAGATION),
    "naive-evolve": _Command(lambda cfg, out: _run_evolve(cfg, out, naive=True), _PROPAGATION),
    "crosscheck": _Command(_run_crosscheck, _PROPAGATION, _no_psi0),
    "qs-check": _Command(_run_qs_check, ("model.taylor",), _two_coefficients),
    # every sampler plants spectra with a minimum gap, which bounds n
    "qs-scan": _Command(
        _run_qs_scan, ("sampler", "trials", "n"), lambda cfg: models._planted_top(cfg.n)
    ),
    "demo": _Command(_run_demo, _PROPAGATION),
}


def run(cfg: RunConfig, out_dir, seed_override=None, quiet=False) -> list[Path]:
    """Execute a validated configuration; returns the written artifact paths."""
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    out = Path(cfg.output_path) if cfg.output_path else Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths, summary = COMMANDS[cfg.command].handler(cfg, out)
    if not quiet:
        print(summary)
    return paths


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptoherm",
        description="Finite-dimensional quantum dynamics with time-dependent metrics.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


#: built once per process: building the parser costs several times what
#: parsing with it does, and each parse starts from a fresh namespace
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        _PARSER.error("--seed must be an integer >= 0")

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"ParseError: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        run(parse_config(text), args.out, seed_override=args.seed, quiet=args.quiet)
    except (ConfigError, NumericalError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except MemoryError as exc:  # numpy raises a subclass named _ArrayMemoryError
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
