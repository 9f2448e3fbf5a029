"""Command-line interface.

Subcommands: ``equiv`` (print cutoff sums, no sampling), ``grushin-verify``
(identity suite), ``mc`` (single-matrix Monte Carlo), ``sweep``
(size-asymptotic runs), ``field`` (log-potential grid), ``probe-noise``
(noise-model diagnostics).  A given flag always wins over the config-file
value and is checked exactly like it.  Exit status: 0 on success, 2 on
verification failure (or an argparse usage error), 3 on configuration errors
(a size too large to allocate among them).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .ensembles import parse_matrix_arg, realize, spectrum_of
from .equivalents import CONVENTIONS
from .experiments import (
    ConfigError,
    ExperimentConfig,
    _cutoff,
    _n_star_step,
    config_from_dict,
    config_to_dict,
    log_potential_field,
    read_config,
    run_grushin_suite,
    run_theorem1,
    run_theorem2,
    write_results,
)
from .linalg import NumericalError
from .noise import NOISE_KINDS, anti_concentration_probe, markov_tail_check, norm_growth_probe, substream_seed

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONFIG = 3

# Flags named after the config key they overlay: top level, params, z_grid.
TOP_FLAGS = ("model", "trials", "seed", "output", "convention", "probe_eps")
PARAM_FLAGS = ("alpha", "delta", "gamma", "eta", "tau", "nu_target", "headroom")
GRID_FLAGS = ("re_min", "re_max", "im_min", "im_max", "steps")


def _float_or_text(text: str):
    """``--alpha``'s type: a float, else the text itself, which the config
    check accepts only as ``auto``."""
    try:
        return float(text)
    except ValueError:
        return text


# Every flag and its argparse keywords; _COMMANDS lists the flags each subcommand takes.
_FLAGS = {
    "config": dict(help="JSON experiment config; flags override its values"),
    "seed": dict(type=int, help="64-bit root seed"),
    "out": dict(dest="output", metavar="OUT", help="output path prefix for CSV/JSON artifacts"),
    "trials": dict(type=int, help="number of noise draws"),
    "matrix": dict(help="matrix spec: jordan | zero | diag:2x190,0x10 | bidiag:a,b | file:PATH"),
    "n": dict(type=int, help="matrix size"),
    "shift": dict(help="complex shift z; the realized matrix is z*I - A"),
    "model": dict(choices=NOISE_KINDS, help="noise model"),
    "workers": dict(
        type=int,
        help="thread pool size (default: $LOGDET_EQUIV_WORKERS or 1); at 1, mc, sweep and field draw "
        "their noise in a forked helper process, one trial ahead; output is independent of the worker "
        "count, and of OPENBLAS_NUM_THREADS where OpenBLAS can be pinned to one thread",
    ),
    "alpha": dict(type=_float_or_text, help="singular-value cutoff in (0,1], or 'auto'"),
    "delta": dict(type=float, help="noise amplitude"),
    "gamma": dict(type=float, help="noise-scale exponent (delta = N^-gamma in sweep mode)"),
    "eta": dict(type=float, help="cutoff-index exponent"),
    "tau": dict(type=float, help="tail parameter"),
    "nu-target": dict(type=float, help="deflation-rate budget for auto alpha"),
    "headroom": dict(type=float, help="fraction of the admissible delta ceiling to allow"),
    "convention": dict(choices=CONVENTIONS, help="cutoff-sum index convention"),
    "probe-eps": dict(
        action="store_true",
        default=None,
        help="measure the anti-concentration failure rate alongside the run (one values-only SVD per trial)",
    ),
    "n-list": dict(help="comma-separated ascending sizes, e.g. 100,200,400"),
    "diagnostics": dict(
        action="store_true",
        help="also fill the records' norm_G, s_min_perturbed and contraction columns "
        "(two SVDs per trial; without the flag they read nan)",
    ),
    "re-min": dict(type=float),
    "re-max": dict(type=float),
    "im-min": dict(type=float),
    "im-max": dict(type=float),
    "steps": dict(type=int),
    "tau-list": dict(help="tail parameters, e.g. 2,5,10"),
    "beta-list": dict(help="anti-concentration exponents, e.g. 0.5,1,2"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdet-equiv",
        description="Deterministic equivalents for log-determinants of noisily perturbed matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # No prefix matching: --diag is not --diagnostics, nor --tau probe-noise's --tau-list.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _resolve_workers(args) -> int:
    if args.workers is not None:
        workers = args.workers
    else:
        raw = os.environ.get("LOGDET_EQUIV_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(f"LOGDET_EQUIV_WORKERS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_number_list(text, kind=float):
    return tuple(kind(part) for part in text.split(",") if part.strip())


def _finite_list(text, flag: str) -> tuple:
    """A comma-separated list of finite floats; ConfigError naming ``flag`` otherwise."""
    values = _parse_number_list(text)
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ConfigError(f"{flag}: expected finite numbers, got {bad[0]!r}")
    return values


def _given(args, names) -> dict:
    """The flags among ``names`` that were given, even as ``0`` or empty."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _resolve_config(args, mode: str) -> ExperimentConfig:
    """Lay every given flag over the JSON form of ``--config`` (or of a
    default-model config) and parse the result once, so a flag is typed and
    checked exactly like the config value it replaces."""
    base = None if args.config is None else read_config(args.config)
    d = {"model": "complex_ginibre"} if base is None else config_to_dict(base)
    if args.matrix is not None and (args.n is not None or base is not None):
        d["matrix"] = config_to_dict(parse_matrix_arg(args.matrix, base.matrix.n if args.n is None else args.n))
    elif args.n is not None and base is not None:
        d["matrix"] = config_to_dict(base.matrix.with_size(args.n))
    elif base is None:
        raise ConfigError("without --config, both --matrix and --n are required")
    if args.shift is not None:
        d["matrix"]["shift"] = args.shift
    d.update(_given(args, TOP_FLAGS))
    d.setdefault("params", {}).update(_given(args, PARAM_FLAGS))

    d["mode"] = mode
    if mode == "sweep":
        if args.n_list is not None:
            d["N_list"] = _parse_number_list(args.n_list, int)
    elif mode == "field":
        grid = _given(args, GRID_FLAGS)
        if grid:
            d["z_grid"] = {**d.get("z_grid", {}), **grid}
    else:
        d.pop("N_list", None)
        d.pop("z_grid", None)
    return config_from_dict(d)


def _print_kv(summary: dict, keys) -> None:
    """A ``key = value`` line for each of ``keys``, then ``below_svd_floor = True``
    only for a result that reads singular values under the SVD floor."""
    for key in keys:
        print(f"{key} = {_fmt(summary[key])}")
    if summary.get("below_svd_floor"):
        print("below_svd_floor = True")


def _fmt(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(records, prefix, summary) -> None:
    """Write the artifacts under ``prefix`` (if any) and list them on stdout."""
    if prefix:
        for path in write_results(records, prefix, summary):
            print(f"wrote {path}")


def _cmd_equiv(args) -> int:
    config = _resolve_config(args, "single")
    _resolve_workers(args)  # checked like any subcommand's, though nothing here samples
    spec = config.matrix
    singvals = spectrum_of(spec)
    params, rhs, alpha_below = _cutoff(spec, singvals, config.params)
    cutoff_index, sums, n_star_below = _n_star_step(spec, singvals, params.gamma, params.eta)
    shown = {
        "matrix": f"{spec.kind} N={spec.n}" + (f" shift={spec.shift}" if spec.shift is not None else ""),
        "alpha": params.alpha,
        "M": params.m,
        "nu_N": params.nu_n,
        "rhs": rhs,
        f"N_star(gamma={params.gamma}, eta={params.eta})": cutoff_index,
        **{f"bpz_{c}": value for c, value in sums.items()},
    }
    _print_kv({**shown, "below_svd_floor": alpha_below or n_star_below}, shown)
    return EXIT_OK


def _cmd_grushin_verify(args) -> int:
    config = _resolve_config(args, "single")
    checks, summary = run_grushin_suite(config, workers=_resolve_workers(args))
    _print_kv(summary, ("checks_total", "checks_failed", "alpha", "M", "delta", "ok"))
    _write(checks, config.output, summary)
    if not summary["ok"]:
        for failing in summary["failing"]:
            print(f"FAILED {failing['check']}: lhs={_fmt(failing['lhs'])} rhs={_fmt(failing['rhs'])}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_mc(args) -> int:
    config = _resolve_config(args, "single")
    records, summary = run_theorem2(config, workers=_resolve_workers(args), diagnostics=args.diagnostics)
    error = {"error_median": summary["error"]["median"], "error_q95": summary["error"]["q95"]}
    keys = ("N", "model", "trials", "alpha", "M", "delta", "outside_theorem", "rhs", "error_bound",
            "success_frequency", "floor_partial", "eps_hat", *error)
    _print_kv({**summary, **error}, keys)
    _write(records, config.output, summary)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _resolve_config(args, "sweep")
    records, summary = run_theorem1(config, workers=_resolve_workers(args), diagnostics=args.diagnostics)
    print(f"convention = {summary['convention']}, gamma = {summary['gamma']}, eta = {summary['eta']}")
    for step in summary["per_N"]:
        print(
            f"N={step['N']} N*={step['N_star']} delta={_fmt(step['delta'])} rhs={_fmt(step['rhs'])} "
            f"median_error={_fmt(step['error_median'])} flagged={step['flagged_infinite_rhs']}"
            + (" below_svd_floor=True" if step["below_svd_floor"] else "")
        )
    _print_kv(summary, ("flagged_steps", "medians_strictly_decreasing"))
    _write(records, config.output, summary)
    return EXIT_OK


def _cmd_field(args) -> int:
    config = _resolve_config(args, "field")
    points, summary = log_potential_field(config, workers=_resolve_workers(args))
    _print_kv(summary, ("N", "points", "trials", "delta", "mean_abs_gap", "max_abs_gap"))
    _write(points, config.output, summary)
    return EXIT_OK


def _cmd_probe_noise(args) -> int:
    sizes = _parse_number_list(args.n_list, int) if args.n_list is not None else (50, 100, 200)
    taus = _finite_list(args.tau_list, "--tau-list") if args.tau_list is not None else (2.0, 5.0, 10.0)
    betas = _finite_list(args.beta_list, "--beta-list") if args.beta_list is not None else (0.5, 1.0, 2.0)
    if args.config is None:
        # Without a config the probes run 200 trials on the 200 x 200 zero matrix.
        for name, default in (("matrix", "zero"), ("n", 200), ("trials", 200)):
            if getattr(args, name) is None:
                setattr(args, name, default)
    config = _resolve_config(args, "single")
    model, n, trials, seed = config.model, config.matrix.n, config.trials, config.seed
    d = realize(config.matrix)

    growth = norm_growth_probe(model, sizes, min(trials, 50), substream_seed(seed, 0))
    markov = markov_tail_check(model, n, trials, taus, seed=substream_seed(seed, 1))
    anti = anti_concentration_probe(d, model, trials, betas, substream_seed(seed, 2))

    print(f"model = {model}")
    print(f"kappa1_hat = {_fmt(growth.kappa1_hat)} (sizes {list(sizes)}, intercept {_fmt(growth.intercept)})")
    ok = True
    for tail in markov.summary["tails"]:
        status = "pass" if tail["pass"] else "FAIL"
        ok = ok and tail["pass"]
        print(
            f"tail tau={_fmt(tail['tau'])}: empirical={_fmt(tail['empirical'])} "
            f"bound={_fmt(tail['bound'])} ({status})"
        )
    for freq in anti.summary["frequencies"]:
        print(f"s_min <= N^-{freq['beta']}: frequency={_fmt(freq['frequency'])}")
    summary = {
        "model": model,
        "growth": growth.summary,
        "markov": markov.summary,
        "anti_concentration": anti.summary,
    }
    _write([*growth.per_n, markov, anti], config.output, summary)
    return EXIT_OK if ok else EXIT_VERIFY


EXPERIMENT_FLAGS = (
    "config seed out trials matrix n shift model workers alpha delta gamma eta tau nu-target headroom convention"
)
# Each subcommand: its handler, its --help line and the flags it takes, in --help order.
_COMMANDS = {
    "equiv": (_cmd_equiv, "print cutoff sums and parameters for a matrix, no sampling",
              "config matrix n shift alpha gamma eta nu-target workers"),
    "grushin-verify": (_cmd_grushin_verify, "run the block-algebra identity suite", EXPERIMENT_FLAGS),
    "mc": (_cmd_mc, "single-matrix Monte Carlo against the cutoff sum", EXPERIMENT_FLAGS + " probe-eps diagnostics"),
    "sweep": (_cmd_sweep, "size sweep with delta = N^-gamma", EXPERIMENT_FLAGS + " n-list diagnostics"),
    "field": (_cmd_field, "log-potential field over a z-grid", EXPERIMENT_FLAGS + " re-min re-max im-min im-max steps"),
    "probe-noise": (_cmd_probe_noise, "norm growth, tail, and anti-concentration probes",
                    "config seed out trials matrix n shift model n-list tau-list beta-list"),
}


def guarded(fn, *args):
    """``fn(*args)``; an error the input caused prints one stderr line and returns exit status 3.
    A factorization that fails to converge was fed non-finite values (too large a delta, say); a
    MemoryError names the size numpy could not allocate (too large an N for this machine)."""
    try:
        return fn(*args)
    except (ValueError, OverflowError, NumericalError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(_COMMANDS[args.command][0], args)


if __name__ == "__main__":
    sys.exit(main())
