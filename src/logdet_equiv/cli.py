"""Command-line interface.

Subcommands: ``equiv`` (print cutoff sums, no sampling), ``grushin-verify``
(identity suite), ``mc`` (single-matrix Monte Carlo), ``sweep``
(size-asymptotic runs), ``field`` (log-potential grid), ``probe-noise``
(noise-model diagnostics).  A given flag always wins over the config-file
value and is checked exactly like it.  Exit status: 0 on success, 2 on
verification failure (or an argparse usage error), 3 on configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .ensembles import parse_matrix_arg, realize, spectrum_of, svd_floor
from .equivalents import CONVENTIONS, ParameterError, bpz_equivalent, deterministic_equivalent, n_star
from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    log_potential_field,
    read_config,
    run_grushin_suite,
    run_theorem1,
    run_theorem2,
    write_results,
)
from .noise import NOISE_KINDS, anti_concentration_probe, markov_tail_check, norm_growth_probe, substream_seed

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONFIG = 3

# Flags named after the config key they overlay: top level, params, z_grid.
TOP_FLAGS = ("model", "trials", "seed", "output", "convention", "probe_eps")
PARAM_FLAGS = ("alpha", "delta", "gamma", "eta", "tau", "nu_target", "headroom")
GRID_FLAGS = ("re_min", "re_max", "im_min", "im_max", "steps")
DIAGNOSTICS_HELP = (
    "also fill the records' norm_G, s_min_perturbed and contraction columns "
    "(two SVDs per trial; without the flag they read nan)"
)


def _float_or_text(text: str):
    """``--alpha``'s type: a float, else the text itself, which the config
    check accepts only as ``auto``."""
    try:
        return float(text)
    except ValueError:
        return text


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    """The flags ``probe-noise`` reads: what to sample, on what matrix, how often,
    where to write, and a config to take them from."""
    parser.add_argument("--config", help="JSON experiment config; flags override its values")
    parser.add_argument("--seed", type=int, help="64-bit root seed")
    parser.add_argument("--out", dest="output", metavar="OUT", help="output path prefix for CSV/JSON artifacts")
    parser.add_argument("--trials", type=int, help="number of noise draws")
    parser.add_argument("--matrix", help="matrix spec: jordan | zero | diag:2x190,0x10 | bidiag:a,b | file:PATH")
    parser.add_argument("--n", type=int, help="matrix size")
    parser.add_argument("--shift", help="complex shift z; the realized matrix is z*I - A")
    parser.add_argument("--model", choices=NOISE_KINDS, help="noise model")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_sampling(parser)
    parser.add_argument("--workers", type=int, default=None,
                        help="thread pool size (default: $LOGDET_EQUIV_WORKERS or 1); output is worker-count independent")
    parser.add_argument("--alpha", type=_float_or_text, help="singular-value cutoff in (0,1], or 'auto'")
    parser.add_argument("--delta", type=float, help="noise amplitude")
    parser.add_argument("--gamma", type=float, help="noise-scale exponent (delta = N^-gamma in sweep mode)")
    parser.add_argument("--eta", type=float, help="cutoff-index exponent")
    parser.add_argument("--tau", type=float, help="tail parameter")
    parser.add_argument("--nu-target", dest="nu_target", type=float, help="deflation-rate budget for auto alpha")
    parser.add_argument("--headroom", type=float, help="fraction of the admissible delta ceiling to allow")
    parser.add_argument("--convention", choices=CONVENTIONS, help="cutoff-sum index convention")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdet-equiv",
        description="Deterministic equivalents for log-determinants of noisily perturbed matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equiv", help="print cutoff sums and parameters for a matrix, no sampling")
    _add_common(p)

    p = sub.add_parser("grushin-verify", help="run the block-algebra identity suite")
    _add_common(p)

    p = sub.add_parser("mc", help="single-matrix Monte Carlo against the cutoff sum")
    _add_common(p)
    p.add_argument("--probe-eps", action="store_true", default=None,
                   help="measure the anti-concentration failure rate alongside the run")
    p.add_argument("--diagnostics", action="store_true", help=DIAGNOSTICS_HELP)

    p = sub.add_parser("sweep", help="size sweep with delta = N^-gamma")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated ascending sizes, e.g. 100,200,400")
    p.add_argument("--diagnostics", action="store_true", help=DIAGNOSTICS_HELP)

    p = sub.add_parser("field", help="log-potential field over a z-grid")
    _add_common(p)
    p.add_argument("--re-min", type=float, dest="re_min")
    p.add_argument("--re-max", type=float, dest="re_max")
    p.add_argument("--im-min", type=float, dest="im_min")
    p.add_argument("--im-max", type=float, dest="im_max")
    p.add_argument("--steps", type=int)

    # No prefix matching: --tau would otherwise pass as --tau-list.
    p = sub.add_parser("probe-noise", help="norm growth, tail, and anti-concentration probes", allow_abbrev=False)
    _add_sampling(p)
    p.add_argument("--n-list", dest="n_list", help="sizes for the norm-growth fit, e.g. 50,100,200")
    p.add_argument("--tau-list", dest="tau_list", help="tail parameters, e.g. 2,5,10")
    p.add_argument("--beta-list", dest="beta_list", help="anti-concentration exponents, e.g. 0.5,1,2")

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
        elif "N_list" not in d:
            raise ConfigError("sweep needs --n-list or a config with N_list")
    elif mode == "field":
        grid = _given(args, GRID_FLAGS)
        if grid:
            d["z_grid"] = grid = {**d.get("z_grid", {}), **grid}
            missing = [k for k in GRID_FLAGS if k not in grid]
            if missing:
                raise ConfigError(f"field mode is missing grid values: {missing}")
        elif "z_grid" not in d:
            raise ConfigError("field needs z-grid flags or a config with z_grid")
    else:
        d.pop("N_list", None)
        d.pop("z_grid", None)
    return config_from_dict(d)


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


def _fmt(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _print_floor_flag(below: bool) -> None:
    """A line only for a result that reads singular values under the SVD floor."""
    if below:
        print("below_svd_floor = True")


def _write(records, prefix, summary) -> None:
    """Write the artifacts under ``prefix`` (if any) and list them on stdout."""
    if prefix:
        for path in write_results(records, prefix, summary):
            print(f"wrote {path}")


def _cmd_equiv(args) -> int:
    config = _resolve_config(args, "single")
    spec = config.matrix
    singvals = spectrum_of(spec)
    params = config.params.resolve(singvals, spec.n)
    rhs = deterministic_equivalent(singvals, params.alpha)
    cutoff_index = n_star(singvals, params.gamma, params.eta)
    floor = svd_floor(spec, singvals)
    _print_kv(
        [
            ("matrix", f"{spec.kind} N={spec.n}" + (f" shift={spec.shift}" if spec.shift is not None else "")),
            ("alpha", params.alpha),
            ("M", params.m),
            ("nu_N", params.nu_n),
            ("rhs", rhs),
            (f"N_star(gamma={params.gamma}, eta={params.eta})", cutoff_index),
            ("bpz_inclusive", bpz_equivalent(singvals, cutoff_index, "inclusive")),
            ("bpz_drop_all_small", bpz_equivalent(singvals, cutoff_index, "drop_all_small")),
        ]
    )
    _print_floor_flag(params.alpha < floor or singvals[spec.n - cutoff_index] < floor)
    return EXIT_OK


def _cmd_grushin_verify(args) -> int:
    config = _resolve_config(args, "single")
    checks, summary = run_grushin_suite(config, workers=_resolve_workers(args))
    _print_kv(
        [
            ("checks_total", summary["checks_total"]),
            ("checks_failed", summary["checks_failed"]),
            ("alpha", summary["alpha"]),
            ("M", summary["M"]),
            ("delta", summary["delta"]),
            ("ok", summary["ok"]),
        ]
    )
    _write(checks, config.output, summary)
    if not summary["ok"]:
        for failing in summary["failing"]:
            print(f"FAILED {failing['check']}: lhs={_fmt(failing['lhs'])} rhs={_fmt(failing['rhs'])}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_mc(args) -> int:
    config = _resolve_config(args, "single")
    records, summary = run_theorem2(config, workers=_resolve_workers(args), diagnostics=args.diagnostics)
    _print_kv(
        [
            ("N", summary["N"]),
            ("model", summary["model"]),
            ("trials", summary["trials"]),
            ("alpha", summary["alpha"]),
            ("M", summary["M"]),
            ("delta", summary["delta"]),
            ("outside_theorem", summary["outside_theorem"]),
            ("rhs", summary["rhs"]),
            ("error_bound", summary["error_bound"]),
            ("success_frequency", summary["success_frequency"]),
            ("floor_partial", summary["floor_partial"]),
            ("eps_hat", summary["eps_hat"]),
            ("error_median", summary["error"]["median"]),
            ("error_q95", summary["error"]["q95"]),
        ]
    )
    _print_floor_flag(summary["below_svd_floor"])
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
    _print_kv(
        [
            ("flagged_steps", summary["flagged_steps"]),
            ("medians_strictly_decreasing", summary["medians_strictly_decreasing"]),
        ]
    )
    _write(records, config.output, summary)
    return EXIT_OK


def _cmd_field(args) -> int:
    config = _resolve_config(args, "field")
    points, summary = log_potential_field(config, workers=_resolve_workers(args))
    _print_kv(
        [
            ("N", summary["N"]),
            ("points", summary["points"]),
            ("trials", summary["trials"]),
            ("delta", summary["delta"]),
            ("mean_abs_gap", summary["mean_abs_gap"]),
            ("max_abs_gap", summary["max_abs_gap"]),
        ]
    )
    _print_floor_flag(summary["below_svd_floor"])
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


_COMMANDS = {
    "equiv": _cmd_equiv,
    "grushin-verify": _cmd_grushin_verify,
    "mc": _cmd_mc,
    "sweep": _cmd_sweep,
    "field": _cmd_field,
    "probe-noise": _cmd_probe_noise,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
