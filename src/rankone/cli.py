"""Command-line frontend: bounds tables, samplers, ratio computation and
verification experiments.

stdout carries machine-readable output only; diagnostics go to stderr.
Randomness always requires an explicit --seed.
"""

import argparse
import gc
import json
import math
import re
import sys

from .bounds import (
    bounds_general,
    bounds_partially_symmetric,
    bounds_symmetric,
    bounds_symmetric_large_d,
)
from .experiments import (
    MODELS,
    UsageError,
    _bound_dict,
    _draw,
    _fmt,
    export_report,
    render_report,
    verify_bw_l2_constant,
    tail_empirical_vs_bound,
    trend_large_d,
    verify_bounds,
)
from .poly import dump_poly, load_poly
from .spectral import MaximizerConfig, spectral_value, total_norm
from .tensor import Tensor, dump_tensor, load_tensor

import numpy as np


class _FlagError(argparse.ArgumentTypeError, ValueError):
    """A bad flag value: argparse prints its message as it is, and as a
    ValueError a --config value fails like any other."""


def _ints(s):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise _FlagError(f"expected comma-separated integers, e.g. 2,3, got {s!r}") from None


def _at_least(name, low):
    """Type of the integer flag --``name``, whose values are at least ``low``."""

    def parse(s):
        try:
            value = int(s)
        except ValueError:
            raise _FlagError(f"expected an integer, got {s!r}") from None
        if value < low:
            raise _FlagError(f"need {name} >= {low}, got {value}")
        return value

    return parse


def _floats(s):
    try:
        vals = tuple(float(x) for x in s.split(","))
        # float() also reads nan, inf and overflows such as 1e999 as inf
        if all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    raise _FlagError(f"expected comma-separated numbers, e.g. 0.5,0.9, got {s!r}")


def _emit(data):
    sys.stdout.write(json.dumps(_fmt(data), sort_keys=True, indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are one ``error:`` line and exit 2,
    without the usage block; its subparsers are of the same class."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _add_space_flags(p, model=False):
    """The flags that pick a problem space, and --model if ``model``."""
    if model:
        p.add_argument("--model", choices=[name.replace("_", "-") for name in MODELS])
    p.add_argument("--shape", type=_ints, help="tensor shape, e.g. 2,2,2")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ds", type=_ints, help="degrees per block, e.g. 2,3")
    p.add_argument("--ns", type=_ints, help="dimensions per block, e.g. 2,2")
    p.add_argument("--field", choices=["real", "complex"], default="real")


def _build_parser():
    parser = _Parser(
        prog="rankone",
        description="Spectral/Frobenius norm ratios of tensors and forms, "
        "with closed-form bounds and Monte Carlo verification.",
    )
    parser.add_argument("--config", help="key = value file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["bounds"] = sub.add_parser(
        "bounds", help="print a bound table for one problem"
    )
    p.add_argument("--sym", action="store_true", help="symmetric tensors Sym^d(K^n)")
    p.add_argument("--partial", action="store_true", help="partially symmetric tensors")
    p.add_argument("--large-d", action="store_true", help="explicit large-degree sandwich")
    _add_space_flags(p)

    p = subparsers["sample"] = sub.add_parser("sample", help="draw from a probabilistic model")
    _add_space_flags(p, model=True)
    p.add_argument("--seed", type=_at_least("seed", 0))
    p.add_argument("--count", type=_at_least("count", 1), default=1)
    p.add_argument("--out", help="output file (stdout when omitted)")

    p = subparsers["ratio"] = sub.add_parser(
        "ratio", help="spectral value, ratio and approximation error"
    )
    p.add_argument("--in", dest="infile", help="serialized tensor or polynomial")
    p.add_argument("--identity", action="store_true", help="identity-matrix fixture")
    p.add_argument("--random", action="store_true", help="draw the input from a model")
    _add_space_flags(p, model=True)
    p.add_argument("--seed", type=_at_least("seed", 0))
    p.add_argument("--starts", type=_at_least("starts", 1), default=32)

    p = subparsers["verify"] = sub.add_parser(
        "verify", help="sandwich verification for a model"
    )
    _add_experiment_flags(p)

    p = subparsers["experiment"] = sub.add_parser(
        "experiment", help="tail / kernel-identity / large-d studies"
    )
    p.add_argument(
        "--kind", required=True, choices=["tail", "bw-l2", "trend"]
    )
    p.add_argument("--t-grid", type=_floats, default=(0.3, 0.5, 0.7, 0.9))
    p.add_argument("--N", type=int, metavar="DIM", help="ambient dimension of the projection model")
    p.add_argument("--k", type=int)
    p.add_argument("--d-grid", type=_ints)
    _add_experiment_flags(p)
    return parser, subparsers


def _add_experiment_flags(p):
    _add_space_flags(p, model=True)
    p.add_argument("--samples", type=_at_least("samples", 1), default=100)
    p.add_argument("--seed", type=_at_least("seed", 0))
    p.add_argument("--starts", type=_at_least("starts", 1), default=32)
    p.add_argument("--workers", type=_at_least("workers", 1), default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _apply_config_file(subparsers, argv):
    """Set the defaults of every subparser from a --config file, each value
    converted and checked as the flag of the same name would be; a switch
    such as ``sym`` reads ``true`` or ``false``.  A key that is no flag of
    any subcommand is refused; a flag of another subcommand is not.  A ``#``
    at the start of a line or after whitespace starts a comment; one inside
    a value (``out = run#1.json``) is part of it."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return
    with open(path) as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise UsageError(f"{path} line {lineno}: expected key = value, got {line!r}")
        flag = "--" + key.replace("_", "-")
        found = [
            (sp, action)
            for sp in subparsers.values()
            for action in sp._actions
            if flag in action.option_strings and not isinstance(action, argparse._HelpAction)
        ]
        if not found:
            raise UsageError(f"{path} line {lineno}: unknown key {key!r}")
        for sp, action in found:
            try:
                if isinstance(action, argparse._StoreTrueAction):
                    value = {"true": True, "false": False}[text]
                else:
                    value = action.type(text) if action.type else text
                    if action.choices and value not in action.choices:
                        raise ValueError
            except (KeyError, ValueError):
                raise UsageError(f"{path} line {lineno}: bad {key} value {text!r}") from None
            sp.set_defaults(**{action.dest: value})


def _required(args, what, keys):
    """{key: flag value} for keys; UsageError naming every missing flag."""
    values = {k: getattr(args, k, None) for k in keys}
    missing = ["--" + k.replace("_", "-") for k, v in values.items() if v is None]
    if missing:
        raise UsageError(f"{what} needs {', '.join(missing)}")
    return values


def _model_params(args, command=None, part=None):
    """(table name, {param: flag value}) of --model; UsageError when a flag
    is missing or the model has no ``part`` entry, which ``command`` needs."""
    if not args.model:
        raise UsageError("--model required")
    name = args.model.replace("-", "_")
    if part and getattr(MODELS[name], part) is None:
        raise UsageError(
            f"{command} cannot serve --model {args.model}: it has no {part.replace('_', ' ')}"
        )
    return name, _required(args, f"--model {args.model}", MODELS[name].params)


def _cmd_bounds(args):
    if args.sym:
        p = _required(args, "--sym", ("d", "n"))
        bounds = bounds_symmetric_large_d if args.large_d else bounds_symmetric
        bset = bounds(p["d"], p["n"], args.field)
    elif args.partial:
        p = _required(args, "--partial", ("ds", "ns"))
        bset = bounds_partially_symmetric(p["ds"], p["ns"], args.field)
    elif args.shape:
        bset = bounds_general(args.shape, args.field)
    else:
        raise UsageError("pick one of --sym, --partial or --shape")
    _emit(_bound_dict(bset))
    return 0


def _dump(obj):
    if isinstance(obj, Tensor):
        return dump_tensor(obj)
    return dump_poly(obj)


def _cmd_sample(args):
    name, params = _model_params(args, "sample", "sampler")
    if args.seed is None:
        raise UsageError("sample needs an explicit --seed")
    text = "\n".join(_dump(_draw(name, params, args.seed, i)) for i in range(args.count))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.count} sample(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_ratio(args):
    if args.identity:
        obj = _draw("identity", _required(args, "--identity", MODELS["identity"].params), 0, 0)
    elif args.infile:
        with open(args.infile) as fh:
            text = fh.read()
        obj = load_tensor(text) if text.startswith("tensor") else load_poly(text)
    elif args.random:
        if args.seed is None:
            raise UsageError("--random needs an explicit --seed")
        name, params = _model_params(args, "ratio --random", "sampler")
        obj = _draw(name, params, args.seed, 0)
    else:
        raise UsageError("pick one of --in, --identity or --random")
    cfg = MaximizerConfig(starts=args.starts, seed=args.seed or 0)
    res = spectral_value(obj, cfg)
    total = total_norm(obj)
    _emit(
        {
            "spectral_value": res.value,
            "frobenius_norm": total,
            "ratio": res.value / total,
            "approx_error": float(np.sqrt(max(0.0, 1.0 - (res.value / total) ** 2))),
            "converged": bool(res.converged),
        }
    )
    return 0


def _finish_report(report, args):
    if args.out:
        export_report(report, args.out, args.format)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(render_report(report, args.format))
    return 0 if report.all_passed else 1


def _cmd_verify(args):
    name, params = _model_params(args, "verify", "bound_set")
    if args.seed is None:
        raise UsageError("verify needs an explicit --seed")
    cfg = MaximizerConfig(starts=args.starts)
    report = verify_bounds(name, params, args.samples, cfg, args.seed, args.workers)
    return _finish_report(report, args)


def _cmd_experiment(args):
    if args.kind == "bw-l2":
        _required(args, "bw-l2", ("d", "n"))
        report = verify_bw_l2_constant(args.d, args.n, args.seed or 0)
        return _finish_report(report, args)
    if args.seed is None:
        raise UsageError("experiment needs an explicit --seed")
    cfg = MaximizerConfig(starts=args.starts)
    if args.kind == "tail":
        name, params = _model_params(args, "experiment --kind tail", "tail")
        report = tail_empirical_vs_bound(
            name, params, args.samples, args.t_grid, args.seed, cfg, args.workers
        )
    else:
        _required(args, "trend", ("n", "d_grid"))
        report = trend_large_d(args.n, args.d_grid, args.samples, args.seed, cfg, args.workers)
    return _finish_report(report, args)


def main(argv=None):
    """Run the command of ``argv`` (``sys.argv[1:]`` when None) and return
    its exit code.  Called without ``argv``, as the ``rankone`` script or
    ``python -m rankone.cli``, it owns the process, and it freezes the heap
    left by the imports before the command runs."""
    owns_process = argv is None
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    handlers = {
        "bounds": _cmd_bounds,
        "sample": _cmd_sample,
        "ratio": _cmd_ratio,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
    }
    try:
        _apply_config_file(subparsers, argv)
        args = parser.parse_args(argv)
        if owns_process:
            # the import-time objects live until the process ends: frozen, the
            # collections of the run and the final one at exit skip them, and a
            # forked worker starts from a heap it need not scan
            gc.freeze()
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
