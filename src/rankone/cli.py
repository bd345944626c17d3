"""Command-line frontend: bounds tables, samplers, ratio computation and
verification experiments.

stdout carries machine-readable output only; diagnostics go to stderr.
Randomness always requires an explicit --seed.
"""

import argparse
import json
import sys

from .bounds import (
    bounds_general,
    bounds_partially_symmetric,
    bounds_symmetric,
    bounds_symmetric_large_d,
)
from .experiments import (
    UsageError,
    _bound_dict,
    _fmt,
    estimate_ratio_distribution,
    export_report,
    render_report,
    verify_bw_l2_constant,
    tail_empirical_vs_bound,
    trend_large_d,
    verify_bounds,
)
from .poly import dump_multi_poly, dump_poly, load_poly
from .sampling import (
    gaussian_harmonic,
    gaussian_multi_harmonic,
    gaussian_tensor,
    kostlan_form,
    kostlan_multi,
)
from .spectral import MaximizerConfig, approx_error, ratio, spectral_value, total_norm
from .tensor import REAL, Tensor, dump_tensor, load_tensor

import numpy as np


def _ints(s):
    return tuple(int(x) for x in s.split(","))


def _floats(s):
    return tuple(float(x) for x in s.split(","))


def _emit(data):
    sys.stdout.write(json.dumps(_fmt(data), sort_keys=True, indent=2) + "\n")


def _build_parser():
    parser = argparse.ArgumentParser(
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
    p.add_argument("--shape", type=_ints, help="general tensor shape, e.g. 2,2,2")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ds", type=_ints, help="degrees per block, e.g. 2,3")
    p.add_argument("--ns", type=_ints, help="dimensions per block, e.g. 2,2")
    p.add_argument("--field", choices=["real", "complex"], default="real")

    p = subparsers["sample"] = sub.add_parser("sample", help="draw from a probabilistic model")
    p.add_argument(
        "--model",
        required=True,
        choices=["gaussian-tensor", "kostlan", "kostlan-multi", "harmonic", "multi-harmonic"],
    )
    p.add_argument("--shape", type=_ints)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ds", type=_ints)
    p.add_argument("--ns", type=_ints)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", help="output file (stdout when omitted)")

    p = subparsers["ratio"] = sub.add_parser(
        "ratio", help="spectral value, ratio and approximation error"
    )
    p.add_argument("--in", dest="infile", help="serialized tensor or polynomial")
    p.add_argument("--identity", action="store_true", help="identity-matrix fixture")
    p.add_argument("--n", type=int)
    p.add_argument("--random", action="store_true", help="draw the input from a model")
    p.add_argument(
        "--model",
        choices=["gaussian-tensor", "kostlan", "kostlan-multi", "harmonic"],
    )
    p.add_argument("--shape", type=_ints)
    p.add_argument("--d", type=int)
    p.add_argument("--ds", type=_ints)
    p.add_argument("--ns", type=_ints)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--seed", type=int)
    p.add_argument("--starts", type=int, default=32)

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
    p.add_argument("--N", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d-grid", type=_ints)
    _add_experiment_flags(p)
    return parser, subparsers


def _add_experiment_flags(p):
    p.add_argument(
        "--model",
        choices=[
            "gaussian-tensor",
            "kostlan",
            "kostlan-multi",
            "harmonic",
            "projection",
            "rank-one",
            "identity",
        ],
    )
    p.add_argument("--shape", type=_ints)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ds", type=_ints)
    p.add_argument("--ns", type=_ints)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")


_CONFIG_CONVERTERS = {
    "shape": _ints,
    "ds": _ints,
    "ns": _ints,
    "d_grid": _ints,
    "t_grid": _floats,
    "d": int,
    "n": int,
    "N": int,
    "k": int,
    "seed": int,
    "samples": int,
    "starts": int,
    "workers": int,
    "count": int,
}


def _apply_config_file(subparsers, argv):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    defaults = {}
    with open(known.config) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            defaults[key.strip().replace("-", "_")] = val.strip()
    parsed = {
        k: (_CONFIG_CONVERTERS[k](v) if k in _CONFIG_CONVERTERS else v)
        for k, v in defaults.items()
    }
    for sp in subparsers.values():
        dests = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in parsed.items() if k in dests})


# flags each --model needs
_MODEL_FLAGS = {
    "gaussian_tensor": ("shape", "field"),
    "kostlan": ("d", "n", "field"),
    "harmonic": ("d", "n"),
    "kostlan_multi": ("ds", "ns", "field"),
    "projection": ("N", "k", "field"),
    "rank_one": ("shape", "field"),
    "identity": ("n",),
}


def _required(args, what, keys):
    """{key: flag value} for keys; UsageError naming every missing flag."""
    values = {k: getattr(args, k, None) for k in keys}
    missing = ["--" + k.replace("_", "-") for k, v in values.items() if v is None]
    if missing:
        raise UsageError(f"{what} needs {', '.join(missing)}")
    return values


def _model_params(args):
    if not args.model:
        raise UsageError("--model required")
    name = args.model.replace("-", "_")
    if name not in _MODEL_FLAGS:
        raise UsageError(f"unknown model {args.model!r}")
    return name, _required(args, f"--model {args.model}", _MODEL_FLAGS[name])


def _cmd_bounds(args):
    if args.sym:
        if args.large_d:
            bset = bounds_symmetric_large_d(args.d, args.n, args.field)
        else:
            bset = bounds_symmetric(args.d, args.n, args.field)
    elif args.partial:
        bset = bounds_partially_symmetric(args.ds, args.ns, args.field)
    elif args.shape:
        bset = bounds_general(args.shape, args.field)
    else:
        raise UsageError("pick one of --sym, --partial or --shape")
    _emit(_bound_dict(bset))
    return 0


def _cmd_sample(args):
    chunks = []
    for i in range(args.count):
        if args.model == "gaussian-tensor":
            obj = gaussian_tensor(args.shape, args.field, args.seed, i)
            chunks.append(dump_tensor(obj))
        elif args.model == "kostlan":
            chunks.append(dump_poly(kostlan_form(args.d, args.n, args.field, args.seed, i)))
        elif args.model == "kostlan-multi":
            chunks.append(
                dump_multi_poly(kostlan_multi(args.ds, args.ns, args.field, args.seed, i))
            )
        elif args.model == "harmonic":
            chunks.append(dump_poly(gaussian_harmonic(args.d, args.n, args.seed, i)))
        else:
            chunks.append(dump_multi_poly(gaussian_multi_harmonic(args.ds, args.ns, args.seed, i)))
    text = "\n".join(chunks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.count} sample(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_ratio(args):
    if args.identity:
        if not args.n:
            raise UsageError("--identity needs --n")
        obj = Tensor(np.eye(args.n), REAL)
    elif args.infile:
        with open(args.infile) as fh:
            text = fh.read()
        obj = load_tensor(text) if text.startswith("tensor") else load_poly(text)
    elif args.random:
        if args.seed is None:
            raise UsageError("--random needs an explicit --seed")
        name, params = _model_params(args)
        from .experiments import _draw

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
    if args.seed is None:
        raise UsageError("verify needs an explicit --seed")
    name, params = _model_params(args)
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
        name, params = _model_params(args)
        report = tail_empirical_vs_bound(
            name, params, args.samples, args.t_grid, args.seed, cfg, args.workers
        )
    else:
        _required(args, "trend", ("n", "d_grid"))
        report = trend_large_d(args.n, args.d_grid, args.samples, args.seed, cfg, args.workers)
    return _finish_report(report, args)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    _apply_config_file(subparsers, argv)
    args = parser.parse_args(argv)
    handlers = {
        "bounds": _cmd_bounds,
        "sample": _cmd_sample,
        "ratio": _cmd_ratio,
        "verify": _cmd_verify,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
