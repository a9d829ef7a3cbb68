"""Command-line interface.

Subcommands: simulate, varsort, learn, evaluate, bench, chain, landscape,
realdata. Outputs are machine-readable (JSON to stdout or CSV files). A
user-input error ends a command with one line on stderr and status 2.
``bench`` and ``realdata`` run on as many worker processes as the
``VSB_THREADS`` environment variable asks for (default 1), but never more
than they have jobs or the process may use CPUs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import chainexp, contlearn, harness
from .errors import ConfigurationError, DataError, ParseError
from .graphs import GraphSpec, read_edge_list, sample_dag, write_edge_list
from .metrics import class_scores, dag_scores
from .rng import spawn_seed, substream
from .scm import (
    NoiseSpec,
    SigmaLaw,
    WeightLaw,
    sample_linear_scm,
    scm_to_json,
    simulate,
    standardize,
    write_dataset_csv,
)
from .varsort import empirical_variances, varsortability


def _weight_law(arg: str) -> WeightLaw:
    lo, hi = (float(v) for v in arg.split(","))
    return WeightLaw.symmetric(lo, hi)


def _sigma_law(arg: str) -> SigmaLaw:
    if ":" in arg:
        kind, rest = arg.split(":", 1)
    else:
        kind, rest = "fixed", arg
    if kind == "fixed":
        return SigmaLaw.fixed(float(rest))
    if kind == "uniform":
        lo, hi = (float(v) for v in rest.split(","))
        return SigmaLaw.uniform(lo, hi)
    raise argparse.ArgumentTypeError(f"cannot parse sigma law {arg!r}")


def _cmd_simulate(args) -> int:
    spec = GraphSpec(args.model, args.d, args.k)
    g = sample_dag(spec, spawn_seed(args.seed, "cli", "graph"))
    noise = NoiseSpec(args.noise, None, args.sigma)
    m = sample_linear_scm(g, args.weights, noise, spawn_seed(args.seed, "cli", "scm"))
    data = simulate(m, args.n, spawn_seed(args.seed, "cli", "data"))
    if args.standardize:
        data = standardize(data)
    write_dataset_csv(data, args.out_data)
    if args.out_scm:
        harness.write_json(args.out_scm, scm_to_json(m), indent=2)
    if args.out_truth:
        write_edge_list(g, args.out_truth)
    print(
        json.dumps(
            {
                "graph": spec.label,
                "noise": args.noise,
                "n": args.n,
                "edges": g.n_edges,
                "seed": args.seed,
                "varsortability": varsortability(g, empirical_variances(data)).v
                if g.n_edges
                else None,
            }
        )
    )
    return 0


def _cmd_varsort(args) -> int:
    data = harness.load_dataset_csv(args.data)
    g = read_edge_list(args.truth, d=data.d)
    report = varsortability(g, empirical_variances(data))
    print(
        json.dumps(
            {
                "v": report.v,
                "variance_source": report.variance_source,
                "per_path_length": [
                    {"length": l + 1, "sortable": s, "paths": c}
                    for l, (s, c) in enumerate(report.per_path_length)
                ],
                "n_paths": report.n_paths,
            }
        )
    )
    return 0


def _cmd_learn(args) -> int:
    data = harness.load_dataset_csv(args.data)
    settings = json.loads(args.settings) if args.settings else {}
    west = harness.run_learner(args.algo, data, settings, args.seed)
    harness.write_json(args.out, harness.weighted_to_json(west))
    print(json.dumps({"algo": args.algo, "out": args.out, "nonzero": int((west.w != 0).sum())}))
    return 0


def _cmd_evaluate(args) -> int:
    if args.estimate.endswith(".json"):
        with open(args.estimate, "r", encoding="utf-8") as fh:
            west = harness.weighted_from_json(json.load(fh))
        truth = read_edge_list(args.truth, d=west.d)
        est = contlearn.threshold_and_break_cycles(west, args.omega)
    else:
        truth = read_edge_list(args.truth)
        est = read_edge_list(args.estimate, d=truth.d)
    out = {**dag_scores(truth, est), "sid_mec_lower": None, "sid_mec_upper": None, "shd_cpdag": None}
    if args.mec:
        out.update(class_scores(truth, est))
    print(json.dumps(out))
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = harness.ExperimentConfig.from_json(json.load(fh))
    records = harness.run_benchmark(cfg, out_dir=args.out)
    errors = sum(1 for r in records if r.error)
    print(json.dumps({"records": len(records), "errors": errors, "out": args.out}))
    return 0


def _cmd_chain(args) -> int:
    writer = sys.stdout
    # Written with the first row, so a refused study prints nothing to stdout.
    header = "d,weight_law,regime,mode,rule,reps,n,accuracy,ties\n"
    for regime in args.regimes.split(","):
        for rule in args.rules.split(","):
            result = chainexp.chain_accuracy_study(
                d=args.d,
                weight_law=args.weights,
                reps=args.reps,
                regime=regime,
                rule=rule,
                mode=args.mode,
                n=args.n,
                sigma_law=args.sigma,
                noise_kind=args.noise,
                seed=args.seed,
            )
            writer.write(
                f"{header}{result.d},{result.weight_law},{result.regime},{result.mode},"
                f"{result.rule},{result.reps},{'' if result.n is None else result.n},"
                f"{result.accuracy!r},{result.tie_fraction!r}\n"
            )
            header = ""
    return 0


def _cmd_landscape(args) -> int:
    rng = substream(args.seed, "cli", "landscape-graph")
    g = contlearn.enumerate_3node_dags()[int(rng.integers(25))]
    m = sample_linear_scm(
        g,
        args.weights,
        NoiseSpec(args.noise, None, args.sigma),
        spawn_seed(args.seed, "cli", "landscape-scm"),
    )
    records = contlearn.landscape_3node(m, args.lambda1, standardize_input=args.standardize)
    writer = sys.stdout
    writer.write("candidate,edges,score,shd,sid,is_argmin\n")
    for idx, rec in enumerate(records):
        edges = ";".join(f"{i}->{j}" for i, j in rec.edges)
        writer.write(f"{idx},{edges},{rec.score!r},{rec.shd},{rec.sid},{int(rec.is_argmin)}\n")
    return 0


REALDATA_DEFAULTS = {"learners": "sortnregress,randomregress", "repetitions": 10, "seed": 0}


def _cmd_realdata(args) -> int:
    given = {key: getattr(args, key) for key in REALDATA_DEFAULTS if getattr(args, key) is not None}
    if args.config:
        if given:
            raise ConfigurationError(f"--config replaces --{', --'.join(given)}; give one or the other")
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = harness.ExperimentConfig.from_json(json.load(fh))
    else:
        flags = {**REALDATA_DEFAULTS, **given}
        cfg = harness.ExperimentConfig(
            graphs=(GraphSpec("ER", 2, 1),),  # placeholder; real-data runs ignore graph specs
            noise=("gaussian-nv",),
            learners=tuple(harness.LearnerConfig(name) for name in flags["learners"].split(",")),
            repetitions=flags["repetitions"],
            seed=flags["seed"],
        )
    records = harness.realdata_study(args.data, args.truth, cfg, out_dir=args.out)
    errors = sum(1 for r in records if r.error)
    v_values = sorted({r.varsortability for r in records if r.varsortability is not None})
    print(
        json.dumps(
            {
                "records": len(records),
                "errors": errors,
                "varsortability_mean": float(np.mean(v_values)) if v_values else None,
                "varsortability_std": float(np.std(v_values)) if v_values else None,
                "out": args.out,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsb",
        description="Benchmarks and diagnostics for structure learning on linear additive noise models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a model and write a dataset CSV")
    p.add_argument("--model", choices=("ER", "SF"), default="ER")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--noise", choices=("gaussian", "exponential", "gumbel"), default="gaussian")
    p.add_argument("--sigma", type=_sigma_law, default=SigmaLaw.uniform(0.5, 2.0),
                   help="fixed:V or uniform:LO,HI")
    p.add_argument("--weights", type=_weight_law, default=WeightLaw.symmetric(0.5, 2.0),
                   help="LO,HI for the symmetric union (-HI,-LO)|(LO,HI)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-scm")
    p.add_argument("--out-truth")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("varsort", help="variance sortedness of a dataset w.r.t. a truth edge list")
    p.add_argument("--data", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_varsort)

    p = sub.add_parser("learn", help="run one learner on a dataset CSV")
    p.add_argument("--algo", required=True, choices=sorted(harness.LEARNERS))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--settings", help="JSON object with learner settings")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("evaluate", help="score an estimate against a truth edge list")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True, help="weighted JSON or edge list")
    p.add_argument("--omega", type=float, default=0.3)
    p.add_argument("--mec", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("chain", help="chain-orientation accuracy study")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--weights", type=_weight_law, default=WeightLaw.symmetric(0.5, 2.0))
    p.add_argument("--sigma", type=_sigma_law, default=SigmaLaw.uniform(0.5, 2.0))
    p.add_argument("--regimes", default="raw,standardized,harmonized")
    p.add_argument("--rules", default="coefficients,variance")
    p.add_argument("--mode", choices=("population", "finite"), default="population")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise", choices=("gaussian", "exponential", "gumbel"), default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("landscape", help="exhaustive 3-node score landscape for one sampled model")
    p.add_argument("--lambda1", type=float, default=0.1)
    p.add_argument("--weights", type=_weight_law, default=WeightLaw.symmetric(0.5, 2.0))
    p.add_argument("--sigma", type=_sigma_law, default=SigmaLaw.uniform(0.5, 2.0))
    p.add_argument("--noise", choices=("gaussian", "exponential", "gumbel"), default="gaussian")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("realdata", help="bootstrap study on an observational dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--config", help="a bench config, in place of the three options below")
    p.add_argument("--learners", help=f"default {REALDATA_DEFAULTS['learners']}")
    p.add_argument("--repetitions", type=int, help=f"default {REALDATA_DEFAULTS['repetitions']}")
    p.add_argument("--seed", type=int, help=f"default {REALDATA_DEFAULTS['seed']}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_realdata)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A bad config, malformed JSON or another malformed
    input file, or unusable data is reported in one line on stderr with exit
    status 2; any other exception propagates with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParseError, DataError, json.JSONDecodeError) as err:
        print(f"vsb {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
