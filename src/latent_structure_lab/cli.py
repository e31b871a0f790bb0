"""Command-line front end: gen-model, sample, estimate, search, experiment, plot.

Every subcommand is a thin shell over library operations. Data goes to
files or standard output; informational output goes to standard error.
Exit codes: 0 success, 2 usage or malformed input, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .estimate import BIT_CASES, EstimatorConfig, em_two_type_many, fit_bit_case, mixture_rows
from .experiment import (
    ExpensiveSearchError,
    config_from_jsonable,
    ladder_search_config,
    spec_from_jsonable,
)
from .pipeline import run_experiment
from .prob import (
    CapacityError,
    Categorical,
    dirichlet_mean_rows,
    kl_divergence,
    kl_divergence_rows,
)
from .report import read_curves_csv, render_svg, write_json, write_svg
from .rng import RngState
from .search import SearchConfig, candidate_count, search, search_result_jsonable
from .simulate import (
    BitsConfig,
    BitVectorTruth,
    ConfigError,
    DatasetParseError,
    UrnConfig,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    dataset_digest,
    draw_bitvectors,
    draw_urn_samples,
    read_bits_dataset,
    read_model,
    read_urn_dataset,
    true_joint,
    write_bits_dataset,
    write_model,
    write_urn_dataset,
)

URN_CASES = ("raw", "ours")


class UsageError(ValueError):
    pass


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file {path}: not valid JSON ({exc})") from exc


def _cmd_gen_model(args: argparse.Namespace) -> int:
    config_payload = _load_json(args.config, "config") if args.config else {}
    if args.kind == "urns":
        truth = build_urn_truth(config_from_jsonable(UrnConfig, config_payload, "config"), args.seed)
    else:
        truth = build_bitvector_truth(
            config_from_jsonable(BitsConfig, config_payload, "config"), args.seed
        )
    write_model(args.out, truth)
    _info(f"wrote {args.kind} model to {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    truth = read_model(args.model)
    rng = RngState(args.seed)
    if isinstance(truth, UrnTruth):
        rows, _ = draw_urn_samples(truth, rng, args.n)
        write_urn_dataset(args.out, rows)
    else:
        patterns, _ = draw_bitvectors(truth, rng, args.n)
        write_bits_dataset(args.out, patterns.tolist(), truth.v)
    _info(f"wrote {args.n} samples to {args.out}")
    return 0


def _estimate_urns(args: argparse.Namespace, truth: UrnTruth | None) -> dict:
    rows = read_urn_dataset(args.data)
    n_urns = truth.n_urns if truth else 4
    n_colors = truth.n_colors if truth else 8
    outside = np.flatnonzero((rows[:, 0] >= n_urns) | (rows[:, 1] >= n_colors))
    if outside.size:
        urn, color = (rows[outside[0]] + 1).tolist()
        raise UsageError(f"data: sample ({urn}, {color}) outside model range")
    counts = np.bincount(rows[:, 0] * n_colors + rows[:, 1], minlength=n_urns * n_colors)
    counts = counts.reshape(n_urns, n_colors).astype(np.float64)
    cfg = EstimatorConfig()
    if args.case == "raw":
        dists = dirichlet_mean_rows(counts, cfg.pseudocount)
    else:
        q, resp = em_two_type_many(counts[None], cfg, [args.seed])
        dists = mixture_rows(resp[0], q[0, 0], q[0, 1])
    if truth is not None:
        kls = [float(kl_divergence_rows(truth.urn_dist(i), dists[i])) for i in range(n_urns)]
        for i, kl in enumerate(kls):
            _info(f"KL urn {i + 1}: {kl:.6f}")
        total = kls[0] + 0.0  # left to right, as the four-urns curve totals add
        for kl in kls[1:]:
            total += kl
        _info(f"KL total: {total:.6f}")
    return {"case": args.case, "estimates": dists.tolist()}


def _estimate_bits(args: argparse.Namespace, truth: BitVectorTruth | None) -> dict:
    """Works out the grouping (--model, or a search for c1/c12) and fits the case once."""
    patterns, v = read_bits_dataset(args.data)
    if truth is not None and truth.v != v:
        raise UsageError(f"data: bit width {v} does not match the model's {truth.v}")
    payload: dict = {"case": args.case, "v": v}
    grouping = truth.hidden_grouping if truth is not None else None
    assignment = None
    if args.case in ("c13", "c123") and truth is None:
        raise UsageError(f"case {args.case} requires --model (it supplies the grouping)")
    if args.case in ("c1", "c12"):
        if args.g is None or args.s is None:
            if truth is None:
                raise UsageError(f"case {args.case} requires --g and --s (or --model)")
            g, s = truth.hidden_grouping.g, truth.hidden_grouping.s
        else:
            g, s = args.g, args.s
        cfg_search = ladder_search_config(args.case, v, g, s, "paper_plugin", args.workers)
        best = search(patterns, cfg_search)[0].candidate
        grouping, assignment = best.grouping, best.assignment
        if assignment:
            payload["assignment"] = list(assignment)
    assignments = None if assignment is None else [assignment]
    fit = fit_bit_case(
        args.case, patterns, [len(patterns)], v, EstimatorConfig(), [grouping], assignments, [args.seed]
    )
    if args.case == "c0":
        payload["bit_probs"] = fit.factors[0].tolist()
    elif args.case != "c0p":
        payload["grouping"] = [[var + 1 for var in grp] for grp in grouping.slots]
    joint = Categorical(fit.joints(0, 1)[0])
    if truth is not None:
        _info(f"KL joint: {kl_divergence(true_joint(truth), joint):.6f}")
    payload["joint"] = joint.to_list()
    return payload


def _cmd_estimate(args: argparse.Namespace) -> int:
    truth = read_model(args.model) if args.model else None
    if args.case in URN_CASES:
        if truth is not None and not isinstance(truth, UrnTruth):
            raise UsageError(f"case {args.case}: --model must be an urns model")
        payload = _estimate_urns(args, truth)
    elif args.case in BIT_CASES:
        if truth is not None and not isinstance(truth, BitVectorTruth):
            raise UsageError(f"case {args.case}: --model must be a bits model")
        payload = _estimate_bits(args, truth)
    else:
        raise UsageError(f"case: unknown id {args.case!r} (valid: {URN_CASES + BIT_CASES})")
    write_json(args.out, payload)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    patterns, v = read_bits_dataset(args.data)
    if args.v != v:
        raise UsageError(f"--v {args.v} does not match the dataset's bit width {v}")
    cfg = SearchConfig(
        v=args.v,
        g=args.g,
        s=args.s,
        num_types=args.types if args.types is not None else (1 if args.mode == "case1" else 2),
        mode=args.mode,
        scorer="paper_plugin" if args.scorer == "paper" else "dirichlet_marginal",
        workers=args.workers,
        top_k=args.top_k,
    )
    started = time.perf_counter()
    results = search(patterns, cfg)
    elapsed = time.perf_counter() - started
    _info(
        f"searched {candidate_count(cfg):,} candidates over {len(patterns)} samples "
        f"in {elapsed:.2f}s"
    )
    write_json(args.out, search_result_jsonable(cfg, dataset_digest(patterns, v), results))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = spec_from_jsonable(_load_json(args.spec, "spec"))
    manifest = run_experiment(spec, args.out_dir, allow_expensive=args.allow_expensive)
    _info(f"experiment outputs in {args.out_dir}: {', '.join(manifest['outputs'])}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    entries = read_curves_csv(args.csv)
    curves = [
        (case if run == "avg" else f"{case} (run {run})", curve) for case, run, curve in entries
    ]
    write_svg(args.out, render_svg(curves, log_y=args.log_y))
    _info(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsl",
        description="Latent-structure laboratory: simulate, estimate, search, plot.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    default_workers = int(os.environ.get("LSL_WORKERS", "1"))

    p = sub.add_parser("gen-model", help="generate a ground-truth model file")
    p.add_argument("--kind", choices=("urns", "bits"), required=True)
    p.add_argument("--config", help="JSON config file (defaults per kind)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_model)

    p = sub.add_parser("sample", help="draw samples from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("estimate", help="run one estimator case over a dataset")
    p.add_argument("--case", required=True, help=f"one of {URN_CASES + BIT_CASES}")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="model file; enables KL reporting")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--g", type=int, help="groups (c1/c12 without --model)")
    p.add_argument("--s", type=int, help="slots per group (c1/c12 without --model)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=default_workers)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("search", help="exhaustive structure search over a bits dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--types", type=int, help="shared types (default: 1 for case1, 2 for case12)")
    p.add_argument("--mode", choices=("case1", "case12"), default="case12")
    p.add_argument("--scorer", choices=("paper", "marginal"), default="paper")
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("experiment", help="run an experiment spec end to end")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--allow-expensive", action="store_true", dest="allow_expensive")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("plot", help="render a curves CSV as an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log-y", action="store_true", dest="log_y")
    p.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
    )
    try:
        return args.handler(args)
    except (UsageError, ConfigError, DatasetParseError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpensiveSearchError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
