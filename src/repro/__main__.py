"""Command-line interface.

Subcommands mirror the deployment workflow:

* ``profile``      -- generate a synthetic corpus and profile it;
* ``train``        -- fit a Triple-C model from saved traces;
* ``evaluate``     -- held-out predict/observe accuracy of a model;
* ``experiments``  -- regenerate paper tables/figures
  (same as ``python -m repro.experiments``).

``profile`` and ``evaluate`` resolve the application through the
workload registry (``repro.workloads``); ``--workload`` picks the
entry (default ``stentboost``).

Examples::

    python -m repro profile --sequences 8 --frames 400 --out traces.json
    python -m repro profile --workload ultrasound --out us-traces.json
    python -m repro train --traces traces.json --out model.json
    python -m repro evaluate --model model.json --seed 4242 --frames 100
    python -m repro experiments fig7 table2
"""

from __future__ import annotations

import argparse

import numpy as np


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling import ProfileConfig, profile_corpus
    from repro.synthetic import CorpusSpec, XRaySequence
    from repro.workloads import get_workload

    wl = get_workload(args.workload)
    spec = CorpusSpec(
        n_sequences=args.sequences,
        total_frames=args.frames,
        base_seed=args.seed,
    )
    print(
        f"profiling {wl.name}: {spec.n_sequences} sequences / "
        f"{spec.total_frames} frames ..."
    )
    sequences = [XRaySequence(cfg) for cfg in wl.corpus_configs(spec)]
    traces = profile_corpus(
        sequences, ProfileConfig(seed=args.seed, workload=wl.name)
    )
    traces.save(args.out)
    print(f"wrote {len(traces)} trace records to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core import TripleC
    from repro.core.serialize import save_model
    from repro.profiling import TraceSet

    traces = TraceSet.load(args.traces)
    model = TripleC.fit(traces)
    save_model(model, args.out)
    print(f"trained on {len(traces)} frames; models:")
    for task, kind in model.computation.summary():
        print(f"  {task:14s} {kind}")
    print(f"wrote model to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core import prediction_accuracy
    from repro.core.serialize import load_model
    from repro.profiling import ProfileConfig
    from repro.runtime import FrameEngine, StaticSerialPolicy
    from repro.synthetic import SequenceConfig, XRaySequence
    from repro.workloads import DEFAULT_WORKLOAD, get_workload

    wl = get_workload(args.workload)
    model = load_model(args.model)
    if set(model.graph.tasks) != set(wl.build_graph().tasks):
        print(
            f"model {args.model} was trained for a different "
            f"workload than {wl.name!r}"
        )
        return 2
    config = ProfileConfig(workload=wl.name)
    if wl.name == DEFAULT_WORKLOAD:
        # The pre-registry evaluation sequence, kept bit-identical.
        seq = XRaySequence(SequenceConfig(n_frames=args.frames, seed=args.seed))
    else:
        from repro.synthetic import CorpusSpec

        spec = CorpusSpec(
            n_sequences=1, total_frames=args.frames, base_seed=args.seed
        )
        seq = XRaySequence(wl.corpus_configs(spec)[0])
    pipe = wl.make_pipeline(seq, None)
    engine = FrameEngine(config.make_simulator(), StaticSerialPolicy(model=model))
    result = engine.run(seq, pipe, seq_key=args.seed)
    preds, actuals = [], []
    for log in result.frames:
        if log.index >= 3:
            preds.append(log.predicted_ms)
            actuals.append(log.serial_ms)
    rep = prediction_accuracy(np.asarray(preds), np.asarray(actuals))
    print(
        f"seed {args.seed}, {rep.n} frames: mean accuracy "
        f"{rep.mean_accuracy * 100:.1f}%, median "
        f"{rep.median_accuracy * 100:.1f}%, excursions >20%: "
        f"{rep.excursion_fraction * 100:.1f}%"
    )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.names)


def cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments import default_context
    from repro.experiments.export import export_csv, run_figures
    from repro.experiments.svgfig import export_svg

    ctx = default_context()
    figures = run_figures(ctx)
    files = export_csv(ctx, args.out, figures)
    files += export_svg(args.out, figures)
    for f in files:
        print(f"wrote {f}")
    return 0


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    from repro.workloads import DEFAULT_WORKLOAD, workload_names

    parser.add_argument(
        "--workload",
        default=DEFAULT_WORKLOAD,
        choices=workload_names(),
        help="registered application to run (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Triple-C reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile a synthetic corpus")
    p.add_argument("--sequences", type=int, default=8)
    p.add_argument("--frames", type=int, default=400)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--out", default="traces.json")
    _add_workload_arg(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("train", help="fit Triple-C from traces")
    p.add_argument("--traces", default="traces.json")
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="held-out accuracy of a model")
    p.add_argument("--model", default="model.json")
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--frames", type=int, default=100)
    _add_workload_arg(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiments", help="regenerate paper artefacts")
    p.add_argument("names", nargs="*", help="experiment names (default: all)")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("export", help="write figure series as CSV")
    p.add_argument("--out", default="figures")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
