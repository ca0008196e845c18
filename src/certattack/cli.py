"""Command-line driver.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 partial sweep.
"""
import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .attacks import certifier
from .errors import CertAttackError, GraphLoadError, ParameterError
from .experiment import (load_params, parse_config, parse_key, prepare_cell,
                         read_certificates_csv, read_delta_edges,
                         report_distribution, run_attack, run_sweep,
                         runtime_profile, save_params, write_certificates_csv,
                         write_delta_edges, write_report_csv)
from .gcn import predict_all, train
from .graph import classification_accuracy
from .smoothing import size_function

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


def _build_parser():
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None,
                     help="override the output directory")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--config", type=Path, help="experiment config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    parser = argparse.ArgumentParser(
        prog="certattack",
        description="certificate-guided attacks on graph neural networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, parent=common):
        cmd = sub.add_parser(name, parents=[parent], help=text)
        cmd.set_defaults(run=run)
        return cmd

    command("train", cmd_train, "train a clean model and save a checkpoint")
    cert = command("certify", cmd_certify,
                   "certify target nodes via randomized smoothing")
    cert.add_argument("--params", type=Path, default=None,
                      help="evasion: load a checkpoint instead of retraining")
    command("attack", cmd_attack, "run the config's attack mode (PGD "
            "evasion or Min-max poisoning)")
    sweep = command("sweep", cmd_sweep, "run the configured experiment sweep")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="concurrent sweep workers")
    sweep.add_argument("--resume", action="store_true",
                       help="skip sweep cells with an ok row in the raw CSV")
    dist = command("report-distribution", cmd_report_distribution,
                   "histogram perturbed edges by certified size", out)
    dist.add_argument("--delta", type=Path, required=True,
                      help="edge-flip list produced by an attack")
    dist.add_argument("--certificates", type=Path, required=True,
                      help="certificate CSV for the target nodes")
    prof = command("profile", cmd_profile,
                   "time attack and certification phases per N")
    prof.add_argument("--samples", type=str, default="5,10,20",
                      help="comma-separated Monte Carlo sample counts")
    return parser


def _load_config(args):
    if args.config is None:
        raise ParameterError("--config is required for this command")
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.out is not None:
        config = replace(config, out_dir=str(args.out))
    return config


def cmd_train(args) -> int:
    config = _load_config(args)
    graph, split, train_config, _ = prepare_cell(config, config.seeds[0])
    params = train(graph, split, graph.adjacency, train_config)
    path = Path(config.out_dir) / "params.bin"
    save_params(params, path)
    preds = predict_all(params, graph.adjacency, graph.features)
    acc_tr = classification_accuracy(preds, graph.labels, split.train)
    acc_te = classification_accuracy(preds, graph.labels, split.test)
    print(f"trained model saved to {path}")
    print(f"train accuracy {acc_tr:.4f}  test accuracy {acc_te:.4f}")
    return EXIT_OK


def cmd_certify(args) -> int:
    config = _load_config(args)
    graph, split, train_config, attack = prepare_cell(config, config.seeds[0])
    evasion = config.mode == "evasion"
    params = None
    if args.params:
        if not evasion:
            raise ParameterError("--params is for evasion only; poisoning "
                                 "certification trains its own replicates")
        params = load_params(args.params)
        d, C = graph.features.shape[1], graph.num_classes
        if params.W1.shape[0] != d or params.W2.shape[1] != C:
            raise ParameterError(
                f"{args.params}: checkpoint W1 {params.W1.shape} and W2 "
                f"{params.W2.shape} do not fit {d} features and {C} classes")
    elif evasion:
        params = train(graph, split, graph.adjacency, train_config)
    # the certificates of the attack's first refresh, on the clean graph
    _, _, certify = certifier(config.mode, graph, split, train_config,
                              attack, params)
    certs = certify(graph.adjacency)
    path = Path(config.out_dir) / "certificates.csv"
    write_certificates_csv(certs, attack.noise, attack.smoothing, path)
    certified = sum(1 for c in certs if c.certified_size > 0)
    N = attack.smoothing.num_samples
    with warnings.catch_warnings():  # only certify warns of saturation
        warnings.simplefilter("ignore")
        k_max = size_function(attack.noise, attack.smoothing)(N)
    print(f"{len(certs)} nodes certified ({certified} with K > 0, "
          f"K_max {k_max} at N={N}) -> {path}")
    if k_max == 0:
        print("K_max is 0, so every certified weight is expit(0) = 0.5")
    return EXIT_OK


def cmd_attack(args) -> int:
    config = _load_config(args)
    graph, split, train_config, attack = prepare_cell(config, config.seeds[0])
    report = run_attack(config.mode, graph, split, train_config, attack)
    path = Path(config.out_dir) / "attack_report.csv"
    write_report_csv(report, attack.scheme.tag, path)
    write_delta_edges(report.perturbation.binary, graph.adjacency,
                      path.with_name("delta_edges.tsv"))
    print(f"{config.mode} attack: scheme={attack.scheme.tag} "
          f"budget={attack.budget} flips={report.budget_used}")
    print(f"accuracy {report.pre_attack_accuracy:.4f} -> "
          f"{report.post_attack_accuracy:.4f} "
          f"({report.attack_seconds:.2f}s, cert {report.cert_seconds:.2f}s)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = run_sweep(config, jobs=args.jobs, resume=args.resume)
    failed = [r for r in rows if r.status != "ok"]
    print(f"sweep finished: {len(rows)} cells, {len(failed)} failed "
          f"-> {config.out_dir}")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_report_distribution(args) -> int:
    sizes = read_certificates_csv(args.certificates)
    if not sizes:
        raise ParameterError(f"{args.certificates}: no certificates found")
    delta = read_delta_edges(args.delta)
    path = Path(args.out or ".") / "distribution.csv"
    histogram = report_distribution(delta, sizes, path)
    print(f"distribution over {sum(histogram.values())} edge incidences "
          f"-> {path}")
    return EXIT_OK


def cmd_profile(args) -> int:
    config = _load_config(args)
    counts = [parse_key("attack", "num_samples", tok)
              for tok in args.samples.split(",") if tok.strip()]
    if not counts:
        raise ParameterError(f"--samples {args.samples!r} names no count")
    path = Path(config.out_dir) / "runtime_profile.csv"
    results = runtime_profile(config, counts, path)
    for n_samples, total, cert in results:
        print(f"N={n_samples}: attack {total:.2f}s, certification {cert:.2f}s")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParameterError, GraphLoadError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CertAttackError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
