"""Command-line front end.

Subcommands: gen-signal, gen-background, forward, solve, sweep, image-bench,
location-bias, noise-bench, verify {uniqueness|stability|robustness|lmatrix|frip},
metrics. Exit codes: 0 success, 1 usage error, 2 data error, 3 acceptance-check
failure. BGRET_WORKERS is the fallback for --workers. Flags are spelled in
full; a prefix of one is a usage error.

image-bench is the 2-D benchmark at sigma = 0 and noise-bench the same at
--sigma; each study writes <stem>_trials.csv (with its manifest) and
<stem>_summary.json. Each verify target carries its analysis check and the
check's own flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, harness, metrics, solvers
from .io_formats import (ExperimentConfig, json_text, manifest_now, parse_float, parse_int,
                         read_config, read_image, read_signal_csv, sha256_of, shape_token,
                         write_image, write_lines, write_manifest, write_results,
                         write_signal_csv)
from .model import (IntensityMeasurements, Method, SolverConfig, SupportMask,
                    background_sizes_for, object_shape_for)
from .rng import Xoshiro256StarStar, check_seed, mix_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK_FAILED = 3

PRESETS = {
    # image size and image-bench trial count at desk scale vs the published scale
    "desk": {"image_n": 64, "image_trials": 10},
    "paper": {"image_n": 256, "image_trials": 100},
}


def _argument_type(parse):
    # argparse reports a type function's ValueError as "invalid <function
    # name> value", and an ArgumentTypeError by its own message
    def read(token: str):
        try:
            return parse(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


class _Parser(argparse.ArgumentParser):
    # no prefix matching: a flag is read only when spelled in full, so one
    # a subcommand does not take is never read as one it does (--d as --draws)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a flag's type stays parse_int or parse_float; argparse calls the
        # function registered for it, which reports the token rule's message
        for parse in (parse_int, parse_float):
            self.register("type", parse, _argument_type(parse))

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage error carrying the message; mapped to exit code 1."""


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(payload: dict, path: Path | None) -> None:
    text = json_text(payload)
    if path is not None:
        write_lines(path, [text])
    print(text)


def _load_config(args) -> ExperimentConfig:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=_seed(args))
    return cfg


def _seed(args) -> int:
    return 0 if args.seed is None else check_seed(args.seed)


def cmd_gen_signal(args) -> int:
    rng = Xoshiro256StarStar(mix_seed(_seed(args), harness.STREAM_SIGNAL))
    values = harness.gen_signal(args.type, args.n, rng=rng,
                                values=read_signal_csv(args.input) if args.input else None)
    out = _out_dir(args) / f"signal_type{args.type}_n{args.n}.csv"
    write_signal_csv(out, values)
    print(out)
    return EXIT_OK


def _write_array(path: Path, values: np.ndarray) -> None:
    """A 1-D array as a signal CSV, a 2-D one as an image."""
    if values.ndim == 1:
        write_signal_csv(path, values)
    else:
        write_image(path, values)


def cmd_gen_background(args) -> int:
    shape = tuple(args.shape)
    sample = tuple(args.sample)
    mask = (SupportMask.centered(shape, sample) if args.placement == "center"
            else SupportMask.block(shape, sample))
    y = harness.gen_background(
        mask, mu=args.mu, sigma=args.sigma,
        rng=Xoshiro256StarStar(mix_seed(_seed(args), harness.STREAM_BACKGROUND)))
    path = _out_dir(args) / "background.csv"
    _write_array(path, y)
    print(path)
    return EXIT_OK


def _instance(args):
    """Signal or image from CLI flags, its mask, and the background and
    intensities drawn with --seed as the trial seed: the instance a harness
    trial with that seed gets."""
    if args.image:
        x = read_image(args.image)
    elif args.signal:
        x = read_signal_csv(args.signal)
    else:
        raise SystemExit2("need --signal or --image")
    n = x.shape
    k = background_sizes_for(3.0 if args.k_ratio is None else args.k_ratio, n)
    mask = SupportMask.place(object_shape_for(n, k), n)
    y, b = harness.draw_instance(x, mask, _seed(args),
                                 0.0 if args.noise_sigma is None else args.noise_sigma)
    return np.asarray(x, dtype=float), mask, y, b


def cmd_forward(args) -> int:
    x, mask, y, b = _instance(args)
    out = _out_dir(args)
    write_image(out / "measurements.csv", np.atleast_2d(b.values))
    _write_array(out / "background.csv", y)
    digests = {}
    for label in ("signal", "image"):
        path = getattr(args, label)
        if path:
            digests[label] = sha256_of(path)
    manifest = manifest_now(__version__, _seed(args),
                            {"command": "forward", "k_ratio": args.k_ratio,
                             "noise_sigma": args.noise_sigma}, digests)
    write_manifest(out / "measurements.csv", manifest)
    print(out / "measurements.csv")
    return EXIT_OK


def cmd_solve(args) -> int:
    method = Method.parse(args.method)
    config = SolverConfig(method=method, eps=args.eps, max_iter=args.max_iter,
                          beta=args.beta, lam=args.lam)
    if args.spectrum:
        # measured intensity data (e.g. a preprocessed diffraction pattern):
        # only the bare-support HIO baseline applies, no background is known
        instance_flags = {"--signal": args.signal, "--image": args.image,
                          "--k-ratio": args.k_ratio, "--noise-sigma": args.noise_sigma,
                          "--seed": args.seed}
        given = [flag for flag, value in instance_flags.items() if value is not None]
        if given:
            raise SystemExit2(f"--spectrum does not take {', '.join(given)}")
        if method is not Method.HIO:
            raise SystemExit2("--spectrum input requires --method hio")
        if not args.support:
            raise SystemExit2("--spectrum needs --support N1 [N2]")
        values = read_image(args.spectrum)
        b = IntensityMeasurements(np.asarray(values, dtype=float),
                                  conj_symmetric=False)
        support = tuple(args.support)
        if len(support) != b.values.ndim:
            raise SystemExit2("--support dimension must match the spectrum")
        mask = SupportMask.centered(b.values.shape, support)
        y = np.zeros(mask.shape)

        def score(estimate):
            # the error of the recovered point, after HIO's final projection
            return {"measurement_error": metrics.measurement_error(estimate, y, mask, b)}
    else:
        if args.support is not None:
            raise SystemExit2("--support is only for --spectrum mode")
        x, mask, y, b = _instance(args)

        def score(estimate):
            return metrics.evaluate(estimate, x.reshape(-1), y, mask, b)
    result = solvers.run(b, y, mask, config)
    out = _out_dir(args)
    _write_array(out / "recovered.csv", mask.to_block(result.final_estimate))
    _emit({"method": method.value, "iterations": result.iterations_used,
           "converged": result.converged, **score(result.final_estimate),
           "recovered": str(out / "recovered.csv")}, out / "solve_report.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not args.ratio_step > 0:
        raise SystemExit2("--ratio-step must be positive")
    if not args.ratio_min > 0:
        # a usage error here; background_sizes_for would reject it as a data error
        raise SystemExit2("--ratio-min must be positive")
    if not math.isfinite(args.ratio_max):
        raise SystemExit2("--ratio-max must be finite")
    # ratio i from its index rather than a running sum, whose drift
    # (0.25000000000000006 for 0.05 + 2 * 0.1) moves k at half-way points
    count = math.ceil((args.ratio_max + 1e-9 - args.ratio_min) / args.ratio_step)
    if count < 1:
        raise SystemExit2("--ratio-max must not be below --ratio-min")
    ratios = [round(args.ratio_min + i * args.ratio_step, 10) for i in range(count)]
    signal_values = None
    if cfg.signal_type == harness.SIGNAL_CSV:
        signal_values = read_signal_csv(cfg.paths["signal"])
    grid = harness.sweep_phase_transition(cfg, ratios,
                                          signal_values=signal_values,
                                          workers=harness.resolve_workers(args.workers))
    harness.write_sweep_outputs(_out_dir(args), grid, cfg, __version__)
    for cell in grid.cells:
        print(f"n={shape_token(grid.sample_shape)} k/n={cell.ratio:g}: rate={cell.rate:.3f} "
              f"(stderr {cell.stderr:.3f}, aborted {cell.aborted})")
    return EXIT_OK


def _bench_image(args):
    if args.image:
        return read_image(args.image)
    return harness.synthetic_test_image(PRESETS[args.preset]["image_n"])


def _write_study(args, stem: str, rows: list, summary: dict, echo: dict) -> None:
    """<stem>_trials.csv with its manifest, and <stem>_summary.json."""
    out = _out_dir(args)
    manifest = manifest_now(__version__, _seed(args), {"command": args.command, **echo})
    write_results(out / f"{stem}_trials.csv", rows, manifest)
    _emit(summary, out / f"{stem}_summary.json")


def cmd_image_bench(args) -> int:
    image = _bench_image(args)
    trials = PRESETS[args.preset]["image_trials"] if args.trials is None else args.trials
    result = harness.noise_benchmark(image, 0.0, args.k_ratio, trials,
                                     methods=(Method.PGD, Method.BDR),
                                     seed=_seed(args), max_iter=args.max_iter,
                                     workers=harness.resolve_workers(args.workers))
    _write_study(args, "image", result["rows"], result["summary"],
                 {"k_ratio": args.k_ratio, "trials": trials})
    return EXIT_OK


def cmd_location_bias(args) -> int:
    image = _bench_image(args)
    offsets = harness.default_bias_offsets(image.shape, args.k_ratio, args.positions)
    result = harness.location_bias_study(image, args.k_ratio, offsets, args.trials,
                                         seed=_seed(args), max_iter=args.max_iter,
                                         workers=harness.resolve_workers(args.workers))
    _write_study(args, "location", result["rows"], {"positions": result["positions"]},
                 {"k_ratio": args.k_ratio, "positions": args.positions,
                  "trials": args.trials})
    return EXIT_OK


def cmd_noise_bench(args) -> int:
    image = _bench_image(args)
    result = harness.noise_benchmark(image, args.sigma, args.k_ratio, args.trials,
                                     seed=_seed(args), max_iter=args.max_iter,
                                     workers=harness.resolve_workers(args.workers))
    _write_study(args, "noise", result["rows"],
                 {"summary": result["summary"], "pairwise_wins": result["pairwise_wins"]},
                 {"k_ratio": args.k_ratio, "sigma": args.sigma, "trials": args.trials})
    return EXIT_OK


def cmd_verify(args) -> int:
    flags = {dest: getattr(args, dest) for dest in args.check_flags}
    report = args.check(**flags, seed=_seed(args))
    _emit(report, _out_dir(args) / f"verify_{args.what}.json")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_metrics(args) -> int:
    if args.image_truth:
        if not args.image_estimate:
            raise SystemExit2("--image-truth needs --image-estimate")
        truth = read_image(args.image_truth)
        est = read_image(args.image_estimate)
        payload = {"relative_error": metrics.relative_error(est, truth),
                   "psnr": metrics.psnr(est, truth),
                   "ssim": metrics.ssim(est, truth)}
    elif args.truth:
        if not args.estimate:
            raise SystemExit2("--truth needs --estimate")
        truth = read_signal_csv(args.truth)
        est = read_signal_csv(args.estimate)
        payload = {"relative_error": metrics.relative_error(est, truth)}
    else:
        raise SystemExit2("need --truth/--estimate or --image-truth/--image-estimate")
    payload["success"] = metrics.success(payload["relative_error"])
    _emit(payload, None)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bgret", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bgret {__version__}")
    # each subcommand takes only the shared flags it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=parse_int, default=None, help="64-bit master seed")
    output.add_argument("--out", default="out", help="output directory")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--workers", type=parse_int, default=None,
                      help="worker processes (default: BGRET_WORKERS or 1)")
    study = argparse.ArgumentParser(add_help=False, parents=[output, pool])
    study.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    study.add_argument("--image", help="PGM/CSV image (default: synthetic)")
    study.add_argument("--max-iter", type=parse_int, default=SolverConfig.max_iter)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", parents=[output], help="write a test signal CSV")
    p.add_argument("--type", type=parse_int, choices=(1, 2, 3), default=1)
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--input", help="CSV source for type 3")
    p.set_defaults(func=cmd_gen_signal)

    p = sub.add_parser("gen-background", parents=[output], help="write a background draw")
    p.add_argument("--shape", type=parse_int, nargs="+", required=True)
    p.add_argument("--sample", type=parse_int, nargs="+", required=True)
    p.add_argument("--placement", choices=("corner", "center"), default="corner")
    p.add_argument("--mu", type=parse_float, default=0.0)
    p.add_argument("--sigma", type=parse_float, default=1.0)
    p.set_defaults(func=cmd_gen_background)

    p = sub.add_parser("forward", parents=[output], help="generate measurements")
    p.add_argument("--signal", help="1-D signal CSV")
    p.add_argument("--image", help="2-D PGM/CSV image")
    p.add_argument("--k-ratio", type=parse_float, default=3.0)
    p.add_argument("--noise-sigma", type=parse_float, default=0.0)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("solve", parents=[output], help="run one reconstruction")
    p.add_argument("--method", required=True)
    p.add_argument("--signal", help="1-D signal CSV (ground truth)")
    p.add_argument("--image", help="2-D PGM/CSV image (ground truth)")
    p.add_argument("--spectrum", help="measured intensity PGM/CSV (HIO only)")
    p.add_argument("--support", type=parse_int, nargs="+",
                   help="support extents for --spectrum mode")
    # None marks a flag not given: --spectrum mode rejects them, the other
    # mode reads them as 3.0 and 0
    p.add_argument("--k-ratio", type=parse_float, default=None,
                   help="background size ratio k/n (default 3.0)")
    p.add_argument("--noise-sigma", type=parse_float, default=None,
                   help="measurement noise level (default 0)")
    p.add_argument("--eps", type=parse_float, default=SolverConfig.eps)
    p.add_argument("--max-iter", type=parse_int, default=SolverConfig.max_iter)
    p.add_argument("--beta", type=parse_float, default=SolverConfig.beta)
    p.add_argument("--lam", type=parse_float, default=SolverConfig.lam)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[output, pool], help="phase-transition sweep")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--ratio-min", type=parse_float, default=1.0)
    p.add_argument("--ratio-max", type=parse_float, default=7.0)
    p.add_argument("--ratio-step", type=parse_float, default=0.1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("image-bench", parents=[study], help="2-D PGD vs BDR benchmark")
    p.add_argument("--k-ratio", type=parse_float, default=0.6)
    p.add_argument("--trials", type=parse_int, default=None)
    p.set_defaults(func=cmd_image_bench)

    p = sub.add_parser("location-bias", parents=[study], help="support-offset study")
    p.add_argument("--k-ratio", type=parse_float, default=2.0)
    p.add_argument("--positions", type=parse_int, default=17)
    p.add_argument("--trials", type=parse_int, default=10)
    p.set_defaults(func=cmd_location_bias)

    p = sub.add_parser("noise-bench", parents=[study], help="noisy-measurement study")
    p.add_argument("--sigma", type=parse_float, default=0.001)
    p.add_argument("--k-ratio", type=parse_float, default=3.0)
    p.add_argument("--trials", type=parse_int, default=20)
    p.set_defaults(func=cmd_noise_bench)

    p = sub.add_parser("verify", help="analysis-module checks")
    p.set_defaults(func=cmd_verify)
    # each target takes only the flags it reads
    targets = p.add_subparsers(dest="what", required=True)
    flags = {
        "--n": dict(type=parse_int, default=8), "--k": dict(type=parse_int, default=24),
        "--d": dict(type=parse_int, default=1), "--draws": dict(type=parse_int, default=100),
        "--pairs": dict(type=parse_int, default=100), "--num-h": dict(type=parse_int, default=5),
        "--instances": dict(type=parse_int, default=100),
        "--c1": dict(type=parse_float, default=1e-3), "--c2": dict(type=parse_float, default=1e-3),
    }
    for what, check, names in (
            ("uniqueness", analysis.verify_uniqueness, ("--n", "--k", "--d", "--draws")),
            ("stability", analysis.verify_stability, ("--pairs",)),
            ("robustness", analysis.verify_robustness, ("--instances", "--c1", "--c2")),
            ("lmatrix", analysis.verify_lmatrix, ("--n", "--k", "--draws")),
            ("frip", analysis.verify_frip, ("--n", "--k", "--draws", "--num-h"))):
        t = targets.add_parser(what, parents=[output])
        # each flag's destination is the check's keyword of the same name
        t.set_defaults(check=check,
                       check_flags=[t.add_argument(name, **flags[name]).dest
                                    for name in names])

    p = sub.add_parser("metrics", help="compare truth vs estimate")
    p.add_argument("--truth", help="signal CSV ground truth")
    p.add_argument("--estimate", help="signal CSV estimate")
    p.add_argument("--image-truth", help="image ground truth")
    p.add_argument("--image-estimate", help="image estimate")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    # DataFormatError is a ValueError; a solve whose iterate turns non-finite
    # is a data error too, as run_trial's diverged row is
    except (OSError, ValueError, solvers.DivergenceError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
