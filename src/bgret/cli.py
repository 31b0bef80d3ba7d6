"""Command-line front end.

Subcommands: gen-signal, gen-background, forward, solve, sweep, image-bench,
location-bias, noise-bench, verify {uniqueness|stability|robustness|lmatrix|frip},
metrics. Exit codes: 0 success, 1 usage error, 2 data error, 3 acceptance-check
failure. BGRET_WORKERS is the fallback for --workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, harness, metrics, solvers
from .io_formats import (DataFormatError, ExperimentConfig, manifest_now,
                         read_config, read_image, read_signal_csv, sha256_of,
                         write_image, write_results, write_signal_csv)
from .model import (IntensityMeasurements, Method, SolverConfig, SupportMask,
                    background_sizes_for)
from .rng import Xoshiro256StarStar, mix_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK_FAILED = 3

PRESETS = {
    # 1-D size, 2-D image size, trial counts at desk scale vs the published scale
    "desk": {"n": 100, "image_n": 64, "trials": 100, "image_trials": 10},
    "paper": {"n": 100, "image_n": 256, "trials": 100, "image_trials": 100},
}


class _Parser(argparse.ArgumentParser):
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
    text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    if path is not None:
        path.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _load_config(args) -> ExperimentConfig:
    if not getattr(args, "config", None):
        raise SystemExit2("this subcommand needs --config PATH")
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def cmd_gen_signal(args) -> int:
    values = harness.gen_signal(args.type, args.n,
                                rng=Xoshiro256StarStar(mix_seed(_seed(args), 0)),
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
    k = background_sizes_for(args.k_ratio, n)
    mask = SupportMask.place(tuple(ni + ki for ni, ki in zip(n, k)), n)
    y, b = harness.draw_instance(x, mask, _seed(args), args.noise_sigma)
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
    (out / "measurements.csv.manifest.json").write_text(manifest.to_json())
    print(out / "measurements.csv")
    return EXIT_OK


def cmd_solve(args) -> int:
    method = Method.parse(args.method)
    config = SolverConfig(method=method, eps=args.eps, max_iter=args.max_iter,
                          beta=args.beta, lam=args.lam)
    if args.spectrum:
        # measured intensity data (e.g. a preprocessed diffraction pattern):
        # only the bare-support HIO baseline applies, no background is known
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
        result = solvers.hio_run(b, mask, config)
        out = _out_dir(args)
        write_image(out / "recovered.csv", mask.to_block(result.final_estimate))
        _emit({"method": method.value, "iterations": result.iterations_used,
               "converged": result.converged,
               "measurement_error": float(result.measurement_errors[-1]),
               "recovered": str(out / "recovered.csv")}, out / "solve_report.json")
        return EXIT_OK
    x, mask, y, b = _instance(args)
    result = solvers.run(b, y, mask, config, x_true=x.reshape(-1))
    image_shape = x.shape if x.ndim == 2 else None
    report = metrics.evaluate(result.final_estimate, x.reshape(-1), y, mask, b,
                              image_shape=image_shape)
    out = _out_dir(args)
    _write_array(out / "recovered.csv", mask.to_block(result.final_estimate))
    _emit({"method": method.value, "iterations": result.iterations_used,
           "converged": result.converged, "relative_error": report.relative_error,
           "measurement_error": report.measurement_error, "psnr": report.psnr_db,
           "ssim": report.ssim, "success": report.success,
           "recovered": str(out / "recovered.csv")}, out / "solve_report.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if not args.ratio_step > 0:
        raise SystemExit2("--ratio-step must be positive")
    if not args.ratio_min > 0:
        # k = max(1, round(ratio * n)) would run k = 1 under a k_ratio it never had
        raise SystemExit2("--ratio-min must be positive")
    # ratio i from its index rather than a running sum, whose drift
    # (0.25000000000000006 for 0.05 + 2 * 0.1) moves k at half-way points
    count = math.ceil((args.ratio_max + 1e-9 - args.ratio_min) / args.ratio_step)
    if count < 1:
        raise SystemExit2("--ratio-max must not be below --ratio-min")
    ratios = [round(args.ratio_min + i * args.ratio_step, 10) for i in range(count)]
    signal_values = None
    if cfg.signal_type == harness.SIGNAL_CSV:
        path = cfg.paths.get("signal")
        if not path:
            raise DataFormatError("signal_type 3 needs paths.signal in the config")
        signal_values = read_signal_csv(path)
    grid = harness.sweep_phase_transition(cfg, ratios,
                                          signal_values=signal_values,
                                          workers=harness.resolve_workers(args.workers))
    harness.write_sweep_outputs(_out_dir(args), grid, cfg, __version__)
    for cell in grid.cells:
        print(f"n={cell.n} k/n={cell.ratio:g}: rate={cell.rate:.3f} "
              f"(stderr {cell.stderr:.3f}, aborted {cell.aborted})")
    return EXIT_OK


def _bench_image(args):
    if args.image:
        return read_image(args.image)
    return harness.synthetic_test_image(PRESETS[args.preset]["image_n"])


def cmd_image_bench(args) -> int:
    image = _bench_image(args)
    trials = PRESETS[args.preset]["image_trials"] if args.trials is None else args.trials
    result = harness.image_benchmark(image, args.k_ratio, trials,
                                     methods=(Method.PGD, Method.BDR),
                                     seed=_seed(args), max_iter=args.max_iter,
                                     workers=harness.resolve_workers(args.workers))
    out = _out_dir(args)
    manifest = manifest_now(__version__, _seed(args),
                            {"command": "image-bench", "k_ratio": args.k_ratio,
                             "trials": trials})
    write_results(out / "image_trials.csv", result["rows"], manifest)
    _emit(result["summary"], out / "image_summary.json")
    return EXIT_OK


def cmd_location_bias(args) -> int:
    image = _bench_image(args)
    n = image.shape
    k = background_sizes_for(args.k_ratio, n)
    shape = tuple(ni + ki for ni, ki in zip(n, k))
    offsets = harness.default_bias_offsets(shape, n, args.positions)
    result = harness.location_bias_study(image, args.k_ratio, offsets, args.trials,
                                         seed=_seed(args), max_iter=args.max_iter,
                                         workers=harness.resolve_workers(args.workers))
    out = _out_dir(args)
    manifest = manifest_now(__version__, _seed(args),
                            {"command": "location-bias", "k_ratio": args.k_ratio,
                             "positions": args.positions, "trials": args.trials})
    write_results(out / "location_trials.csv", result["rows"], manifest)
    _emit({"positions": result["positions"]}, out / "location_summary.json")
    return EXIT_OK


def cmd_noise_bench(args) -> int:
    image = _bench_image(args)
    result = harness.noise_benchmark(image, args.sigma, args.k_ratio, args.trials,
                                     seed=_seed(args), max_iter=args.max_iter,
                                     workers=harness.resolve_workers(args.workers))
    out = _out_dir(args)
    manifest = manifest_now(__version__, _seed(args),
                            {"command": "noise-bench", "k_ratio": args.k_ratio,
                             "sigma": args.sigma, "trials": args.trials})
    write_results(out / "noise_trials.csv", result["rows"], manifest)
    _emit({"summary": result["summary"], "pairwise_wins": result["pairwise_wins"]},
          out / "noise_summary.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _seed(args)
    if args.what == "uniqueness":
        report = analysis.verify_uniqueness(args.n, args.k, args.d, args.draws, seed)
    elif args.what == "stability":
        report = analysis.verify_stability(pairs=args.pairs, seed=seed)
    elif args.what == "robustness":
        report = analysis.verify_robustness(instances=args.instances, c1=args.c1,
                                            c2=args.c2, seed=seed)
    elif args.what == "lmatrix":
        report = analysis.verify_lmatrix(args.n, args.k, args.draws, seed)
    elif args.what == "frip":
        report = analysis.verify_frip(args.n, args.k, args.draws, args.num_h, seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit2(f"unknown verify target {args.what}")
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: BGRET_WORKERS or 1)")
    common.add_argument("--preset", choices=sorted(PRESETS), default="desk")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", parents=[common], help="write a test signal CSV")
    p.add_argument("--type", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", help="CSV source for type 3")
    p.set_defaults(func=cmd_gen_signal)

    p = sub.add_parser("gen-background", parents=[common], help="write a background draw")
    p.add_argument("--shape", type=int, nargs="+", required=True)
    p.add_argument("--sample", type=int, nargs="+", required=True)
    p.add_argument("--placement", choices=("corner", "center"), default="corner")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_gen_background)

    p = sub.add_parser("forward", parents=[common], help="generate measurements")
    p.add_argument("--signal", help="1-D signal CSV")
    p.add_argument("--image", help="2-D PGM/CSV image")
    p.add_argument("--k-ratio", type=float, default=3.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("solve", parents=[common], help="run one reconstruction")
    p.add_argument("--method", required=True)
    p.add_argument("--signal", help="1-D signal CSV (ground truth)")
    p.add_argument("--image", help="2-D PGM/CSV image (ground truth)")
    p.add_argument("--spectrum", help="measured intensity PGM/CSV (HIO only)")
    p.add_argument("--support", type=int, nargs="+",
                   help="support extents for --spectrum mode")
    p.add_argument("--k-ratio", type=float, default=3.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--lam", type=float, default=1.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common], help="phase-transition sweep")
    p.add_argument("--ratio-min", type=float, default=1.0)
    p.add_argument("--ratio-max", type=float, default=7.0)
    p.add_argument("--ratio-step", type=float, default=0.1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("image-bench", parents=[common], help="2-D PGD vs BDR benchmark")
    p.add_argument("--image", help="PGM/CSV image (default: synthetic)")
    p.add_argument("--k-ratio", type=float, default=0.6)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=300)
    p.set_defaults(func=cmd_image_bench)

    p = sub.add_parser("location-bias", parents=[common], help="support-offset study")
    p.add_argument("--image", help="PGM/CSV image (default: synthetic)")
    p.add_argument("--k-ratio", type=float, default=2.0)
    p.add_argument("--positions", type=int, default=17)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=300)
    p.set_defaults(func=cmd_location_bias)

    p = sub.add_parser("noise-bench", parents=[common], help="noisy-measurement study")
    p.add_argument("--image", help="PGM/CSV image (default: synthetic)")
    p.add_argument("--sigma", type=float, default=0.001)
    p.add_argument("--k-ratio", type=float, default=3.0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-iter", type=int, default=300)
    p.set_defaults(func=cmd_noise_bench)

    p = sub.add_parser("verify", parents=[common], help="analysis-module checks")
    p.add_argument("what", choices=("uniqueness", "stability", "robustness",
                                    "lmatrix", "frip"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=24)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--c1", type=float, default=1e-3)
    p.add_argument("--c2", type=float, default=1e-3)
    p.add_argument("--num-h", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", parents=[common], help="compare truth vs estimate")
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
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
