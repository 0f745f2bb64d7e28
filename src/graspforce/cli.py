"""Command-line front end for trials, experiments, and closure analysis.

Exit codes: 0 success (and closure-yes), 1 runtime fault inside a started
simulation or a solver that hit its pivot cap, 2 usage or configuration
errors, 3 closure-no from the closure subcommand.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .closure import Contact, is_force_closure
from .harness import (
    ConfigError,
    experiment_b_table,
    run_experiment_a,
    run_experiment_b,
    run_trial,
    write_csv,
)
from .scenarios import apply_overrides, load_scenario, parse_overrides
from .sensor import SensorModel, calibrate, estimate_bias

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_USAGE = 2
EXIT_NO_CLOSURE = 3

log = logging.getLogger("graspforce")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspforce",
        description=(
            "Two-finger grasp force control in a deterministic 1-D contact "
            "simulator, with displacement and ablation experiments and a "
            "force-closure analyzer."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="increase log verbosity (-v, -vv)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario file and write its time series")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out-dir", default="out", help="directory for the time-series CSV")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    expa = sub.add_parser(
        "exp-a", help="displacement grid: 5 offsets x 3 objects x 3 reps x 2 controllers"
    )
    expb = sub.add_parser(
        "exp-b", help="push and rotation disturbance scenarios x 4 controller variants"
    )
    for p in (expa, expb):
        p.add_argument("--out-dir", default="out", help="directory for report CSVs")
        p.add_argument("--seed", type=int, default=0, help="base seed for sensor noise")

    closure = sub.add_parser("closure", help="evaluate force closure of a contact set")
    closure.add_argument("contacts", help="path to a contact-list JSON file")
    closure.add_argument("--sides", type=int, default=8, help="friction-cone faces (default 8)")

    cal = sub.add_parser("calibrate", help="demonstrate the unloaded bias calibration")
    cal.add_argument("--gamma", type=float, default=11.02, help="sensor gain, N per raw unit")
    cal.add_argument("--bias", type=float, default=0.5, help="true raw-signal bias")
    cal.add_argument("--noise-sigma", type=float, default=None, help="raw noise sigma")
    cal.add_argument("--samples", type=int, default=1000, help="unloaded samples to average")
    cal.add_argument("--seed", type=int, default=0, help="noise stream seed")
    # --set on the scenario commands; -v also after any subcommand, and main adds the two counts.
    for name, p in sub.choices.items():
        if name in ("run", "exp-a", "exp-b"):
            p.add_argument(
                "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                help="override a scenario field by dotted path, e.g. control.f_goal=2.5 "
                     "(repeatable; the experiments apply it to every trial)",
            )
        p.add_argument(
            "-v", "--verbose", dest="sub_verbose", action="count", default=0,
            help="increase log verbosity (-v, -vv)",
        )
    return parser


def _cmd_run(args) -> int:
    overrides = args.overrides + ([] if args.seed is None else [f"seed={args.seed}"])
    spec = apply_overrides(load_scenario(args.scenario), overrides)
    result = run_trial(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(result.series, out / (Path(args.scenario).stem + ".csv"))
    print(f"series: {csv_path}")
    print(f"displacement (ground truth): {1e3 * result.displacement_truth:.3f} mm")
    print(f"displacement (joint proxy):  {1e3 * result.displacement_proxy:.3f} mm")
    print(f"max total force: {result.max_total_force:.3f} N")
    if result.settle_time is not None:
        print(f"settled at: {result.settle_time:.2f} s")
    print(f"finished: {'yes' if result.finished else 'no'}")
    return EXIT_OK


def _cmd_exp_a(args) -> int:
    result = run_experiment_a(
        out_dir=args.out_dir, base_seed=args.seed, overrides=parse_overrides(args.overrides)
    )
    print(result.table())
    print(f"{len(result.trials)} trials in {result.elapsed:.1f} s; reports in {args.out_dir}")
    return EXIT_OK


def _cmd_exp_b(args) -> int:
    runs = run_experiment_b(
        out_dir=args.out_dir, base_seed=args.seed, overrides=parse_overrides(args.overrides)
    )
    print(experiment_b_table(runs))
    print(f"{len(runs)} runs; series and metrics in {args.out_dir}")
    return EXIT_OK


def _load_contacts(path: str):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read contact file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"contact file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        entries = data.get("contacts")
    else:
        entries = data
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"contact file {path} must hold a non-empty contact list")
    contacts = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"contact {i} in {path} is malformed: not an object: {entry!r}")
        try:
            friction = {key: entry[key] for key in ("mu", "mu_tau") if key in entry}
            if "rotation" in entry:
                contacts.append(Contact(entry["position"], entry["rotation"], **friction))
            else:
                contacts.append(Contact.from_normal(entry["position"], entry["normal"], **friction))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"contact {i} in {path} is malformed: {exc}") from exc
    return contacts


def _cmd_closure(args) -> int:
    if args.sides < 3:
        raise ConfigError(f"--sides must be >= 3, got {args.sides}")
    contacts = _load_contacts(args.contacts)
    report = is_force_closure(contacts, sides=args.sides)
    print(f"contacts: {len(contacts)}")
    print(f"surjective: {'yes' if report.surjective else 'no'}")
    strict = "yes" if report.has_strict_internal else "no"
    print(f"strict internal force: {strict} (margin {report.margin:.3e})")
    print(f"force-closure: {'yes' if report.is_force_closure else 'no'}")
    return EXIT_OK if report.is_force_closure else EXIT_NO_CLOSURE


def _cmd_calibrate(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    model = SensorModel(
        gamma=args.gamma, bias=args.bias, noise_sigma=args.noise_sigma, seed=args.seed
    )
    estimate = estimate_bias(model, args.samples)
    # A noise-free raw reading at zero load equals the true bias, so this is
    # the systematic force offset left after calibration.
    residual = calibrate(model.bias, model, estimate)
    print(f"true bias: {model.bias:.6f} raw units")
    print(f"estimated bias over {args.samples} samples: {estimate:.6f} raw units")
    print(f"residual calibrated offset at zero load: {residual:.6f} N")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING - 10 * min(args.verbose + args.sub_verbose, 2),
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "run": _cmd_run,
        "exp-a": _cmd_exp_a,
        "exp-b": _cmd_exp_b,
        "closure": _cmd_closure,
        "calibrate": _cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a RuntimeFault, or a solver's pivot cap
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
