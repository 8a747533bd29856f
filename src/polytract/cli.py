"""Command line front end.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration problem, 3 unexpected internal error.
"""
from __future__ import annotations

import argparse
import sys

from . import catalog as catalog_mod
from . import harness
from .errors import ConfigError, InsufficientData, UnknownProblem, VerifierError
from .report import Report, dump_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# Each flag that sets a value is another name for a config key: flag ->
# (key, help). It sets the key as a config file line would, after the file.
_KEY_FLAGS = {
    "--seed": ("seed", "master seed"),
    "--random": ("random_budget", "number of random samples per check"),
    "--max-exhaustive": ("exhaustive_cap.bds", "node-count cap for exhaustive graph sweeps"),
    "--max-n": ("separation_max_n", "largest n in the table"),
    "--bound": ("bound.separation", "digest bit bound a*log2(n)^k + b, as A,K,B"),
}


def _add_key_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        key, what = _KEY_FLAGS[flag]
        parser.add_argument(flag, dest=key, metavar="VALUE", help=f"{what} (config key {key})")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="path to a key = value config file")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON ('-' for stdout)")
    _add_key_flags(parser, "--seed", "--max-exhaustive", "--random")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytract",
        description="finite-scale checks for digest preprocessing, "
                    "constant-redundancy factorizations, and reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-factorization",
                       help="check split sizes, restore, and query growth")
    p.add_argument("name", help="catalog name, e.g. qbds-absorb")
    p.set_defaults(check="factorization")
    _add_common(p)

    p = sub.add_parser("verify-witness",
                       help="check a preprocessing witness on labeled samples")
    p.add_argument("name", help="catalog name, e.g. wordstats-count-digest")
    p.set_defaults(check="witness")
    _add_common(p)

    p = sub.add_parser("verify-reduction",
                       help="check membership agreement along a reduction")
    p.add_argument("name", help="catalog name, e.g. qbds-to-bds")
    p.set_defaults(check="reduction")
    _add_common(p)

    p = sub.add_parser("separate",
                       help="tabulate visit orders against digest capacity")
    _add_key_flags(p, "--max-n", "--bound")
    p.add_argument("--csv", action="store_true", help="emit the table as CSV")
    _add_common(p)

    p = sub.add_parser("bench",
                       help="fit preprocessing and query latency growth")
    p.set_defaults(check="runtime-fits")
    _add_common(p)

    p = sub.add_parser("run-suite", help="run every registered check")
    _add_common(p)

    p = sub.add_parser("list", help="list catalog entries")
    _add_common(p)
    return parser


def _config_from_args(args) -> harness.SuiteConfig:
    """The config file's settings, then each key a flag sets."""
    cfg = harness.load_config(args.config)
    for flag, (key, _) in _KEY_FLAGS.items():
        value = getattr(args, key, None)
        if value is not None:
            try:
                harness.apply_key(cfg, key, value)
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    return cfg


def _write_json(payload: dict, path: str | None) -> None:
    """Write payload to `path`: '-' for stdout, None for nowhere. A path
    that cannot be written is a usage problem, not an internal error."""
    if path == "-":
        print(dump_json(payload))
    elif path:
        try:
            dump_json(payload, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _text_stream(args):
    """Where the human-readable lines go: stderr when --json - takes
    stdout, so stdout holds the JSON document alone."""
    return sys.stderr if args.json == "-" else sys.stdout


def _emit(report: Report | harness.SuiteReport, args, path: str | None = None) -> int:
    """Print the report's lines and write it to --json, else to `path`."""
    out = _text_stream(args)
    for line in report.summary_lines():
        print(line, file=out)
    print(f"overall: {'PASS' if report.passed else 'FAIL'}", file=out)
    _write_json(report.to_dict(), args.json or path)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_check(args) -> int:
    """verify-* and bench: build the catalog and run one named check."""
    cfg = _config_from_args(args)
    cat = catalog_mod.build_catalog(cfg)
    stage = f"{args.check}:{args.name}" if hasattr(args, "name") else args.check
    return _emit(harness.run_check(cat, cfg, stage), args)


def _cmd_separate(args) -> int:
    sep = harness.separation_table(_config_from_args(args))
    out = _text_stream(args)
    if args.csv:
        for line in sep.csv_lines():
            print(line, file=out)
    else:
        for row in sep.rows:
            realizable = row["realizable"]
            shown = "-" if realizable is None else str(realizable)
            print(f"n={row['n']:>3}  orders={row['factorial']:>20}  "
                  f"2^n={row['two_pow_n']:>8}  digest_values<=2^{row['bound_bits']}"
                  f"  realizable={shown}", file=out)
        if sep.collision:
            col = sep.collision
            print(f"collision: two numberings share the first {col.bits} "
                  f"digest bits at n={len(col.first.numbering)}", file=out)
    _write_json(sep.to_dict(), args.json)
    print(f"overall: {'PASS' if sep.passed else 'FAIL'}", file=out)
    return EXIT_PASS if sep.passed else EXIT_FAIL


def _cmd_run_suite(args) -> int:
    cfg = _config_from_args(args)
    return _emit(harness.run_suite(cfg), args, cfg.output_path)


def _cmd_list(args) -> int:
    cat = catalog_mod.build_catalog(_config_from_args(args))
    listing = {
        "problems": {name: cat.problems[name].describe for name in sorted(cat.problems)},
        "factored_languages": sorted(cat.factored),
        "witnesses": sorted(cat.witnesses),
        "reductions": sorted([*cat.fcr_reductions, *cat.f_reductions]),
    }
    out = _text_stream(args)
    print("problems:", file=out)
    for name, describe in listing["problems"].items():
        print(f"  {name}: {describe}", file=out)
    for key in ("factored_languages", "witnesses", "reductions"):
        print(f"{key.replace('_', ' ')}:", ", ".join(listing[key]), file=out)
    _write_json(listing, args.json)
    return EXIT_PASS


_COMMANDS = {
    "verify-factorization": _cmd_check,
    "verify-witness": _cmd_check,
    "verify-reduction": _cmd_check,
    "separate": _cmd_separate,
    "bench": _cmd_check,
    "run-suite": _cmd_run_suite,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UnknownProblem, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerifierError as exc:
        print(f"check aborted: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
