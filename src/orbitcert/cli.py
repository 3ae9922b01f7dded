"""Command-line front end.

``orbitcert verify <case>`` runs the seeded verification campaign for one
of the four model cases and prints (or writes) the JSON report;
``orbitcert witness verify <file>`` re-checks a serialized witness from
scratch; ``orbitcert dump`` exposes the exact reference data (octonion
multiplication table, model Gram matrices and normal forms).

Exit codes: 0 all checks pass, 1 at least one check failed (or the
witness does not verify), 2 usage or parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from ._version import __version__
from .campaigns import CASES, CampaignConfig, report_text, run_campaign
from .forms import StandardModel
from .octonions import table_json
from .witnesses import witness_from_json

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="orbitcert",
        description="exact verification campaigns for the three "
                    "exceptional flag-domain geometries")
    parser.add_argument("--version", action="version",
                        version="orbitcert " + __version__)
    sub = parser.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run one case's verification campaign")
    _add_model_arguments(v)
    v.add_argument("--samples", type=int, default=25,
                   help="sample count per randomized check (default 25)")
    v.add_argument("--seed", type=int, default=0,
                   help="splitmix64 seed (default 0)")
    v.add_argument("--bound", type=int, default=5,
                   help="integer coordinate bound for sampling (default 5)")
    v.add_argument("--out", default=None,
                   help="write the JSON report here instead of stdout")
    v.add_argument("--strict", action="store_true",
                   help="stop at the first failing check")

    w = sub.add_parser("witness", help="witness file operations")
    wsub = w.add_subparsers(dest="witness_command")
    wv = wsub.add_parser("verify",
                         help="re-verify a serialized witness from scratch")
    wv.add_argument("file")

    d = sub.add_parser("dump", help="print exact reference data")
    dsub = d.add_subparsers(dest="dump_command")
    dsub.add_parser("octonion-table",
                    help="split-octonion structure constants")
    dm = dsub.add_parser("model", help="model Gram matrices and reference "
                                       "subspaces")
    _add_model_arguments(dm)
    return parser


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    """The case and its parameters; a case takes all of its own parameters
    or none, and then its defaults from ``StandardModel.CASES``."""
    parser.add_argument("case", choices=CASES)
    for key, what in (("n", "rank"), ("p", "signature"), ("q", "signature")):
        cases = "; ".join("%s, default %d" % (case, rule.defaults[key])
                          for case, rule in StandardModel.CASES.items()
                          if key in rule.defaults)
        parser.add_argument("--" + key, type=int, default=None,
                            help="%s parameter %s (%s)" % (what, key, cases))


def _cmd_verify(args) -> int:
    try:
        cfg = CampaignConfig(case=args.case, n=args.n, p=args.p, q=args.q,
                             samples=args.samples, seed=args.seed,
                             bound=args.bound, strict=args.strict)
    except ValueError as exc:
        print("orbitcert: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_campaign(cfg)
    except Exception as exc:  # internal: campaigns record check failures
        print("orbitcert: internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    text = report_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report["status"] == "pass" else EXIT_CHECK_FAILED


def _cmd_witness_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and a file that is not UTF-8,
        # RecursionError JSON nested deeper than the parser goes
        print("orbitcert: cannot read witness: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        witness = witness_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        print("orbitcert: malformed witness: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        ok = witness.verify()
    except Exception as exc:
        print("orbitcert: internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    print("witness %s: group %s, claim %s"
          % ("VERIFIED" if ok else "FAILED", witness.group.name,
             witness.claim_kind))
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _cmd_dump(args) -> int:
    if args.dump_command == "octonion-table":
        sys.stdout.write(json.dumps(table_json(), indent=2, sort_keys=True)
                         + "\n")
        return EXIT_PASS
    if args.dump_command == "model":
        try:
            model = CampaignConfig(case=args.case, n=args.n, p=args.p,
                                   q=args.q).model
        except ValueError as exc:
            print("orbitcert: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        doc = {
            "schema": "orbitcert-model/1",
            "case": model.case,
            "ambient_dim": model.ambient_dim,
            "flag_dim_complex": model.flag_dim_complex,
        }
        for key in ("n", "p", "q"):
            val = model.__dict__.get(key)
            if val is not None:
                doc[key] = val
        grams = {}
        for key in ("b", "omega", "h", "hhat"):
            form = model.__dict__.get(key)
            if form is not None:
                grams[key] = form.gram.to_json()
        doc["grams"] = grams
        if model.case == "isotropic":
            doc["normal_form_complex"] = \
                model.normal_form_complex().matrix.to_json()
            doc["normal_form_real"] = \
                model.normal_form_real().matrix.to_json()
            doc["normal_form_real_pairs"] = [
                list(pair) for pair in model.normal_form_real_pairs()]
        if model.case == "quadric7":
            doc["stratum_representatives"] = {
                name: [x.to_text() for x in vec]
                for name, vec in model.stratum_representatives.items()}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return EXIT_PASS
    print("orbitcert: choose a dump subcommand (octonion-table, model)",
          file=sys.stderr)
    return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help/--version
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "witness":
        if getattr(args, "witness_command", None) == "verify":
            return _cmd_witness_verify(args)
        print("orbitcert: choose a witness subcommand (verify)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.command == "dump":
        return _cmd_dump(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
