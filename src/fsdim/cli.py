"""Command-line interface: fsdim gen | dim | arith | delta | verify.

Exit codes: 0 success, 1 validation or usage error, 2 unresolved carry
(the result sits on a k-adic point the stream prefix cannot decide within
the fixed lookahead of 4096 digits, realarith.LOOKAHEAD_CAP),
3 search node budget exhausted: `delta exact` (dimensions up to 6) gave an
upper-bound certificate after 10^6 search nodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .blockstats import ProbabilityVector, dim_estimates, entropy_rate_grid
from .digitseq import (Alphabet, gen_champernowne, gen_dilution, gen_rational_expansion,
                       read_digit_file, write_digit_file)
from .dispersion import (certificate_bound_bits, certificate_to_json_dict, delta_exact,
                         integer_multiple_certificate)
from .realarith import (UnresolvedCarryError, add_rational_mod1, div_int, mul_int_mod1,
                        mul_rational_mod1)
from .verify import (verify_contractivity_suite, verify_dilution_counterexample,
                     verify_pseudometric_suite, verify_rational_arithmetic)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNRESOLVED = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the exit-code contract reserves 2
    # for unresolved carries, so usage errors map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fsdim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fsdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate digit sequences")
    gen.add_argument("kind", choices=["champernowne", "rational", "dilution"])
    gen.add_argument("--base", type=int, default=2)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--num", type=int, help="numerator for rational expansions")
    gen.add_argument("--den", type=int, help="denominator for rational expansions")
    gen.add_argument("--in", dest="infile", help="source digits for dilution")
    gen.add_argument("--out", required=True)
    gen.add_argument("--order", choices=["shortlex", "integers"], default="shortlex")

    dim = sub.add_parser("dim", help="dimension estimates from block entropies")
    dim.add_argument("--in", dest="infile", required=True)
    dim.add_argument("--max-block-len", type=int, required=True)
    dim.add_argument("--blocks", required=True, help="comma-separated block counts")
    dim.add_argument("--report", help="write the report JSON here (default: stdout)")

    arith = sub.add_parser("arith", help="certified digit-stream arithmetic")
    arith.add_argument("op", choices=["mul-int", "div-int", "add-q", "mul-q"])
    arith.add_argument("--in", dest="infile", required=True)
    arith.add_argument("--m", type=int, help="integer multiplier/divisor")
    arith.add_argument("--num", type=int, help="rational numerator")
    arith.add_argument("--den", type=int, help="rational denominator")
    arith.add_argument("--count", type=int, required=True)
    arith.add_argument("--out", required=True)

    delta = sub.add_parser("delta", help="log-dispersion: exact solve or certificate")
    delta_sub = delta.add_subparsers(dest="delta_command", required=True)
    exact = delta_sub.add_parser("exact")
    exact.add_argument("--pi", required=True, help="distribution JSON file")
    exact.add_argument("--mu", required=True)
    exact.add_argument("--witness", help="write the witness certificate JSON here")
    cert = delta_sub.add_parser("certificate")
    cert.add_argument("--alpha", required=True, help="digit file of the source stream")
    cert.add_argument("--m", type=int, required=True)
    cert.add_argument("--l", type=int, required=True)
    cert.add_argument("--n", type=int, required=True)
    cert.add_argument("--out", help="write the certificate JSON here")

    verify = sub.add_parser("verify", help="verification scenarios")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    wall = verify_sub.add_parser("wall")
    wall.add_argument("--in", dest="infile", required=True)
    wall.add_argument("--base", type=int, required=True)
    wall.add_argument("--num", type=int, required=True)
    wall.add_argument("--den", type=int, required=True)
    wall.add_argument("--max-block-len", type=int, required=True)
    wall.add_argument("--blocks", required=True)
    wall.add_argument("--report", required=True)
    dil = verify_sub.add_parser("dilution")
    dil.add_argument("--digits", type=int, default=200_000)
    dil.add_argument("--max-block-len", type=int, default=8)
    dil.add_argument("--report", required=True)
    for name in ("pseudometric", "contractivity"):
        suite = verify_sub.add_parser(name)
        suite.add_argument("--seed", type=int, default=0)
        suite.add_argument("--samples", type=int, default=200)
        suite.add_argument("--n-max", type=int, default=4)
        suite.add_argument("--report", required=True)
    return parser


def _parse_blocks(csv: str):
    try:
        blocks = [int(tok) for tok in csv.split(",") if tok.strip()]
    except ValueError as exc:
        raise _CliError(f"bad --blocks list {csv!r}") from exc
    if not blocks or any(b < 1 for b in blocks):
        raise _CliError("--blocks needs positive integers")
    return blocks


def _parse_rational(args, what: str) -> Fraction:
    if args.num is None or args.den is None:
        raise _CliError(f"{what} needs --num and --den")
    if args.den < 1:
        raise _CliError("--den must be positive")
    return Fraction(args.num, args.den)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def _read_distribution(path) -> ProbabilityVector:
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("p"), list):
        raise _CliError(f"distribution file {path}: no \"p\" list of probabilities")
    try:
        if any(isinstance(x, bool) for x in data["p"]):
            raise TypeError("a JSON boolean is not a probability")
        if any(isinstance(x, float) for x in data["p"]):  # Fraction() would read it as exact
            raise TypeError("probabilities must be exact rationals")
        entries = tuple(Fraction(x) for x in data["p"])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _CliError(f"distribution file {path}: bad entry in \"p\": {exc}") from exc
    if "n" in data and (type(data["n"]) is not int or data["n"] != len(entries)):
        raise _CliError(f"distribution file {path}: n={data['n']} but {len(entries)} entries")
    return ProbabilityVector(entries)


def _cmd_gen(args) -> int:
    if args.count < 0:
        raise _CliError("--count must be nonnegative")
    if args.kind == "champernowne":
        seq = gen_champernowne(Alphabet(args.base), args.count, args.order)
    elif args.kind == "rational":
        q = _parse_rational(args, "rational expansion")
        seq = gen_rational_expansion(q, Alphabet(args.base), args.count)
    else:
        if not args.infile:
            raise _CliError("dilution needs --in FILE")
        seq = gen_dilution(read_digit_file(args.infile), args.count)
    write_digit_file(seq, args.count, args.out)
    return EXIT_OK


def _cmd_dim(args) -> int:
    seq = read_digit_file(args.infile)
    blocks = _parse_blocks(args.blocks)
    grid = entropy_rate_grid(seq, args.max_block_len, blocks)
    lo, hi = dim_estimates(grid)
    payload = {
        "k": seq.alphabet.k,
        "grid": [{"l": e.l, "n": e.n, "h": e.h} for e in grid.entries],
        "dim_lower": lo,
        "dim_upper": hi,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.report:
        _write(args.report, text)
    else:
        print(text)
    return EXIT_OK


def _cmd_arith(args) -> int:
    seq = read_digit_file(args.infile)
    if args.op in ("mul-int", "div-int"):
        if args.m is None:
            raise _CliError(f"{args.op} needs --m")
        fn = mul_int_mod1 if args.op == "mul-int" else div_int
        result = fn(seq, args.m, args.count)
    else:
        q = _parse_rational(args, args.op)
        fn = add_rational_mod1 if args.op == "add-q" else mul_rational_mod1
        result = fn(seq, q, args.count)
    write_digit_file(result.digits, result.certified_count, args.out)
    if result.unresolved:
        print(json.dumps({"unresolved_at": result.certified_count}))
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_delta(args) -> int:
    if args.delta_command == "exact":
        pi = _read_distribution(args.pi)
        mu = _read_distribution(args.mu)
        result = delta_exact(pi, mu)
        payload = {"m": result.m_star, "delta_bits": result.delta_bits,
                   "method": result.method}
        if args.witness:
            _write(args.witness, json.dumps(certificate_to_json_dict(result.witness), indent=2))
        print(json.dumps(payload, sort_keys=True))
        return EXIT_BUDGET if result.method == "certificate-upper-bound" else EXIT_OK
    seq = read_digit_file(args.alpha)
    table = integer_multiple_certificate(seq, args.m, args.l, args.n)[0]
    if args.out:
        _write(args.out, json.dumps(certificate_to_json_dict(table), indent=2))
    outcome = table.validate()
    row_support, col_support = table.max_degrees()
    payload = {
        "k": seq.alphabet.k, "m": args.m, "l": args.l, "n": args.n,
        "valid": outcome.ok,
        "violation": outcome.violation,
        "declared_m": table.declared_m,
        "bound_bits": certificate_bound_bits(args.m, seq.alphabet.k, args.l),
        "row_support": row_support,
        "col_support": col_support,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if outcome.ok else EXIT_VALIDATION


def _cmd_verify(args) -> int:
    if args.verify_command == "wall":
        seq = read_digit_file(args.infile)
        if seq.alphabet.k != args.base:
            raise _CliError(f"--base {args.base} does not match digit file base {seq.alphabet.k}")
        q = _parse_rational(args, "wall")
        if q == 0:
            raise _CliError("wall needs --num nonzero")
        report = verify_rational_arithmetic(seq, q, args.max_block_len,
                                            _parse_blocks(args.blocks))
    elif args.verify_command == "dilution":
        report = verify_dilution_counterexample(args.digits, args.max_block_len)
    elif args.verify_command == "pseudometric":
        report = verify_pseudometric_suite(args.samples, args.n_max, args.seed)
    else:
        report = verify_contractivity_suite(args.samples, args.n_max, args.seed)
    _write(args.report, report.to_json())
    print(f"{report.scenario}: {'PASS' if report.passes else 'FAIL'} "
          f"({len(report.violations)} violations)")
    return EXIT_OK if report.passes else EXIT_VALIDATION


_COMMANDS = {"gen": _cmd_gen, "dim": _cmd_dim, "arith": _cmd_arith, "delta": _cmd_delta,
             "verify": _cmd_verify}


def dispatch(argv) -> int:
    """Parse argv and run exactly one subcommand, returning the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CliError, ValueError, OSError) as exc:  # digit-file and too-short errors included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnresolvedCarryError as exc:
        print(json.dumps({"unresolved_at": str(exc)}))
        return EXIT_UNRESOLVED


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
