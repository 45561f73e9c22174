"""Instance/certificate file formats and the command-line interface.

Documents are JSON with every numeric entry an integer, a rational string
like "3/2" or "-4", or the token "-inf".  Instances come in the original
form {A,B,c,d,p,q,r,s} or the homogeneous form {C,D,u,v}, optionally with
"objective": "minimize" (default) or "maximize" (handled by dualization at
parse time).  Entries are read straight to int, Fraction or None (-inf) and
become the LfpInstance's integer grids; ExtendedNumber appears only in a
certificate's lambda and witness.  Certificates carry 1-based strategy
successor arrays, and optionally integer potentials: n+1 JSON integers or
"-inf" under each of the keys "potentials" and "strict_potentials"
(optimality) or "through_potentials" and "negated_potentials"
(unboundedness), in the units of the integer grids of ``spectral.game_at``
at lambda* (at 0 for unboundedness); ``certify`` says what they prove.

Exit codes: 0 optimal / certificate accepted, 1 usage or parse error,
2 infeasible, 3 unbounded, 4 certificate rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from . import certify, solver
from .game_engine import AssumptionViolated, MaxStrategy, MinStrategy
from .spectral import (
    HomogeneousInstance,
    LfpInstance,
    homogenize,
    phi,
    reconstruct,
)
from .trop_core import NEG_INF, ExtendedNumber


class DocumentError(Exception):
    """A document failed to parse or has inconsistent shapes."""


# --- scalar tokens ---------------------------------------------------------


def read_entry(token, where: str = "entry"):
    """int / rational string / "-inf" -> int, Fraction or None (no +inf, no NaN)."""
    if isinstance(token, bool):
        raise DocumentError(f"{where}: booleans are not numbers")
    if isinstance(token, int):
        return token
    if isinstance(token, str):
        text = token.strip()
        if text == "-inf":
            return None
        try:
            x = _read_rational(text)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{where}: cannot parse {token!r} as a rational")
        return x.numerator if x.denominator == 1 else x
    raise DocumentError(f"{where}: unsupported value {token!r}")


def _read_rational(text: str):
    """The value of Fraction(text), an int for an integer token, read
    without Fraction's regular expression in the two common forms.  int()
    takes exactly the integer tokens Fraction takes (a sign, digits, single
    underscores between them); "p/q" takes the quick path only with an
    optionally signed decimal p and a decimal q, since int() would also take
    a sign or spaces that Fraction refuses around the slash ("3/-4",
    "3 / 4")."""
    num, slash, den = text.partition("/")
    if not slash:
        try:
            return int(text)
        except ValueError:
            return Fraction(text)  # decimals, exponents, or an error
    if den.isdecimal() and (num.isdecimal() or num[:1] in "+-" and num[1:].isdecimal()):
        return Fraction(int(num), int(den))
    return Fraction(text)


def parse_entry(token, where: str = "entry") -> ExtendedNumber:
    """read_entry as an ExtendedNumber."""
    x = read_entry(token, where)
    return NEG_INF if x is None else ExtendedNumber.finite(x)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_entry(e: ExtendedNumber) -> str:
    return format_rational(e.value) if e.is_finite else "-inf"


def _parse_vector(doc, key: str, read=read_entry) -> list:
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    v = doc[key]
    if not isinstance(v, list):
        raise DocumentError(f"field {key!r} must be an array")
    return [read(e, f"{key}[{i}]") for i, e in enumerate(v)]


def _parse_matrix(doc, key: str) -> list:
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    rows = doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DocumentError(f"field {key!r} must be an array of arrays")
    # Integers, most entries of a dense document, skip building the location.
    return [
        [e if type(e) is int else read_entry(e, f"{key}[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]


# --- instance documents ----------------------------------------------------


class ParsedInstance:
    """An LfpInstance plus how to map its optimum back to the document."""

    __slots__ = ("instance", "maximize")

    def __init__(self, instance: LfpInstance, maximize: bool):
        self.instance = instance
        self.maximize = maximize

    def objective_value(self, lam: Fraction) -> Fraction:
        """Document-level optimum: -lambda* under the maximize dualization."""
        return -Fraction(lam) if self.maximize else Fraction(lam)


def parse_instance(doc: dict) -> ParsedInstance:
    if not isinstance(doc, dict):
        raise DocumentError("instance document must be a JSON object")
    objective = doc.get("objective", "minimize")
    if objective not in ("minimize", "maximize"):
        raise DocumentError(f"unknown objective {objective!r}")
    if "C" in doc or "D" in doc:
        C = _parse_matrix(doc, "C")
        D = _parse_matrix(doc, "D")
        u = _parse_vector(doc, "u")
        v = _parse_vector(doc, "v")
        n = len(u) - 1  # from u, since C may have no rows
        if n < 0:
            raise DocumentError("u must have at least one entry")
        if len(v) != n + 1:
            raise DocumentError("u and v must have one entry per column")
        if any(len(row) != n + 1 for row in C + D):
            raise DocumentError("every row of C and D must have one entry per entry of u")
        A = [row[:n] for row in C]
        c = [row[n] for row in C]
        B = [row[:n] for row in D]
        d = [row[n] for row in D]
        p, r = u[:n], u[n]
        q, s = v[:n], v[n]
    else:
        A = _parse_matrix(doc, "A")
        B = _parse_matrix(doc, "B")
        c = _parse_vector(doc, "c")
        d = _parse_vector(doc, "d")
        p = _parse_vector(doc, "p")
        q = _parse_vector(doc, "q")
        r = read_entry(doc.get("r", "-inf"), "r")
        s = read_entry(doc.get("s", "-inf"), "s")
    if objective == "maximize":
        # max (num - den) = -min (den - num): swap numerator and denominator
        # and negate the reported optimum.
        p, r, q, s = q, s, p, r
    try:
        inst = LfpInstance(A, B, c, d, p, q, r, s)
    except (ValueError, AssumptionViolated) as exc:
        raise DocumentError(str(exc))
    return ParsedInstance(inst, objective == "maximize")


def serialize_instance(inst: LfpInstance) -> dict:
    n = inst.n
    U, V = (
        [["-inf" if x is None else format_rational(Fraction(x, inst.scale)) for x in row] for row in g]
        for g in (inst.U, inst.V)
    )
    return {
        "A": [row[:n] for row in U[:-1]],
        "B": [row[:n] for row in V[:-1]],
        "c": [row[n] for row in U[:-1]],
        "d": [row[n] for row in V[:-1]],
        "p": U[-1][:n],
        "q": V[-1][:n],
        "r": U[-1][n],
        "s": V[-1][n],
        "objective": "minimize",
    }


# --- certificate documents -------------------------------------------------


def _put_potentials(doc: dict, cert, keys: tuple) -> None:
    """The certificate's potential vectors under their JSON keys."""
    for key in keys:
        z = getattr(cert, key)
        if z is not None:
            doc[key] = ["-inf" if x is None else x for x in z]


def serialize_certificate(cert) -> dict:
    if isinstance(cert, certify.OptimalityCertificate):
        doc = {
            "type": "optimality",
            "lambda": format_rational(cert.lam),
            "tau": [i + 1 for i in cert.tau.choices],
        }
        if cert.witness is not None:
            doc["witness"] = [format_entry(e) for e in cert.witness]
        _put_potentials(doc, cert, certify.OPTIMALITY_POTENTIALS)
        return doc
    if isinstance(cert, certify.UnboundednessCertificate):
        doc = {"type": "unboundedness", "sigma": [l + 1 for l in cert.sigma.choices]}
        _put_potentials(doc, cert, certify.UNBOUNDEDNESS_POTENTIALS)
        return doc
    raise ValueError(f"unknown certificate object {cert!r}")


def _parse_potentials(doc: dict, keys: tuple, n: int) -> list:
    """The potential vectors under keys, None where a key is absent: n+1
    JSON integers or "-inf" each, read as int or None."""
    found = []
    for key in keys:
        if key not in doc:
            found.append(None)
            continue
        z = doc[key]
        if not isinstance(z, list) or len(z) != n + 1:
            raise DocumentError(f"{key} must list {n + 1} potentials")
        for j, x in enumerate(z):
            if type(x) is not int and x != "-inf":  # no bool, float, null or rational
                raise DocumentError(f'{key}[{j}] must be an integer or "-inf"')
        found.append(tuple(None if x == "-inf" else x for x in z))
    return found


def _successors(doc: dict, key: str, count: int, top: int, what: str) -> tuple:
    """doc[key], count 1-based successors in 1..top, as 0-based choices."""
    nodes = doc[key]
    if not isinstance(nodes, list) or len(nodes) != count:
        raise DocumentError(f"{key} must list {count} successors")
    for j, i in enumerate(nodes):
        if isinstance(i, bool) or not isinstance(i, int) or not (1 <= i <= top):
            raise DocumentError(f"{key}[{j}] must be a {what} index in 1..{top}")
    return tuple(i - 1 for i in nodes)


def parse_certificate(doc: dict, m: int, n: int):
    """Certificate objects from a document, checked against homogenized m, n."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise DocumentError("certificate document must be an object with a 'type'")
    kind = doc["type"]
    if kind == "optimality":
        if "lambda" not in doc or "tau" not in doc:
            raise DocumentError("optimality certificate needs 'lambda' and 'tau'")
        lam = parse_entry(doc["lambda"], "lambda")
        if not lam.is_finite:
            raise DocumentError("lambda must be finite")
        choices = _successors(doc, "tau", n + 1, m + 1, "row")
        witness = None
        if "witness" in doc:
            witness = tuple(_parse_vector(doc, "witness", parse_entry))
            if len(witness) != n + 1:
                raise DocumentError(f"witness must have {n + 1} coordinates")
        return certify.OptimalityCertificate(
            lam.value, MinStrategy(choices), witness,
            *_parse_potentials(doc, certify.OPTIMALITY_POTENTIALS, n),
        )
    if kind == "unboundedness":
        if "sigma" not in doc:
            raise DocumentError("unboundedness certificate needs 'sigma'")
        choices = _successors(doc, "sigma", m + 1, n + 1, "column")
        return certify.UnboundednessCertificate(
            MaxStrategy(choices),
            *_parse_potentials(doc, certify.UNBOUNDEDNESS_POTENTIALS, n),
        )
    raise DocumentError(f"unknown certificate type {kind!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply")


# --- commands --------------------------------------------------------------


def cmd_solve(args, out: TextIO) -> int:
    if args.lambda0 is not None and args.method != "newton":
        raise DocumentError("--lambda0 applies only to --method newton")
    parsed = parse_instance(_load_json(args.instance))
    lam0 = -args.lambda0 if parsed.maximize and args.lambda0 is not None else args.lambda0
    try:
        outcome = solver.solve(parsed.instance, method=args.method, lam0=lam0)
    except solver.InfeasibleStart as exc:
        raise DocumentError(str(exc))
    # The certificate is written first, so a path that cannot be written
    # fails before anything is printed.
    if args.cert_out and outcome.certificate is not None:
        cert = serialize_certificate(outcome.certificate)
        _write_text(args.cert_out, json.dumps(cert, indent=2) + "\n")
    if args.stats:
        print(json.dumps(dataclasses.asdict(outcome.stats)), file=sys.stderr)
    for (k, lam, sign) in outcome.trace:  # each lambda_k in document units
        lam = parsed.objective_value(lam / parsed.instance.scale)
        print(f"iteration {k}: lambda = {format_rational(lam)} (phi {sign})", file=out)
    if outcome.status == "Infeasible":
        print("infeasible", file=out)
        return 2
    if outcome.status == "Unbounded":
        print("unbounded", file=out)
        return 3
    print(f"optimal {format_rational(parsed.objective_value(outcome.lam))}", file=out)
    print(f"lambda* = {format_rational(outcome.lam)}", file=out)
    if outcome.witness is not None:
        coords = " ".join(format_entry(e) for e in outcome.witness)
        print(f"witness x = ({coords})", file=out)
    return 0


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}")


NO_PARAMETRIC_GAME = (
    "the parametric game is undefined: the objective's denominator is identically -inf"
)


def _game_instance(path: str) -> HomogeneousInstance:
    """The homogenized instance at path; a DocumentError when it has no parametric game."""
    H = homogenize(parse_instance(_load_json(path)).instance)
    if all(x is None for x in H.V[-1]):
        raise DocumentError(NO_PARAMETRIC_GAME)
    return H


def cmd_spectral(args, out: TextIO) -> int:
    H = _game_instance(args.instance)
    pieces = reconstruct(H)

    # lambda, phi and alpha print in document units: divided by the scale.
    def unscaled(x) -> str:
        return format_rational(Fraction(x) / H.scale)

    def endpoint(e: ExtendedNumber) -> str:
        if e.is_finite:
            return unscaled(e.value)
        return "+inf" if e.kind == 1 else "-inf"

    lines = ["piece,lo,hi,alpha,beta,k"]
    for piece in pieces:
        lines.append(
            "piece,{},{},{},{},{}".format(
                endpoint(piece.lo),
                endpoint(piece.hi),
                unscaled(piece.alpha),
                piece.beta,
                piece.k,
            )
        )
    lines.append("sample,lambda,phi")
    samples = [e.value for piece in pieces for e in (piece.lo, piece.hi) if e.is_finite]
    if samples:
        lo, hi = min(samples) - 1, max(samples) + 1
        step = Fraction(hi - lo, 32)
        grid = [lo + step * t for t in range(33)]
    else:
        grid = [Fraction(t) for t in range(-4, 5)]
    for lam in grid:
        lines.append(f"sample,{unscaled(lam)},{unscaled(phi(H, lam))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        out.write(text)
    return 0


def cmd_check(args, out: TextIO) -> int:
    parsed = parse_instance(_load_json(args.instance))
    H = homogenize(parsed.instance)
    cert = parse_certificate(_load_json(args.certificate), H.m, H.n)
    try:
        if isinstance(cert, certify.OptimalityCertificate):
            result = certify.check_optimality(H, cert)
        else:
            result = certify.check_unboundedness(H, cert)
    except ValueError as exc:  # a strategy move with a -inf payment
        result = certify.CheckResult(False, str(exc))
    except AssumptionViolated:
        result = certify.CheckResult(False, NO_PARAMETRIC_GAME)
    if result:
        print("accept", file=out)
        return 0
    print(f"reject: {result.reason}", file=out)
    return 4


def cmd_game_value(args, out: TextIO) -> int:
    H = _game_instance(args.instance)
    node = args.node if args.node is not None else H.n + 1
    if not (1 <= node <= H.n + 1):
        print(f"error: node must be in 1..{H.n + 1}", file=sys.stderr)
        return 1
    chi = H.report(Fraction(args.lam) * H.scale).chi[node - 1]
    print(format_rational(chi / H.scale), file=out)
    return 0


# --- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that looks like a negative number as an
        # option value, not a flag; "-1/2" should look like one, as "-1" and
        # "-0.5" do.  No option of this parser looks like a negative number.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise DocumentError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="troplf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="solve an instance",
        description="Solve an instance.  Each trace line gives lambda_k in the document's "
        "units and the sign of phi there: (phi >=0) when that objective level is attained "
        "by a feasible point (a value at most lambda_k when minimizing, at least lambda_k "
        "when maximizing), (phi <0) when it is not.",
    )
    p.add_argument("instance")
    p.add_argument("--method", choices=solver.METHODS, default="newton")
    p.add_argument("--lambda0", type=_rational, default=None)
    p.add_argument("--cert-out", default=None)
    p.add_argument(
        "--stats", action="store_true",
        help="print the parametric game's work (runs, memo_hits, rounds, ranked_rounds, "
        "bigint_runs, seeded_runs, value_steps) as one JSON line on stderr",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "spectral", help="reconstruct the spectral function pieces",
        description="Print the affine pieces and samples of the spectral function phi, "
        "whose smallest zero is the optimum.  The pieces are exact and found by a "
        "dichotomy that optimal strategies certify, with no size limit: its work grows "
        "with the number of pieces, not with the entries.  For a \"maximize\" document, "
        "lambda is the dualized minimization's, lambda_dual = -lambda_doc: the smallest "
        "zero is the negated optimum.",
    )
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("check", help="validate a certificate against an instance")
    p.add_argument("instance")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "game-value", help="exact game value at a node",
        description="Print the exact value of the parametric game at lambda at a Min "
        "node (default n+1, where it is phi(lambda)).",
    )
    p.add_argument("instance")
    p.add_argument(
        "--lambda", dest="lam", type=_rational, required=True,
        help="the parameter; for a \"maximize\" document the dualized minimization's, "
        "lambda_dual = -lambda_doc",
    )
    p.add_argument("--node", type=int, default=None)
    p.set_defaults(func=cmd_game_value)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, sys.stdout)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
