"""Document formats and the command-line interface."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from troplf import (
    AssumptionViolated,
    ExtendedNumber,
    LfpInstance,
    NEG_INF,
    check_optimality,
    homogenize,
    solve,
)
from troplf.cli_io import (
    DocumentError,
    format_entry,
    format_rational,
    main,
    parse_certificate,
    parse_entry,
    parse_instance,
    read_entry,
    serialize_certificate,
    serialize_instance,
)

from conftest import NI, make_instance

EX1 = "data/example1.json"
EX2 = "data/example2.json"
EX3 = "data/example3.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- scalar tokens ---------------------------------------------------------


def test_parse_entry_tokens():
    assert parse_entry(3) == ExtendedNumber.finite(3)
    assert parse_entry("3/2") == ExtendedNumber.finite(Fraction(3, 2))
    assert parse_entry(" -4 ") == ExtendedNumber.finite(-4)
    assert parse_entry("-inf") == NEG_INF
    for bad in ("+inf", "nan", "1.5.2", "", True, None, [1]):
        with pytest.raises(DocumentError):
            parse_entry(bad)


def test_rational_tokens_keep_their_accepted_set():
    """Tokens read as Fraction(text) reads them: a sign only in front, no
    spaces around the slash, no zero denominator; decimals, exponents and
    underscores between digits as Fraction takes them; no booleans."""
    for token, value in (("1.5", Fraction(3, 2)), ("1e3", 1000), ("1_000", 1000), (" 7 ", 7),
                         ("-6/4", Fraction(-3, 2)), ("+3/4", Fraction(3, 4)), ("8/4", 2),
                         ("1_0/4", Fraction(5, 2)), ("-0", 0)):
        x = read_entry(token)
        assert x == value and type(x) is type(value), token
    for token in ("3/-4", "3/+4", "3 / 4", "3 /4", "3/ 4", "3/0", "/4", "3/", "1/2/3",
                  "1__0", "_1", "--3/4", "+inf", "inf"):
        message = f"c[0]: cannot parse {token!r} as a rational"
        with pytest.raises(DocumentError, match=re.escape(message)):
            read_entry(token, "c[0]")
    for token in (True, False):
        with pytest.raises(DocumentError, match="booleans are not numbers"):
            read_entry(token)


def test_format_rational_canonical():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_entry(NEG_INF) == "-inf"


# --- instance documents ----------------------------------------------------


def test_round_trip_instances(example1, example2, example3):
    for inst in (example1, example2, example3):
        doc = serialize_instance(inst)
        again = parse_instance(json.loads(json.dumps(doc)))
        assert not again.maximize
        assert serialize_instance(again.instance) == doc


def test_parse_homogeneous_form_matches_original():
    with open(EX3, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert "C" in doc and "D" in doc
    parsed = parse_instance(doc)
    H = homogenize(parsed.instance)
    assert (H.m, H.n) == (len(doc["C"]), len(doc["C"][0]) - 1)


EX3_ORIGINAL = {
    "A": [[-3, -4, NI], [-1, NI, NI], [NI, NI, NI], [1, NI, 0]],
    "B": [[NI, NI, NI], [NI, 0, NI], [0, NI, NI], [0, NI, NI]],
    "c": [NI, 1, 0, NI],
    "d": [0, NI, NI, 3],
    "p": [NI, 0, NI],
    "q": [3, NI, NI],
    "r": NI,
    "s": NI,
}


def test_three_spellings_of_example3_give_the_same_grids():
    """The homogeneous document, the original form and a maximization with
    numerator and denominator swapped are one instance: the same U, V(0)
    and scale, which are C and D with u and v appended."""
    with open(EX3, "r", encoding="utf-8") as fh:
        homogeneous = json.load(fh)
    swapped = dict(EX3_ORIGINAL, p=EX3_ORIGINAL["q"], q=EX3_ORIGINAL["p"],
                   r=EX3_ORIGINAL["s"], s=EX3_ORIGINAL["r"], objective="maximize")

    def grid(rows):
        return tuple(tuple(None if x == NI else x for x in row) for row in rows)

    U = grid(homogeneous["C"] + [homogeneous["u"]])
    V = grid(homogeneous["D"] + [homogeneous["v"]])
    for doc in (homogeneous, EX3_ORIGINAL, swapped):
        inst = parse_instance(doc).instance
        assert (inst.U, inst.V, inst.scale, inst.m, inst.n) == (U, V, 1, 4, 3)


_entries = st.one_of(
    st.none(),
    st.integers(-10**20, 10**20),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(st.data())
def test_serialized_instances_parse_to_the_same_grids(data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))

    def vector(k):
        return data.draw(st.lists(_entries, min_size=k, max_size=k))

    args = [[vector(n) for _ in range(m)], [vector(n) for _ in range(m)],
            vector(m), vector(m), vector(n), vector(n), *vector(2)]
    try:
        inst = LfpInstance(*args)
    except AssumptionViolated:
        assume(False)
    again = parse_instance(json.loads(json.dumps(serialize_instance(inst)))).instance
    assert (again.U, again.V, again.scale, again.m, again.n) == (inst.U, inst.V, inst.scale, m, n)
    # the grids are the entries times the scale
    A, c, r = args[0], args[2], args[6]
    assert inst.U[-1][n] == (None if r is None else r * inst.scale)
    assert all(inst.U[i][:n] == tuple(None if x is None else x * inst.scale for x in A[i])
               and inst.U[i][n] == (None if c[i] is None else c[i] * inst.scale)
               for i in range(m))


def test_parse_rejects_malformed_documents():
    with pytest.raises(DocumentError):
        parse_instance([])
    with pytest.raises(DocumentError):
        parse_instance({"objective": "maximise"})
    with pytest.raises(DocumentError):
        parse_instance({"A": [[0]], "B": [[0]], "c": [0], "d": [0], "p": "x", "q": [0]})
    with pytest.raises(DocumentError):
        parse_instance({"C": [[0, 0]], "D": [[0, 0]], "u": [0], "v": [0, 0]})


def test_short_homogeneous_rows_are_document_errors(capsys, tmp_path):
    short_d = {"C": [[0, 0]], "D": [[0]], "u": [0, 0], "v": [0, 0]}
    short_c = {"C": [[0, 0], [0]], "D": [[0, 0], [0, 0]], "u": [0, 0], "v": [0, 0]}
    for k, doc in enumerate((short_d, short_c)):
        with pytest.raises(DocumentError, match="every row of C and D"):
            parse_instance(doc)
        path = tmp_path / f"short{k}.json"
        path.write_text(json.dumps(doc))
        for argv in (["solve", str(path)], ["check", str(path), str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error: every row of C and D")


def test_documents_breaking_the_game_assumptions_are_document_errors(capsys, tmp_path):
    doc = {"A": [[0]], "B": [[0]], "c": ["-inf"], "d": [0], "p": [0], "q": [0],
           "r": "-inf", "s": 0}
    with pytest.raises(DocumentError, match=r"column \[\[c\],\[r\]\] has no finite entry"):
        parse_instance(doc)
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", str(path)], ["check", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: column [[c],[r]]")


def test_unreadable_documents_are_document_errors(capsys, tmp_path):
    """A document that is not UTF-8 (here UTF-16 with its byte-order mark)
    or whose JSON nests past the parser's recursion limit gives an error
    line and exit 1, as an instance, a certificate or a game, not a
    traceback."""
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes("{}".encode("utf-16"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path, message in ((utf16, "not UTF-8 text"), (deep, "JSON nested too deeply")):
        for argv in (["solve", str(path)], ["check", EX2, str(path)], ["spectral", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith(f"error: {path}: {message}")


def test_unwritable_outputs_are_document_errors(capsys, tmp_path):
    """solve --cert-out and spectral --out into a missing directory give an
    error line and exit 1, not a traceback, and print nothing else: solve
    writes its certificate before its iteration lines."""
    missing = tmp_path / "missing"
    for command, flag, target in (("solve", "--cert-out", missing / "cert.json"),
                                  ("spectral", "--out", missing / "spec.csv")):
        code, out, err = run(capsys, command, EX2, flag, str(target))
        assert code == 1 and err.startswith(f"error: cannot write {target}")
        assert out == ""
    assert not missing.exists()


# --- certificate documents -------------------------------------------------


def test_certificate_round_trip(example2):
    from troplf import make_optimality_certificate

    H = homogenize(example2)
    cert = make_optimality_certificate(H, Fraction(0))
    doc = serialize_certificate(cert)
    assert doc["type"] == "optimality" and doc["lambda"] == "0"
    assert all(isinstance(i, int) and i >= 1 for i in doc["tau"])
    again = parse_certificate(json.loads(json.dumps(doc)), H.m, H.n)
    assert again.tau == cert.tau and again.lam == cert.lam
    assert again.witness == cert.witness


def test_certificate_parse_rejects_booleans(example2):
    H = homogenize(example2)
    with pytest.raises(DocumentError, match=r"tau\[0\] must be a row index"):
        parse_certificate({"type": "optimality", "lambda": "0", "tau": [True, 4, 4]}, H.m, H.n)
    with pytest.raises(DocumentError, match=r"sigma\[7\] must be a column index"):
        parse_certificate({"type": "unboundedness", "sigma": [1] * 7 + [True]}, H.m, H.n)


def test_certificate_parse_rejects_bad_shapes(example2):
    H = homogenize(example2)
    with pytest.raises(DocumentError):
        parse_certificate({"type": "optimality", "lambda": "0", "tau": [8, 4]}, H.m, H.n)
    with pytest.raises(DocumentError):
        parse_certificate({"type": "optimality", "lambda": "-inf", "tau": [8, 4, 4]}, H.m, H.n)
    with pytest.raises(DocumentError):
        parse_certificate({"type": "mystery"}, H.m, H.n)
    with pytest.raises(DocumentError):
        parse_certificate({"type": "unboundedness", "sigma": [1] * 3}, H.m, H.n)


# --- solve command ---------------------------------------------------------


def test_solve_example2_with_trace(capsys):
    code, out, _ = run(capsys, "solve", EX2, "--lambda0", "15")
    assert code == 0
    lines = out.splitlines()
    assert "optimal 0" in lines
    assert "lambda* = 0" in lines
    traced = [l for l in lines if l.startswith("iteration")]
    assert [l.split()[4] for l in traced] == ["15", "4", "1", "0"]


def test_solve_infeasible_lambda0_is_an_error(capsys):
    for path, lam0 in ((EX2, "-100"), (EX1, "6")):  # EX1 maximizes: lambda0 = 6 is -6 inside
        code, out, err = run(capsys, "solve", path, "--lambda0", lam0)
        assert (code, out, err) == (1, "", "error: lam0 is not feasible: phi(lam0) < 0\n")
    code, out, _ = run(capsys, "solve", EX1, "--lambda0", "-3")
    assert code == 0 and "optimal 5" in out


def _halved(path: str, tmp_path) -> str:
    """A copy of the document at path with every numeric entry halved."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def half(x):
        if isinstance(x, list):
            return [half(y) for y in x]
        return x if x == NI else format_rational(Fraction(x) / 2)

    target = tmp_path / ("half_" + path.rsplit("/", 1)[-1])
    target.write_text(json.dumps({k: v if k == "objective" else half(v) for k, v in doc.items()}))
    return str(target)


def test_solve_trace_in_document_units(capsys, tmp_path):
    """On a rational maximize document the trace starts at --lambda0 and ends
    at the optimum, in the units of the document."""
    path = _halved(EX1, tmp_path)
    for method, start in (("newton", ["--lambda0=-3/2"]), ("negative-newton", [])):
        code, out, _ = run(capsys, "solve", path, "--method", method, *start)
        lines = out.splitlines()
        assert code == 0 and "optimal 5/2" in lines and "lambda* = -5/2" in lines
        traced = [l.split()[4] for l in lines if l.startswith("iteration")]
        if start:
            assert traced[0] == "-3/2"
        assert traced[-1] == "5/2"


def test_solve_takes_a_negative_rational_lambda0(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--lambda0", "-7/2")
    assert code == 0 and "optimal 5" in out
    assert out.splitlines()[0] == "iteration 0: lambda = -7/2 (phi >=0)"
    # 1/5 from the optimum, closer than the 1/4 of the left-optimal strategy's game
    code, out, _ = run(capsys, "solve", EX1, "--lambda0", "24/5")
    assert code == 0 and "optimal 5" in out
    assert out.splitlines()[0] == "iteration 0: lambda = 24/5 (phi >=0)"


def test_lambda0_only_with_newton(capsys):
    for method in ("bisection", "negative-newton"):
        code, out, err = run(capsys, "solve", EX2, "--method", method, "--lambda0", "15")
        assert (code, out, err) == (1, "", "error: --lambda0 applies only to --method newton\n")


def test_solve_example1_maximization(capsys):
    code, out, _ = run(capsys, "solve", EX1)
    assert code == 0
    assert "optimal 5" in out
    assert "lambda* = -5" in out
    assert "witness x = (1 2)" in out


def test_solve_example3_homogeneous(capsys):
    code, out, _ = run(capsys, "solve", EX3)
    assert code == 0
    assert "optimal -4" in out
    assert "witness x = (2 1 -inf)" in out


def test_solve_infeasible_exit_code(capsys, tmp_path):
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps({
        "A": [[0]], "B": [[0]], "c": [0], "d": [0],
        "p": [1], "q": ["-inf"], "r": 0, "s": "-inf",
    }))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 2 and "infeasible" in out


def test_solve_unbounded_exit_code(capsys, tmp_path):
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({
        "A": [[0, "-inf"], ["-inf", 0]], "B": [[0, "-inf"], ["-inf", 0]],
        "c": [0, -1], "d": [0, 0],
        "p": ["-inf", "-inf"], "q": [0, 0], "r": "-inf", "s": 0,
    }))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 3 and "unbounded" in out


NO_ROWS_DOC = {"A": [], "B": [], "c": [], "d": [], "p": [], "q": [], "r": 3, "s": 1}
# Programs with no constraint rows, in both forms, with their optima: the
# number of variables comes from p or u.
NO_ROWS_DOCS = (
    (NO_ROWS_DOC, 2),
    ({"C": [], "D": [], "u": [3], "v": [1]}, 2),
    ({"A": [], "B": [], "c": [], "d": [], "p": [1], "q": [0], "r": 3, "s": 1}, 1),
    ({"C": [], "D": [], "u": [1, 3], "v": [0, 1]}, 1),
)


def test_a_program_without_constraint_rows(capsys, tmp_path):
    """minimize 3 - 1 over no variables, and min max(x + 1, 3) - max(x, 1)
    over one: every method returns the optimum with a certificate that the
    API and ``troplf check`` accept."""
    path, cert_path = tmp_path / "no_rows.json", tmp_path / "cert.json"
    for doc, optimum in NO_ROWS_DOCS:
        inst = parse_instance(doc).instance
        for method in ("newton", "bisection", "negative-newton"):
            out = solve(inst, method=method)
            assert (out.status, out.lam) == ("Optimal", optimum)
            assert check_optimality(homogenize(inst), out.certificate)
        path.write_text(json.dumps(doc))
        for method in ("newton", "bisection", "negative-newton"):
            code, out, _ = run(capsys, "solve", str(path), "--method", method,
                               "--cert-out", str(cert_path))
            assert code == 0 and f"optimal {optimum}" in out.splitlines()
            code, out, _ = run(capsys, "check", str(path), str(cert_path))
            assert code == 0 and "accept" in out


def test_solve_stats_prints_the_oracle_work_on_stderr(capsys):
    """--stats adds one JSON line on stderr with the solve's oracle work and
    leaves stdout and the exit code as they are."""
    code, plain, err = run(capsys, "solve", EX2)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "solve", EX2, "--stats")
    assert (code, out) == (0, plain)
    (line,) = err.splitlines()
    with open(EX2, encoding="utf-8") as fh:
        stats = solve(parse_instance(json.load(fh)).instance).stats
    assert json.loads(line) == {
        "runs": stats.runs, "memo_hits": stats.memo_hits,
        "rounds": stats.rounds, "ranked_rounds": stats.ranked_rounds,
        "bigint_runs": stats.bigint_runs, "seeded_runs": stats.seeded_runs,
        "value_steps": stats.value_steps,
    }
    assert stats.runs > 0


def test_solve_usage_errors(capsys):
    code, _, err = run(capsys, "solve", EX2, "--method", "sorcery")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "solve", "no/such/file.json")
    assert code == 1 and "error" in err


def test_solve_methods_agree_on_examples(capsys):
    for method in ("newton", "bisection", "negative-newton"):
        code, out, _ = run(capsys, "solve", EX2, "--method", method)
        assert code == 0 and "lambda* = 0" in out


# --- check command ---------------------------------------------------------


def test_check_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "solve", EX2, "--cert-out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "check", EX2, str(cert_path))
    assert code == 0 and "accept" in out


UNBOUNDED_DOC = {
    "A": [[0, "-inf"], ["-inf", 0]], "B": [[0, "-inf"], ["-inf", 0]],
    "c": [0, -1], "d": [0, 0],
    "p": ["-inf", "-inf"], "q": [0, 0], "r": "-inf", "s": 0,
}


def test_check_reads_potentials_and_does_without_them(capsys, tmp_path):
    """The issued certificates carry potentials; troplf check accepts them
    with those keys deleted and rejects a corrupted potential, naming it."""
    inst_path = tmp_path / "unbounded.json"
    inst_path.write_text(json.dumps(UNBOUNDED_DOC))
    cert_path = tmp_path / "cert.json"
    for inst, keys in ((EX2, ("potentials", "strict_potentials")),
                       (str(inst_path), ("through_potentials", "negated_potentials"))):
        run(capsys, "solve", inst, "--cert-out", str(cert_path))
        doc = json.loads(cert_path.read_text())
        for key in keys:
            assert doc[key][-1] == 0 and doc[key][0] != "-inf"
            for value, reason in (
                ("-inf", f"reject: {key}: node n+1 is -inf\n"),
                (-1, f"reject: {key}: the arc "),
            ):
                where = -1 if value == "-inf" else 0
                bad = doc[key][:]
                bad[where] = value if value == "-inf" else bad[where] + value
                cert_path.write_text(json.dumps({**doc, key: bad}))
                code, out, _ = run(capsys, "check", inst, str(cert_path))
                assert code == 4 and out.startswith(reason), out
        cert_path.write_text(json.dumps({k: v for k, v in doc.items() if k not in keys}))
        code, out, _ = run(capsys, "check", inst, str(cert_path))
        assert code == 0 and out == "accept\n"


def test_check_rejects_wrong_lambda(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "solve", EX2, "--cert-out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["lambda"] = "-1"
    doc.pop("witness", None)
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", EX2, str(cert_path))
    assert code == 4 and "reject" in out and "phi" in out


def test_check_truncated_tau_is_usage_error(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "solve", EX2, "--cert-out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["tau"] = doc["tau"][:-1]
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", EX2, str(cert_path))
    assert code == 1 and "error" in err


def test_check_unboundedness_certificate(capsys, tmp_path):
    inst_path = tmp_path / "unbounded.json"
    inst_path.write_text(json.dumps(UNBOUNDED_DOC))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "solve", str(inst_path), "--cert-out", str(cert_path))
    assert code == 3
    assert json.loads(cert_path.read_text())["type"] == "unboundedness"
    code, out, _ = run(capsys, "check", str(inst_path), str(cert_path))
    assert code == 0 and "accept" in out


def test_check_rejects_strategies_with_forbidden_moves(capsys, tmp_path):
    from troplf import certify

    cert_path = tmp_path / "cert.json"
    run(capsys, "solve", EX2, "--cert-out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["tau"] = [1, 4, 4]  # row 1 has no finite entry in column 1
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", EX2, str(cert_path))
    assert code == 4 and out == "reject: Min strategy picks a forbidden move 0->0\n"
    with open(EX2, encoding="utf-8") as fh:
        H = homogenize(parse_instance(json.load(fh)).instance)
    with pytest.raises(ValueError):
        certify.check_optimality(H, parse_certificate(doc, H.m, H.n))

    inst_path = tmp_path / "unbounded.json"
    inst_path.write_text(json.dumps(UNBOUNDED_DOC))
    cert_path.write_text(json.dumps({"type": "unboundedness", "sigma": [2, 1, 1]}))
    code, out, _ = run(capsys, "check", str(inst_path), str(cert_path))
    assert code == 4 and out == "reject: Max strategy picks a forbidden move 0->1\n"


def test_commands_without_a_parametric_game(capsys, tmp_path):
    """A denominator row that is identically -inf leaves no parametric game."""
    path = tmp_path / "no_game.json"
    path.write_text(json.dumps({
        "A": [[0]], "B": [[0]], "c": [0], "d": [0], "p": [0], "q": ["-inf"],
        "r": 0, "s": "-inf",
    }))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 2 and out.strip() == "infeasible"
    for argv in (["spectral", str(path)], ["game-value", str(path), "--lambda", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: the parametric game is undefined: the objective's " \
                      "denominator is identically -inf\n"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"type": "unboundedness", "sigma": [1, 1]}))
    code, out, _ = run(capsys, "check", str(path), str(cert_path))
    assert code == 4 and out.startswith("reject: the parametric game is undefined")


# --- game-value command ----------------------------------------------------


def test_game_value_goldens(capsys):
    code, out, _ = run(capsys, "game-value", EX2, "--lambda", "15", "--node", "3")
    assert code == 0 and out.strip() == "11/2"
    code, out, _ = run(capsys, "game-value", EX2, "--lambda", "0")
    assert code == 0 and out.strip() == "0"


def test_game_value_takes_a_negative_rational_lambda(capsys):
    for argv in (["--lambda", "-1/2"], ["--lambda=-1/2"]):
        assert run(capsys, "game-value", *argv, EX2) == (0, "-1/4\n", "")


def test_maximize_spectral_and_game_value_take_the_dual_lambda(capsys):
    """For a "maximize" document, spectral and game-value speak of the
    dualized minimization, lambda_dual = -lambda_doc: example 1's optimum
    is 5, and phi's smallest zero is -5."""
    code, out, _ = run(capsys, "solve", EX1)
    assert code == 0 and "optimal 5\n" in out
    code, out, _ = run(capsys, "spectral", EX1)
    assert code == 0
    pieces = [l.split(",")[1:] for l in out.splitlines()[1:] if l.startswith("piece,")]

    def phi(lam):
        return next(
            (Fraction(alpha) + int(beta) * lam) / int(k)
            for lo, hi, alpha, beta, k in pieces
            if (lo == "-inf" or Fraction(lo) <= lam) and (hi == "+inf" or lam <= Fraction(hi))
        )

    # phi is nondecreasing, so it is negative left of its smallest zero
    assert phi(Fraction(-5)) == 0 and phi(Fraction(-501, 100)) < 0
    assert run(capsys, "game-value", EX1, "--lambda", "-5") == (0, "0\n", "")
    assert run(capsys, "game-value", EX1, "--lambda", "-501/100")[1].startswith("-")
    for command in ("spectral", "game-value"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "lambda_dual = -lambda_doc" in " ".join(out.split())


def test_game_value_node_out_of_range(capsys):
    code, _, err = run(capsys, "game-value", EX2, "--lambda", "0", "--node", "99")
    assert code == 1 and "node" in err


# --- spectral command ------------------------------------------------------


def test_spectral_example2_table(capsys, example2):
    code, out, _ = run(capsys, "spectral", EX2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "piece,lo,hi,alpha,beta,k"
    pieces = [l.split(",") for l in lines[1:] if l.startswith("piece,")]
    H = homogenize(example2)
    bound = 8 * H.M * (H.k_bound + 1) ** 4 + 2
    assert 1 <= len(pieces) <= bound
    # some piece straddles the optimum lambda* = 0 with value 0 there
    def covers_zero(row):
        lo, hi = row[1], row[2]
        lo_ok = lo == "-inf" or Fraction(lo) <= 0
        hi_ok = hi == "+inf" or Fraction(hi) >= 0
        return lo_ok and hi_ok

    crossing = [row for row in pieces if covers_zero(row)]
    assert any(Fraction(row[3]) == 0 for row in crossing)  # alpha/k + 0*beta = 0
    samples = [l.split(",") for l in lines if l.startswith("sample,") and len(l.split(",")) == 3]
    assert samples and all(len(row) == 3 for row in samples)


def test_spectral_rational_document_in_document_units(capsys, tmp_path):
    """With every entry of example 2 halved, the breakpoints halve too, and
    each piece evaluated at a sample lambda it covers gives that sample's phi."""
    code, out, _ = run(capsys, "spectral", _halved(EX2, tmp_path))
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()]
    pieces = [r[1:] for r in rows if r[0] == "piece" and r[1] != "lo"]
    samples = [(Fraction(r[1]), Fraction(r[2])) for r in rows if r[0] == "sample" and r[1] != "lambda"]
    assert pieces[0][:2] == ["-inf", "1"]
    for lam, value in samples:
        covering = [
            (Fraction(alpha) + int(beta) * lam) / int(k)
            for lo, hi, alpha, beta, k in pieces
            if (lo == "-inf" or Fraction(lo) <= lam) and (hi == "+inf" or lam <= Fraction(hi))
        ]
        assert covering and all(v == value for v in covering)


def test_spectral_constant_instance_flat(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "A": [[0]], "B": [[0]], "c": ["-inf"], "d": [0],
        "p": ["-inf"], "q": [0], "r": 0, "s": "-inf",
    }))
    code, out, _ = run(capsys, "spectral", str(path))
    assert code == 0
    pieces = [l.split(",") for l in out.splitlines()[1:] if l.startswith("piece,")]
    # Every finite entry is 0 (M = 0), yet phi is flat only up to lambda = 0
    # and lambda/2 after it: phi, the oracle and brute force agree on that.
    assert pieces == [["piece", "-inf", "0", "0", "0", "1"], ["piece", "0", "+inf", "0", "1", "2"]]


def test_spectral_large_entries(capsys, tmp_path):
    """An entry of 10^5 would put about 9.6 million points on a rational
    grid; the spectral command still prints the pieces, and each sample's
    phi lies on the pieces that cover it."""
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "A": [[10**5]], "B": [[0]], "c": [0], "d": [0], "p": [0], "q": [0], "r": 0, "s": 0,
    }))
    code, out, err = run(capsys, "spectral", str(path))
    assert code == 0 and err == ""
    rows = [l.split(",") for l in out.splitlines()]
    pieces = [r[1:] for r in rows if r[0] == "piece" and r[1] != "lo"]
    assert pieces == [["-inf", "0", "0", "1", "1"], ["0", "+inf", "0", "0", "1"]]
    samples = [(Fraction(r[1]), Fraction(r[2])) for r in rows if r[0] == "sample" and r[1] != "lambda"]
    assert samples
    for lam, value in samples:
        assert value == (lam if lam <= 0 else 0)


def test_spectral_out_file(capsys, tmp_path):
    target = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectral", EX2, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("piece,lo,hi,alpha,beta,k")


# --- determinism ------------------------------------------------------------


def test_solve_output_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", EX2, "--method", "bisection")
    _, out2, _ = run(capsys, "solve", EX2, "--method", "bisection")
    assert out1 == out2
