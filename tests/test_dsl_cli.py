import io
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from modwd import make_ctx, realize, tensor_ss
from modwd._linalg import FMat
from modwd.cli import run
from modwd.dsl import (format_matrix, load_fusion_table, parse_class,
                       parse_matrix, parse_rep)
from modwd.errors import ParseError
from modwd.matrixmodel import MatrixDeligne


def capture(argv):
    out = io.StringIO()
    rc = run(argv, out=out)
    return rc, out.getvalue()


def test_parse_print_roundtrip_class(ctx52):
    text = "{ seg(chi(t=2); r=3; a=1)*2, cyc(line(chi(t=1)); r=2) }"
    a = parse_class(text, ctx52)
    again = parse_class(repr(a), ctx52)
    assert again == a


def test_parse_print_roundtrip_rep(ctx52):
    text = "prod{ st(r=2; cusp=chi(t=1); a=1), stk(line=chi(t=1), k=1; r=3) }"
    pi = parse_rep(text, ctx52)
    assert parse_rep(repr(pi), ctx52) == pi


def test_parse_elements(ctx52):
    a = parse_class("{ seg(chi(t=[2,3]@F(5^2)); r=1) }", ctx52)
    (ind, m), = a.parts
    assert m == 1
    with pytest.raises(ParseError):
        parse_class("{ seg(chi(t=[2,3]@F(5^1)); r=1) }", ctx52)
    with pytest.raises(ParseError) as exc:
        parse_class("{ seg(chi(t=0); r=1) }", ctx52)
    assert exc.value.pos >= 0


def test_parse_error_position(ctx52):
    with pytest.raises(ParseError) as exc:
        parse_class("{ seg(chi(t=1); r=1; a=6)", ctx52)
    assert "position" in str(exc.value)


def test_twist_order_must_divide_o_nu():
    # o(nu) = 3 at (7,2): a psi with o(psi) = 2 has no consistent nu-twists
    ctx = make_ctx(7, 2)
    assert parse_class("{ seg(irr(psi, dim=2, ord=3, dual=psi); r=1) }", ctx)
    for text in ("{ seg(irr(psi, dim=2, ord=2, dual=psi); r=1) }",
                 "{ cyc(line(irr(psi, dim=1, ord=6, dual=psi)); r=1) }"):
        with pytest.raises(ParseError, match="does not divide"):
            parse_class(text, ctx)
    with pytest.raises(ParseError, match="does not divide"):
        load_fusion_table("DECL irr(psi, dim=2, ord=2, dual=psi)\n", ctx)


def test_label_ord_times_dim_is_a_multiple_of_o_nu(ctx52):
    # nu^o(psi) psi = psi forces det(nu)^(o(psi) dim psi) = 1; o(nu) = 4
    for dim, order in ((1, 4), (2, 2), (4, 1), (3, 4)):
        assert parse_class(f"{{ seg(irr(psi, dim={dim}, ord={order}, "
                           "dual=psiv); r=1) }", ctx52)
    for atom in ("irr(psi, dim=1, ord=1, dual=psiv)",
                 "irr(psia, dim=1, ord=2, dual=psiav)",
                 "irr(psi, dim=3, ord=2, dual=psiv)"):
        with pytest.raises(ParseError, match=r"forces det\(nu\)\^"):
            parse_class(f"{{ seg({atom}; r=1) }}", ctx52)
        with pytest.raises(ParseError, match="not a multiple of o"):
            load_fusion_table(f"DECL {atom}\n", ctx52)


def test_fusion_file(ctx52):
    text = """
# abstract pair with a declared fusion
DECL irr(psia, dim=1, ord=4, dual=psiav)
DECL irr(psib, dim=2, ord=2, dual=psibv)
FUSE psia psib -> (0,chi(t=1)) (1,chi(t=1))
"""
    table = load_fusion_table(text, ctx52)
    a = parse_class("{ seg(irr(psia, dim=1, ord=4, dual=psiav); r=1) }", ctx52)
    b = parse_class("{ seg(irr(psib, dim=2, ord=2, dual=psibv); r=1) }", ctx52)
    out = tensor_ss(a, b, table)
    assert out.dim() == 2
    # dimension-violating entries are rejected with the line number
    bad = ("DECL irr(psia, dim=1, ord=4, dual=psiav)\n"
           "DECL irr(psib, dim=2, ord=2, dual=psibv)\n"
           "FUSE psia psib -> (0,chi(t=1))")
    with pytest.raises(ParseError):
        load_fusion_table(bad, ctx52)


def test_matrix_dump_roundtrip(ctx52):
    a = parse_class("{ seg(chi(t=2); r=2; a=1), cyc(line(chi(t=1)); r=1) }", ctx52)
    m = realize(a, ctx52)
    text = format_matrix(m, ctx52)
    again = parse_matrix(text, ctx52)
    assert again.F == m.F and again.U == m.U


def test_cli_factors_example():
    rc, out = capture(["factors", "--ell", "5", "--q", "2",
                       "{ cyc(line(chi(t=1)); r=1) }"])
    assert rc == 0
    assert out.startswith("ctx ell=5 q=2 k=2\n")
    assert "L= ([1,0]@F(5^2))/([1,0]@F(5^2))\n" in out


ONE52 = "([1,0]@F(5^2))/([1,0]@F(5^2))"
ONE23 = "([1]@F(2^1))/([1]@F(2^1))"


@pytest.mark.parametrize("argv,expected", [
    (["--ell", "5", "--q", "2",
      "{ seg(chi(t=2); r=3; a=1), cyc(line(chi(t=1)); r=2) }"],
     "ctx ell=5 q=2 k=2\n"
     "L= ([1,0]@F(5^2))/([1,0]@F(5^2) + [1,0]@F(5^2)*X)\n"
     "GAMMA= unit: [4,0]@F(5^2)*X^11  frac: ([1,0]@F(5^2) + "
     "[1,0]@F(5^2)*X)/([1,0]@F(5^2) + [3,0]@F(5^2)*X)\n"
     f"EPSILON= unit: [3,0]@F(5^2)*X^10  frac: {ONE52}\n"),
    (["--ell", "5", "--q", "2", "{ seg(irr(psi, dim=2, ord=2, dual=psiv); "
      "r=2; a=1), seg(chi(t=3); r=2) }"],
     "ctx ell=5 q=2 k=2\n"
     "L= ([1,0]@F(5^2))/([1,0]@F(5^2) + [1,0]@F(5^2)*X)\n"
     "GAMMA= unit: [3,0]@F(5^2)*X^2*eps(psi@0)*eps(psi@1)  frac: "
     "([1,0]@F(5^2) + [1,0]@F(5^2)*X)/([1,0]@F(5^2) + [4,0]@F(5^2)*X)\n"
     "EPSILON= unit: [2,0]@F(5^2)*X^1*eps(psi@0)*eps(psi@1)  "
     f"frac: {ONE52}\n"),
    (["--ell", "2", "--q", "3",
      "{ seg(chi(t=1); r=2; a=1), cyc(line(chi(t=1)); r=1) }"],
     "ctx ell=2 q=3 k=1\n"
     "L= ([1]@F(2^1))/([1]@F(2^1) + [1]@F(2^1)*X)\n"
     f"GAMMA= unit: [1]@F(2^1)*eps(chi@[1]@F(2^1))^3  frac: {ONE23}\n"
     "EPSILON= unit: [1]@F(2^1)*X^-1*eps(chi@[1]@F(2^1))^3  "
     f"frac: {ONE23}\n"),
])
def test_cli_factors_golden(argv, expected):
    rc, out = capture(["factors", *argv])
    assert rc == 0
    assert out == expected


def test_cli_byte_stability():
    argv = ["tensor", "--ell", "5", "--q", "2",
            "{ seg(chi(t=1); r=2) }", "{ cyc(line(chi(t=2)); r=1) }"]
    assert capture(argv) == capture(argv)


def test_cli_json_mirrors_text():
    import json
    argv = ["dual", "--ell", "3", "--q", "2", "{ seg(chi(t=2); r=2) }"]
    rc, out = capture(argv + ["--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ctx"] == {"ell": 3, "q": 2, "k": 2}
    rc2, text = capture(argv)
    assert doc["class"] in text


def test_cli_roundtrip_realize_decompose(tmp_path):
    rc, dump = capture(["realize", "--ell", "5", "--q", "2",
                        "{ seg(chi(t=1); r=2; a=0) }"])
    assert rc == 0
    path = tmp_path / "m.txt"
    path.write_text(dump, encoding="utf-8")
    rc, out = capture(["decompose", "--ell", "5", "--q", "2",
                       "--file", str(path)])
    assert rc == 0
    assert "seg(chi(t=[1,0]@F(5^2)); r=2; a=0)" in out


# a class with repeated and distinct segments and a cycle, dim 15
DENSE_CLASS = ("{ seg(chi(t=[1,0]@F(5^2)); r=2; a=0)*2, "
               "cyc(line(chi(t=[1,0]@F(5^2))); r=2), "
               "seg(chi(t=[1,1]@F(5^2)); r=3; a=0) }")


def test_cli_decompose_dense_golden(tmp_path, ctx52):
    # a seeded transported realization (P F P^-1, P (lam U) P^-1): dense
    # matrices, so decompose goes through rref, the projectors and inverse
    m = realize(parse_class(DENSE_CLASS, ctx52), ctx52)
    F = ctx52.field
    rng = random.Random(20261019)
    while True:
        P = FMat(F, [[rng.randrange(F.order) for _ in range(m.dim)]
                     for _ in range(m.dim)])
        if P.rank() == m.dim:
            break
    lam, Pi = rng.randrange(1, F.order), P.inverse()
    moved = MatrixDeligne(P @ m.F @ Pi, P @ m.U.scale(lam) @ Pi)
    assert m.dim == 15 and not moved.F.is_diagonal()
    path = tmp_path / "dense.txt"
    path.write_text(format_matrix(moved, ctx52), encoding="utf-8")
    rc, out = capture(["decompose", "--ell", "5", "--q", "2",
                       "--file", str(path)])
    assert rc == 0
    assert out == f"ctx ell=5 q=2 k=2\nclass= {DENSE_CLASS}\n"


def test_cli_twist_and_cv():
    rc, out = capture(["twist", "--ell", "5", "--q", "2", "--nu", "1",
                       "{ seg(chi(t=1); r=1; a=0) }"])
    assert rc == 0 and "a=1" in out
    rc, out = capture(["cv", "--ell", "5", "--q", "2",
                       "{ seg(chi(t=1); r=1; a=0), seg(chi(t=1); r=1; a=1), "
                       "seg(chi(t=1); r=1; a=2), seg(chi(t=1); r=1; a=3) }"])
    assert rc == 0 and "cyc(" in out


def test_cli_oracle_match_exit_code():
    rc, out = capture(["oracle", "--ell", "5", "--q", "2",
                       "{ cyc(line(chi(t=1)); r=1) }",
                       "{ seg(chi(t=1); r=1) }"])
    assert rc == 0 and "verdict= MATCH" in out


# the criterion-1 witness pair and one pair of the (5,2) criterion-2 grid
WITNESS = ("prod{ stk(line=chi(t=1), k=0; r=1) }",
           "prod{ st(r=1; cusp=chi(t=1); a=0) }")
GRID_PAIR = ("prod{ st(r=1; cusp=chi(t=1); a=0) }",
             "prod{ st(r=1; cusp=chi(t=1); a=0), "
             "stk(line=chi(t=1), k=0; r=4) }")
ONE = "([1,0]@F(5^2))/([1,0]@F(5^2))"


def test_cli_pair_witness_golden():
    rc, out = capture(["pair", "--ell", "5", "--q", "2", *WITNESS])
    assert rc == 0
    assert out == (
        "ctx ell=5 q=2 k=2\n"
        f"L   rs={ONE}\n"
        f"L   gal={ONE}  [MATCH]\n"
        "L   v-side=([1,0]@F(5^2))/([1,0]@F(5^2) + [4,0]@F(5^2)*X^4)\n"
        f"GAMMA rs=unit: [4,0]@F(5^2)*X^4  frac: {ONE}\n"
        f"GAMMA gal=unit: [4,0]@F(5^2)*X^4  frac: {ONE}  [MATCH]\n"
        f"EPS rs=unit: [4,0]@F(5^2)*X^4  frac: {ONE}\n"
        f"EPS gal=unit: [4,0]@F(5^2)*X^4  frac: {ONE}  [MATCH]\n"
        "verdict= MATCH\n")


def test_cli_pair_grid_golden():
    rc, out = capture(["pair", "--ell", "5", "--q", "2", *GRID_PAIR])
    assert rc == 0
    l1 = "([1,0]@F(5^2))/([1,0]@F(5^2) + [4,0]@F(5^2)*X)"
    gamma = ("unit: [3,0]@F(5^2)*X^17  frac: ([1,0]@F(5^2) + "
             "[4,0]@F(5^2)*X)/([1,0]@F(5^2) + [3,0]@F(5^2)*X)")
    assert out == (
        "ctx ell=5 q=2 k=2\n"
        f"L   rs={l1}\n"
        f"L   gal={l1}  [MATCH]\n"
        "L   v-side=([1,0]@F(5^2))/([1,0]@F(5^2) + [4,0]@F(5^2)*X + "
        "[4,0]@F(5^2)*X^4 + [1,0]@F(5^2)*X^5)\n"
        f"GAMMA rs={gamma}\n"
        f"GAMMA gal={gamma}  [MATCH]\n"
        f"EPS rs=unit: [1,0]@F(5^2)*X^16  frac: {ONE}\n"
        f"EPS gal=unit: [1,0]@F(5^2)*X^16  frac: {ONE}  [MATCH]\n"
        "verdict= MATCH\n")


def test_cli_pair_json_and_mismatch_exit_code():
    import json
    argv = ["pair", "--ell", "5", "--q", "2", *GRID_PAIR]
    rc, out = capture(argv + ["--format", "json"])
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "MATCH"
    assert doc["ctx"] == {"ell": 5, "q": 2, "k": 2}
    text = capture(argv)[1].splitlines()
    assert doc["report"] == text[1:-1]
    with mock.patch("modwd.gln.PreservationReport.all_match", False):
        rc, out = capture(argv)
    assert rc == 2 and out.endswith("verdict= MISMATCH\n")


def test_dimension_bound_fails_fast(ctx52, monkeypatch):
    # the bound is lowered rather than a large matrix allocated
    from modwd import field, oracle_tensor_ss
    from modwd.errors import DimensionTooLarge

    monkeypatch.setattr(field, "MAX_DIM", 4)
    four = parse_class("{ seg(chi(t=1); r=4) }", ctx52)
    assert realize(four, ctx52).dim == 4
    with pytest.raises(DimensionTooLarge):
        realize(parse_class("{ seg(chi(t=1); r=5) }", ctx52), ctx52)
    two = parse_class("{ seg(chi(t=1); r=2) }", ctx52)
    assert oracle_tensor_ss(two, two) == tensor_ss(two, two)
    with pytest.raises(DimensionTooLarge):
        oracle_tensor_ss(two, parse_class("{ seg(chi(t=1); r=3) }", ctx52))
    dump = format_matrix(realize(four, ctx52), ctx52)
    assert parse_matrix(dump, ctx52).dim == 4
    with pytest.raises(DimensionTooLarge):
        parse_matrix("dim 5\n", ctx52)
    rc, out = capture(["realize", "--ell", "5", "--q", "2",
                       "{ seg(chi(t=1); r=100000) }"])
    assert rc == 1 and out.startswith("error DimensionTooLarge: "), out


def test_cli_domain_error_exit_code():
    rc, out = capture(["normalize", "--ell", "6", "--q", "2", "{ }"])
    assert rc == 1 and "error NonPrime" in out
    rc, out = capture(["normalize", "--ell", "5", "--q", "2", "{ seg(chi(t=1)"])
    assert rc == 1 and "error ParseError" in out


def test_cli_verify_witness():
    rc, out = capture(["verify", "witness"])
    assert rc == 0
    assert "PASS non-preservation witness" in out
    assert out.strip().endswith("ALL PASS")


def test_cli_verify_takes_only_format_and_grid(capsys):
    # verify runs fixed contexts: a context option is a usage error, not
    # silently ignored
    rc, out = capture(["verify", "witness", "--ell", "7"])
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --ell 7" in capsys.readouterr().err


def test_cli_verify_json():
    import json
    rc, out = capture(["verify", "profile", "--format", "json"])
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    timings = {k: docs[0].pop(k) for k in ("population_s", "check_s", "workers")}
    assert docs[0] == {"name": "interval profile laws", "checked": 40,
                       "passed": True, "failures": [], "note": ""}
    assert isinstance(timings["population_s"], float)
    assert isinstance(timings["check_s"], float)
    assert timings["workers"] == 1
    assert docs[-1] == {"verdict": "ALL PASS"}
    rc, text = capture(["verify", "profile"])
    assert text == "PASS interval profile laws: 40 checks\nALL PASS\n"


def test_cli_byte_stable_across_processes(tmp_path):
    # golden-file stability: fresh interpreter runs produce identical bytes
    import subprocess, sys, os
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "modwd.cli", "factors", "--ell", "5",
           "--q", "2", "{ seg(chi(t=2); r=3; a=1), cyc(line(chi(t=1)); r=2) }"]
    runs = [subprocess.run(cmd, capture_output=True, env=env, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    golden = (
        b"ctx ell=5 q=2 k=2\n"
        b"L= ([1,0]@F(5^2))/([1,0]@F(5^2) + [1,0]@F(5^2)*X)\n"
    )
    assert runs[0].startswith(golden)


# -- fuzzing: bad input ends in a named error, never a traceback -------------

def assert_clean_exit(rc, out):
    assert rc in (0, 1, 2)
    if rc == 1:
        assert re.search(r"^error [A-Za-z]+: ", out, re.M), out


# mostly valid values, so that some inputs get past the parser
INTS = st.sampled_from(["1", "1", "2", "2", "3", "0", "-1"])
ELEM = st.one_of(INTS, st.lists(INTS, max_size=3).map(
    lambda cs: "[" + ",".join(cs) + "]"))
IRR = st.one_of(
    st.builds("chi(t={})".format, ELEM),
    st.builds("irr(psi, dim={}, ord={}, dual=psiv)".format, INTS, INTS))
INDEC = st.one_of(st.builds("seg({}; r={}; a={})".format, IRR, INTS, INTS),
                  st.builds("cyc(line({}); r={})".format, IRR, INTS))
GLSEG = st.one_of(
    st.builds("st(r={}; cusp={}; a={})".format, INTS, IRR, INTS),
    st.builds("stk(line={}, k={}; r={})".format, IRR, INTS, INTS))
TOKENS = st.lists(st.sampled_from(
    ["{", "}", "(", ")", "[", "]", ",", ";", "=", "*", "@", "^", "->", "seg",
     "cyc", "chi", "irr", "line", "t", "r", "a", "dim", "ord", "dual", "F",
     "prod", "st", "stk", "cusp", "k", "psi", "-1", "0", "1", "2", "5", "%",
     "²"]),
    max_size=12).map(" ".join)


def listed(term, prefix=""):
    return st.lists(st.builds("{}*{}".format, term, INTS), max_size=3).map(
        lambda ts: prefix + "{ " + ", ".join(ts) + " }")


CTX_ARGS = st.one_of(st.just(("5", "2", "1")), st.tuples(
    st.sampled_from(["2", "3", "4", "5"]),
    st.sampled_from(["0", "1", "2", "3"]),
    st.sampled_from(["-1", "0", "1", "2"])))


@settings(max_examples=500)
@given(st.sampled_from(["normalize", "dual", "cv", "factors", "realize",
                        "correspond"]),
       st.one_of(listed(INDEC), listed(GLSEG, "prod"), TOKENS), CTX_ARGS)
def test_cli_fuzz_dsl(command, text, ctx_args):
    ell, q, deg = ctx_args
    assert_clean_exit(*capture([command, text, "--ell", ell, "--q", q,
                                "--field-deg", deg]))


def cell(coeffs):
    return "[" + ",".join(str(c) for c in coeffs) + "]"


@st.composite
def matrix_dumps(draw):
    """Dumps at (5,2) of dim <= 4, with at most one line corrupted.  Half
    have F = diag(f) with f in the orbit of 1 and U supported where
    U_ij f_j = q f_i U_ij, so that they satisfy the Deligne relation."""
    n = draw(st.integers(0, 4))
    coeffs = st.lists(st.integers(-1, 5), min_size=1, max_size=2)
    if draw(st.booleans()):
        F = [[draw(coeffs) for _ in range(n)] for _ in range(n)]
        U = [[draw(coeffs) for _ in range(n)] for _ in range(n)]
    else:
        f = draw(st.lists(st.sampled_from([1, 3, 4, 2]), min_size=n,
                          max_size=n))
        F = [[[f[i] if i == j else 0] for j in range(n)] for i in range(n)]
        U = [[draw(coeffs) if f[j] == 2 * f[i] % 5 else [0]
              for j in range(n)] for i in range(n)]
    lines = [f"dim {n}", "F:"] + [" ".join(map(cell, row)) for row in F]
    lines += ["U:"] + [" ".join(map(cell, row)) for row in U]
    k = draw(st.integers(0, len(lines) - 1))
    corruption = draw(st.sampled_from(
        [None] * 8 + ["", "dim -1", "dim x", "[a]", "[]", "[1,]",
         "1 [2", "[1,2,3]"]))
    if corruption is not None:
        lines[k] = corruption
    return "\n".join(lines) + "\n"


@settings(max_examples=500)
@given(matrix_dumps())
def test_cli_fuzz_matrix_dump(text):
    with mock.patch("sys.stdin", io.StringIO(text)):
        assert_clean_exit(*capture(["decompose", "--ell", "5", "--q", "2"]))


def test_cli_reports_bad_input(tmp_path):
    missing, bad = tmp_path / "missing", tmp_path / "bad.txt"
    bad.write_bytes(b"dim 1\n\xff\n")
    cases = [
        (["normalize", "{ seg(chi(t=1); r=0) }"], "ParseError"),
        (["normalize", "{ seg(chi(t=1); r=1)*-1 }"], "ParseError"),
        (["normalize", "{ }", "--field-deg", "0"], "ModwdError"),
        (["dual", "{ seg(irr(p, dim=1, ord=0, dual=p); r=1) }"], "ParseError"),
        (["normalize", "{ seg(chi(t=²); r=1) }"], "ParseError"),
        (["decompose", "--file", str(missing)], "FileNotFoundError"),
        (["normalize", "{ }", "--fusion-file", str(missing)], "FileNotFoundError"),
        (["decompose", "--file", str(bad)], "UnicodeDecodeError"),
        (["normalize", "{ }", "--fusion-file", str(bad)], "UnicodeDecodeError"),
    ]
    for argv, code in cases:
        rc, out = capture(argv + ["--ell", "5", "--q", "2"])
        assert rc == 1 and out.startswith(f"error {code}: "), out
        assert out.count("\n") == 1, out
    for stdin, code in ((io.StringIO("dim x\n"), "ParseError"),
                        (io.StringIO("dim 1\nF:\n[a]\nU:\n[0]\n"), "ParseError"),
                        (io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"),
                         "UnicodeDecodeError")):
        with mock.patch("sys.stdin", stdin):
            rc, out = capture(["decompose", "--ell", "5", "--q", "2"])
        assert rc == 1 and out.startswith(f"error {code}: "), out
