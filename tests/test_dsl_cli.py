import io

import pytest

from modwd import realize, tensor_ss
from modwd.cli import run
from modwd.dsl import (format_matrix, load_fusion_table, parse_class,
                       parse_matrix, parse_rep)
from modwd.errors import ParseError


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


def test_fusion_file(ctx52):
    text = """
# abstract pair with a declared fusion
DECL irr(psia, dim=1, ord=2, dual=psiav)
DECL irr(psib, dim=2, ord=2, dual=psibv)
FUSE psia psib -> (0,chi(t=1)) (1,chi(t=1))
"""
    table = load_fusion_table(text, ctx52)
    a = parse_class("{ seg(irr(psia, dim=1, ord=2, dual=psiav); r=1) }", ctx52)
    b = parse_class("{ seg(irr(psib, dim=2, ord=2, dual=psibv); r=1) }", ctx52)
    out = tensor_ss(a, b, table)
    assert out.dim() == 2
    # dimension-violating entries are rejected with the line number
    bad = ("DECL irr(psia, dim=1, ord=2, dual=psiav)\n"
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


def test_cli_verify_json():
    import json
    rc, out = capture(["verify", "profile", "--format", "json"])
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[0] == {"name": "interval profile laws", "checked": 40,
                       "passed": True, "failures": [], "note": ""}
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
