"""Text forms: the expression DSL, fusion-table files, and matrix dumps.

Grammar (all whitespace-insensitive):

  elem    := INT | '[' INT (',' INT)* ']' ('@F(' INT '^' INT ')')?
  irr     := 'chi' '(' 't' '=' elem ')'
           | 'irr' '(' IDENT ',' 'dim' '=' INT ',' 'ord' '=' INT ','
                       'dual' '=' IDENT ')'
  indec   := 'seg' '(' irr ';' 'r' '=' INT (';' 'a' '=' INT)? ')'
           | 'cyc' '(' 'line' '(' irr ')' ';' 'r' '=' INT ')'
  class   := '{' '}' | '{' indec ('*' INT)? (',' indec ('*' INT)?)* '}'
  glseg   := 'st' '(' 'r' '=' INT ';' 'cusp' '=' irr (';' 'a' '=' INT)? ')'
           | 'stk' '(' 'line' '=' irr ',' 'k' '=' INT ';' 'r' '=' INT ')'
  rep     := 'prod' '{' '}' | 'prod' '{' glseg ('*' INT)? (',' ...)* '}'

Fusion files are line oriented: blank lines and '#' comments ignored;
`DECL irr(...)` declares an abstract irreducible, `FUSE <a> <b> -> (k1,e1)
(k2,e2) ...` declares a semisimplified tensor, where each entry is a
declared label or an inline chi/irr atom.
"""

from __future__ import annotations

import re

from .deligne import Cyc, Seg, normalize
from .errors import ParseError
from .field import check_dim
from .gln import GLSegment, NonSuperCusp, SuperCusp, make_generic
from .matrixmodel import MatrixDeligne
from ._linalg import FMat
from .weil import FusionTable, RamifiedAbstract, UnramifiedChar, line_of


class _Scanner:
    PUNCT = ("->", "{", "}", "(", ")", "[", "]", ",", ";", "=", "*", "@", "^")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        p = 0
        while p < n:
            ch = t[p]
            if ch.isspace():
                p += 1
                continue
            two = t[p:p + 2]
            if two == "->":
                self.tokens.append(("punct", "->", p))
                p += 2
                continue
            if ch in "{}()[],;=*@^":
                self.tokens.append(("punct", ch, p))
                p += 1
                continue
            if ch.isdigit() or (ch == "-" and p + 1 < n and t[p + 1].isdigit()):
                q = p + 1
                while q < n and t[q].isdigit():
                    q += 1
                self.tokens.append(("int", int(t[p:q]), p))
                p = q
                continue
            if ch.isalpha() or ch == "_":
                q = p + 1
                while q < n and (t[q].isalnum() or t[q] in "_."):
                    q += 1
                self.tokens.append(("ident", t[p:q], p))
                p = q
                continue
            raise ParseError(f"unexpected character {ch!r}", p)
        self.tokens.append(("eof", None, n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_punct(self, value):
        kind, v, p = self.next()
        if kind != "punct" or v != value:
            raise ParseError(f"expected {value!r}, found {v!r}", p)

    def expect_ident(self, value=None):
        kind, v, p = self.next()
        if kind != "ident" or (value is not None and v != value):
            raise ParseError(f"expected identifier {value or ''}, found {v!r}", p)
        return v

    def expect_int(self):
        kind, v, p = self.next()
        if kind != "int":
            raise ParseError(f"expected integer, found {v!r}", p)
        return v

    def expect_int_at_least(self, least, message):
        """An integer of at least `least`; ParseError(message) below it."""
        pos = self.peek()[2]
        v = self.expect_int()
        if v < least:
            raise ParseError(message, pos)
        return v

    def at_punct(self, value):
        kind, v, _ = self.peek()
        return kind == "punct" and v == value

    def expect_eof(self):
        kind, v, p = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {v!r}", p)


class Parser:
    def __init__(self, text, ctx, declarations=None):
        self.s = _Scanner(text)
        self.ctx = ctx
        self.declarations = declarations or {}

    # -- atoms ------------------------------------------------------------

    def elem(self):
        kind, v, p = self.s.peek()
        field = self.ctx.field
        if kind == "int":
            self.s.next()
            e = field.from_int(v)
        elif kind == "punct" and v == "[":
            self.s.next()
            coeffs = [self.s.expect_int()]
            while self.s.at_punct(","):
                self.s.next()
                coeffs.append(self.s.expect_int())
            self.s.expect_punct("]")
            if len(coeffs) > field.k:
                raise ParseError(f"element has {len(coeffs)} coefficients "
                                 f"but the field has degree {field.k}", p)
            e = field.from_coeffs(coeffs + [0] * (field.k - len(coeffs)))
        else:
            raise ParseError(f"expected a field element, found {v!r}", p)
        if self.s.at_punct("@"):
            self.s.next()
            name = self.s.expect_ident()
            if name != "F":
                raise ParseError("expected F(ell^k) after @", p)
            self.s.expect_punct("(")
            ell = self.s.expect_int()
            self.s.expect_punct("^")
            k = self.s.expect_int()
            self.s.expect_punct(")")
            if (ell, k) != (field.ell, field.k):
                raise ParseError(
                    f"element tagged F({ell}^{k}) in a F({field.ell}^{field.k}) context", p)
        return e

    def irr(self):
        kind, v, p = self.s.peek()
        if kind != "ident":
            raise ParseError(f"expected chi(...) or irr(...), found {v!r}", p)
        if v == "chi":
            self.s.next()
            self.s.expect_punct("(")
            self.s.expect_ident("t")
            self.s.expect_punct("=")
            t = self.elem()
            self.s.expect_punct(")")
            if t.is_zero():
                raise ParseError("character value must be nonzero", p)
            return UnramifiedChar(t)
        if v == "irr":
            self.s.next()
            self.s.expect_punct("(")
            label = self.s.expect_ident()
            self.s.expect_punct(",")
            self.s.expect_ident("dim")
            self.s.expect_punct("=")
            dim = self.s.expect_int_at_least(1, "dimension must be positive")
            self.s.expect_punct(",")
            self.s.expect_ident("ord")
            self.s.expect_punct("=")
            order = self.s.expect_int_at_least(1,
                                               "twist order must be positive")
            self.s.expect_punct(",")
            self.s.expect_ident("dual")
            self.s.expect_punct("=")
            dual = self.s.expect_ident()
            self.s.expect_punct(")")
            return RamifiedAbstract(label, dim, order, dual)
        if v in self.declarations:
            self.s.next()
            return self.declarations[v]
        raise ParseError(f"unknown atom {v!r}", p)

    # -- Deligne classes ----------------------------------------------------

    def indec(self):
        kind, v, p = self.s.peek()
        if kind != "ident":
            raise ParseError(f"expected seg(...) or cyc(...), found {v!r}", p)
        if v == "seg":
            self.s.next()
            self.s.expect_punct("(")
            psi = self.irr()
            self.s.expect_punct(";")
            self.s.expect_ident("r")
            self.s.expect_punct("=")
            r = self.s.expect_int_at_least(1,
                                           "segment length must be positive")
            a = 0
            if self.s.at_punct(";"):
                self.s.next()
                self.s.expect_ident("a")
                self.s.expect_punct("=")
                a = self.s.expect_int()
            self.s.expect_punct(")")
            return Seg(psi, r, a)
        if v == "cyc":
            self.s.next()
            self.s.expect_punct("(")
            self.s.expect_ident("line")
            self.s.expect_punct("(")
            psi = self.irr()
            self.s.expect_punct(")")
            self.s.expect_punct(";")
            self.s.expect_ident("r")
            self.s.expect_punct("=")
            r = self.s.expect_int_at_least(1, "cycle length must be positive")
            self.s.expect_punct(")")
            return Cyc(line_of(psi, self.ctx)[0], r)
        raise ParseError(f"expected seg or cyc, found {v!r}", p)

    def deligne_class(self):
        self.s.expect_punct("{")
        items = []
        if self.s.at_punct("}"):
            self.s.next()
            return normalize(items, self.ctx)
        while True:
            ind = self.indec()
            mult = 1
            if self.s.at_punct("*"):
                self.s.next()
                mult = self.s.expect_int_at_least(0, "negative multiplicity")
            items.append((ind, mult))
            if self.s.at_punct(","):
                self.s.next()
                continue
            break
        self.s.expect_punct("}")
        return normalize(items, self.ctx)

    # -- generic representations ----------------------------------------------

    def glseg(self):
        kind, v, p = self.s.peek()
        if kind != "ident":
            raise ParseError(f"expected st(...) or stk(...), found {v!r}", p)
        if v == "st":
            self.s.next()
            self.s.expect_punct("(")
            self.s.expect_ident("r")
            self.s.expect_punct("=")
            r = self.s.expect_int()
            self.s.expect_punct(";")
            self.s.expect_ident("cusp")
            self.s.expect_punct("=")
            psi = self.irr()
            a = 0
            if self.s.at_punct(";"):
                self.s.next()
                self.s.expect_ident("a")
                self.s.expect_punct("=")
                a = self.s.expect_int()
            self.s.expect_punct(")")
            return GLSegment(SuperCusp(psi), r, a)
        if v == "stk":
            self.s.next()
            self.s.expect_punct("(")
            self.s.expect_ident("line")
            self.s.expect_punct("=")
            psi = self.irr()
            self.s.expect_punct(",")
            self.s.expect_ident("k")
            self.s.expect_punct("=")
            k = self.s.expect_int()
            self.s.expect_punct(";")
            self.s.expect_ident("r")
            self.s.expect_punct("=")
            r = self.s.expect_int()
            self.s.expect_punct(")")
            return GLSegment(NonSuperCusp(line_of(psi, self.ctx)[0], k), r, 0)
        raise ParseError(f"expected st or stk, found {v!r}", p)

    def generic_rep(self):
        self.s.expect_ident("prod")
        self.s.expect_punct("{")
        items = []
        if self.s.at_punct("}"):
            self.s.next()
            return make_generic(items, self.ctx)
        while True:
            seg = self.glseg()
            mult = 1
            if self.s.at_punct("*"):
                self.s.next()
                mult = self.s.expect_int_at_least(0, "negative multiplicity")
            items.append((seg, mult))
            if self.s.at_punct(","):
                self.s.next()
                continue
            break
        self.s.expect_punct("}")
        return make_generic(items, self.ctx)


def parse_class(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    out = p.deligne_class()
    p.s.expect_eof()
    return out


def parse_rep(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    out = p.generic_rep()
    p.s.expect_eof()
    return out


def parse_irr(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    out = p.irr()
    p.s.expect_eof()
    return out


def load_fusion_table(text, ctx) -> FusionTable:
    """Line-oriented fusion file: DECL and FUSE statements."""
    table = FusionTable(ctx)
    declarations = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("DECL"):
                psi = parse_irr(line[4:].strip(), ctx, declarations)
                if not isinstance(psi, RamifiedAbstract):
                    raise ParseError("DECL expects an irr(...) atom", 0)
                declarations[psi.label] = psi
                continue
            if not line.startswith("FUSE"):
                raise ParseError("expected DECL or FUSE", 0)
            body = line[4:].strip()
            p = Parser(body, ctx, declarations)
            a = p.irr()
            b = p.irr()
            p.s.expect_punct("->")
            entries = []
            while p.s.at_punct("("):
                p.s.expect_punct("(")
                k = p.s.expect_int()
                p.s.expect_punct(",")
                theta = p.irr()
                p.s.expect_punct(")")
                entries.append((k, theta))
            p.s.expect_eof()
            table.add(a, b, entries)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"fusion file line {lineno}: {exc}", lineno) from exc
    return table


# -- matrix dumps -------------------------------------------------------------

_DIM = re.compile(r"dim\s+([0-9]+)")
_CELL = re.compile(r"\[-?[0-9]+(,-?[0-9]+)*\]")


def format_matrix(m: MatrixDeligne, ctx) -> str:
    field = ctx.field

    def fmt(mat):
        rows = []
        for i in range(mat.nrows):
            rows.append(" ".join(
                "[" + ",".join(str(c) for c in field.digits(int(mat.a[i, j]))) + "]"
                for j in range(mat.ncols)))
        return rows

    out = [ctx.header(), f"dim {m.dim}", "F:"]
    out += fmt(m.F)
    out.append("U:")
    out += fmt(m.U)
    return "\n".join(out) + "\n"


def parse_matrix(text, ctx) -> MatrixDeligne:
    field = ctx.field
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    i = 0
    if i < len(lines) and lines[i].startswith("ctx "):
        i += 1
    declared = _DIM.fullmatch(lines[i]) if i < len(lines) else None
    if declared is None:
        raise ParseError("matrix dump must declare 'dim <n>'", i)
    n = int(declared.group(1))
    check_dim(n, "the matrix dump")
    i += 1

    def read_block(tag):
        nonlocal i
        if i >= len(lines) or lines[i] != tag:
            raise ParseError(f"expected '{tag}' block", i)
        i += 1
        rows = []
        for _ in range(n):
            if i >= len(lines):
                raise ParseError("matrix dump truncated", i)
            row = []
            for cell in lines[i].split():
                if not _CELL.fullmatch(cell):
                    raise ParseError(f"bad matrix cell {cell!r}", i)
                coeffs = [int(x) for x in cell[1:-1].split(",")]
                if len(coeffs) > field.k:
                    raise ParseError(f"matrix cell {cell!r} has more than "
                                     f"{field.k} coefficients", i)
                row.append(field.from_coeffs(
                    coeffs + [0] * (field.k - len(coeffs))).i)
            if len(row) != n:
                raise ParseError(f"row has {len(row)} entries, expected {n}", i)
            rows.append(row)
            i += 1
        return FMat(field, rows) if n else FMat.zeros(field, 0, 0)

    F = read_block("F:")
    U = read_block("U:")
    return MatrixDeligne(F, U)
