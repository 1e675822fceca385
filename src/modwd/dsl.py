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


# punctuation, an integer or an identifier; the last group is any other
# character, which no token starts with
_TOKEN = re.compile(r"\s*(?:(->|[{}()\[\],;=*@^])|(-?\d+)|([^\W\d][\w.]*)|(\S))")


class Parser:
    """Recursive descent over the tokens of `text`: (kind, value, position)
    with kind punct, int, ident or eof."""

    def __init__(self, text, ctx, declarations=None):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind = ("punct", "int", "ident", "bad")[m.lastindex - 1]
            v, p = m.group(m.lastindex), m.start(m.lastindex)
            if kind == "bad":
                raise ParseError(f"unexpected character {v!r}", p)
            self.tokens.append((kind, int(v) if kind == "int" else v, p))
        self.tokens.append(("eof", None, len(text)))
        self.i = 0
        self.ctx = ctx
        self.declarations = declarations or {}

    # -- tokens -------------------------------------------------------------

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, value):
        """Consume the punctuation `value` if it comes next; say whether."""
        kind, v, _ = self.tokens[self.i]
        if kind == "punct" and v == value:
            self.i += 1
            return True
        return False

    def expect_punct(self, value):
        kind, v, p = self.next()
        if kind != "punct" or v != value:
            raise ParseError(f"expected {value!r}, found {v!r}", p)

    def expect_ident(self, value=None):
        kind, v, p = self.next()
        if kind != "ident" or (value is not None and v != value):
            raise ParseError(f"expected identifier {value or ''}, found {v!r}", p)
        return v

    def expect_int(self, least=None, message=None):
        """An integer; ParseError(message) when it is below `least`."""
        kind, v, p = self.next()
        if kind != "int":
            raise ParseError(f"expected integer, found {v!r}", p)
        if least is not None and v < least:
            raise ParseError(message, p)
        return v

    def key(self, name):
        """Consume `name =`."""
        self.expect_ident(name)
        self.expect_punct("=")

    def twist(self):
        """The optional `; a=INT` that ends seg(...) and st(...)."""
        if not self.accept(";"):
            return 0
        self.key("a")
        return self.expect_int()

    def multiset(self, item):
        """`{ item (*INT)?, ... }` as a list of (item, multiplicity)."""
        self.expect_punct("{")
        items = []
        if self.accept("}"):
            return items
        while True:
            x = item()
            items.append((x, self.expect_int(0, "negative multiplicity")
                          if self.accept("*") else 1))
            if not self.accept(","):
                break
        self.expect_punct("}")
        return items

    def whole(self, read):
        """read(), which must consume every token."""
        out = read()
        kind, v, p = self.tokens[self.i]
        if kind != "eof":
            raise ParseError(f"trailing input starting at {v!r}", p)
        return out

    # -- atoms ------------------------------------------------------------

    def elem(self):
        kind, v, p = self.next()
        field = self.ctx.field
        if kind == "int":
            e = field.from_int(v)
        elif (kind, v) == ("punct", "["):
            coeffs = [self.expect_int()]
            while self.accept(","):
                coeffs.append(self.expect_int())
            self.expect_punct("]")
            if len(coeffs) > field.k:
                raise ParseError(f"element has {len(coeffs)} coefficients "
                                 f"but the field has degree {field.k}", p)
            e = field.from_coeffs(coeffs + [0] * (field.k - len(coeffs)))
        else:
            raise ParseError(f"expected a field element, found {v!r}", p)
        if self.accept("@"):
            if self.expect_ident() != "F":
                raise ParseError("expected F(ell^k) after @", p)
            self.expect_punct("(")
            ell = self.expect_int()
            self.expect_punct("^")
            k = self.expect_int()
            self.expect_punct(")")
            if (ell, k) != (field.ell, field.k):
                raise ParseError(
                    f"element tagged F({ell}^{k}) in a F({field.ell}^{field.k}) context", p)
        return e

    def irr(self):
        kind, v, p = self.next()
        if kind != "ident":
            raise ParseError(f"expected chi(...) or irr(...), found {v!r}", p)
        if v == "chi":
            self.expect_punct("(")
            self.key("t")
            t = self.elem()
            self.expect_punct(")")
            if t.is_zero():
                raise ParseError("character value must be nonzero", p)
            return UnramifiedChar(t)
        if v == "irr":
            self.expect_punct("(")
            label = self.expect_ident()
            self.expect_punct(",")
            self.key("dim")
            dim = self.expect_int(1, "dimension must be positive")
            self.expect_punct(",")
            self.key("ord")
            order = self.expect_int(1, "twist order must be positive")
            if self.ctx.o_nu % order:  # nu^o(nu) = 1 must fix psi
                raise ParseError(f"twist order {order} does not divide "
                                 f"o(nu)={self.ctx.o_nu}", p)
            if order * dim % self.ctx.o_nu:
                raise ParseError(f"ord*dim={order * dim} is not a multiple of "
                                 f"o(nu)={self.ctx.o_nu}: nu^o(psi) psi = psi "
                                 "forces det(nu)^(o(psi) dim psi) = 1", p)
            self.expect_punct(",")
            self.key("dual")
            dual = self.expect_ident()
            self.expect_punct(")")
            return RamifiedAbstract(label, dim, order, dual)
        if v in self.declarations:
            return self.declarations[v]
        raise ParseError(f"unknown atom {v!r}", p)

    # -- Deligne classes ----------------------------------------------------

    def indec(self):
        kind, v, p = self.next()
        if kind != "ident":
            raise ParseError(f"expected seg(...) or cyc(...), found {v!r}", p)
        if v == "seg":
            self.expect_punct("(")
            psi = self.irr()
            self.expect_punct(";")
            self.key("r")
            r = self.expect_int(1, "segment length must be positive")
            a = self.twist()
            self.expect_punct(")")
            return Seg(psi, r, a)
        if v == "cyc":
            self.expect_punct("(")
            self.expect_ident("line")
            self.expect_punct("(")
            psi = self.irr()
            self.expect_punct(")")
            self.expect_punct(";")
            self.key("r")
            r = self.expect_int(1, "cycle length must be positive")
            self.expect_punct(")")
            return Cyc(line_of(psi, self.ctx)[0], r)
        raise ParseError(f"expected seg or cyc, found {v!r}", p)

    def deligne_class(self):
        return normalize(self.multiset(self.indec), self.ctx)

    # -- generic representations ----------------------------------------------

    def glseg(self):
        kind, v, p = self.next()
        if kind != "ident":
            raise ParseError(f"expected st(...) or stk(...), found {v!r}", p)
        if v == "st":
            self.expect_punct("(")
            self.key("r")
            r = self.expect_int()
            self.expect_punct(";")
            self.key("cusp")
            psi = self.irr()
            a = self.twist()
            self.expect_punct(")")
            return GLSegment(SuperCusp(psi), r, a)
        if v == "stk":
            self.expect_punct("(")
            self.key("line")
            psi = self.irr()
            self.expect_punct(",")
            self.key("k")
            k = self.expect_int()
            self.expect_punct(";")
            self.key("r")
            r = self.expect_int()
            self.expect_punct(")")
            return GLSegment(NonSuperCusp(line_of(psi, self.ctx)[0], k), r, 0)
        raise ParseError(f"expected st or stk, found {v!r}", p)

    def generic_rep(self):
        self.expect_ident("prod")
        return make_generic(self.multiset(self.glseg), self.ctx)

    # -- fusion statements ------------------------------------------------------

    def fuse(self):
        """`<a> <b> -> (k1,e1) (k2,e2) ...` as (a, b, [(k, e), ...])."""
        a = self.irr()
        b = self.irr()
        self.expect_punct("->")
        entries = []
        while self.accept("("):
            k = self.expect_int()
            self.expect_punct(",")
            entries.append((k, self.irr()))
            self.expect_punct(")")
        return a, b, entries


def parse_class(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    return p.whole(p.deligne_class)


def parse_rep(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    return p.whole(p.generic_rep)


def parse_irr(text, ctx, declarations=None):
    p = Parser(text, ctx, declarations)
    return p.whole(p.irr)


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
            p = Parser(line[4:].strip(), ctx, declarations)
            table.add(*p.whole(p.fuse))
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
