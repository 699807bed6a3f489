"""Text formats: theories, instances, queries, Datalog programs, formulas.

All five formats share one lexical layer: identifiers match
``[A-Za-z_][A-Za-z0-9_]*'*`` (trailing apostrophes mark derived copy relations,
a leading underscore marks reserved names such as ``_unit`` or chase nulls),
``#`` starts a comment running to the end of the line, and statements in files
end with a period.

Theory files::

    rel R/2.
    const c.
    tgd R(x,y), U(y) -> U(x).
    tgd U(x) -> exists z: S(x,z).

Instance files (declarations optional; with no ``rel`` lines the signature is
inferred from the facts)::

    rel R/2.
    const c.
    let c = a.          # interpret c at the element a (default: at itself)
    R(a,b). U(b).

Quoted fact arguments (``R("p(n1,m1)", b).``) are literal element names and
never resolve through constant declarations; unquoted names that match a
declared constant denote that constant's interpretation.

Query text, three equivalent shapes::

    T(x)                          # bare atoms: every variable is an answer variable
    exists y: R(x,y), U(y)        # declared existentials, the rest answer variables
    ans(x) :- R(x,y), U(y).       # rule shape: the head fixes the answer order

Datalog files (every relation must be declared; ``goal`` names the output)::

    edb R/2.
    idb Aux/1.
    goal G/1.
    G(x) :- R(x,y), Aux(y).

Formulas, plain ASCII with ``&  |  !  =`` and dot-scoped quantifiers that
extend as far right as possible::

    exists x. (E(x,y) & !U(x))
    forall x. (!E(x,x) | exists y. E(x,y))

In theory, instance and Datalog files a statement is a declaration exactly
when it is one of the format's keywords followed by a name (``rel R/2.``,
``const c.``, ``let c = a.``, ``tgd R(x) -> U(x).``, ``goal G/1.``), so
``rel(b,b).``, ``let(a).`` or ``goal(x) :- R(x,x).`` are still facts and rules
over relations with those names.  Two name rules hold in every format, and
breaking either is a parse error: a variable bound by ``exists`` or
``forall`` (tgd existentials, query prefixes, formula quantifiers) and a
query's answer variable may not carry a declared constant's name, and a
constant may not share its name with a relation.

Printers invert parsers: ``parse(print(v)) == v`` for every value whose
variable orders follow the builders' first-occurrence conventions, whose
variables are not named like declared constants and whose values are
elements or constants.  Chase nulls print as plain names and parse
back as elements (same name, element kind), so reloading a chase result gives
an isomorphic copy, not the identical value objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .datalog import DatalogProgram, Rule
from .logic import FoAnd, FoEq, FoExists, FoForall, FoFormula, FoNot, FoOr
from .model import Fact, Instance, Signature, Value, const, elem, fact_key
from .query import Atom, ConjunctiveQuery, Cst, Term, Var, first_occurrence_vars
from .tgd import Tgd


class ParseError(ValueError):
    """Syntax or declaration error, carrying the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | string | punctuation text | eof
    text: str
    line: int
    col: int


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")
_NUMBER = re.compile(r"[0-9]+")
_PLAIN_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*'*|[0-9]+)\Z")
_TWO_CHAR = ("->", ":-")
_ONE_CHAR = "(),./:=&|!"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            col, i = col + 1, i + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise ParseError("unterminated quoted name", line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append(Token(text[i:i + 2], text[i:i + 2], line, col))
            col += 2
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token(c, c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind!r}, found {_describe(tok)}",
                             tok.line, tok.col)
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# statement-oriented files: one reader, shared declarations and binders


def _statements(tokens: list[Token],
                keywords: Sequence[str]) -> list[tuple[Optional[Token], _Cursor]]:
    """Split a file at its periods.  A statement that is one of `keywords`
    followed by a name is a declaration and comes with its keyword token and
    a cursor past it; any other statement comes with None and a cursor at its
    start, so relations named like keywords still start facts and rules."""
    out: list[tuple[Optional[Token], _Cursor]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok.kind == "eof" and i > start:
            raise ParseError("statement is missing its final '.'",
                             tokens[start].line, tokens[start].col)
        if tok.kind != ".":
            continue
        if i == start:
            raise ParseError("empty statement", tok.line, tok.col)
        stmt = tokens[start:i]
        last = stmt[-1]
        cur = _Cursor(stmt + [Token("eof", "", last.line, last.col + len(last.text))])
        declares = (len(stmt) > 1 and stmt[0].kind == "ident"
                    and stmt[0].text in keywords and stmt[1].kind == "ident")
        out.append((cur.advance() if declares else None, cur))
        start = i + 1
    return out


def _declare_relation(keyword: Token, cur: _Cursor, into: dict[str, int],
                      *others: dict[str, int]) -> None:
    """Read ``R/2`` into `into`; a name already in `into` or `others` is a
    duplicate."""
    name, arity = _rel_decl(cur)
    if name in into or any(name in rels for rels in others):
        raise ParseError(f"duplicate relation {name}", keyword.line, keyword.col)
    into[name] = arity


def _rel_decl(cur: _Cursor) -> tuple[str, int]:
    name = cur.expect("ident", "relation name")
    cur.expect("/", "'/'")
    arity_tok = cur.expect("number", "arity")
    cur.expect("eof", "end of declaration")
    arity = int(arity_tok.text)
    if arity < 1:
        raise ParseError("arity must be at least 1", arity_tok.line, arity_tok.col)
    return name.text, arity


def _declare_constant(cur: _Cursor, consts: dict[str, Token]) -> None:
    """Read a constant name; repeated declarations of one name are one."""
    tok = cur.expect("ident", "constant name")
    cur.expect("eof", "end of declaration")
    consts.setdefault(tok.text, tok)


def _signature(rels: dict[str, int], consts: dict[str, Token],
               *others: dict[str, int]) -> Signature:
    """The signature of `rels` and `consts`; a constant may not share its
    name with a relation of `rels` or `others`."""
    for name, tok in consts.items():
        if name in rels or any(name in other for other in others):
            raise ParseError(f"constant {name} shares its name with a relation",
                             tok.line, tok.col)
    return Signature(sorted(rels.items()), consts)


def _binder(cur: _Cursor, consts: set[str], end: str,
            keywords: Sequence[str] = ("exists",)) -> Optional[list[str]]:
    """The names of a quantifier prefix such as ``exists x,y`` closed by
    `end`, or None when the cursor is not at one (a keyword followed by '('
    starts an atom).  Bound names are pairwise distinct and none is a
    declared constant."""
    kw = cur.peek()
    if kw.kind != "ident" or kw.text not in keywords or cur.peek(1).kind == "(":
        return None
    cur.advance()
    kind = "existential" if kw.text == "exists" else "universal"
    names: list[str] = []
    while True:
        tok = cur.expect("ident", "variable")
        if tok.text in consts:
            raise ParseError(f"{kind} variable {tok.text} is a declared constant",
                             tok.line, tok.col)
        if tok.text in names:
            raise ParseError(f"duplicate {kind} variable {tok.text}", tok.line, tok.col)
        names.append(tok.text)
        if not cur.at(","):
            break
        cur.advance()
    cur.expect(end, repr(end))
    return names


class _ArityTable:
    """Declared or inferred relation arities with positioned error reporting."""

    def __init__(self, declared: Optional[dict[str, int]]):
        self.declared = declared
        self.inferred: dict[str, int] = {}

    def check(self, rel_tok: Token, arity: int):
        rel = rel_tok.text
        if self.declared is not None:
            if rel not in self.declared:
                raise ParseError(f"undeclared relation {rel}", rel_tok.line, rel_tok.col)
            if self.declared[rel] != arity:
                raise ParseError(
                    f"arity mismatch: {rel} declared /{self.declared[rel]}, used /{arity}",
                    rel_tok.line, rel_tok.col)
        else:
            seen = self.inferred.setdefault(rel, arity)
            if seen != arity:
                raise ParseError(
                    f"arity mismatch: {rel} used both /{seen} and /{arity}",
                    rel_tok.line, rel_tok.col)

    def arities(self) -> dict[str, int]:
        return dict(self.declared) if self.declared is not None else dict(self.inferred)


def _term(cur: _Cursor, consts: set[str]) -> Term:
    tok = cur.peek()
    if tok.kind != "ident":
        cur.fail(f"expected a variable or declared constant, found {_describe(tok)}")
    cur.advance()
    return Cst(tok.text) if tok.text in consts else Var(tok.text)


def _atom(cur: _Cursor, consts: set[str], table: _ArityTable) -> Atom:
    rel_tok = cur.expect("ident", "relation name")
    cur.expect("(", "'('")
    args = [_term(cur, consts)]
    while cur.at(","):
        cur.advance()
        args.append(_term(cur, consts))
    cur.expect(")", "')'")
    table.check(rel_tok, len(args))
    return Atom(rel_tok.text, tuple(args))


def _atom_list(cur: _Cursor, consts: set[str], table: _ArityTable) -> list[Atom]:
    atoms = [_atom(cur, consts, table)]
    while cur.at(","):
        cur.advance()
        atoms.append(_atom(cur, consts, table))
    return atoms


def _var_list(cur: _Cursor) -> list[str]:
    names = [cur.expect("ident", "variable").text]
    while cur.at(","):
        cur.advance()
        names.append(cur.expect("ident", "variable").text)
    return names


# ---------------------------------------------------------------------------
# theories


def parse_theory(text: str) -> tuple[Signature, tuple[Tgd, ...]]:
    """Parse ``rel``/``const`` declarations and ``tgd`` rules.

    With no ``rel`` declarations the signature is inferred from the rules;
    with any, every relation used must be declared at the declared arity.
    """
    rels: dict[str, int] = {}
    consts: dict[str, Token] = {}
    rule_stmts: list[_Cursor] = []
    for keyword, cur in _statements(tokenize(text), ("rel", "const", "tgd")):
        if keyword is None:
            cur.fail(f"expected 'rel', 'const' or 'tgd', found {_describe(cur.peek())}")
        elif keyword.text == "rel":
            _declare_relation(keyword, cur, rels)
        elif keyword.text == "const":
            _declare_constant(cur, consts)
        else:
            rule_stmts.append(cur)
    table = _ArityTable(rels or None)
    rules = tuple(_parse_tgd(cur, set(consts), table) for cur in rule_stmts)
    return _signature(table.arities(), consts), rules


def _parse_tgd(cur: _Cursor, consts: set[str], table: _ArityTable) -> Tgd:
    start = cur.peek()
    body_atoms = _atom_list(cur, consts, table)
    cur.expect("->", "'->'")
    exist = _binder(cur, consts, ":") or []
    head_atoms = _atom_list(cur, consts, table)
    cur.expect("eof", "'.'")

    body_vars = first_occurrence_vars(body_atoms)
    for v in exist:
        if v in body_vars:
            raise ParseError(f"existential variable {v} also occurs in the body",
                             start.line, start.col)
    head_used = {v for a in head_atoms for v in a.vars()}
    for v in sorted(head_used):
        if v not in body_vars and v not in exist:
            raise ParseError(f"head variable {v} is neither universal nor existential",
                             start.line, start.col)
    frontier = tuple(v for v in body_vars if v in head_used)
    body = ConjunctiveQuery(tuple(body_vars), (), tuple(body_atoms))
    head = ConjunctiveQuery(frontier, tuple(exist), tuple(head_atoms))
    return Tgd(body, head)


def print_theory(sig: Signature, rules: Sequence[Tgd]) -> str:
    lines = [f"rel {r}/{sig.arities[r]}." for r in sig.relations()]
    lines += [f"const {c}." for c in sig.constants]
    lines += [f"tgd {t}." for t in rules]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instances


def _value_name(cur: _Cursor) -> tuple[str, bool]:
    """A fact argument or let-target: (name, quoted)."""
    tok = cur.peek()
    if tok.kind in ("ident", "number"):
        cur.advance()
        return tok.text, False
    if tok.kind == "string":
        cur.advance()
        if not tok.text:
            raise ParseError("empty quoted name", tok.line, tok.col)
        return tok.text, True
    cur.fail(f"expected a value name, found {_describe(tok)}")
    raise AssertionError  # unreachable


def parse_instance(text: str) -> Instance:
    """Parse facts with optional ``rel``/``const``/``let`` declarations.

    Unquoted fact arguments naming a declared constant denote its
    interpretation; everything else (and every quoted name) is an element.
    """
    rels: dict[str, int] = {}
    consts: dict[str, Token] = {}
    lets: list[tuple[Token, str, bool]] = []
    fact_stmts: list[_Cursor] = []
    for keyword, cur in _statements(tokenize(text), ("rel", "const", "let")):
        if keyword is None:
            fact_stmts.append(cur)
        elif keyword.text == "rel":
            _declare_relation(keyword, cur, rels)
        elif keyword.text == "const":
            _declare_constant(cur, consts)
        else:
            target = cur.expect("ident", "constant name")
            cur.expect("=", "'='")
            name, quoted = _value_name(cur)
            cur.expect("eof", "end of declaration")
            lets.append((target, name, quoted))

    interp: dict[str, Value] = {c: const(c) for c in consts}
    for target, name, quoted in lets:
        if target.text not in consts:
            raise ParseError(f"let target {target.text} is not a declared constant",
                             target.line, target.col)
        interp[target.text] = interp[name] if (not quoted and name in consts) else elem(name)

    table = _ArityTable(rels or None)
    facts = []
    for cur in fact_stmts:
        rel_tok = cur.expect("ident", "relation name")
        cur.expect("(", "'('")
        args = []
        while True:
            name, quoted = _value_name(cur)
            args.append(interp[name] if (not quoted and name in consts) else elem(name))
            if cur.at(","):
                cur.advance()
                continue
            break
        cur.expect(")", "')'")
        cur.expect("eof", "'.'")
        table.check(rel_tok, len(args))
        facts.append(Fact(rel_tok.text, tuple(args)))
    return Instance(_signature(table.arities(), consts), facts, interp)


def _quote_name(name: str, consts: set[str]) -> str:
    if _PLAIN_NAME.match(name) and name not in consts and name not in ("rel", "const", "let"):
        return name
    return f'"{name}"'


def print_instance(inst: Instance) -> str:
    consts = set(inst.sig.constants)
    lines = [f"rel {r}/{inst.sig.arities[r]}." for r in inst.sig.relations()]
    lines += [f"const {c}." for c in inst.sig.constants]
    for c in inst.sig.constants:
        v = inst.const_interp[c]
        if v != const(c):
            lines.append(f"let {c} = {_quote_name(v.name, consts)}.")
    for f in sorted(inst.facts, key=fact_key):
        shown = []
        for v in f.args:
            if v == inst.const_interp.get(v.name) and v.name in consts:
                shown.append(v.name)
            else:
                shown.append(_quote_name(v.name, consts))
        lines.append(f"{f.rel}({','.join(shown)}).")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# queries


def parse_query(text: str, sig: Optional[Signature] = None) -> ConjunctiveQuery:
    """Parse a conjunctive query in bare, ``exists``-prefixed or rule shape.

    With a signature, relation uses are checked against it and its constant
    names parse as constants; without one, every argument is a variable and
    arities only need to be used consistently.
    """
    tokens = tokenize(text)
    consts = set(sig.constants) if sig is not None else set()
    table = _ArityTable(dict(sig.arities) if sig is not None else None)
    cur = _Cursor(tokens)
    if any(t.kind == ":-" for t in tokens):
        cur.expect("ident", "answer predicate")
        cur.expect("(", "'('")
        free: list[str] = []
        if not cur.at(")"):
            for tok_text in _var_list(cur):
                if tok_text in consts:
                    cur.fail(f"answer variable {tok_text} is a declared constant")
                if tok_text in free:
                    cur.fail(f"duplicate answer variable {tok_text}")
                free.append(tok_text)
        cur.expect(")", "')'")
        cur.expect(":-", "':-'")
        atoms = _atom_list(cur, consts, table)
        body_vars = first_occurrence_vars(atoms)
        for v in free:
            if v not in body_vars:
                cur.fail(f"answer variable {v} occurs in no atom")
        exist = [v for v in body_vars if v not in free]
    else:
        exist = _binder(cur, consts, ":") or []
        atoms = _atom_list(cur, consts, table)
        free = [v for v in first_occurrence_vars(atoms) if v not in exist]
    if cur.at("."):
        cur.advance()
    cur.expect("eof", "end of query")
    return ConjunctiveQuery(tuple(free), tuple(exist), tuple(atoms))


def print_query(q: ConjunctiveQuery) -> str:
    body = ", ".join(str(a) for a in q.atoms)
    return f"ans({','.join(q.free_vars)}) :- {body}."


# ---------------------------------------------------------------------------
# Datalog programs


def parse_datalog(text: str) -> DatalogProgram:
    """Parse ``edb``/``idb``/``goal``/``const`` declarations and ``:-`` rules.

    Every relation a rule mentions must be declared; rule heads must be
    ``idb`` (or the goal) relations.
    """
    tokens = tokenize(text)
    edb: dict[str, int] = {}
    idb: dict[str, int] = {}
    consts: dict[str, Token] = {}
    goal: Optional[str] = None
    rule_stmts: list[_Cursor] = []
    for keyword, cur in _statements(tokens, ("edb", "idb", "goal", "const")):
        if keyword is None:
            rule_stmts.append(cur)
        elif keyword.text == "edb":
            _declare_relation(keyword, cur, edb, idb)
        elif keyword.text == "idb":
            _declare_relation(keyword, cur, idb, edb)
        elif keyword.text == "const":
            _declare_constant(cur, consts)
        else:
            if goal is not None:
                raise ParseError("duplicate goal declaration", keyword.line, keyword.col)
            goal, arity = _rel_decl(cur)
            if goal in edb:
                raise ParseError(f"goal {goal} clashes with an edb relation",
                                 keyword.line, keyword.col)
            if idb.setdefault(goal, arity) != arity:
                raise ParseError(f"goal {goal} redeclared at a different arity",
                                 keyword.line, keyword.col)
    if goal is None:
        raise ParseError("missing goal declaration", tokens[-1].line, tokens[-1].col)

    table = _ArityTable(edb | idb)
    const_set = set(consts)
    rules = []
    for cur in rule_stmts:
        head_tok = cur.peek()
        head_atom = _atom(cur, const_set, table)
        if head_atom.rel not in idb:
            raise ParseError(f"rule head {head_atom.rel} must be an idb relation",
                             head_tok.line, head_tok.col)
        cur.expect(":-", "':-'")
        body = _atom_list(cur, const_set, table)
        cur.expect("eof", "'.'")
        body_vars = {v for a in body for v in a.vars()}
        for v in head_atom.vars():
            if v not in body_vars:
                raise ParseError(f"head variable {v} does not occur in the body",
                                 head_tok.line, head_tok.col)
        rules.append(Rule(head_atom, tuple(body)))
    return DatalogProgram(_signature(edb, consts, idb), Signature(sorted(idb.items())),
                          tuple(rules), goal)


def print_datalog(p: DatalogProgram) -> str:
    lines = [f"edb {r}/{p.edb.arities[r]}." for r in p.edb.relations()]
    lines += [f"const {c}." for c in p.edb.constants]
    lines += [f"idb {r}/{p.idb.arities[r]}." for r in p.idb.relations() if r != p.goal]
    lines.append(f"goal {p.goal}/{p.idb.arities[p.goal]}.")
    lines += [str(r) for r in p.rules]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formulas


class _FormulaParser:
    def __init__(self, text: str, sig: Optional[Signature]):
        self.cur = _Cursor(tokenize(text))
        self.consts = set(sig.constants) if sig is not None else set()
        self.table = _ArityTable(dict(sig.arities) if sig is not None else None)

    def parse(self) -> FoFormula:
        f = self._formula()
        self.cur.expect("eof", "end of formula")
        return f

    def _formula(self) -> FoFormula:
        quantified = self._quantified()
        if quantified is not None:
            return quantified
        parts = [self._and()]
        while self.cur.at("|"):
            self.cur.advance()
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else FoOr(tuple(parts))

    def _quantified(self) -> Optional[FoFormula]:
        kw = self.cur.peek().text
        names = _binder(self.cur, self.consts, ".", ("exists", "forall"))
        if names is None:
            return None
        sub = self._formula()
        ctor = FoExists if kw == "exists" else FoForall
        for name in reversed(names):
            sub = ctor(name, sub)
        return sub

    def _and(self) -> FoFormula:
        parts = [self._unary()]
        while self.cur.at("&"):
            self.cur.advance()
            parts.append(self._unary())
        return parts[0] if len(parts) == 1 else FoAnd(tuple(parts))

    def _unary(self) -> FoFormula:
        if self.cur.at("!"):
            self.cur.advance()
            return FoNot(self._unary())
        quantified = self._quantified()
        return self._primary() if quantified is None else quantified

    def _primary(self) -> FoFormula:
        if self.cur.at("("):
            self.cur.advance()
            f = self._formula()
            self.cur.expect(")", "')'")
            return f
        tok = self.cur.peek()
        if tok.kind != "ident":
            self.cur.fail(f"expected a formula, found {_describe(tok)}")
        if self.cur.peek(1).kind == "(":
            return _atom(self.cur, self.consts, self.table)
        left = _term(self.cur, self.consts)
        self.cur.expect("=", "'=' or '('")
        return FoEq(left, _term(self.cur, self.consts))


def parse_formula(text: str, sig: Optional[Signature] = None) -> FoFormula:
    """Parse an ASCII first-order formula.

    Precedence from loose to tight: quantifier bodies extend as far right as
    possible, then ``|``, then ``&``, then ``!``.  With a signature, relations
    are checked against it and its constant names parse as constants.
    """
    return _FormulaParser(text, sig).parse()


def _render_formula(f: FoFormula) -> str:
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, FoEq):
        return f"({f.left.name} = {f.right.name})"
    if isinstance(f, FoNot):
        return f"!({_render_formula(f.sub)})"
    if isinstance(f, (FoAnd, FoOr)):
        sep = " & " if isinstance(f, FoAnd) else " | "
        return "(" + sep.join(_join_part(p) for p in f.parts) + ")"
    if isinstance(f, FoExists):
        return f"exists {f.var}. {_render_formula(f.sub)}"
    if isinstance(f, FoForall):
        return f"forall {f.var}. {_render_formula(f.sub)}"
    raise TypeError(f"not a formula: {f!r}")


def _join_part(p: FoFormula) -> str:
    # a bare quantifier inside a join would swallow the rest of the join
    rendered = _render_formula(p)
    return f"({rendered})" if isinstance(p, (FoExists, FoForall)) else rendered


def print_formula(f: FoFormula) -> str:
    """A parseable rendering: like the AST's ``str`` form, plus parentheses
    around quantified operands of ``&``/``|`` so their dot scopes stay put."""
    return _render_formula(f)
