"""Parser for ``#pragma omp`` payload text -> :class:`Directive`.

The payload has already been captured as a single logical line by the C
lexer (continuations folded).  Clause argument expressions are parsed from
the payload's own tokens with the cfront expression parser, so that e.g.
``num_teams(n / 32 + 1)`` or ``map(to: A[0:n*n])`` produce real ASTs.
"""

from __future__ import annotations

from typing import Optional

from repro.cfront import astnodes as A
from repro.cfront.errors import CFrontError, SourceLoc
from repro.cfront.lexer import Token, tokenize
from repro.cfront.parser import Parser
from repro.cfront.tokens import TokenKind
from repro.openmp.clauses import (
    ATOMIC_KINDS, AtomicClause, DataSharingClause, DefaultClause,
    DependClause, DeviceClause, DistScheduleClause, ExprClause, IfClause,
    MAP_TYPES, MapClause, MapItem, MotionClause, NameClause, NowaitClause,
    ProcBindClause, ReductionClause, SUPPORTED_REDUCTION_OPS, ScheduleClause,
)
from repro.openmp.directives import DIRECTIVE_NAMES, Directive


class OmpParseError(CFrontError):
    """Malformed OpenMP pragma."""


_EXPR_CLAUSES = frozenset(
    {"num_teams", "num_threads", "thread_limit", "collapse", "safelen",
     "simdlen", "priority", "grainsize", "num_tasks", "ordered", "shard"}
)
_DATA_SHARING = frozenset(
    {"private", "firstprivate", "lastprivate", "shared", "copyprivate",
     "copyin", "uses_allocators", "is_device_ptr", "use_device_ptr"}
)
#: the parser accepts exactly what the device lowering implements (the
#: canonical set lives next to ReductionClause); operators that exist in
#: OpenMP but have no lowering here are named in a parse-time diagnostic
#: instead of surfacing as a late CudaXformError
_REDUCTION_OPS = SUPPORTED_REDUCTION_OPS
_REJECTED_REDUCTION_OPS = ("&&", "||")


class _PragmaParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text, "<pragma>")
        self.i = 0

    def _peek(self, offset: int = 0) -> Token:
        return self.toks[min(self.i + offset, len(self.toks) - 1)]

    def _next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _at_word(self, word: str, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD) and tok.text == word

    def _accept_word(self, word: str) -> bool:
        if self._at_word(word):
            self._next()
            return True
        return False

    def _expect(self, spelling: str) -> None:
        tok = self._next()
        if tok.text != spelling:
            raise OmpParseError(
                f"expected {spelling!r} in pragma, found {tok.text!r}: "
                f"#pragma {self.text}", tok.loc
            )

    # -- directive name -----------------------------------------------------
    def _match_name(self) -> str:
        for name in DIRECTIVE_NAMES:
            words = name.split()
            if all(self._at_word(w, off) for off, w in enumerate(words)):
                for _ in words:
                    self._next()
                return name
        tok = self._peek()
        raise OmpParseError(
            f"unknown OpenMP directive starting at {tok.text!r}: "
            f"#pragma {self.text}", tok.loc
        )

    # -- expression fragments -------------------------------------------------
    def _collect_balanced_until(self, stops: tuple[str, ...]) -> list[Token]:
        """Collect the tokens (paren balanced) up to one of ``stops`` at
        depth 0; the stop token is left unconsumed."""
        depth = 0
        start_tok = self._peek()
        parts: list[Token] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                if depth:
                    raise OmpParseError("unbalanced parentheses in pragma", start_tok.loc)
                break
            if tok.text == "(" or tok.text == "[":
                depth += 1
            elif tok.text == ")" or tok.text == "]":
                if depth == 0 and tok.text in stops:
                    break
                depth -= 1
                if depth < 0:
                    raise OmpParseError("unbalanced parentheses in pragma", tok.loc)
            elif depth == 0 and tok.text in stops:
                break
            parts.append(tok)
            self._next()
        return parts

    def _parse_expr_until(self, stops: tuple[str, ...]) -> A.Expr:
        """Parse the clause expression up to ``stops`` from the pragma's
        own tokens.  Each token is placed where the space-joined fragment
        text puts it, so diagnostics read as they name that text."""
        toks: list[Token] = []
        col = 1
        for tok in self._collect_balanced_until(stops):
            toks.append(Token(tok.kind, tok.text,
                              SourceLoc("<pragma-expr>", 1, col), tok.value))
            col += len(tok.text) + 1
        text = " ".join(tok.text for tok in toks)
        toks.append(Token(TokenKind.EOF, "",
                          SourceLoc("<pragma-expr>", 1, len(text) + 1)))
        try:
            parser = Parser(toks, "<pragma-expr>")
            expr = parser._parse_expr()
            if parser._peek().kind is not TokenKind.EOF:
                raise OmpParseError(f"trailing tokens in clause expression {text!r}")
            return expr
        except CFrontError as exc:
            raise OmpParseError(f"bad clause expression {text!r}: {exc}") from exc

    # -- list items ------------------------------------------------------------
    def _parse_map_item(self) -> MapItem:
        tok = self._next()
        if tok.kind is not TokenKind.IDENT:
            raise OmpParseError(f"expected variable name in list, found {tok.text!r}", tok.loc)
        item = MapItem(tok.text)
        while self._peek().text == "[":
            self._next()
            lower: Optional[A.Expr] = None
            length: Optional[A.Expr] = None
            if self._peek().text != ":":
                lower = self._parse_expr_until((":", "]"))
            if self._peek().text == ":":
                self._next()
                if self._peek().text != "]":
                    length = self._parse_expr_until(("]",))
            else:
                # plain subscript x[i] used as a 1-element section
                length = None
            self._expect("]")
            item.sections.append((lower, length))
        return item

    def _parse_item_list(self) -> list[MapItem]:
        items = [self._parse_map_item()]
        while self._peek().text == ",":
            self._next()
            items.append(self._parse_map_item())
        return items

    def _parse_name_list(self) -> list[str]:
        names: list[str] = []
        while True:
            tok = self._next()
            if tok.kind is not TokenKind.IDENT:
                raise OmpParseError(f"expected variable name, found {tok.text!r}", tok.loc)
            names.append(tok.text)
            if self._peek().text != ",":
                return names
            self._next()

    # -- clauses ------------------------------------------------------------
    def _parse_clause(self) -> Optional[object]:
        tok = self._peek()
        if tok.kind is TokenKind.EOF:
            return None
        if tok.text == ",":  # optional clause separators
            self._next()
            return self._parse_clause()
        word = tok.text
        if word == "nowait":
            self._next()
            return NowaitClause()
        # atomic form selectors are bare words (no parenthesised argument)
        if word in ATOMIC_KINDS and self._peek(1).text != "(":
            self._next()
            return AtomicClause(word)
        if word == "depend":
            self._next()
            self._expect("(")
            dep_tok = self._next()
            if dep_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise OmpParseError(
                    f"expected a dependence type before ':' in depend(), "
                    f"found {dep_tok.text!r}", dep_tok.loc
                )
            self._expect(":")
            items = self._parse_item_list()
            self._expect(")")
            # the dependence type is validated (not parsed away) so the
            # validator can name unknown types in its diagnostic
            return DependClause(dep_tok.text, items)
        if word == "map":
            self._next()
            self._expect("(")
            map_type = "tofrom"
            # optional map-type prefix 'to:' / 'from:' / ...
            if self._peek().text in MAP_TYPES and self._peek(1).text == ":":
                map_type = self._next().text
                self._next()
            items = self._parse_item_list()
            self._expect(")")
            return MapClause(map_type, items)
        if word in ("to", "from") and self._peek(1).text == "(":
            self._next()
            self._expect("(")
            items = self._parse_item_list()
            self._expect(")")
            return MotionClause(word, items)
        if word in _EXPR_CLAUSES:
            self._next()
            if word == "ordered" and self._peek().text != "(":
                return ExprClause("ordered", A.IntLit(1))
            self._expect("(")
            expr = self._parse_expr_until((")",))
            self._expect(")")
            return ExprClause(word, expr)
        if word == "if":
            self._next()
            self._expect("(")
            modifier = None
            if (
                self._peek().kind is TokenKind.IDENT
                and self._peek(1).text == ":"
                and self._peek().text in ("target", "parallel", "taskloop", "task")
            ):
                modifier = self._next().text
                self._next()
            expr = self._parse_expr_until((")",))
            self._expect(")")
            return IfClause(expr, modifier)
        if word == "device":
            self._next()
            self._expect("(")
            expr = self._parse_expr_until((")",))
            self._expect(")")
            return DeviceClause(expr)
        if word in _DATA_SHARING:
            self._next()
            self._expect("(")
            names = self._parse_name_list()
            self._expect(")")
            return DataSharingClause(word, names)
        if word == "reduction":
            self._next()
            self._expect("(")
            op_parts = []
            while self._peek().text != ":":
                op_parts.append(self._next().text)
            op = "".join(op_parts)
            if op in _REJECTED_REDUCTION_OPS:
                raise OmpParseError(
                    f"reduction operator {op!r} is not supported by the "
                    f"device lowering (supported: "
                    f"{', '.join(_REDUCTION_OPS)})", tok.loc)
            if op not in _REDUCTION_OPS:
                raise OmpParseError(f"unsupported reduction operator {op!r}", tok.loc)
            self._expect(":")
            names = self._parse_name_list()
            self._expect(")")
            return ReductionClause(op, names)
        if word == "schedule":
            self._next()
            self._expect("(")
            kind_tok = self._next()
            if kind_tok.text not in ("static", "dynamic", "guided", "auto", "runtime"):
                raise OmpParseError(f"unknown schedule kind {kind_tok.text!r}", kind_tok.loc)
            chunk = None
            if self._peek().text == ",":
                self._next()
                chunk = self._parse_expr_until((")",))
            self._expect(")")
            return ScheduleClause(kind_tok.text, chunk)
        if word == "dist_schedule":
            self._next()
            self._expect("(")
            kind_tok = self._next()
            if kind_tok.text != "static":
                raise OmpParseError("dist_schedule supports only static", kind_tok.loc)
            chunk = None
            if self._peek().text == ",":
                self._next()
                chunk = self._parse_expr_until((")",))
            self._expect(")")
            return DistScheduleClause("static", chunk)
        if word == "default":
            self._next()
            self._expect("(")
            mode = self._next().text
            if mode not in ("shared", "none"):
                raise OmpParseError(f"unknown default mode {mode!r}", tok.loc)
            self._expect(")")
            return DefaultClause(mode)
        if word == "proc_bind":
            self._next()
            self._expect("(")
            mode = self._next().text
            self._expect(")")
            return ProcBindClause(mode)
        raise OmpParseError(
            f"unknown clause {word!r} in: #pragma {self.text}", tok.loc
        )

    def parse(self) -> Directive:
        if not self._accept_word("omp"):
            raise OmpParseError(f"not an OpenMP pragma: #pragma {self.text}")
        name = self._match_name()
        directive = Directive(name)
        if name == "critical" and self._peek().text == "(":
            self._next()
            cname = self._next()
            self._expect(")")
            directive.clauses.append(NameClause(cname.text))
        while True:
            clause = self._parse_clause()
            if clause is None:
                break
            directive.clauses.append(clause)
        return directive


def parse_omp_pragma(text: str) -> Directive:
    """Parse a pragma payload (everything after ``#pragma``)."""
    try:
        return _PragmaParser(text.strip()).parse()
    except OmpParseError:
        raise
    except CFrontError as exc:
        raise OmpParseError(f"malformed pragma '#pragma {text.strip()}': {exc}") from exc
