"""Recursive-descent parser for the C subset (plus CUDA C extensions).

Scope of the subset (enough for Polybench/Unibench sources, the code the
OMPi translator generates, and the CUDA kernel files the nvcc simulator
consumes):

* declarations with full C declarator syntax (pointers, arrays, function
  pointers, parenthesised declarators such as ``int (*x)[96]``);
* ``struct`` definitions (file scope and inline in declarations);
* all C control flow except ``switch``/``goto`` (not used by the paper's
  pipeline); expressions with the complete C operator set;
* ``#pragma`` lines as statements or file-scope declarations, classified
  by a pluggable *pragma classifier* (the OpenMP layer provides one);
* CUDA: ``__global__``/``__device__``/``__shared__`` specifiers and the
  triple-chevron launch syntax.

There is no preprocessor; commonly-used library functions are declared by
:mod:`repro.cfront.builtins`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    DIM3, INT, UINT, ULONG, VOID, ArrayType, BasicType, CType, FunctionType,
    PointerType, StructType,
)
from repro.cfront.errors import ParseError, SourceLoc
from repro.cfront.lexer import Token, tokenize
from repro.cfront.tokens import ASSIGN_OPS, TokenKind

#: classification of a pragma's association with code
PragmaClassifier = Callable[[str], str]  # -> 'block' | 'standalone' | 'declarative'

_STANDALONE_OMP = (
    "barrier", "taskwait", "taskyield", "flush",
    "target update", "target enter data", "target exit data",
)
_DECLARATIVE_OMP = ("declare target", "end declare target", "threadprivate")


def default_pragma_classifier(text: str) -> str:
    """Classify an OpenMP pragma payload by its directive name.

    Non-``omp`` pragmas are treated as standalone (and later ignored).
    """
    body = text.strip()
    if not body.startswith("omp"):
        return "standalone"
    body = body[3:].strip()
    for name in _DECLARATIVE_OMP:
        if body == name or body.startswith(name + " ") or body.startswith(name + "("):
            return "declarative"
    for name in _STANDALONE_OMP:
        if body == name or body.startswith(name + " ") or body.startswith(name + "("):
            return "standalone"
    return "block"


_TYPE_SPEC_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double",
     "signed", "unsigned", "struct"}
)
_STORAGE_KEYWORDS = frozenset({"static", "extern", "typedef", "auto", "register"})
_QUAL_KEYWORDS = frozenset(
    {"const", "volatile", "restrict", "inline",
     "__global__", "__device__", "__shared__", "__host__", "__restrict__",
     "__constant__"}
)

#: binary operator precedence (higher binds tighter)
_BINOP_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    """Parses a token list that ends in an EOF token (:func:`tokenize`
    output, or a slice of one with an EOF appended)."""

    def __init__(
        self,
        tokens: list[Token],
        filename: str = "<memory>",
        pragma_classifier: PragmaClassifier | None = None,
    ):
        self.toks = tokens
        self.i = 0
        self.filename = filename
        self.classify_pragma = pragma_classifier or default_pragma_classifier
        #: known type aliases; seeded with the CUDA/stdlib names our
        #: pipeline relies on (there is no preprocessor to introduce them).
        self.typedefs: dict[str, CType] = {
            "dim3": DIM3,
            "size_t": ULONG,
            "uint32_t": UINT,
            "int32_t": INT,
            "DATA_TYPE": BasicType("float"),
        }
        self.structs: dict[str, StructType] = {"dim3": DIM3}
        self._anon_struct_count = 0
        #: names of the most recently parsed parameter list (set by
        #: :meth:`_parse_declarator_suffixes`; consumed for function
        #: definitions, whose FunctionType carries only parameter types).
        self._last_fn_params: list[tuple[Optional[str], CType]] = []

    # -- token helpers -------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        i = min(self.i + offset, len(self.toks) - 1)
        return self.toks[i]

    def _next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _check_punct(self, spelling: str) -> bool:
        return self._peek().is_punct(spelling)

    def _accept_punct(self, spelling: str) -> Optional[Token]:
        if self._check_punct(spelling):
            return self._next()
        return None

    def _expect_punct(self, spelling: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(spelling):
            raise ParseError(f"expected {spelling!r}, found {tok.text!r}", tok.loc)
        return self._next()

    def _accept_keyword(self, word: str) -> Optional[Token]:
        if self._peek().is_keyword(word):
            return self._next()
        return None

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self._next()

    # -- type detection --------------------------------------------------------
    def _starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is TokenKind.KEYWORD and (
            tok.text in _TYPE_SPEC_KEYWORDS
            or tok.text in _QUAL_KEYWORDS
            or tok.text in _STORAGE_KEYWORDS
        ):
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self.typedefs

    # -- declaration specifiers ---------------------------------------------
    def _parse_decl_specifiers(self) -> tuple[CType, Optional[str], tuple[str, ...], bool]:
        """Parse storage/qualifier/type specifiers.

        Returns ``(base_type, storage, quals, saw_inline_struct)``.
        """
        storage: Optional[str] = None
        quals: list[str] = []
        kinds: list[str] = []
        signedness: Optional[bool] = None
        base: Optional[CType] = None
        inline_struct = False
        start = self._peek().loc
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in _STORAGE_KEYWORDS:
                self._next()
                if tok.text in ("auto", "register"):
                    continue  # accepted and ignored
                if storage is not None:
                    raise ParseError("multiple storage specifiers", tok.loc)
                storage = tok.text
            elif tok.kind is TokenKind.KEYWORD and tok.text in _QUAL_KEYWORDS:
                self._next()
                if tok.text not in quals:
                    quals.append(tok.text)
            elif tok.kind is TokenKind.KEYWORD and tok.text == "struct":
                self._next()
                base, inline_struct = self._parse_struct_specifier(tok.loc)
            elif tok.kind is TokenKind.KEYWORD and tok.text in (
                "void", "char", "short", "int", "long", "float", "double"
            ):
                self._next()
                kinds.append(tok.text)
            elif tok.kind is TokenKind.KEYWORD and tok.text in ("signed", "unsigned"):
                self._next()
                signedness = tok.text == "signed"
            elif (
                tok.kind is TokenKind.IDENT
                and tok.text in self.typedefs
                and base is None
                and not kinds
                and signedness is None
            ):
                # A typedef name is only a type specifier when no other type
                # specifier has been seen (so 'int dim3;' declares a variable
                # named dim3).
                self._next()
                base = self.typedefs[tok.text]
            else:
                break
        if base is None:
            if not kinds and signedness is None:
                raise ParseError("expected type specifier", start)
            base = self._combine_basic(kinds, signedness, start)
        elif kinds or signedness is not None:
            raise ParseError("conflicting type specifiers", start)
        return base, storage, tuple(quals + (["inline_struct"] if inline_struct else [])), inline_struct

    @staticmethod
    def _combine_basic(kinds: list[str], signedness: Optional[bool], loc: SourceLoc) -> CType:
        counts = {k: kinds.count(k) for k in set(kinds)}
        signed = True if signedness is None else signedness
        if counts.get("long", 0) >= 1:
            if any(k not in ("long", "int") for k in kinds):
                raise ParseError("invalid long combination", loc)
            return BasicType("long", signed)
        if not kinds:
            return BasicType("int", signed)  # bare signed/unsigned
        if len(set(kinds)) > 1 and set(kinds) != {"short", "int"}:
            raise ParseError(f"invalid type combination {kinds}", loc)
        kind = "short" if "short" in kinds else kinds[0]
        if kind in ("float", "double", "void") and signedness is not None:
            raise ParseError(f"cannot apply signedness to {kind}", loc)
        return BasicType(kind, signed)

    def _parse_struct_specifier(self, loc: SourceLoc) -> tuple[StructType, bool]:
        name = None
        if self._peek().kind is TokenKind.IDENT:
            name = self._next().text
        if self._accept_punct("{"):
            fields: list[tuple[str, CType]] = []
            while not self._check_punct("}"):
                fbase, fstorage, _fquals, _ = self._parse_decl_specifiers()
                if fstorage is not None:
                    raise ParseError("storage class in struct field", self._peek().loc)
                while True:
                    fname, ftype = self._parse_declarator(fbase)
                    if fname is None:
                        raise ParseError("unnamed struct field", self._peek().loc)
                    fields.append((fname, ftype))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            self._expect_punct("}")
            if name is None:
                self._anon_struct_count += 1
                name = f"__anon{self._anon_struct_count}"
            st = StructType(name, tuple(fields))
            self.structs[name] = st
            return st, True
        if name is None:
            raise ParseError("anonymous struct requires a body", loc)
        if name in self.structs:
            return self.structs[name], False
        st = StructType(name, ())
        self.structs[name] = st
        return st, False

    # -- declarators -----------------------------------------------------------
    def _parse_declarator(self, base: CType) -> tuple[Optional[str], CType]:
        """Parse a declarator, returning (name, full type).

        Implements the standard inside-out algorithm via a worklist of type
        constructors gathered while descending.
        """
        while self._accept_punct("*"):
            while self._peek().kind is TokenKind.KEYWORD and self._peek().text in _QUAL_KEYWORDS:
                self._next()
            base = PointerType(base)
        return self._parse_direct_declarator(base)

    def _parse_direct_declarator(self, base: CType) -> tuple[Optional[str], CType]:
        name: Optional[str] = None
        inner: Optional[tuple[int, int]] = None  # token span of parenthesised declarator
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            name = self._next().text
        elif tok.is_punct("(") and self._is_paren_declarator():
            # Remember the span; re-parse after suffixes are known.
            start = self.i
            self._skip_balanced_parens()
            inner = (start + 1, self.i - 1)
        # suffixes apply outside-in to `base`
        base = self._parse_declarator_suffixes(base)
        if inner is not None:
            save = self.i
            self.i = inner[0]
            name, base = self._parse_declarator(base)
            if self.i != inner[1]:
                raise ParseError("trailing tokens in declarator", self._peek().loc)
            self.i = save
        return name, base

    def _is_paren_declarator(self) -> bool:
        """Disambiguate ``(`` starting a parenthesised declarator from a
        function parameter list: a declarator starts with ``*``, ``(``, or an
        identifier that is not a type name."""
        nxt = self._peek(1)
        if nxt.is_punct("*") or nxt.is_punct("("):
            return True
        return nxt.kind is TokenKind.IDENT and nxt.text not in self.typedefs

    def _skip_balanced_parens(self) -> None:
        depth = 0
        while True:
            tok = self._next()
            if tok.kind is TokenKind.EOF:
                raise ParseError("unbalanced parentheses", tok.loc)
            if tok.is_punct("("):
                depth += 1
            elif tok.is_punct(")"):
                depth -= 1
                if depth == 0:
                    return

    def _parse_declarator_suffixes(self, base: CType) -> CType:
        # Array suffixes bind left-to-right but construct outer-to-inner:
        # x[2][3] is array 2 of array 3 of base.
        dims: list[Optional[int]] = []
        while True:
            if self._accept_punct("["):
                if self._accept_punct("]"):
                    dims.append(None)
                else:
                    size_expr = self._parse_expr()
                    self._expect_punct("]")
                    dims.append(self._const_int(size_expr))
            elif self._check_punct("(") and not dims:
                self._next()
                named, variadic = self._parse_param_types()
                self._expect_punct(")")
                inner = self._parse_declarator_suffixes(base)
                self._last_fn_params = named
                return FunctionType(inner, tuple(t for _n, t in named), variadic)
            else:
                break
        for d in reversed(dims):
            base = ArrayType(base, d)
        return base

    def _parse_param_types(self) -> tuple[list[tuple[Optional[str], CType]], bool]:
        params: list[tuple[Optional[str], CType]] = []
        variadic = False
        if self._check_punct(")"):
            return params, variadic
        if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
            self._next()
            return params, variadic
        while True:
            if self._accept_punct("..."):
                variadic = True
                break
            pbase, _storage, _quals, _ = self._parse_decl_specifiers()
            pname, ptype = self._parse_declarator(pbase)
            params.append((pname, ptype.decay()))
            if not self._accept_punct(","):
                break
        return params, variadic

    def _const_int(self, expr: A.Expr) -> int:
        """Fold a constant expression used as an array bound."""
        val = _const_eval(expr)
        if val is None:
            raise ParseError("array bound must be a constant expression", expr.loc)
        return int(val)

    # -- type names (casts, sizeof) -----------------------------------------
    def _parse_type_name(self) -> CType:
        base, storage, _quals, _ = self._parse_decl_specifiers()
        if storage is not None:
            raise ParseError("storage class in type name", self._peek().loc)
        name, ctype = self._parse_abstract_declarator(base)
        if name is not None:
            raise ParseError("unexpected identifier in type name", self._peek().loc)
        return ctype

    def _parse_abstract_declarator(self, base: CType) -> tuple[Optional[str], CType]:
        if (
            self._check_punct("*")
            or self._check_punct("[")
            or (self._check_punct("(") and self._is_paren_declarator())
            or self._peek().kind is TokenKind.IDENT
        ):
            return self._parse_declarator(base)
        return None, base

    # -- expressions -------------------------------------------------------------
    def _parse_expr(self) -> A.Expr:
        expr = self._parse_assignment()
        if self._check_punct(","):
            parts = [expr]
            while self._accept_punct(","):
                parts.append(self._parse_assignment())
            return A.Comma(parts, loc=expr.loc)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ASSIGN_OPS:
            self._next()
            value = self._parse_assignment()
            return A.Assign(left, value, ASSIGN_OPS[tok.text], loc=tok.loc)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(1)
        if self._check_punct("?"):
            loc = self._next().loc
            then = self._parse_expr()
            self._expect_punct(":")
            other = self._parse_conditional()
            return A.Cond(cond, then, other, loc=loc)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINOP_PREC.get(tok.text) if tok.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = A.Binary(tok.text, left, right, loc=tok.loc)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "+", "!", "~", "*", "&"):
            self._next()
            return A.Unary(tok.text, self._parse_unary(), loc=tok.loc)
        if tok.is_punct("++") or tok.is_punct("--"):
            self._next()
            return A.Unary(tok.text, self._parse_unary(), loc=tok.loc)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._check_punct("(") and self._starts_type(1):
                self._next()
                ctype = self._parse_type_name()
                self._expect_punct(")")
                return A.SizeofType(ctype, loc=tok.loc)
            return A.SizeofExpr(self._parse_unary(), loc=tok.loc)
        if tok.is_punct("(") and self._starts_type(1):
            self._next()
            ctype = self._parse_type_name()
            self._expect_punct(")")
            return A.Cast(ctype, self._parse_unary(), loc=tok.loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._next()
                index = self._parse_expr()
                self._expect_punct("]")
                expr = A.Index(expr, index, loc=tok.loc)
            elif tok.is_punct("("):
                self._next()
                args = self._parse_call_args()
                expr = A.Call(expr, args, loc=tok.loc)
            elif tok.is_punct("<<<"):
                self._next()
                grid = self._parse_assignment()
                self._expect_punct(",")
                block = self._parse_assignment()
                shmem = None
                if self._accept_punct(","):
                    shmem = self._parse_assignment()
                self._expect_punct(">>>")
                self._expect_punct("(")
                args = self._parse_call_args()
                expr = A.CudaKernelCall(expr, grid, block, shmem, args, loc=tok.loc)
            elif tok.is_punct("."):
                self._next()
                name = self._expect_ident().text
                expr = A.Member(expr, name, arrow=False, loc=tok.loc)
            elif tok.is_punct("->"):
                self._next()
                name = self._expect_ident().text
                expr = A.Member(expr, name, arrow=True, loc=tok.loc)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self._next()
                expr = A.Unary("p" + tok.text, expr, loc=tok.loc)
            else:
                return expr

    def _parse_call_args(self) -> list[A.Expr]:
        args: list[A.Expr] = []
        if not self._check_punct(")"):
            while True:
                args.append(self._parse_assignment())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return args

    def _parse_primary(self) -> A.Expr:
        tok = self._next()
        if tok.kind is TokenKind.INT_LIT:
            return A.IntLit(int(tok.value), loc=tok.loc)  # type: ignore[arg-type]
        if tok.kind is TokenKind.FLOAT_LIT:
            single = tok.text.lower().endswith("f")
            return A.FloatLit(float(tok.value), single, loc=tok.loc)  # type: ignore[arg-type]
        if tok.kind is TokenKind.CHAR_LIT:
            return A.CharLit(int(tok.value), loc=tok.loc)  # type: ignore[arg-type]
        if tok.kind is TokenKind.STRING_LIT:
            return A.StringLit(str(tok.value), loc=tok.loc)
        if tok.kind is TokenKind.IDENT:
            return A.Ident(tok.text, loc=tok.loc)
        if tok.is_punct("("):
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)

    # -- statements ----------------------------------------------------------------
    def _parse_statement(self) -> A.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.PRAGMA:
            return self._parse_pragma_stmt()
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.While(cond, body, loc=tok.loc)
        if tok.is_keyword("do"):
            self._next()
            body = self._parse_statement()
            if not self._accept_keyword("while"):
                raise ParseError("expected 'while' after do-body", self._peek().loc)
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            self._expect_punct(";")
            return A.DoWhile(body, cond, loc=tok.loc)
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._next()
            value = None if self._check_punct(";") else self._parse_expr()
            self._expect_punct(";")
            return A.Return(value, loc=tok.loc)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return A.Break(loc=tok.loc)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return A.Continue(loc=tok.loc)
        if tok.is_punct(";"):
            self._next()
            return A.ExprStmt(None, loc=tok.loc)
        if self._starts_type():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect_punct(";")
        return A.ExprStmt(expr, loc=tok.loc)

    def _parse_pragma_stmt(self) -> A.Stmt:
        tok = self._next()
        kind = self.classify_pragma(tok.text)
        if kind == "block":
            body = self._parse_statement()
            return A.PragmaStmt(tok.text, body, loc=tok.loc)
        return A.PragmaStmt(tok.text, None, loc=tok.loc)

    def _parse_compound(self) -> A.Compound:
        open_tok = self._expect_punct("{")
        body: list[A.Stmt] = []
        while not self._check_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated compound statement", open_tok.loc)
            body.append(self._parse_statement())
        self._expect_punct("}")
        return A.Compound(body, loc=open_tok.loc)

    def _parse_if(self) -> A.If:
        tok = self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_statement()
        other = None
        if self._accept_keyword("else"):
            other = self._parse_statement()
        return A.If(cond, then, other, loc=tok.loc)

    def _parse_for(self) -> A.For:
        tok = self._next()
        self._expect_punct("(")
        init: Optional[A.Stmt]
        if self._check_punct(";"):
            self._next()
            init = None
        elif self._starts_type():
            init = self._parse_decl_stmt()
        else:
            expr = self._parse_expr()
            self._expect_punct(";")
            init = A.ExprStmt(expr, loc=expr.loc)
        cond = None if self._check_punct(";") else self._parse_expr()
        self._expect_punct(";")
        step = None if self._check_punct(")") else self._parse_expr()
        self._expect_punct(")")
        body = self._parse_statement()
        return A.For(init, cond, step, body, loc=tok.loc)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        loc = self._peek().loc
        base, storage, quals, _inline = self._parse_decl_specifiers()
        decls: list[A.VarDecl] = []
        if self._check_punct(";") and isinstance(base, StructType):
            self._next()  # bare struct definition as a statement
            return A.DeclStmt(decls, loc=loc)
        first = True
        while True:
            dloc = self._peek().loc
            name, ctype = self._parse_declarator(base)
            if name is None:
                raise ParseError("expected declarator name", dloc)
            init = None
            if self._accept_punct("="):
                init = self._parse_assignment()
            dquals = quals if first else tuple(q for q in quals if q != "inline_struct")
            decls.append(A.VarDecl(name, ctype, init, storage, dquals, loc=dloc))
            first = False
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return A.DeclStmt(decls, loc=loc)

    # -- top level -------------------------------------------------------------
    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(filename=self.filename)
        while self._peek().kind is not TokenKind.EOF:
            unit.decls.append(self._parse_external_decl())
        return unit

    def _parse_external_decl(self) -> A.Node:
        tok = self._peek()
        if tok.kind is TokenKind.PRAGMA:
            self._next()
            return A.PragmaDecl(tok.text, loc=tok.loc)
        loc = tok.loc
        base, storage, quals, inline_struct = self._parse_decl_specifiers()
        if storage == "typedef":
            name, ctype = self._parse_declarator(base)
            if name is None:
                raise ParseError("typedef requires a name", loc)
            self._expect_punct(";")
            self.typedefs[name] = ctype
            return A.GlobalDecl([], loc=loc)
        if self._check_punct(";"):
            self._next()
            if isinstance(base, StructType) and inline_struct:
                return A.StructDef(base.name, list(base.fields_), loc=loc)
            return A.GlobalDecl([], loc=loc)
        name, ctype = self._parse_declarator(base)
        if name is None:
            raise ParseError("expected declarator", loc)
        if isinstance(ctype, FunctionType) and self._check_punct("{"):
            params = [
                A.Param(pname if pname is not None else f"arg{i}", ptype, loc=loc)
                for i, (pname, ptype) in enumerate(self._last_fn_params)
            ]
            body = self._parse_compound()
            return A.FuncDef(name, ctype.return_type, params, body, quals, loc=loc)
        # prototype or global variables
        if isinstance(ctype, FunctionType):
            self._expect_punct(";")
            params = [
                A.Param(pname if pname is not None else f"arg{i}", ptype, loc=loc)
                for i, (pname, ptype) in enumerate(self._last_fn_params)
            ]
            return A.FuncProto(name, ctype.return_type, params, quals, loc=loc)
        decls = []
        init = None
        if self._accept_punct("="):
            init = self._parse_assignment()
        decls.append(A.VarDecl(name, ctype, init, storage, quals, loc=loc))
        while self._accept_punct(","):
            dloc = self._peek().loc
            dname, dtype = self._parse_declarator(base)
            if dname is None:
                raise ParseError("expected declarator name", dloc)
            dinit = None
            if self._accept_punct("="):
                dinit = self._parse_assignment()
            dquals = tuple(q for q in quals if q != "inline_struct")
            decls.append(A.VarDecl(dname, dtype, dinit, storage, dquals, loc=dloc))
        self._expect_punct(";")
        return A.GlobalDecl(decls, loc=loc)


def _const_eval(expr: A.Expr) -> Optional[float]:
    """Best-effort constant folding for array bounds and similar contexts."""
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.FloatLit):
        return expr.value
    if isinstance(expr, A.Unary) and expr.op in ("-", "+", "~", "!"):
        v = _const_eval(expr.operand)
        if v is None:
            return None
        if expr.op == "-":
            return -v
        if expr.op == "+":
            return v
        if expr.op == "~":
            return ~int(v)
        return float(not v)
    if isinstance(expr, A.Binary):
        lhs, rhs = _const_eval(expr.left), _const_eval(expr.right)
        if lhs is None or rhs is None:
            return None
        try:
            return _APPLY_CONST[expr.op](lhs, rhs)
        except (KeyError, ZeroDivisionError):
            return None
    return None


_APPLY_CONST = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else int(a) // int(b),
    "%": lambda a, b: int(a) % int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


def parse_translation_unit(
    source: str,
    filename: str = "<memory>",
    pragma_classifier: PragmaClassifier | None = None,
) -> A.TranslationUnit:
    """Parse a full source buffer into a :class:`TranslationUnit`."""
    return Parser(tokenize(source, filename), filename,
                  pragma_classifier).parse_translation_unit()


def parse_expression(source: str) -> A.Expr:
    """Parse a standalone expression (testing convenience)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expr()
    tok = parser._peek()
    if tok.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input {tok.text!r}", tok.loc)
    return expr
