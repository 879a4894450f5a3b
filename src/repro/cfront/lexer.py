"""Tokenizer for the C subset used throughout the reproduction.

Design notes
------------
* Sources are Python strings (OMPi-style in-memory buffers); there is no
  preprocessor.  ``#include`` lines are skipped (headers are provided as
  builtin declarations by :mod:`repro.cfront.builtins`), ``#pragma`` lines
  become :class:`Token` objects of kind :data:`TokenKind.PRAGMA` whose text
  is the pragma payload (continuation backslashes folded, comments
  stripped), and any other ``#`` directive is a :class:`LexError`.
* The CUDA kernel-launch punctuators ``<<<`` / ``>>>`` are lexed as single
  tokens.  Valid C never juxtaposes three of those characters, so this is
  safe for plain C input too, mirroring what nvcc's frontend does.
* One compiled master regular expression recognises every token, every
  run of whitespace or comments and every directive line; :func:`tokenize`
  walks its matches once and decodes only literals and directive bodies in
  Python.  Its alternatives are ordered so that the first match is the
  maximal munch (``PUNCTUATORS`` is listed longest first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.cfront.errors import LexError, SourceLoc
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

#: one escape sequence: ``\x`` takes every hex digit after it, any other
#: escape one character (none at the end of the input)
_ESCAPE = r"\\(?:x[0-9A-Fa-f]*|[\s\S]?)"
#: what a directive line folds away: a backslash-newline continuation (a
#: backslash-CR also takes the character after the CR) and comments
_DIRECTIVE_TRIVIA = r"\\(?:\n|\r[\s\S]?)|/\*[\s\S]*?\*/|//[^\n]*"

_MASTER = re.compile("|".join((
    r"(?P<trivia>[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)",
    r"(?P<open_comment>/\*)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<num>(?P<body>0[xX][0-9A-Fa-f]*"
    r"|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(?P<suffix>[A-Za-z_]*))",
    rf"(?P<char>'(?P<cbody>{_ESCAPE}|[\s\S]?)(?P<cend>'?))",
    rf'(?P<string>"(?P<sbody>(?:[^"\\\n]|{_ESCAPE})*)(?P<send>"?))',
    # stops early only at a '/*' the line never closes
    rf"(?P<hash>#(?:{_DIRECTIVE_TRIVIA}|[^\\\n/]+|\\|/(?![*/]))*)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<stray>[\s\S])",
)))
_ESCAPE_RE = re.compile(_ESCAPE)
_DIRECTIVE_TRIVIA_RE = re.compile(_DIRECTIVE_TRIVIA)

_INT_SUFFIXES = frozenset({"", "u", "l", "ul", "lu", "ll", "ull", "llu", "f"})


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    loc: SourceLoc
    value: object | None = None  # decoded literal value where applicable

    def is_punct(self, spelling: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == spelling

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.value}, {self.text!r} @ {self.loc})"


def _loc_at(source: str, filename: str, pos: int) -> SourceLoc:
    line_start = source.rfind("\n", 0, pos) + 1
    return SourceLoc(filename, source.count("\n", 0, pos) + 1,
                     pos - line_start + 1)


def _unescape(esc: str, loc: SourceLoc) -> str:
    """The character one :data:`_ESCAPE` match stands for."""
    ch = esc[1:2]
    if ch in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[ch]
    if ch == "x":
        if len(esc) == 2:
            raise LexError("\\x with no hex digits", loc)
        return chr(int(esc[2:], 16))
    raise LexError(f"unsupported escape \\{ch}", loc)


def _number(m: re.Match, loc: SourceLoc) -> Token:
    body, suffix = m.group("body", "suffix")
    text = m.group()
    if body[1:2] in ("x", "X"):
        if len(body) == 2:
            raise LexError("malformed hex literal", loc)
        is_float, value = False, int(body, 16)
    else:
        is_float = "." in body or "e" in body or "E" in body
        value = float(body) if is_float else int(body, 10)
    suffix = suffix.lower()
    if is_float:
        if suffix not in ("", "f", "l"):
            raise LexError(f"bad float suffix {suffix!r}", loc)
        return Token(TokenKind.FLOAT_LIT, text, loc, value)
    if suffix not in _INT_SUFFIXES:
        raise LexError(f"bad integer suffix {suffix!r}", loc)
    if suffix == "f":
        return Token(TokenKind.FLOAT_LIT, text, loc, float(value))
    return Token(TokenKind.INT_LIT, text, loc, value)


def _fold_directive_trivia(m: re.Match) -> str:
    return "" if m.group().startswith("//") else " "


def tokenize(source: str, filename: str = "<memory>") -> list[Token]:
    """Tokenize ``source`` fully (including the trailing EOF token)."""
    out: list[Token] = []
    append = out.append
    line, line_start = 1, 0
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        start = m.start()
        if kind == "trivia":
            text = m.group()
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        loc = SourceLoc(filename, line, start - line_start + 1)
        if kind == "ident":
            text = m.group()
            append(Token(TokenKind.KEYWORD if text in KEYWORDS
                         else TokenKind.IDENT, text, loc))
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, m.group(), loc))
        elif kind == "num":
            append(_number(m, loc))
        elif kind == "string":
            body, end = m.group("sbody", "send")
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _unescape(e.group(), loc), body)
            if not end:
                raise LexError("unterminated string literal", loc)
            append(Token(TokenKind.STRING_LIT, f'"{body}"', loc, body))
        elif kind == "char":
            body, end = m.group("cbody", "cend")
            ch = _unescape(body, loc) if body.startswith("\\") else body
            if not end:
                raise LexError("multi-character char literal", loc)
            append(Token(TokenKind.CHAR_LIT, f"'{ch}'", loc, ord(ch)))
            if body == "\n":       # a raw newline between the quotes
                line, line_start = line + 1, m.end() - 1
        elif kind == "hash":
            if source[line_start:start].strip(" \t"):
                raise LexError("'#' must start a line", loc)
            if source.startswith("/", m.end()):
                raise LexError("unterminated comment in directive",
                               _loc_at(source, filename, len(source)))
            text = m.group()
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            body = _DIRECTIVE_TRIVIA_RE.sub(
                _fold_directive_trivia, text[1:]).strip()
            if body.startswith("pragma"):
                append(Token(TokenKind.PRAGMA, body[len("pragma"):].strip(),
                             loc))
            elif body and not body.startswith("include"):
                raise LexError("unsupported preprocessor directive: "
                               f"#{body.split()[0]}", loc)
        elif kind == "open_comment":
            raise LexError("unterminated block comment", loc)
        else:
            raise LexError(f"stray character {m.group()!r}", loc)
    append(Token(TokenKind.EOF, "",
                 SourceLoc(filename, line, len(source) - line_start + 1)))
    return out
