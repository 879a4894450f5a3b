"""Tests for the C lexer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cfront.errors import LexError
from repro.cfront.lexer import tokenize
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


def test_empty_input_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind is TokenKind.EOF


def test_identifiers_and_keywords():
    toks = tokenize("int foo _bar x9 while")[:-1]
    assert [t.kind for t in toks] == [
        TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.IDENT,
        TokenKind.IDENT, TokenKind.KEYWORD,
    ]


def test_cuda_keywords():
    toks = tokenize("__global__ __device__ __shared__")[:-1]
    assert all(t.kind is TokenKind.KEYWORD for t in toks)


def test_integer_literals():
    toks = tokenize("0 42 0x1F 100u 7L")[:-1]
    assert [t.value for t in toks] == [0, 42, 31, 100, 7]
    assert all(t.kind is TokenKind.INT_LIT for t in toks)


def test_float_literals():
    toks = tokenize("1.5 2.5f .25 1e3 1.5e-2 3. 2f")[:-1]
    assert [t.kind for t in toks] == [TokenKind.FLOAT_LIT] * 7
    assert toks[0].value == 1.5
    assert toks[2].value == 0.25
    assert toks[3].value == 1000.0
    assert toks[5].value == 3.0
    assert toks[6].value == 2.0  # '2f' float suffix on integer


def test_char_and_string_literals():
    toks = tokenize(r"'a' '\n' "  + r'"hi\tthere"')[:-1]
    assert toks[0].value == ord("a")
    assert toks[1].value == ord("\n")
    assert toks[2].value == "hi\tthere"


def test_string_escapes():
    (tok,) = tokenize(r'"\x41\\\""')[:-1]
    assert tok.value == 'A\\"'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_multichar_char_literal_raises():
    with pytest.raises(LexError):
        tokenize("'ab'")


def test_maximal_munch_operators():
    assert texts("a+++b") == ["a", "++", "+", "b"]
    assert texts("x<<=2") == ["x", "<<=", "2"]
    assert texts("a->b") == ["a", "->", "b"]


def test_triple_chevron_tokens():
    assert "<<<" in texts("k<<<g, b>>>(x)")
    assert ">>>" in texts("k<<<g, b>>>(x)")


def test_comments_are_skipped():
    assert texts("a /* b c */ d // e\n f") == ["a", "d", "f"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_pragma_line_captured_whole():
    toks = tokenize("#pragma omp parallel for\nint x;")
    assert toks[0].kind is TokenKind.PRAGMA
    assert toks[0].text == "omp parallel for"
    assert toks[1].is_keyword("int")


def test_pragma_backslash_continuation():
    src = "#pragma omp target map(to: a) \\\n    map(from: b)\nint x;"
    toks = tokenize(src)
    assert toks[0].kind is TokenKind.PRAGMA
    assert "map(to: a)" in toks[0].text and "map(from: b)" in toks[0].text


def test_include_lines_are_skipped():
    toks = tokenize("#include <stdio.h>\nint x;")
    assert toks[0].is_keyword("int")


def test_unknown_directive_raises():
    with pytest.raises(LexError):
        tokenize("#define N 100\n")


def test_hash_must_start_line():
    with pytest.raises(LexError):
        tokenize("int x; #pragma omp barrier")


def test_locations_track_lines_and_columns():
    toks = tokenize("int\n  x;")
    assert toks[0].loc.line == 1 and toks[0].loc.col == 1
    assert toks[1].loc.line == 2 and toks[1].loc.col == 3


def test_stray_character_raises():
    with pytest.raises(LexError):
        tokenize("int $x;")


def test_bad_suffix_raises():
    with pytest.raises(LexError):
        tokenize("1.5q")
    with pytest.raises(LexError):
        tokenize("10uz9")


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_int_literal_roundtrip(n):
    (tok,) = tokenize(str(n))[:-1]
    assert tok.kind is TokenKind.INT_LIT and tok.value == n


@given(st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False))
def test_property_float_literal_roundtrip(x):
    (tok,) = tokenize(repr(float(x)))[:-1]
    assert tok.kind is TokenKind.FLOAT_LIT
    assert tok.value == pytest.approx(x, rel=1e-15)


@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
        min_size=1, max_size=12,
    ).filter(lambda s: s not in {"if", "else", "for", "while", "do", "int",
                                 "char", "float", "double", "void", "return",
                                 "break", "continue", "long", "short", "struct",
                                 "union", "enum", "static", "extern", "auto",
                                 "signed", "unsigned", "const", "sizeof", "case",
                                 "goto", "switch", "default", "typedef", "inline",
                                 "register", "volatile", "restrict"})
)
def test_property_identifier_roundtrip(name):
    (tok,) = tokenize(name)[:-1]
    assert tok.kind is TokenKind.IDENT and tok.text == name


# -- generated token streams -----------------------------------------------------
# Each strategy draws one token as (source text, expected kind, expected
# token text, expected value); the stream test joins them with random
# whitespace and comments and knows where every token starts.

_SIMPLE_ESC = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
               "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f",
               "v": "\v"}
#: literal characters that are neither quotes, backslashes nor hex digits
#: (so a following character never extends a \x escape)
_PLAIN = "ghijkmnopqrstuvwxyzGHIJKLMNOPQRSTUVWXYZ _!#$%&()*+,-./:;<=>?@[]^`{|}~"


def _word(text):
    return (text, TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
            text, None)


_idents = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS)),
).map(_word)


@st.composite
def _ints(draw):
    n = draw(st.integers(min_value=0, max_value=2**40))
    body = draw(st.sampled_from([str(n), hex(n), hex(n).upper().replace("X", "x"),
                                 "0X" + format(n, "x")]))
    suffix = draw(st.sampled_from(["", "u", "U", "l", "L", "ul", "UL", "lu",
                                   "ll", "LL", "ull", "LLU", "f", "F"]))
    if body.lower().startswith("0x") and suffix in ("f", "F"):
        suffix = ""             # an f would be another hex digit
    if suffix in ("f", "F"):
        return body + suffix, TokenKind.FLOAT_LIT, body + suffix, float(n)
    return body + suffix, TokenKind.INT_LIT, body + suffix, n


@st.composite
def _floats(draw):
    whole = draw(st.from_regex(r"[0-9]{0,4}", fullmatch=True))
    frac = draw(st.from_regex(r"[0-9]{0,4}", fullmatch=True))
    exp = draw(st.sampled_from(["", "e5", "E-3", "e+12", "E0"]))
    if not whole and not frac:
        whole = "0"
    body = draw(st.sampled_from([f"{whole}.{frac}" if whole else f".{frac}",
                                 f"{whole or '1'}{exp or 'e1'}"]))
    if "." in body:
        body += exp
    suffix = draw(st.sampled_from(["", "f", "F", "l", "L"]))
    return body + suffix, TokenKind.FLOAT_LIT, body + suffix, float(body)


_escape = st.one_of(
    st.sampled_from(sorted(_SIMPLE_ESC)).map(lambda c: ("\\" + c, _SIMPLE_ESC[c])),
    st.integers(min_value=1, max_value=255).map(
        lambda v: ("\\x" + format(v, "x"), chr(v))),
)
_char_item = st.one_of(st.sampled_from(_PLAIN).map(lambda c: (c, c)), _escape)


def _char(item):
    raw, ch = item
    return f"'{raw}'", TokenKind.CHAR_LIT, f"'{ch}'", ord(ch)


def _string(items):
    raw = "".join(r for r, _ in items)
    value = "".join(c for _, c in items)
    return f'"{raw}"', TokenKind.STRING_LIT, f'"{value}"', value


#: (raw, folded) separators inside a directive line
_PRAGMA_SEPS = [(" ", " "), ("\t", "\t"), ("\\\n", " "), ("\\\r\n", " "),
                (" /* note */ ", "   "), ("/* two\nlines */", " ")]
_PRAGMA_WORDS = ["omp", "target", "teams", "parallel", "for", "map(to:",
                 "a[0:n])", "num_threads(96)", "reduction(+:s)"]


@st.composite
def _pragmas(draw):
    words = draw(st.lists(st.sampled_from(_PRAGMA_WORDS), min_size=1,
                          max_size=5))
    raw, folded = "#pragma", "pragma"
    for word in words:
        sep_raw, sep_folded = draw(st.sampled_from(_PRAGMA_SEPS))
        raw += sep_raw + word
        folded += sep_folded + word
    if draw(st.booleans()):
        raw += "  // trailing comment"
    payload = folded.strip()[len("pragma"):].strip()
    indent = draw(st.sampled_from(["", " ", "\t  "]))
    # a directive starts its own line and ends at the next newline
    return "\n" + indent + raw + "\n", TokenKind.PRAGMA, payload, None


_tokens = st.one_of(
    _idents, _ints(), _floats(), _char_item.map(_char),
    st.lists(_char_item, max_size=6).map(_string),
    st.sampled_from(PUNCTUATORS).map(lambda p: (p, TokenKind.PUNCT, p, None)),
    _pragmas(),
)
_separators = st.tuples(
    st.sampled_from([" ", "\t", "\n", "\r\n", "  \n\t"]),
    st.sampled_from(["", "/* c */", "/* multi\nline */", "// line\n"]),
    st.sampled_from(["", " ", "\n"]),
).map("".join)


def _position(text, pos):
    line = text.count("\n", 0, pos) + 1
    return line, pos - (text.rfind("\n", 0, pos) + 1) + 1


@given(st.lists(st.tuples(_separators, _tokens), max_size=25), _separators)
def test_property_generated_token_stream(items, tail):
    source, expected = "", []
    for sep, (raw, kind, text, value) in items:
        source += sep
        start = len(source) + (raw.index("#") if kind is TokenKind.PRAGMA else 0)
        expected.append((kind, text, value, _position(source + raw, start)))
        source += raw
    source += tail
    toks = tokenize(source, "gen.c")
    got = [(t.kind, t.text, t.value, (t.loc.line, t.loc.col)) for t in toks]
    assert got[:-1] == expected
    assert all(type(t.value) is type(e[2]) for t, e in zip(toks, expected))
    eof = toks[-1]
    assert eof.kind is TokenKind.EOF
    assert (eof.loc.line, eof.loc.col) == _position(source, len(source))
    assert all(t.loc.filename == "gen.c" for t in toks)
