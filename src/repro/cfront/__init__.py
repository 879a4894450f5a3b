"""C frontend substrate for the OMPi reproduction.

This subpackage provides everything needed to treat C-with-OpenMP source
text as the compiler's input language:

* :mod:`repro.cfront.lexer` — tokenizer for the supported C subset,
  including ``#pragma`` lines and the CUDA ``<<< >>>`` launch syntax.
* :mod:`repro.cfront.parser` — recursive-descent parser producing the AST
  defined in :mod:`repro.cfront.astnodes`.
* :mod:`repro.cfront.ctypes_` — the C type system (LP64, ARM-like layout).
* :mod:`repro.cfront.unparse` — AST back to C source text.
* :mod:`repro.cfront.interp` — host-side tree-walking interpreter with
  numpy-backed memory, used to *execute* translated host programs.

The OMPi paper's translator operates on an abstract syntax tree and emits
C/CUDA-C source; this package is the Python stand-in for that AST layer.
"""

from repro.cfront.errors import CFrontError, LexError, ParseError, SourceLoc
from repro.cfront.lexer import Token, TokenKind, tokenize
from repro.cfront.parser import Parser, parse_translation_unit, parse_expression
from repro.cfront.unparse import unparse

__all__ = [
    "CFrontError",
    "LexError",
    "ParseError",
    "Parser",
    "SourceLoc",
    "Token",
    "TokenKind",
    "parse_expression",
    "parse_translation_unit",
    "tokenize",
    "unparse",
]
