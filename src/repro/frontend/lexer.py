"""Lexer for MiniC, the C subset the workloads are written in.

MiniC covers the C features that matter to the paper's argument: pointers,
type casts, structs, fixed-size arrays, dynamic allocation, and ordinary
control flow.  The evaluated programs (dijkstra, blackscholes, swaptions,
alvinn, enc-md5) are all expressed in it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Tuple


class CompileError(Exception):
    """Raised for lexical, syntactic, and semantic errors in guest code."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class TokKind(enum.Enum):
    """Token categories produced by the lexer."""
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "break", "char", "continue", "const", "double", "else", "for", "if",
    "int", "long", "return", "sizeof", "struct", "unsigned", "void", "while",
}

# Longest-match-first punctuation table.
PUNCTUATION = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


@dataclass
class Token:
    """One lexed token: kind, text, and source position."""
    kind: TokKind
    text: str
    value: object = None
    line: int = 0
    col: int = 0

    def is_punct(self, text: str) -> bool:
        return self.kind is TokKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r})"


# One token, after any trivia (whitespace, ``//`` and ``/* */`` comments).
# The alternatives are tried in order: identifiers and keywords, numbers
# (a float only with a fraction or an exponent; integer suffixes after an
# integer only), the opening quote of a char or string literal (decoded
# by ``_literal``), an unterminated block comment, punctuation longest
# first, the end of the source, and any other character.  ``\w`` and
# ``\d`` are Unicode classes: ``str.isalnum() or "_"`` and
# ``str.isdecimal()``.
_SCANNER = re.compile(
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*"
    r"(?:(?P<ident>[^\W\d]\w*)"
    r"|(?P<hex>(?P<hexdigits>0[xX][0-9a-fA-F]*)[uUlL]*)"
    r"|(?P<float>(?:\d+\.\d+|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>(?P<digits>\d+)[uUlL]*)"
    r"|(?P<quote>['\"])"
    r"|(?P<open>/\*)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION) + r")"
    r"|(?P<end>\Z)"
    r"|(?P<bad>[\s\S]))")

_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_STRING_RUN = re.compile(r'[^"\\]*')


class Lexer:
    """MiniC lexer: one match of ``_SCANNER`` per token."""
    def __init__(self, source: str, filename: str = "<minic>"):
        self.source = source
        self.filename = filename

    def _error(self, message: str, offset: int) -> CompileError:
        """A CompileError at ``offset`` (clamped to the end), counting
        every character but a newline as one column."""
        source = self.source
        offset = min(offset, len(source))
        line = source.count("\n", 0, offset) + 1
        return CompileError(message, line, offset - source.rfind("\n", 0, offset))

    def tokens(self) -> List[Token]:
        source = self.source
        match = _SCANNER.match
        out: List[Token] = []
        append = out.append
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        last = 0        # newlines before ``last`` are counted in ``line``
        while True:
            m = match(source, pos)
            kind = m.lastgroup
            start = m.start(kind)
            newlines = source.count("\n", last, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", last, start) + 1
            last = start
            col = start - line_start + 1
            pos = m.end()
            if kind == "ident":
                text = m.group(kind)
                # ``[^\W\d]`` also admits numerics such as "²" and "½".
                if not (text[0].isalpha() or text[0] == "_"):
                    raise self._error(f"unexpected character {text[0]!r}", start)
                append(Token(TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT,
                             text, None, line, col))
            elif kind == "punct":
                append(Token(TokKind.PUNCT, m.group(kind), None, line, col))
            elif kind == "int":
                append(Token(TokKind.INT, m.group(kind), int(m.group("digits")),
                             line, col))
            elif kind == "float":
                text = m.group(kind)
                append(Token(TokKind.FLOAT, text, float(text), line, col))
            elif kind == "hex":
                digits = m.group("hexdigits")
                if len(digits) == 2:
                    raise CompileError("hex literal with no digits", line, col)
                append(Token(TokKind.INT, m.group(kind), int(digits, 16), line, col))
            elif kind == "quote":
                tok, pos = self._literal(start, line, col)
                append(tok)
            elif kind == "end":
                append(Token(TokKind.EOF, "", None, line, col))
                return out
            elif kind == "open":
                raise self._error("unterminated block comment", len(source))
            else:
                raise self._error(f"unexpected character {m.group(kind)!r}", start)

    def _escape(self, pos: int) -> Tuple[str, int]:
        """Decode the escape whose backslash is at ``pos``; returns the
        character and the offset after the escape."""
        ch = self.source[pos + 1:pos + 2]
        if ch in _ESCAPES and ch:
            return _ESCAPES[ch], pos + 2
        if ch == "x":
            end = _HEX_DIGITS.match(self.source, pos + 2).end()
            if end == pos + 2:
                raise self._error("\\x with no hex digits", end)
            return chr(int(self.source[pos + 2:end], 16)), end
        raise self._error(f"unknown escape \\{ch}", pos + 2)

    def _literal(self, start: int, line: int, col: int) -> Tuple[Token, int]:
        """The char or string literal whose opening quote is at
        ``start``, and the offset after its closing quote."""
        source = self.source
        pos = start + 1
        if source[start] == "'":
            if source.startswith("\\", pos):
                ch, pos = self._escape(pos)
            else:
                ch = source[pos:pos + 1]
                pos += 1
            if not source.startswith("'", pos):
                raise self._error("unterminated character literal", pos)
            return Token(TokKind.CHAR, f"'{ch}'", ord(ch), line, col), pos + 1
        chars: List[str] = []
        while True:
            end = _STRING_RUN.match(source, pos).end()
            chars.append(source[pos:end])
            if end == len(source):
                raise self._error("unterminated string literal", end)
            if source[end] == '"':
                text = "".join(chars)
                return Token(TokKind.STRING, text, text, line, col), end + 1
            ch, pos = self._escape(end)
            chars.append(ch)


def tokenize(source: str, filename: str = "<minic>") -> List[Token]:
    return Lexer(source, filename).tokens()
