"""MiniC lexer."""

import pytest

from repro.frontend.lexer import CompileError, TokKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]  # drop EOF


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokKind.EOF

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo while_x struct")
        assert toks[0].kind is TokKind.KEYWORD
        assert toks[1].kind is TokKind.IDENT
        assert toks[2].kind is TokKind.IDENT  # while_x is not a keyword
        assert toks[3].kind is TokKind.KEYWORD

    def test_line_and_column(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)


class TestNumbers:
    @pytest.mark.parametrize("src,value", [
        ("0", 0), ("42", 42), ("0x1F", 31), ("0xdeadBEEF", 0xDEADBEEF),
        ("123456789012345", 123456789012345),
    ])
    def test_int(self, src, value):
        tok = tokenize(src)[0]
        assert tok.kind is TokKind.INT and tok.value == value

    @pytest.mark.parametrize("src,value", [
        ("1.5", 1.5), ("0.25", 0.25), ("1e3", 1000.0), ("2.5e-2", 0.025),
        ("1E+2", 100.0),
    ])
    def test_float(self, src, value):
        tok = tokenize(src)[0]
        assert tok.kind is TokKind.FLOAT and tok.value == pytest.approx(value)

    def test_suffixes_ignored(self):
        assert tokenize("10UL")[0].value == 10

    def test_member_access_not_float(self):
        assert texts("a.b") == ["a", ".", "b"]


class TestStringsAndChars:
    def test_string(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind is TokKind.STRING and tok.value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\n\t\\\""')[0].value == 'a\n\t\\"'

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_char_literal(self):
        tok = tokenize("'x'")[0]
        assert tok.kind is TokKind.CHAR and tok.value == ord("x")

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10

    def test_unterminated_string(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize('"oops')


class TestPunctuation:
    def test_longest_match(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a- >b") == ["a", "-", ">", "b"]

    def test_increment_vs_plus(self):
        assert texts("a+++b") == ["a", "++", "+", "b"]


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize("/* oops")

    def test_unexpected_character(self):
        with pytest.raises(CompileError, match="unexpected"):
            tokenize("a $ b")

    @pytest.mark.parametrize("src,line,col", [
        ("int x = 0x;", 1, 9),
        ("int x;\n  y = 0XuL + 1;", 2, 7),
    ])
    def test_hex_literal_with_no_digits(self, src, line, col):
        with pytest.raises(CompileError, match="hex literal with no digits") as e:
            tokenize(src)
        assert (e.value.line, e.value.col) == (line, col)
