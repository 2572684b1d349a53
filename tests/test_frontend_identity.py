"""The front end's output is pinned to recorded goldens.

``compile_minic`` must produce, byte for byte, the module it produced
before the scanner, the precedence-climbing parser and the one-pass
mem2reg replaced their per-character, per-level and quadratic
predecessors: the same ``format_module`` text, the same
``module_fingerprint`` (the profile-cache key) and the same token stream
``(kind, text, value, line, col)``.  ``corpus/frontend/golden.json``
holds the digests the earlier front end computed for

* the five workloads;
* one synthetic ``main`` with 400 scalar locals (``many_locals``);
* fifty generated programs under ``corpus/frontend/``: twenty-five drawn
  from ``test_multi_invocation_gen.programs`` and twenty-five from
  ``test_redux_runs.reduction_loops``, rendered by each module's
  ``render`` and committed, so the set never moves.

A hypothesis property checks the scanner on its own: random token
sequences joined by random whitespace and comments lex back to the same
tokens, each positioned at its spelling.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import TokKind, compile_minic, tokenize
from repro.frontend.lexer import KEYWORDS, PUNCTUATION
from repro.ir.printer import format_module
from repro.profiling.serialize import module_fingerprint
from repro.workloads import ALL_WORKLOADS

CORPUS = Path(__file__).parent / "corpus" / "frontend"
GOLDEN = CORPUS / "golden.json"


def many_locals(count=400):
    """One function with ``count`` scalar locals of three types, all
    promoted by mem2reg, live around a loop and through branches."""
    types = ("int", "long", "double")
    lines = ["int main(int n) {"]
    for k in range(count):
        lines.append(f"    {types[k % 3]} v{k} = {k % 7};")
    lines.append("    for (int i = 0; i < n; i++) {")
    for k in range(count):
        other = (k * 7 + 1) % count
        if k % 20 == 0:
            lines.append(f"        if (i % {k % 3 + 2}) {{ v{k} = v{other} + i; }}")
        else:
            lines.append(f"        v{k} = v{k} + v{other} * {k % 5};")
    lines.append("    }")
    lines.append("    double s = 0;")
    for k in range(0, count, 9):
        lines.append(f"    s = s + v{k};")
    lines.append("    return s;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def identity_sources():
    """name -> MiniC source for every program the goldens cover."""
    sources = {f"workload/{w.name}": w.source for w in ALL_WORKLOADS}
    sources["synthetic/many_locals"] = many_locals()
    for path in sorted(CORPUS.glob("*.c")):
        sources[f"corpus/{path.stem}"] = path.read_text()
    return sources


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name, source):
    """The three identities of one program's front-end output."""
    module = compile_minic(source, name.rsplit("/", 1)[-1])
    tokens = "\n".join(
        repr((t.kind.value, t.text, t.value, t.line, t.col))
        for t in tokenize(source))
    return {"fingerprint": module_fingerprint(module),
            "ir": _sha(format_module(module)),
            "tokens": _sha(tokens)}


SOURCES = identity_sources()
GOLDENS = json.loads(GOLDEN.read_text())


def test_the_goldens_cover_exactly_the_sources():
    assert sorted(GOLDENS) == sorted(SOURCES)
    assert sum(name.startswith("corpus/multi_invocation") for name in SOURCES) == 25
    assert sum(name.startswith("corpus/redux") for name in SOURCES) == 25


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_front_end_output_equals_the_golden(name):
    assert digests(name, SOURCES[name]) == GOLDENS[name]


# -- the scanner on random token sequences --------------------------------------

_IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_ESCAPED = {"\\n": "\n", "\\t": "\t", "\\\\": "\\", "\\'": "'", '\\"': '"',
            "\\0": "\0", "\\x41": "A"}


@st.composite
def _token(draw):
    """(spelling, kind, text, value) of one token."""
    kind = draw(st.sampled_from(
        ("ident", "keyword", "int", "hex", "float", "char", "string", "punct")))
    if kind == "ident":
        text = draw(_IDENTS)
        tk = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        return text, tk, text, None
    if kind == "keyword":
        text = draw(st.sampled_from(sorted(KEYWORDS)))
        return text, TokKind.KEYWORD, text, None
    if kind == "int":
        value = draw(st.integers(min_value=0, max_value=2 ** 40))
        suffix = draw(st.sampled_from(("", "u", "L", "UL")))
        return f"{value}{suffix}", TokKind.INT, f"{value}{suffix}", value
    if kind == "hex":
        value = draw(st.integers(min_value=0, max_value=2 ** 32))
        text = draw(st.sampled_from(("0x{:x}", "0X{:X}"))).format(value)
        return text, TokKind.INT, text, value
    if kind == "float":
        text = draw(st.sampled_from(
            ("1.5", "0.25", ".5", "3e2", "2.5E-3", "7e+1", "10.0")))
        return text, TokKind.FLOAT, text, float(text)
    if kind == "char":
        if draw(st.booleans()):
            spelled = draw(st.sampled_from(sorted(_ESCAPED)))
            ch = _ESCAPED[spelled]
        else:
            ch = spelled = draw(st.sampled_from("azAZ09 +*/#"))
        return f"'{spelled}'", TokKind.CHAR, f"'{ch}'", ord(ch)
    if kind == "string":
        # ``\x41`` would swallow a hex digit after it; chars test it.
        parts = draw(st.lists(st.one_of(
            st.sampled_from(sorted(set(_ESCAPED) - {"\\x41"})),
            st.sampled_from(list("abc XYZ 019+-*/{};,")),
        ), max_size=6))
        decoded = "".join(_ESCAPED.get(p, p) for p in parts)
        return '"' + "".join(parts) + '"', TokKind.STRING, decoded, decoded
    text = draw(st.sampled_from(PUNCTUATION))
    return text, TokKind.PUNCT, text, None


_COMMENT_CHARS = st.sampled_from(list("ab */+-\t"))


@st.composite
def _separator(draw):
    """Whitespace, optionally around one comment; never empty, and
    never glued to the tokens on either side."""
    ws = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)
    comment = draw(st.sampled_from(("", "line", "block")))
    body = "".join(draw(st.lists(_COMMENT_CHARS, max_size=8)))
    if comment == "line":
        middle = "//" + body.replace("\n", "") + "\n"
    elif comment == "block":
        middle = "/*" + body.replace("*/", "* /") + "*/"
    else:
        middle = ""
    return draw(ws) + middle + draw(ws)


@given(tokens=st.lists(_token(), max_size=25), data=st.data())
@settings(max_examples=300, deadline=None)
def test_random_token_sequences_lex_back(tokens, data):
    source = data.draw(_separator())
    for spelling, *_ in tokens:
        source += spelling + data.draw(_separator())
    lexed = tokenize(source)
    assert lexed[-1].kind is TokKind.EOF
    assert [(t.kind, t.text, t.value) for t in lexed[:-1]] == [
        (kind, text, value) for _spelling, kind, text, value in tokens]
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for tok, (spelling, *_) in zip(lexed, tokens):
        offset = line_starts[tok.line - 1] + tok.col - 1
        assert source.startswith(spelling, offset), (tok, spelling)
