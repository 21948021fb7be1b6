"""The program scanner and expression parser against the hand-written
reference.

`_tokenize` matches one pattern with a group per token kind, and
`_Parser.parse_expr` walks a table of binary-operator levels.
`reference_tokenize` and `ReferenceParser` are the character loop and the
one method per level they replaced.  Run through the same `parse_program`,
the two must give equal programs or the same error text, except where the
reference has one of two faults: it reads a digit that is not decimal,
such as '²', as part of an integer literal, and it lets a string run
on past the end of its line.
"""

import ast
import random
import re
from pathlib import Path
from unittest import mock

from hypothesis import given, settings

from respgame import InputError, modlang, parse_program
from respgame.generators import lab_program_text
from respgame.modlang import _COMPARISONS, _KEYWORDS, Token
from test_fuzz import programs

MODELS = Path(__file__).resolve().parent.parent / "models"

_PUNCT = ("->", "..", "!=", "<=", ">=", "(", ")", "[", "]", ";", ":", "'",
          "=", "<", ">", "+", "-", "*", "&", "|", "!")


def reference_tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise InputError(f"line {line}, column {col}: unterminated string")
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise InputError(f"line {line}, column {col}: unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


class ReferenceParser(modlang._Parser):
    """The reference scanner, and one method per precedence level."""

    def __init__(self, text):
        self.tokens = reference_tokenize(text)
        self.pos = 0

    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        e = self._parse_and()
        while self.peek().text == "|":
            self.take()
            e = ("binop", "|", e, self._parse_and())
        return e

    def _parse_and(self):
        e = self._parse_cmp()
        while self.peek().text == "&":
            self.take()
            e = ("binop", "&", e, self._parse_cmp())
        return e

    def _parse_cmp(self):
        e = self._parse_add()
        if self.peek().text in _COMPARISONS:
            op = self.take().text
            e = ("binop", op, e, self._parse_add())
        return e

    def _parse_add(self):
        e = self._parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            e = ("binop", op, e, self._parse_mul())
        return e

    def _parse_mul(self):
        e = self._parse_unary()
        while self.peek().text == "*":
            self.take()
            e = ("binop", "*", e, self._parse_unary())
        return e


def reference_parse(text):
    with mock.patch.object(modlang, "_Parser", ReferenceParser):
        return parse_program(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


def _mended(text, outcome):
    """Whether `outcome` of `parse_program` is an error the reference
    does not raise: a non-decimal digit as an unexpected character, or an
    open quote whose closing one stands on a later line."""
    if not isinstance(outcome, str):
        return False
    m = re.fullmatch(r"line (\d+), column \d+: "
                     r"(?:unexpected character (.*)|unterminated string)",
                     outcome)
    if m is None:
        return False
    if m.group(2) is not None:
        c = ast.literal_eval(m.group(2))
        return c.isdigit() and not c.isdecimal()
    return '"' in "\n".join(text.split("\n")[int(m.group(1)):])


def _compare(text):
    """Whether `text` is compared: it is unless its outcome is mended,
    and then the reference must differ."""
    got, want = _outcome(parse_program, text), _outcome(reference_parse, text)
    if _mended(text, got):
        assert got != want
        return False
    assert got == want
    return True


@given(programs())
@settings(max_examples=400, deadline=None)
def test_fuzzed_programs_parse_as_with_the_reference(text):
    _compare(text)


_SOURCES = (lab_program_text(2), (MODELS / "clouds.prism").read_text(),
            (MODELS / "toggle.prism").read_text())
_PIECES = ("", "", " ", "\t", "\n", "//", '"', "'", "²", "½",
           "٣", "é", "_", "0", "7", "12", ".", "..", "(", ")",
           "[", "]", ";", ":", "=", "!=", "<", "<=", ">", ">=", "->", "+",
           "-", "*", "&", "|", "!", "@", "x", "true", "false", "const",
           "formula", "label", "owner", "module", "endmodule", "init", "bool")


# the end-of-input token after a final comment or blanks; a comparison chain
_EDGES = ("module m // c", "const int N = 1 //", "const int N =\t\r\n",
          "module m\n  x : [0..1] init 0;  ", "label \"\" = 1 < 2 < 3;")


def _mutants(seed, count):
    """`count` copies of the shipped programs, each with one to three
    spans of up to six characters replaced by a piece."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(_SOURCES)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            j = min(len(text), i + rng.randint(0, 6))
            text = text[:i] + rng.choice(_PIECES) + text[j:]
        yield text


def test_mutated_programs_parse_as_with_the_reference():
    for text in _SOURCES + _EDGES:
        assert _compare(text)
    compared = [_compare(text) for text in _mutants(seed=0, count=2000)]
    # the corpus reaches both kinds of outcome
    assert 0 < compared.count(False) < compared.count(True)
