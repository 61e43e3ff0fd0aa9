"""The lexical rules every text format shares: the line reader of the grammar,
language and automaton files, and the atom rule."""

import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from splang._lex import is_atom, read_lines
from splang.automata import parse_automaton
from splang.cli import main
from splang.errors import TermSyntaxError
from splang.grammars import format_grammar, parse_grammar
from splang.langs import load_lang
from splang.regexes import parse_regex
from splang.terms import Leaf, enumerate_terms, parse_term

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
READERS = {".g": parse_grammar, ".aut": parse_automaton}
SOURCES = [(READERS[p.suffix], p.read_text(encoding="utf-8")) for p in sorted(BENCH_DATA.iterdir())]
SOURCES.append((load_lang, "# a language\nmode: commutative\na.b   # first\n\nb||a\n(a.b)||c\n"))
CHUNKS = ["#", "\n", " ", "|", "||", "->", ":", "{", "}", ",", ";", "*", "A", "a", "é", "(", ")", ".",
          "S", "eps", "mode:", "_1", "seq:", "par:", "fork:", "join:"]

# the errors about the whole file, raised after every line is read, carry no line number
FILE_WIDE = re.compile(
    r"grammar file has no productions|undeclared nonterminal '.*' in .*"
    r"|language file is missing the 'mode:' header|missing '(states|initial|final):' line"
    r"|(fork|join) '.*' is not referenced by any par transition"
    r"|undeclared state '.*' in initial/final sets"
)


def test_read_lines_cuts_comments_skips_blank_lines_and_numbers_errors():
    seen = []
    read_lines("  a b # c\n\n   # only a comment\n\tb\r\n#\n", seen.append)
    assert seen == ["a b", "b"]

    def reject(line):
        raise ValueError(f"bad {line}")

    with pytest.raises(TermSyntaxError, match=r"^line 3: bad b$") as info:
        read_lines("# c\n\nb  # d\n", reject)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x85", "\u2028"])
def test_only_line_feeds_and_carriage_returns_end_a_line(separator):
    # str.splitlines breaks at these too: inside a comment they would start a rule
    assert format_grammar(parse_grammar(f"S -> a # x{separator}S -> b\n")) == "S -> a\n"
    for newline in ("\n", "\r\n", "\r"):
        assert format_grammar(parse_grammar(f"S -> a # x{newline}S -> b\n")) == "S -> a | b\n"


@st.composite
def mutated_files(draw):
    reader, text = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(CHUNKS)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return reader, text


@settings(max_examples=200, deadline=None)
@given(mutated_files())
def test_every_line_error_names_a_line_that_is_there(case):
    reader, text = case
    try:
        reader(text)
    except TermSyntaxError as exc:
        message = str(exc)
        m = re.match(r"line (\d+): ", message)
        if m is None:
            assert FILE_WIDE.fullmatch(message), message
        else:
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # the line breaks of the formats
            n = int(m.group(1))
            assert 1 <= n <= len(lines) and lines[n - 1].split("#", 1)[0].strip(), message


# The text readers: a plain term, a sentential form on a grammar line, a
# regex, and a term on a language file's second line. An error on a line of a
# file counts its offset from the start of that line.
TEXT_READERS = {
    "term": parse_term,
    "form": lambda text: parse_grammar(f"S -> {text}\n"),
    "regex": parse_regex,
    "lang": lambda text: load_lang(f"mode: ordered\n{text}\n"),
}
RUN = "is not a symbol; atoms are single letters and must be joined with an operator"
GOLDEN_ERRORS = [
    ("term", "", "expected a letter, 'eps' or '(', found 'end of input' (at offset 0)", 0),
    ("form", "", "line 1: expected a letter, 'eps' or '(', found 'end of input' (at offset 4)", 4),
    ("regex", "", "expected a letter, 'eps', '0' or '(', found 'end of input' (at offset 0)", 0),
    ("term", "a b", "unexpected trailing input 'b' (at offset 2)", 2),
    ("form", "a b", "line 1: unexpected trailing input 'b' (at offset 7)", 7),
    ("regex", "a b", "unexpected trailing input 'b' (at offset 2)", 2),
    ("lang", "a b", "line 2: unexpected trailing input 'b' (at offset 2)", 2),
    ("lang", "  a b", "line 2: unexpected trailing input 'b' (at offset 4)", 4),
    ("term", "(a.b", "expected ')', found 'end of input' (at offset 4)", 4),
    ("form", "(a.b", "line 1: expected ')', found 'end of input' (at offset 9)", 9),
    ("regex", "(a.b", "expected ')', found 'end of input' (at offset 4)", 4),
    ("lang", "(a.b", "line 2: expected ')', found 'end of input' (at offset 4)", 4),
    ("term", "a.b)", "unexpected trailing input ')' (at offset 3)", 3),
    ("form", "a.b)", "line 1: unexpected trailing input ')' (at offset 8)", 8),
    ("regex", "a.b)", "unexpected trailing input ')' (at offset 3)", 3),
    ("lang", "a.b)", "line 2: unexpected trailing input ')' (at offset 3)", 3),
    ("term", ")", "expected a letter, 'eps' or '(', found ')' (at offset 0)", 0),
    ("form", "()", "line 1: expected a letter, 'eps' or '(', found ')' (at offset 6)", 6),
    ("regex", "a.()", "expected a letter, 'eps', '0' or '(', found ')' (at offset 3)", 3),
    ("lang", "a||", "line 2: expected a letter, 'eps' or '(', found 'end of input' (at offset 3)", 3),
    ("form", "a.(b|c)", "line 1: expected ')', found '|' (at offset 9)", 9),
    ("term", "a|b", "unexpected trailing input '|' (at offset 1)", 1),
    ("term", "A_12.a", "uppercase letter 'A_12' not allowed in a plain term (at offset 0)", 0),
    ("lang", "a.S", "line 2: uppercase letter 'S' not allowed in a plain term (at offset 2)", 2),
    ("regex", "a|A", "regex atoms are lowercase letters, got 'A' (at offset 2)", 2),
    ("term", "a.0", "expected a letter, 'eps' or '(', found '0' (at offset 2)", 2),
    ("form", "0", "line 1: expected a letter, 'eps' or '(', found '0' (at offset 5)", 5),
    ("lang", "0", "line 2: expected a letter, 'eps' or '(', found '0' (at offset 0)", 0),
    ("term", "a.eps.abc", f"letter run 'abc' {RUN} (at offset 6)", 6),
    ("form", "ab", f"line 1: letter run 'ab' {RUN} (at offset 5)", 5),
    ("regex", "ab*", f"letter run 'ab' {RUN} (at offset 0)", 0),
    ("lang", "ab", f"line 2: letter run 'ab' {RUN} (at offset 0)", 0),
    ("term", "a%b", "unknown character '%' (at offset 1)", 1),
    ("form", "a%b", "line 1: unknown character '%' (at offset 6)", 6),
    ("regex", "a|é", "unknown character 'é' (at offset 2)", 2),
    ("lang", "a%b", "line 2: unknown character '%' (at offset 1)", 1),
    ("term", "(" * 101 + "a", "input nests deeper than the nesting limit (100) (at offset 100)", 100),
    ("regex", "a" + "*" * 101, "input nests deeper than the nesting limit (100) (at offset 101)", 101),
    ("form", "A_12b", "line 1: unexpected trailing input 'b' (at offset 9)", 9),
    ("term", "A_", "unknown character '_' (at offset 1)", 1),
    ("term", "epsa", f"letter run 'epsa' {RUN} (at offset 0)", 0),
]


@pytest.mark.parametrize("reader,text,message,offset", GOLDEN_ERRORS)
def test_each_reader_reports_malformed_text_exactly(reader, text, message, offset):
    with pytest.raises(TermSyntaxError) as info:
        TEXT_READERS[reader](text)
    assert (str(info.value), info.value.offset) == (message, offset)


@pytest.mark.parametrize("text,message", [
    ("a\n", "line 1: language file must start with a 'mode:' header"),
    ("mode: sideways\na\n", "line 1: unknown mode 'sideways'"),
    ("mode: ORDERED\n", "line 1: unknown mode 'ORDERED'"),
    ("# only a comment\n", "language file is missing the 'mode:' header"),
])
def test_a_language_file_header_error_is_exact(text, message):
    with pytest.raises(TermSyntaxError) as info:
        load_lang(text)
    assert (str(info.value), info.value.offset) == (message, None)


NOT_ATOMS = ["A", "é", "ab", "", "`", "{"]  # "`" and "{" are the neighbours of "a" and "z"


def test_the_atoms_are_the_lowercase_ascii_letters():
    assert all(map(is_atom, string.ascii_lowercase))
    assert not any(map(is_atom, NOT_ATOMS))


def automaton(seq_line="", par_line=""):
    """An automaton with `seq_line` on line 4 and `par_line` on line 7."""
    return parse_automaton(f"states: p q\ninitial: p\nfinal: q\n{seq_line}\nfork: F p -> {{p, q}}\n"
                           f"join: J {{p, q}} -> q\n{par_line}\npar: F * J\n")


def cli_alphabet(letters, capsys):
    try:
        code = main(["term", "enum", "--max-atoms", "0", "--alphabet", letters])
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_every_atom_site_accepts_each_lowercase_letter(capsys):
    for c in string.ascii_lowercase:
        assert Leaf(c).symbol == c
        assert Leaf(c) in enumerate_terms([c], 1)
        assert automaton(seq_line=f"seq: p {c} q").seqs[0].label == c
        assert frozenset({(c, c)}) in {p.guard for p in automaton(par_line=f"par: F {{{c},{c}}} J").pars}
        assert cli_alphabet(c, capsys) == (0, "")


@pytest.mark.parametrize("s", NOT_ATOMS)
def test_every_atom_site_rejects_what_is_not_one_lowercase_letter(s, capsys):
    if s == "A":
        assert Leaf(s).symbol == "A"  # a nonterminal: the grammar layer's leaf
    else:
        with pytest.raises(ValueError, match="^leaf symbol must be a lowercase letter or a nonterminal name, got "):
            Leaf(s)
    with pytest.raises(ValueError, match=f"^alphabet entries must be lowercase letters, got {re.escape(repr(s))}$"):
        enumerate_terms([s], 1)
    label_error = "line 4: expected 'seq: p a q'" if s == "" else "line 4: label must be one lowercase letter"
    with pytest.raises(TermSyntaxError, match=f"^{re.escape(label_error)}$"):
        automaton(seq_line=f"seq: p {s} q")
    guard_error = ("line 7: expected 'par: F * J' or 'par: F {a,b;...} J'" if s == "{"
                   else "line 7: guard atoms must be lowercase letters")
    with pytest.raises(TermSyntaxError, match=f"^{re.escape(guard_error)}$"):
        automaton(par_line=f"par: F {{a,{s}}} J")
    # --alphabet takes a string of atoms: each letter must be one, and "ab" and "" are alphabets
    code, err = cli_alphabet(s, capsys)
    if s in ("ab", ""):
        assert (code, err) == (0, "")
    else:
        assert code == 2 and err.endswith(f"argument --alphabet: expected lowercase letters, got {s!r}\n")
