import contextlib
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import splang
from splang.cli import main

DATA = Path(__file__).parent / "data"
UNIT_CHAIN = "S -> A||A||A||A||a\nA -> B\nB -> C\nC -> eps\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lang(tmp_path, name, *lines, mode="ordered"):
    path = tmp_path / name
    path.write_text("\n".join([f"mode: {mode}", *lines]) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# term

def test_term_metrics(capsys):
    code, out, _ = run(capsys, "term", "metrics", "(a||b).a")
    assert code == 0
    assert out == "lg=2 dp=2 atoms=3 class=MIXED\n"


def test_term_metrics_parallel_word(capsys):
    code, out, _ = run(capsys, "term", "metrics", "a||b||c")
    assert code == 0
    assert out == "lg=1 dp=3 atoms=3 class=PARALLEL\n"


def test_term_reverse(capsys):
    code, out, _ = run(capsys, "term", "reverse", "a.b")
    assert (code, out) == (0, "b.a\n")


def test_term_canon_commutative(capsys):
    code, out, _ = run(capsys, "--mode", "commutative", "term", "canon", "b||a")
    assert (code, out) == (0, "a||b\n")


def test_term_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "term", "metrics", "a..b")
    assert code == 2
    assert "offset" in err


def test_term_enum(capsys):
    code, out, _ = run(capsys, "term", "enum", "--alphabet", "a", "--max-atoms", "2")
    assert code == 0
    assert out == "mode: ordered\na\na.a\na||a\neps\n"


def test_enumeration_cap_exits_6(capsys):
    code, out, err = run(capsys, "term", "enum", "--alphabet", "abcdefghij", "--max-atoms", "5")
    assert (code, out) == (6, "")
    assert "cap (200000)" in err


# ---------------------------------------------------------------------------
# lang

def test_lang_power_par(capsys, tmp_path):
    path = write_lang(tmp_path, "l.lang", "a", "a||b")
    code, out, _ = run(capsys, "lang", "power", "--kind", "par", "--n", "2", path)
    assert code == 0
    assert out == "mode: ordered\na||a\na||a||b\na||b||a\na||b||a||b\n"


def test_lang_closure_sp(capsys, tmp_path):
    path = write_lang(tmp_path, "l.lang", "a")
    code, out, _ = run(capsys, "lang", "closure", "--kind", "sp", "--nmax", "2", path)
    assert code == 0
    assert out == "mode: ordered\na\na.a\na||a\neps\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["power", "--kind", "seq", "--n", "4"], "seq power"),
        (["power", "--kind", "par", "--nmax", "4"], "par power"),
        (["closure", "--kind", "star", "--nmax", "3"], "star closure"),
        (["closure", "--kind", "sp", "--nmax", "2"], "sp closure"),
    ],
    ids=["power-seq", "power-par", "closure-star", "closure-sp"],
)
def test_lang_power_and_closure_past_the_cap_exit_6(capsys, tmp_path, monkeypatch, argv, err):
    monkeypatch.setattr("splang.langs.DEFAULT_CAP", 8)
    path = write_lang(tmp_path, "l.lang", "a", "b")
    code, out, stderr = run(capsys, "lang", argv[0], path, *argv[1:])
    assert (code, out, stderr) == (6, "", f"error: {err} exceeds the cardinality cap (8)\n")


def test_commutative_par_closure_stays_under_the_cap(capsys, tmp_path):
    # ordered, the parallel powers of {a, b} double at each step; commutative,
    # the k-th power has only k + 1 words: 496 up to 30
    path = write_lang(tmp_path, "l.lang", "a", "b", mode="commutative")
    code, out, err = run(capsys, "lang", "closure", path, "--kind", "par", "--nmax", "30")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (lines[0], len(lines)) == ("mode: commutative", 1 + 496)
    assert "||".join("a" * 3 + "b" * 27) in lines


@pytest.mark.parametrize("lines,power", [(["eps"], "eps\n"), ([], "")], ids=["eps", "empty"])
@pytest.mark.parametrize(
    "argv",
    [["power", "--kind", "seq", "--n"], ["power", "--kind", "par", "--n"],
     ["closure", "--kind", "star", "--nmax"], ["closure", "--kind", "sp", "--nmax"]],
    ids=["power-seq", "power-par", "closure-star", "closure-sp"],
)
def test_lang_power_and_closure_of_eps_or_nothing_answer_a_huge_bound(capsys, tmp_path, lines, power, argv):
    # their levels repeat after a step or two, so the bound is never walked
    path = write_lang(tmp_path, "l.lang", *lines)
    code, out, err = run(capsys, "lang", argv[0], path, *argv[1:], 10**18)
    expected = power if argv[0] == "power" else "eps\n"
    assert (code, out, err) == (0, "mode: ordered\n" + expected, "")


def test_lang_equal_same_file(capsys, tmp_path):
    path = write_lang(tmp_path, "l.lang", "a", "b")
    code, out, err = run(capsys, "lang", "equal", path, path)
    assert (code, out, err) == (0, "", "")


def test_lang_equal_reports_diff_on_stderr(capsys, tmp_path):
    left = write_lang(tmp_path, "left.lang", "a")
    right = write_lang(tmp_path, "right.lang", "b")
    code, out, err = run(capsys, "lang", "equal", left, right)
    assert code == 1
    assert "only in left: a" in err
    assert "only in right: b" in err


def test_lang_mode_mismatch_exits_3(capsys, tmp_path):
    left = write_lang(tmp_path, "left.lang", "a")
    right = write_lang(tmp_path, "right.lang", "a", mode="commutative")
    code, _, err = run(capsys, "lang", "concat", left, right)
    assert code == 3
    assert "commutative" in err


def test_lang_concat_and_union(capsys, tmp_path):
    left = write_lang(tmp_path, "left.lang", "a")
    right = write_lang(tmp_path, "right.lang", "b")
    code, out, _ = run(capsys, "lang", "concat", left, right)
    assert out == "mode: ordered\na.b\n"
    code, out, _ = run(capsys, "lang", "union", left, right)
    assert out == "mode: ordered\na\nb\n"


def test_lang_reverse(capsys, tmp_path):
    path = write_lang(tmp_path, "l.lang", "a.b", "a||b")
    code, out, _ = run(capsys, "lang", "reverse", path)
    assert out == "mode: ordered\na||b\nb.a\n"


# ---------------------------------------------------------------------------
# regex

def test_regex_match_true(capsys):
    code, out, _ = run(capsys, "regex", "match", "(a||b)^", "a||b||a||b")
    assert (code, out) == (0, "true\n")


def test_regex_match_false_exits_1(capsys):
    code, out, _ = run(capsys, "regex", "match", "(a||b)^", "a||a||b||b")
    assert (code, out) == (1, "false\n")


def test_regex_enum_defaults_to_regex_alphabet(capsys):
    code, out, _ = run(capsys, "regex", "enum", "a@", "--max-atoms", "2")
    assert (code, out) == (0, "mode: ordered\na\na.a\na||a\neps\n")


@pytest.mark.parametrize(
    "argv,out",
    [
        (["regex", "enum", "a|b.b", "--alphabet", "", "--max-atoms", "2"], "mode: ordered\n"),
        (["regex", "enum", "a*", "--alphabet", ""], "mode: ordered\neps\n"),
    ],
    ids=["no-words", "eps-only"],
)
def test_regex_enum_honours_an_empty_alphabet(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_regex_to_grammar(capsys):
    code, out, _ = run(capsys, "regex", "to-grammar", "(a||b)^")
    assert code == 0
    assert out == "S -> eps | a||A\nA -> b||B | b\nB -> a||A\n"


def test_regex_match_on_a_long_flat_word(capsys):
    code, out, _ = run(capsys, "regex", "match", "a*", ".".join(["a"] * 400))
    assert (code, out) == (0, "true\n")


def test_regex_enum_follows_the_answer_not_the_universe(capsys):
    code, out, _ = run(capsys, "regex", "enum", "a", "--max-atoms", "7", "--alphabet", "ab")
    assert (code, out) == (0, "mode: ordered\na\n")
    # letters outside --alphabet are pruned, not generated and dropped
    code, out, _ = run(capsys, "regex", "enum", "(a|b|c|d|e|f|g|h)*", "--max-atoms", "6", "--alphabet", "a")
    assert (code, out) == (0, "mode: ordered\na\na.a\na.a.a\na.a.a.a\na.a.a.a.a\na.a.a.a.a.a\neps\n")


def test_regex_to_grammar_beyond_25_positions(capsys, tmp_path):
    word = "||".join(["a"] * 30)
    code, out, _ = run(capsys, "regex", "to-grammar", word)
    assert code == 0
    path = tmp_path / "wide.g"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "grammar", "generate", path, "--max-atoms", "30")
    assert (code, out) == (0, f"mode: ordered\n{word}\n")


def test_regex_to_grammar_fragment_error_exits_4(capsys):
    code, _, err = run(capsys, "regex", "to-grammar", "a.b")
    assert code == 4
    assert "fragment" in err


# ---------------------------------------------------------------------------
# grammar

def test_grammar_classify(capsys):
    code, out, _ = run(capsys, "grammar", "classify", DATA / "a_fanout.g")
    assert (code, out) == (0, "PARALLEL_LINEAR SP_REGULAR CF_PARALLEL CF_SP\n")


def test_grammar_generate(capsys):
    code, out, _ = run(capsys, "grammar", "generate", DATA / "branch_words.g", "--max-atoms", "4")
    assert code == 0
    assert out.splitlines() == [
        "mode: ordered",
        "a.a.a||b",
        "a.a||b",
        "a.a||b.b",
        "a||b",
        "a||b.b",
        "a||b.b.b",
    ]


def test_grammar_member_with_trace(capsys):
    code, out, _ = run(capsys, "grammar", "member", DATA / "fan_tail.g", "(a||b).a", "--trace")
    assert code == 0
    assert out == "true\nS\nA.a\n(a||A).a\n(a||b).a\n"


def test_grammar_unit_chain_needs_no_step_budget(capsys, tmp_path):
    path = tmp_path / "chain.g"
    path.write_text(UNIT_CHAIN, encoding="utf-8")
    code, out, _ = run(capsys, "grammar", "member", path, "a")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "grammar", "generate", path, "--max-atoms", "1")
    assert (code, out) == (0, "mode: ordered\na\n")


def test_grammar_member_trace_with_indexed_nonterminals(capsys, tmp_path):
    path = tmp_path / "indexed.g"
    path.write_text("S -> A_1||A_1\nA_1 -> a | b\n", encoding="utf-8")
    code, out, _ = run(capsys, "grammar", "member", path, "a||b", "--trace")
    assert (code, out) == (0, "true\nS\nA_1||A_1\na||A_1\na||b\n")


@pytest.mark.parametrize("name", ["A_", "A_x", "a_1", "AB"])
@pytest.mark.parametrize("text", ["S -> {}\n", "S -> a\n{} -> a\n"])
def test_malformed_nonterminal_names_exit_2(capsys, tmp_path, name, text):
    path = tmp_path / "bad.g"
    path.write_text(text.format(name), encoding="utf-8")
    code, _, err = run(capsys, "grammar", "classify", path)
    assert code == 2
    assert err.startswith("error: line ")


def test_indexed_nonterminal_is_not_a_term(capsys):
    code, _, err = run(capsys, "term", "canon", "A_1")
    assert code == 2
    assert "A_1" in err


def test_grammar_member_rejection(capsys):
    code, out, _ = run(capsys, "grammar", "member", DATA / "branch_words.g", "a.b")
    assert (code, out) == (1, "false\n")


def test_grammar_undeclared_symbol_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("S -> X\n", encoding="utf-8")
    code, _, err = run(capsys, "grammar", "classify", path)
    assert code == 2
    assert "undeclared" in err


@pytest.mark.parametrize("argv,text,err", [
    (("grammar", "classify"), "S a\n", "line 1: expected 'A -> ...'"),
    (("grammar", "classify"), "# start\n\ns -> a\n",
     "line 3: nonterminal must be an uppercase letter, optionally indexed (A_12), got 's'"),
    (("grammar", "classify"), "S -> a\nA -> a..b\n",
     "line 2: expected a letter, 'eps' or '(', found '.' (at offset 7)"),
    (("grammar", "classify"), "S -> (a|b)\n", "line 1: expected ')', found '|' (at offset 7)"),
    (("grammar", "classify"), "# nothing\n\n", "grammar file has no productions"),
    (("grammar", "classify"), "S -> a | X  # X has no rule\n", "undeclared nonterminal 'X' in S -> X"),
    (("lang", "reverse"), "a.b\n", "line 1: language file must start with a 'mode:' header"),
    (("lang", "reverse"), "# header\nmode: sideways\n", "line 2: unknown mode 'sideways'"),
    (("lang", "reverse"), "# no header\n", "language file is missing the 'mode:' header"),
    (("lang", "reverse"), "mode: ordered\na\n\na.B\n",
     "line 4: uppercase letter 'B' not allowed in a plain term (at offset 2)"),
], ids=["arrow", "lowercase-head", "term-offset", "bar-in-parens", "no-productions", "undeclared",
        "no-mode-first", "unknown-mode", "missing-mode", "uppercase-in-lang"])
def test_every_grammar_and_language_file_error_exits_2(capsys, tmp_path, argv, text, err):
    path = tmp_path / "x.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, *argv, path) == (2, "", f"error: {err}\n")


# ---------------------------------------------------------------------------
# automaton and equivalence

def test_automaton_round_trip_via_cli(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    assert code == 0
    aut_path = tmp_path / "fanout.aut"
    aut_path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "automaton", "accepts", aut_path, "a||b||b")
    assert (code, out2) == (0, "true\n")
    code, out3, _ = run(capsys, "automaton", "accepts", aut_path, "b")
    assert (code, out3) == (1, "false\n")


def test_automaton_accepts_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "automaton", "accepts", "-", "a||b")
    assert (code, out2) == (0, "true\n")


def test_automaton_enum(capsys, tmp_path):
    code, out, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    aut_path = tmp_path / "fanout.aut"
    aut_path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "automaton", "enum", aut_path, "--max-atoms", "4")
    assert code == 0
    assert out2 == "mode: commutative\na||b\na||b||b\na||b||b||b\n"


def test_automaton_enum_honours_an_empty_alphabet(capsys, tmp_path):
    code, out, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    aut_path = tmp_path / "a_fanout.aut"
    aut_path.write_text(out, encoding="utf-8")
    assert run(capsys, "automaton", "enum", aut_path, "--alphabet", "", "--max-atoms", "3") == (0, "mode: commutative\n", "")


def test_automaton_enum_follows_the_answer_not_the_universe(capsys, tmp_path):
    # the commutative universe of 8 atoms over ab is past the cap
    code, out, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    aut_path = tmp_path / "fanout.aut"
    aut_path.write_text(out, encoding="utf-8")
    code, out2, err = run(capsys, "automaton", "enum", aut_path, "--max-atoms", "8")
    assert (code, err) == (0, "")
    assert out2 == "mode: commutative\n" + "".join("a||" + "||".join("b" * k) + "\n" for k in range(1, 8))


@pytest.mark.parametrize("lines,err", [
    ("seq: p \u00e9 q\n", "error: line 4: label must be one lowercase letter\n"),
    ("seq: p a q\nfork: F p -> {p, q}\njoin: J {p, q} -> q\npar: F {a,\u00e9} J\n",
     "error: line 7: guard atoms must be lowercase letters\n"),
], ids=["seq-label", "guard-atom"])
@pytest.mark.parametrize("argv", [("accepts", "a"), ("enum",)], ids=["accepts", "enum"])
def test_non_ascii_automaton_letters_exit_2(capsys, tmp_path, lines, err, argv):
    path = tmp_path / "x.aut"
    path.write_text("states: p q\ninitial: p\nfinal: q\n" + lines, encoding="utf-8")
    assert run(capsys, "automaton", argv[0], path, *argv[1:]) == (2, "", err)


def test_equiv_beyond_the_universe_cap(capsys):
    code, out, _ = run(capsys, "equiv", DATA / "a_fanout.g", "--max-atoms", "8")
    assert (code, out) == (0, "equal: 7 words up to 8 atoms\n")


def test_equiv_succeeds_on_linear_fixtures(capsys):
    for name in ("a_fanout.g", "parallel_pairs.g"):
        code, out, _ = run(capsys, "equiv", DATA / name, "--max-atoms", "5")
        assert code == 0, name
        assert out.startswith("equal:")


def test_equiv_reports_a_mismatch_on_stderr_and_exits_1(capsys, monkeypatch):
    from splang import automata, langs, terms

    accepted = automata.enumerate_accepted

    def dropping_eps(*args):
        lang = accepted(*args)
        return langs.FiniteLang(lang.mode, [t for t in lang if t != terms.EPS])

    monkeypatch.setattr(automata, "enumerate_accepted", dropping_eps)
    assert run(capsys, "equiv", DATA / "parallel_pairs.g", "--max-atoms", "2") == (
        1, "", "not equal\nonly in left: eps\n")


def test_equiv_rejects_non_linear_grammar_with_exit_5(capsys):
    code, _, err = run(capsys, "equiv", DATA / "branch_words.g")
    assert code == 5
    assert "parallel-linear" in err


def test_from_grammar_rejects_non_linear_with_exit_5(capsys):
    code, _, err = run(capsys, "automaton", "from-grammar", DATA / "branch_words.g")
    assert code == 5


@pytest.mark.parametrize(
    "argv,option",
    [
        (["term", "enum", "--max-atoms", "-1"], "--max-atoms"),
        (["regex", "enum", "a", "--max-atoms", "-1", "--alphabet", "ab"], "--max-atoms"),
        (["automaton", "enum", "{aut}", "--max-atoms", "-1"], "--max-atoms"),
        (["regex", "enum", "a", "--alphabet", "AB"], "--alphabet"),
        (["lang", "power", "{lang}", "--kind", "seq", "--n", "-2"], "--n"),
        (["lang", "closure", "{lang}", "--kind", "star", "--nmax", "-1"], "--nmax"),
    ],
    ids=["term-enum", "regex-enum", "automaton-enum", "regex-alphabet", "lang-power", "lang-closure"],
)
def test_out_of_range_options_exit_2(tmp_path, argv, option):
    aut = tmp_path / "one.aut"
    aut.write_text("states: p q\ninitial: p\nfinal: q\nseq: p a q\n", encoding="utf-8")
    lang = write_lang(tmp_path, "one.lang", "a")
    src = str(Path(splang.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "splang.cli", *(arg.format(aut=aut, lang=lang) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"argument {option}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def alternating(levels):
    """A term nested `levels` parentheses deep, alternating || and . inside."""
    text = "a"
    for i in range(levels):
        text = f"({text}{'||b' if i % 2 == 0 else '.b'})"
    return text


def closure_groups(groups, closures):
    """A regex of `groups` nested parentheses, each closed by `closures` stars."""
    text = "a"
    for _ in range(groups):
        text = f"({text}){'*' * closures}"
    return text


DEEP = "(" * 3000 + "a" + ")" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["term", "canon", DEEP],
        ["regex", "match", "a", DEEP],
        ["regex", "match", "a" + "*" * 3000, "a"],
        ["regex", "match", closure_groups(100, 100), "a"],
        ["grammar", "member", "{grammar}", "a"],
        ["lang", "reverse", "{lang}"],
    ],
    ids=["term-canon", "regex-match-term", "regex-match-closures", "regex-match-groups", "grammar-file", "lang-file"],
)
def test_nesting_past_the_limit_exits_2(tmp_path, argv):
    grammar = tmp_path / "deep.g"
    grammar.write_text(f"S -> {alternating(101)}\n", encoding="utf-8")
    lang = write_lang(tmp_path, "deep.lang", "a", alternating(101))
    src = str(Path(splang.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "splang.cli", *(arg.format(grammar=grammar, lang=lang) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "nesting limit (100)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nesting_at_the_limit_succeeds(capsys, tmp_path):
    term = alternating(100)
    grammar = tmp_path / "deep.g"
    grammar.write_text(f"S -> {term}\n", encoding="utf-8")
    lang = write_lang(tmp_path, "deep.lang", term)
    for argv in (
        ["term", "canon", term],
        ["term", "metrics", term],
        ["term", "reverse", term],
        ["regex", "match", term, term],
        ["--mode", "commutative", "regex", "match", term, term],
        ["regex", "match", "a" + "*" * 100, "a.a"],
        ["--mode", "commutative", "regex", "match", closure_groups(50, 1), "a.a"],
        ["grammar", "member", grammar, term, "--trace"],
        ["lang", "reverse", lang],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv[:3]
        assert out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "grammar", "classify", "no_such_file.g")
    assert code == 2


def test_closed_stdout_exits_141_quietly():
    # 100 KB of output: past the 64 KiB pipe buffer, under the 128 KiB limit on one argument
    term = "||".join(["a.b"] * 20000)
    src = str(Path(splang.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "splang.cli", "term", "canon", term],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    assert proc.stdout.read(5) == b"a.b||"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_on_one_large_write(unbuffered):
    # `term enum` writes its whole output, past the 64 KiB pipe buffer, in one call
    src = str(Path(splang.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "splang.cli", "term", "enum", "--max-atoms", "6"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    assert proc.stdout.read(5) == b"mode:"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_internal_error_exits_70_without_a_traceback(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("splang.terms.canonicalize", broken)
    assert run(capsys, "term", "canon", "a") == (70, "", "error: internal error: RuntimeError('boom')\n")


AUT_HEAD = "states: p q\ninitial: p\nfinal: q\n"
FORK_JOIN = "fork: F p -> {p, q}\njoin: J {p, q} -> q\n"


@pytest.mark.parametrize("text,err", [
    (AUT_HEAD + "bogus: x\n", "line 4: expected one of states, initial, final, seq, fork, join, par"),
    ("states: p q\nstates: r\ninitial: p\nfinal: q\n", "line 2: duplicate 'states' line"),
    ("states: p 9q\ninitial: p\nfinal: q\n", "line 1: bad state name '9q'"),
    (AUT_HEAD + "fork: F p -> {p, 9q}\n", "line 4: bad state name '9q'"),
    (AUT_HEAD + "fork: F p -> {p, , q}\n", "line 4: empty name in multiset"),
    (AUT_HEAD + "seq: p a\n", "line 4: expected 'seq: p a q'"),
    (AUT_HEAD + "fork: F p {p, q}\n", "line 4: expected 'fork: F p -> {q1, q2, ...}'"),
    (AUT_HEAD + "join: J {p, q} q\n", "line 4: expected 'join: J {q1, q2, ...} -> p'"),
    (AUT_HEAD + "par: F J\n", "line 4: expected 'par: F * J' or 'par: F {a,b;...} J'"),
    (AUT_HEAD + "join: J {p} -> q\n", "line 4: join J needs at least two sources"),
    (AUT_HEAD + "fork: F p -> {p, q}\nfork: F q -> {p, q}\njoin: J {p, q} -> q\npar: F * J\n",
     "line 5: duplicate fork id 'F'"),
    (AUT_HEAD + FORK_JOIN + "join: J {q, q} -> p\npar: F * J\n", "line 6: duplicate join id 'J'"),
    (AUT_HEAD + FORK_JOIN + "par: F * J\npar: F * K\n", "line 7: par transition references unknown join 'K'"),
    ("states: p q\nfinal: q\n", "missing 'initial:' line"),
    (AUT_HEAD + FORK_JOIN + "join: K {p, q} -> q\npar: F * J\n", "join 'K' is not referenced by any par transition"),
    ("initial: p\nstates: p q\nfinal: q\n", "line 2: section 'states' out of order"),
    (AUT_HEAD + "fork: F p -> {q}\n", "line 4: fork F needs at least two targets"),
    (AUT_HEAD + FORK_JOIN, "fork 'F' is not referenced by any par transition"),
    (AUT_HEAD + FORK_JOIN + "par: F * J\npar: G * J\n", "line 7: par transition references unknown fork 'G'"),
    (AUT_HEAD + "seq: p a r\n", "line 4: undeclared state 'r' in seq transition"),
    (AUT_HEAD + "seq: p a 9q\n", "line 4: bad state name '9q'"),
    (AUT_HEAD + "seq: 9p a q\n", "line 4: bad state name '9p'"),
    ("initial: p\nfinal: q\n", "missing 'states:' line"),
    (AUT_HEAD + "final: p\n", "line 4: duplicate 'final' line"),
], ids=["section", "duplicate-states", "state-name", "multiset-name", "empty-name", "seq", "fork", "join", "par",
        "one-source", "duplicate-fork", "duplicate-join", "unknown-join", "missing-initial",
        "unreferenced-join", "section-order", "one-target", "unreferenced-fork", "unknown-fork",
        "undeclared-seq-state", "seq-target-name", "seq-source-name", "missing-states", "duplicate-final"])
def test_every_automaton_file_error_exits_2(capsys, tmp_path, text, err):
    path = tmp_path / "x.aut"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "automaton", "accepts", path, "a") == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ("grammar", "member", "g.g", "a.a.a.b"),
    ("regex", "match", "(a|a.a)*.b", "a.a.b"),
    ("automaton", "accepts", "fanout.aut", "a||b||b"),
], ids=["grammar", "regex", "automaton"])
def test_membership_goals_past_the_cap_exit_6(capsys, tmp_path, monkeypatch, argv):
    (tmp_path / "g.g").write_text("S -> A.b\nA -> a | A.a\n", encoding="utf-8")
    _, aut, _ = run(capsys, "automaton", "from-grammar", DATA / "a_fanout.g")
    (tmp_path / "fanout.aut").write_text(aut, encoding="utf-8")
    for module in ("grammars", "regexes", "automata"):
        monkeypatch.setattr(f"splang.{module}.DEFAULT_CAP", 3)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (6, "", "error: membership goals exceed the cardinality cap (3)\n")


def letter_loops(tmp_path, letters):
    """One state, initial and final, with a seq loop per letter."""
    aut = tmp_path / "letters.aut"
    aut.write_text("states: p\ninitial: p\nfinal: p\n" + "".join(f"seq: p {c} p\n" for c in letters),
                   encoding="utf-8")
    return aut


def test_automaton_enum_past_the_cap_exits_6(capsys, tmp_path):
    # 22 letter loops: 245,410 words of 1..4 atoms, with the empty run 245,411
    # (state pair, word) pairs, past the cap of 200,000
    aut = letter_loops(tmp_path, "abcdefghijklmnopqrstuv")
    code, out, err = run(capsys, "automaton", "enum", aut, "--max-atoms", "4")
    assert (code, out) == (6, "")
    assert err == "error: automaton words exceed the cardinality cap (200000)\n"


def test_automaton_enum_counts_each_run_once(capsys, tmp_path):
    # 18 letter loops: 111,151 (state pair, word) pairs, under the cap; the
    # compiled grammar holds the accepted words again under its start symbol
    aut = letter_loops(tmp_path, "abcdefghijklmnopqr")
    code, out, err = run(capsys, "automaton", "enum", aut, "--max-atoms", "4")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 111151


def test_large_outputs_reach_a_text_only_stdout():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["term", "enum", "--alphabet", "a", "--max-atoms", "2"])
    assert (code, buffer.getvalue()) == (0, "mode: ordered\na\na.a\na||a\neps\n")


def test_full_non_blocking_stdout_is_an_error_not_a_busy_loop(capsys, monkeypatch):
    class Full(io.RawIOBase):
        writes = 0

        def writable(self):
            return True

        def write(self, data):
            self.writes += 1
            assert self.writes == 1, "wrote again to a full stream"
            return None  # what a non-blocking raw stream returns when it would block

    stdout = io.TextIOWrapper(Full(), encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["term", "enum", "--alphabet", "a", "--max-atoms", "2"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.EAGAIN}] stdout is not ready for writing\n"


# (option and value, another value of it, command, its output under the first)
SHARED_OPTIONS = [
    (["--mode", "commutative"], ["--mode", "ordered"], ["term", "canon", "b||a"], "a||b\n"),
    (["--max-atoms", "2"], ["--max-atoms", "1"], ["term", "enum", "--alphabet", "a"],
     "mode: ordered\na\na.a\na||a\neps\n"),
    (["--nmax", "2"], ["--nmax", "1"], ["lang", "power", "{lang}", "--kind", "par"],
     "mode: ordered\na||a\na||b\nb||a\nb||b\n"),
]
# slots: 0 before the group, 1 between the group and the subcommand, 2 after
# the subcommand; of two slots, the first takes the other value
PLACEMENTS = [(0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("slots", PLACEMENTS, ids=["-".join(map(str, s)) for s in PLACEMENTS])
@pytest.mark.parametrize("option,other,argv,expected", SHARED_OPTIONS, ids=["mode", "max-atoms", "nmax"])
def test_shared_options_apply_wherever_they_appear(capsys, tmp_path, slots, option, other, argv, expected):
    lang = write_lang(tmp_path, "l.lang", "a", "b")
    group, sub, *rest = [str(lang) if a == "{lang}" else a for a in argv]
    values = [other, option] if len(slots) == 2 else [option]
    placed = {0: [], 1: [], 2: []}
    for slot, value in zip(slots, values):
        placed[slot] += value
    code, out, err = run(capsys, *placed[0], group, *placed[1], sub, *rest, *placed[2])
    assert (code, out, err) == (0, expected, "")


# ---------------------------------------------------------------------------
# determinism

def test_outputs_are_byte_deterministic(capsys):
    first = run(capsys, "grammar", "generate", DATA / "parallel_pairs.g", "--max-atoms", "6")
    second = run(capsys, "grammar", "generate", DATA / "parallel_pairs.g", "--max-atoms", "6")
    assert first == second
    third = run(capsys, "automaton", "from-grammar", DATA / "parallel_pairs.g")
    fourth = run(capsys, "automaton", "from-grammar", DATA / "parallel_pairs.g")
    assert third == fourth


def test_outputs_are_identical_across_hash_seeds(tmp_path):
    # terms hash by identity, so every process iterates a set of terms in its
    # own order; these commands iterate such sets, and must not show it
    commands = [
        ["grammar", "member", DATA / "branch_words.g", "(a.a)||b", "--trace"],
        ["grammar", "member", DATA / "branch_words.g", "b.b||a", "--trace", "--mode", "commutative"],
        ["grammar", "generate", DATA / "branch_words.g", "--max-atoms", "5"],
        ["grammar", "generate", DATA / "parallel_pairs.g", "--max-atoms", "6", "--mode", "commutative"],
        ["term", "enum", "--alphabet", "abc", "--max-atoms", "4", "--mode", "commutative"],
        ["regex", "enum", "(a.b|c)@", "--max-atoms", "5", "--mode", "commutative"],
        ["equiv", DATA / "parallel_pairs.g"],
    ]
    src = str(Path(splang.__file__).resolve().parents[1])

    def output(argv):
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "splang.cli", *map(str, argv)],
                                  env=env, capture_output=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv
        return outputs.pop()

    for argv in commands:
        output(argv)
    aut = tmp_path / "a_fanout.aut"  # branch_words.g is not parallel-linear, so it has no automaton
    aut.write_bytes(output(["automaton", "from-grammar", DATA / "a_fanout.g"]))
    output(["automaton", "enum", aut, "--max-atoms", "6"])


def test_an_undeclared_initial_and_final_state_give_the_same_error_across_hash_seeds(tmp_path):
    aut = tmp_path / "undeclared.aut"
    aut.write_text("states: p\ninitial: X\nfinal: Y\n", encoding="utf-8")
    src = str(Path(splang.__file__).resolve().parents[1])
    outcomes = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "splang.cli", "automaton", "accepts", str(aut), "a"],
                              env=env, capture_output=True, text=True)
        outcomes.add((proc.returncode, proc.stderr))
    assert outcomes == {(2, "error: undeclared state 'X' in initial/final sets\n")}


@pytest.mark.parametrize("mode,lines", [("ordered", ["a", "b.a", "a||b"]), ("commutative", ["b", "b||a", "a.b"])])
def test_lang_powers_and_closures_are_identical_across_hash_seeds(tmp_path, mode, lines):
    # the products are built in set order, which the hash seed and the node addresses move
    path = write_lang(tmp_path, "l.lang", *lines, mode=mode)
    src = str(Path(splang.__file__).resolve().parents[1])
    for argv in (["power", "--kind", "par", "--n", "3"], ["closure", "--kind", "sp", "--nmax", "2"]):
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "splang.cli", "lang", argv[0], str(path), *argv[1:]],
                                  env=env, capture_output=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


# ---------------------------------------------------------------------------
# exit codes under random input

def texts_of(atoms, postfix, infix):
    """Well-formed, fully parenthesized texts over `atoms` and the operators."""
    def grow(inner):
        binary = st.tuples(inner, st.sampled_from(infix), inner).map(lambda p: f"({p[0]}){p[1]}({p[2]})")
        if not postfix:
            return binary
        return st.one_of(binary, st.tuples(inner, st.sampled_from(postfix)).map(lambda p: f"({p[0]}){p[1]}"))

    return st.recursive(st.sampled_from(atoms), grow, max_leaves=5)


def noise(alphabet):
    return st.text(alphabet, max_size=12)


term_forms = texts_of(["a", "b", "eps"], [], [".", "||"])
term_texts = st.one_of(term_forms, noise("ab().| ep"))
regex_texts = st.one_of(texts_of(["a", "b", "eps", "0"], ["*", "^", "@"], [".", "||", "|"]), noise("ab0().|*^@ "))
grammar_forms = st.lists(texts_of(["a", "b", "eps", "S", "A"], [], [".", "||"]), min_size=1, max_size=3)
grammar_files = st.one_of(
    st.tuples(grammar_forms, grammar_forms).map(lambda t: f"S -> {' | '.join(t[0])}\nA -> {' | '.join(t[1])}\n"),
    noise("SAab->|.\n# "),
)
states = st.sampled_from(["p", "q", "r"])
fork_join = st.tuples(*[states] * 6, st.sampled_from(["*", "{a,b;a,a}", "{a}"])).map(
    lambda t: "fork: F {} -> {{{}, {}}}\njoin: J {{{}, {}}} -> {}\npar: F {} J\n".format(*t))
automaton_files = st.one_of(
    st.tuples(st.lists(states, min_size=1, max_size=2), st.lists(states, max_size=2),
              st.lists(st.tuples(states, st.sampled_from("ab"), states), max_size=4), st.lists(fork_join, max_size=1))
    .map(lambda t: f"states: p q r\ninitial: {' '.join(t[0])}\nfinal: {' '.join(t[1])}\n"
         + "".join("seq: {} {} {}\n".format(*x) for x in t[2]) + "".join(t[3])),
    noise("pqab\u00e9:{},;*->\n"),
)
lang_files = st.one_of(
    st.tuples(st.sampled_from(["ordered", "commutative"]), st.lists(term_forms, max_size=4))
    .map(lambda t: f"mode: {t[0]}\n" + "".join(x + "\n" for x in t[1])),
    noise("mode:ab.|\n# "),
)
alphabets = st.tuples(st.just("--alphabet"), st.text("abc", max_size=3))
# each subcommand's arguments; l1.lang, l2.lang, g.g and x.aut name files
COMMANDS = {
    "term metrics": st.tuples(term_texts),
    "term reverse": st.tuples(term_texts),
    "term canon": st.tuples(term_texts),
    "term enum": alphabets,
    "lang concat": st.just(("l1.lang", "l2.lang")),
    "lang par": st.just(("l1.lang", "l2.lang")),
    "lang union": st.just(("l1.lang", "l2.lang")),
    "lang equal": st.just(("l1.lang", "l2.lang")),
    "lang power": st.tuples(st.just("l1.lang"), st.just("--kind"), st.sampled_from(["seq", "par"]),
                            st.just("--n"), st.integers(0, 3).map(str)),
    "lang closure": st.tuples(st.just("l1.lang"), st.just("--kind"), st.sampled_from(["star", "par", "sp"])),
    "lang reverse": st.just(("l1.lang",)),
    "regex match": st.tuples(regex_texts, term_texts),
    "regex enum": st.tuples(regex_texts).flatmap(lambda t: alphabets.map(lambda a: t + a)),
    "regex to-grammar": st.tuples(regex_texts),
    "grammar classify": st.just(("g.g",)),
    "grammar generate": st.just(("g.g",)),
    "grammar member": st.tuples(st.just("g.g"), term_texts).flatmap(
        lambda t: st.sampled_from([t, t + ("--trace",)])),
    "automaton from-grammar": st.just(("g.g",)),
    "automaton accepts": st.tuples(st.just("x.aut"), term_texts),
    "automaton enum": st.tuples(st.just("x.aut")).flatmap(lambda t: alphabets.map(lambda a: t + a)),
    "equiv": st.just(("g.g",)),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [*command.split(), *draw(COMMANDS[command]),
            "--mode", draw(st.sampled_from(["ordered", "commutative"])),
            "--max-atoms", str(draw(st.integers(0, 4))), "--nmax", str(draw(st.integers(0, 3)))]
    files = {"l1.lang": draw(lang_files), "l2.lang": draw(lang_files), "g.g": draw(grammar_files),
             "x.aut": draw(automaton_files)}
    return argv, files


def test_every_command_exits_with_a_documented_code(tmp_path):
    written = {}  # name -> the text last written there: opening a file for writing can cost far more than the run

    @settings(max_examples=150, deadline=None)
    @given(invocations())
    def check(invocation):
        argv, files = invocation
        for name in set(argv) & files.keys():
            if written.get(name) != files[name]:
                (tmp_path / name).write_text(files[name], encoding="utf-8")
                written[name] = files[name]
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(7), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
