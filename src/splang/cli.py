"""Batch command-line front end.

Subcommand groups wrap the library one-to-one: ``term``, ``lang``, ``regex``,
``grammar``, ``automaton``, and ``equiv`` (the grammar/automaton bounded
equivalence check). Data goes to stdout, diagnostics to stderr, ``-`` means
stdin for any file argument, and every output is byte-deterministic.

Exit codes: 0 success/true, 1 false/inequality, 2 parse or usage error
(including a negative --max-atoms, --nmax or --n, an --alphabet that is not
lowercase letters, and a term, regex, grammar or language text nesting more
than 100 parentheses and postfix closures around an atom), 3 mode mismatch,
4 outside the regex fragment, 5 grammar classification, 6 cardinality cap
(200,000) exceeded: universe terms of `term enum`; (nonterminal, word) pairs
of `grammar generate`, `regex enum` (the regex's compiled grammar) and the
grammar side of `equiv`, not counting nonterminals that only copy other
nonterminals' words; (state pair, word) pairs of the runs of `automaton enum`
and the automaton side of `equiv`; (nonterminal, position) goals per search
pass of `grammar member`, `regex match` and `automaton accepts`; words of
each partial power of `lang power` and of each partial union of powers of
`lang closure`; 70 internal error (a bug: one ``error: internal error:`` line
on stderr, no traceback); 141 (128 + SIGPIPE) when the reader closes stdout,
with nothing on stderr.
Regexes and automata are decided and enumerated through their compiled
grammars. Grammar membership and generation are exact (no step budget);
`member --trace` prints a leftmost derivation, read from the proof tree the
search kept only when the flag asks for it, and not necessarily the shortest.

The command table (`_SHARED` and `_COMMANDS`) is the one place a command or
option is declared: `build_parser` builds every parser from it, and `main`
calls the handler that the chosen group's entry names.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

# each handler imports the grammar, regex and automaton modules it runs, so a
# process that handles terms or languages never pays for their import
from . import _lex, langs, terms
from .errors import (
    EnumerationCapError,
    FragmentError,
    ModeMismatchError,
    NotParallelLinearError,
    SplangError,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_MODE = 3
EXIT_FRAGMENT = 4
EXIT_CLASS = 5
EXIT_CAP = 6
EXIT_INTERNAL = 70
EXIT_PIPE = 141

# the first entry that matches a raised error gives the exit code
_EXIT_CODES = (
    (ModeMismatchError, EXIT_MODE),
    (FragmentError, EXIT_FRAGMENT),
    (NotParallelLinearError, EXIT_CLASS),
    (EnumerationCapError, EXIT_CAP),
    (SplangError, EXIT_PARSE),
    (OSError, EXIT_PARSE),
)


def _count(text: str) -> int:
    """argparse type of --max-atoms, --nmax and --n."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _alphabet(text: str) -> str:
    """argparse type of --alphabet."""
    if not all(map(_lex.is_atom, text)):
        raise argparse.ArgumentTypeError(f"expected lowercase letters, got {text!r}")
    return text


def _write(text: str) -> None:
    """Write `text` to stdout whole. An unbuffered stdout (PYTHONUNBUFFERED)
    hands a large write straight to the pipe, which takes what fits and
    returns a short count when its reader has gone; writing the rest raises
    BrokenPipeError. (`print` always writes its line end separately.)"""
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream with no byte layer, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        written = out.write(data)
        if written is None:  # a non-blocking stdout that is full, as a buffered writer reports it
            raise BlockingIOError(errno.EAGAIN, "stdout is not ready for writing")
        data = data[written:]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# term

def _cmd_term(args) -> int:
    if args.sub == "enum":
        lang = langs.universe(args.alphabet, args.max_atoms, args.mode)
        _write(langs.dump_lang(lang))
        return EXIT_OK
    t = terms.canonicalize(terms.parse_term(args.term), args.mode)
    if args.sub == "metrics":
        print(
            f"lg={terms.length(t)} dp={terms.depth(t)} "
            f"atoms={terms.atoms_count(t)} class={terms.classify_term(t).value}"
        )
    elif args.sub == "reverse":
        print(terms.format_term(terms.reverse_term(t, args.mode)))
    else:  # canon
        print(terms.format_term(t))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lang

def _cmd_lang(args) -> int:
    if args.sub in ("concat", "par", "union", "equal"):
        left = langs.load_lang(_read(args.left))
        right = langs.load_lang(_read(args.right))
        if args.sub == "equal":
            diff = langs.lang_equal(left, right)
            if diff:
                return EXIT_OK
            print(diff.report(), file=sys.stderr)
            return EXIT_FALSE
        op = {
            "concat": langs.concat_lang,
            "par": langs.par_lang,
            "union": langs.union_lang,
        }[args.sub]
        _write(langs.dump_lang(op(left, right)))
        return EXIT_OK
    lang = langs.load_lang(_read(args.file))
    if args.sub == "power":
        kind = langs.PowerKind(args.kind)
        n = args.nmax if args.n is None else args.n
        result = langs.power(lang, n, kind)
    elif args.sub == "closure":
        result = langs.kleene_bounded(lang, langs.ClosureKind(args.kind), args.nmax)
    else:  # reverse
        result = langs.reverse_lang(lang)
    _write(langs.dump_lang(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# regex

def _cmd_regex(args) -> int:
    from . import grammars, regexes

    r = regexes.parse_regex(args.regex)
    if args.sub == "match":
        t = terms.parse_term(args.term)
        hit = regexes.matches(r, t, args.mode)
        print("true" if hit else "false")
        return EXIT_OK if hit else EXIT_FALSE
    if args.sub == "enum":
        alphabet = tuple(args.alphabet) if args.alphabet is not None else regexes.regex_alphabet(r)
        lang = regexes.regex_enumerate(r, alphabet, args.max_atoms, args.mode)
        _write(langs.dump_lang(lang))
        return EXIT_OK
    # to-grammar
    g = regexes.to_parallel_linear_grammar(r)
    _write(grammars.format_grammar(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# grammar

def _cmd_grammar(args) -> int:
    from . import grammars

    g = grammars.parse_grammar(_read(args.file))
    if args.sub == "classify":
        print(" ".join(grammars.classify_grammar(g).flags()))
        return EXIT_OK
    if args.sub == "generate":
        lang = grammars.generate(g, args.max_atoms, mode=args.mode)
        _write(langs.dump_lang(lang))
        return EXIT_OK
    # member
    t = terms.parse_term(args.term)
    result = grammars.is_member(g, t, args.mode)
    print("true" if result else "false")
    if result and args.trace:
        for form in result.trace:
            print(terms.format_term(form))
    return EXIT_OK if result else EXIT_FALSE


# ---------------------------------------------------------------------------
# automaton / equiv

def _cmd_automaton(args) -> int:
    from . import automata, grammars

    if args.sub == "from-grammar":
        g = grammars.parse_grammar(_read(args.file))
        _write(automata.serialize_automaton(automata.from_linear_grammar(g)))
        return EXIT_OK
    aut = automata.parse_automaton(_read(args.file))
    if args.sub == "accepts":
        t = terms.parse_term(args.term)
        hit = automata.accepts(aut, t)
        print("true" if hit else "false")
        return EXIT_OK if hit else EXIT_FALSE
    # enum
    alphabet = tuple(args.alphabet) if args.alphabet is not None else automata.automaton_alphabet(aut)
    lang = automata.enumerate_accepted(aut, alphabet, args.max_atoms)
    _write(langs.dump_lang(lang))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from . import automata, grammars

    g = grammars.parse_grammar(_read(args.file))
    aut = automata.from_linear_grammar(g)
    generated = grammars.generate(g, args.max_atoms, mode=terms.COMMUTATIVE)
    accepted = automata.enumerate_accepted(aut, sorted(g.terminals), args.max_atoms)
    diff = langs.lang_equal(generated, accepted)
    if diff:
        print(f"equal: {len(generated)} words up to {args.max_atoms} atoms")
        return EXIT_OK
    print("not equal", file=sys.stderr)
    print(diff.report(), file=sys.stderr)
    return EXIT_FALSE


# ---------------------------------------------------------------------------
# the command table

# the options every parser takes, before or after its subcommand; a SUPPRESS
# default keeps a subparser from resetting a value given before it, and `main`
# supplies the defaults the help texts name
_SHARED = [
    ("--mode", {"choices": ["ordered", "commutative"], "help": "semantics mode (default: ordered)"}),
    ("--max-atoms", {"type": _count, "metavar": "N", "help": "atom bound for enumerations (default: 5)"}),
    ("--nmax", {"type": _count, "metavar": "N",
                "help": "repetition bound for powers and closures (default: 3)"}),
]

_FILE = ("file", {})
_TERM = ("term", {})
_REGEX = ("regex", {})
_LEFT_RIGHT = [("left", {}), ("right", {})]

# group -> (handler, help, {subcommand: [(argument, add_argument keywords)]});
# equiv takes its arguments directly. Parsers are built in table order.
_COMMANDS = {
    "term": (_cmd_term, "term metrics and rewriting", {
        "metrics": [_TERM],
        "reverse": [_TERM],
        "canon": [_TERM],
        "enum": [("--alphabet", {"type": _alphabet, "default": "ab",
                                 "help": "letters to enumerate over (default: ab)"})],
    }),
    "lang": (_cmd_lang, "finite-language operations", {
        "concat": _LEFT_RIGHT,
        "par": _LEFT_RIGHT,
        "union": _LEFT_RIGHT,
        "equal": _LEFT_RIGHT,
        "power": [_FILE, ("--kind", {"choices": ["seq", "par"], "required": True}),
                  ("--n", {"type": _count, "default": None, "help": "exponent (default: --nmax)"})],
        "closure": [_FILE, ("--kind", {"choices": ["star", "par", "sp"], "required": True})],
        "reverse": [_FILE],
    }),
    "regex": (_cmd_regex, "regular-expression operations", {
        "match": [_REGEX, _TERM],
        "enum": [_REGEX, ("--alphabet", {"type": _alphabet, "default": None,
                                         "help": "letters (default: atoms of the regex)"})],
        "to-grammar": [_REGEX],
    }),
    "grammar": (_cmd_grammar, "grammar operations", {
        "classify": [_FILE],
        "generate": [_FILE],
        "member": [_FILE, _TERM, ("--trace", {"action": "store_true",
                                              "help": "print the derivation on success"})],
    }),
    "automaton": (_cmd_automaton, "branching-automaton operations", {
        "from-grammar": [_FILE],
        "accepts": [_FILE, _TERM],
        "enum": [_FILE, ("--alphabet", {"type": _alphabet, "default": None,
                                        "help": "letters (default: transition labels)"})],
    }),
    "equiv": (_cmd_equiv, "bounded grammar/automaton language equality", [_FILE]),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments) -> None:
    for name, keywords in arguments:
        parser.add_argument(name, **keywords)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_arguments(common, _SHARED)
    parser = argparse.ArgumentParser(prog="splang", parents=[common],
                                     description="series-parallel language workbench")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (_, help_text, commands) in _COMMANDS.items():
        p = groups.add_parser(group, parents=[common], help=help_text)
        if not isinstance(commands, dict):
            _add_arguments(p, commands)
            continue
        subs = p.add_subparsers(dest="sub", required=True)
        for name, arguments in commands.items():
            _add_arguments(subs.add_parser(name, parents=[common]), arguments)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(mode="ordered", max_atoms=5, nmax=3))
    try:
        args.mode = terms.SemanticsMode(args.mode)
        return _COMMANDS[args.group][0](args)
    except BrokenPipeError:
        # the reader is gone: the exit-time flush of stdout must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (SplangError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except Exception as exc:  # a bug: never a traceback, never exit 1 ("false")
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
