"""Reference argument parsing for the tests of ``cli.main``.

This is ``main``'s parse as it stood before it looked up the parser of
the command words at the start of argv: the whole command tree parses
every argv, and argparse collects the leftover arguments at the top, so
they are reported with the deepest command or mode parser that argv
names first.  One rule is added to it: a ``--`` where a command or mode
word is expected is a usage error, whatever the argparse release.
``cli.main`` must give the same exit code, handler arguments, stdout and
stderr for every argv.
"""

from __future__ import annotations

import argparse
import time

from invmatch import cli


def _below(parser) -> dict:
    """The command or mode parsers right below ``parser``, by name."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _usage_parser(parser, argv, args) -> argparse.ArgumentParser:
    """The deepest command or mode parser named at the start of ``argv``.
    argparse reports leftover arguments with the top-level usage, but
    each was left over by that parser or one below it."""
    for depth, name in enumerate([args.cmd, getattr(args, "mode", None)]):
        if argv[depth:depth + 1] != [name]:
            break
        parser = _below(parser)[name]
    return parser


def _refuse_dashes(parser, argv) -> None:
    """A ``--`` where a command or mode word is expected is a usage error
    of the parser that expects it.  argparse releases differ here: some
    drop that ``--`` and dispatch, others refuse it as an invalid choice."""
    for word in argv[:2]:
        below = _below(parser)
        if word == "--" and below:
            parser.error("a command or mode word must come before '--'")
        parser = below.get(word)
        if parser is None:
            return


def main(argv) -> int:
    """``cli.main``'s parse and dispatch, without its exception handlers:
    the tests that call it rebind every handler to one that records its
    arguments."""
    argv = list(argv)
    _refuse_dashes(cli.build_parser(), argv)
    args, extras = cli.build_parser().parse_known_args(argv)
    if extras:
        _usage_parser(cli.build_parser(), argv, args).error(
            "unrecognized arguments: " + " ".join(extras))
    args._t0 = time.perf_counter()
    return getattr(cli, "cmd_" + args.cmd.replace("-", "_"))(args)
