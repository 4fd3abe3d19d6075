"""Reference argument parsing for the tests of ``cli.main``.

This is ``main``'s parse as it stood before it looked up the parser of
the command words at the start of argv: the whole command tree parses
every argv, and argparse collects the leftover arguments at the top, so
they are reported with the deepest command or mode parser that argv
names first.  ``cli.main`` must give the same exit code, handler
arguments, stdout and stderr for every argv.
"""

from __future__ import annotations

import argparse
import time

from invmatch import cli


def _usage_parser(parser, argv, args) -> argparse.ArgumentParser:
    """The deepest command or mode parser named at the start of ``argv``.
    argparse reports leftover arguments with the top-level usage, but
    each was left over by that parser or one below it."""
    for depth, name in enumerate([args.cmd, getattr(args, "mode", None)]):
        if argv[depth:depth + 1] != [name]:
            break
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


def main(argv) -> int:
    """``cli.main``'s parse and dispatch, without its exception handlers:
    the tests that call it rebind every handler to one that records its
    arguments."""
    argv = list(argv)
    args, extras = cli.build_parser().parse_known_args(argv)
    if extras:
        _usage_parser(cli.build_parser(), argv, args).error(
            "unrecognized arguments: " + " ".join(extras))
    args._t0 = time.perf_counter()
    return getattr(cli, "cmd_" + args.cmd.replace("-", "_"))(args)
