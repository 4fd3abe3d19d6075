"""Command-line surface.

Subcommands: analyze, match, involution, factors, band {check,harem,
involution}, colour {solve,reduce}, gen, search-q4, search-on.  Reports
are deterministic for a fixed (input, seed, version); timing is only
included on request so reruns stay byte-identical.

Exit codes: 0 ok, 2 parse error, 3 invalid algebra, 4 unmet
precondition, 5 search budget exhausted.  An unexpected exception, a
fault in this program rather than in its input, is reported on one
stderr line as ``internal error: <type>: <message>`` with exit code 4.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time

from . import bands, colours, core, matching, transformations
from .errors import (
    BudgetExhausted,
    EntryOutOfRange,
    InvmatchError,
    NotAssociative,
    ParseError,
)

SCHEMA = "invmatch/report-v1"
# the escaper json.dumps uses at its default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALGEBRA = 3
EXIT_PRECONDITION = 4
EXIT_BUDGET = 5

# the largest inputs --oracle cross-checks (larger ones skip the check):
# band check's scan of the 2^m row sets up to this longer side, search-q4's
# backtracking up to this many cells, and search-on's up to O_n for this n
BAND_ORACLE_MAX_SIDE = 16
Q4_ORACLE_MAX_CELLS = 12
ON_ORACLE_MAX_N = 3
# search-on lists every map of O_n: up to O_10 (92,378 maps) and no further
ON_MAX_MAPS = 100_000


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_algebra(path: str):
    """Band or Cayley file, auto-detected by the header token count: its
    semigroup and the report's ``input`` and ``order`` entries."""
    text = _read(path)
    if len(next(bands.content_lines(text), "").split()) == 2:
        # associative and in range by construction
        sg = bands.to_semigroup(bands.parse_band(text))
        kind = "band"
    else:
        sg = core.parse_cayley(text)
        core.validate(sg)
        kind = "cayley"
    return sg, {"input": {"kind": kind, "digest": _digest(text)},
                "order": sg.order}


def _require_positive(args, *names) -> None:
    """A size below 1 is a parse error: the run would have nothing to do."""
    for name in names:
        value = getattr(args, name.lstrip("-").replace("-", "_"))
        if value < 1:
            raise ParseError(f"{name} must be positive, got {value}")


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, but
    with each list of ints written by one ``str.join``: json's indented
    encoder is pure Python and visits every entry.  Lists and str-keyed
    dicts are laid out here, iteratively; strings go through json's own
    escaper, and any other value through json itself, re-indented (json
    escapes the newlines inside strings, so each raw newline is layout)."""
    out = []
    todo = [(obj, 0)]  # (value, depth) pairs and literal str chunks
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, depth = item
        kind = type(value)
        close = "\n" + "  " * depth
        pad = close + "  "
        if kind is str:
            out.append(_escape(value))
        elif kind is int:
            out.append(str(value))
        elif value is None or kind is bool:
            out.append("null" if value is None else "true" if value else "false")
        elif (isinstance(value, dict) and value
              and all(type(k) is str for k in value)):
            parts = ["{", pad]
            for k, x in sorted(value.items()):
                parts += [_escape(k) + ": ", (x, depth + 1), "," + pad]
            parts[-1] = close + "}"
            todo.extend(reversed(parts))
        elif isinstance(value, (list, tuple)) and value:
            if all(type(x) is int for x in value):
                out.append(f"[{pad}{(',' + pad).join(map(str, value))}{close}]")
                continue
            parts = ["[", pad]
            for x in value:
                parts += [(x, depth + 1), "," + pad]
            parts[-1] = close + "]"
            todo.extend(reversed(parts))
        else:
            text = json.dumps(value, sort_keys=True, indent=2)
            out.append(text.replace("\n", close))
    return "".join(out)


def _emit(args, payload: dict, human_lines, code: int = EXIT_OK) -> int:
    """Print the report of the command ``args`` names, as JSON under
    --json and as ``human_lines`` otherwise; return ``code``."""
    command = " ".join(filter(None, (args.cmd, getattr(args, "mode", None))))
    report = {"schema": SCHEMA, "command": command, **payload, "seed": args.seed}
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - args._t0) * 1000, 3)
    if args.json:
        print(_dumps(report))
    else:
        for line in human_lines:
            print(line)
    return code


def _disagreement(verdicts: dict) -> str:
    """The text marker for a verdict its --oracle cross-check refutes."""
    return " (ORACLE DISAGREES)" if verdicts.get("oracle_agrees") is False else ""


def _violator_payload(sg, viol) -> dict | None:
    if viol is None:
        return None
    return {
        "elements": list(viol.elements),
        "labels": sg.labels_of(viol.elements),
        "image": list(viol.image),
        "image_labels": sg.labels_of(viol.image),
    }


def _violator_line(sg, viol) -> str:
    """The violator A and its image V(A) by label, as ``A -> V(A)``."""
    return (" ".join(sg.labels_of(viol.elements)) + " -> "
            + " ".join(sg.labels_of(viol.image)))


# ---------------------------------------------------------------------------
# analyze / match / involution / factors


def cmd_analyze(args) -> int:
    sg, header = _load_algebra(args.path)
    struct = core.structure_report(sg)
    rep = matching.equivalence_report(sg)
    # an involution matching is a permutation matching: without one there
    # is nothing to search
    has_involution = rep.has_matching and (
        matching.involution_on_graph(
            matching.build_inverse_graph(sg), matching=rep.matching
        )
        is not None
    )
    payload = {
        **header,
        "structure": vars(struct),
        "d_class_sizes": sorted(len(b.elements) for b in sg.egg_box.d_classes),
        "verdicts": {
            "has_matching": rep.has_matching,
            "hall_condition": rep.hall_ok,
            "factor_verdicts": list(rep.factor_verdicts),
            "quotient_verdicts": list(rep.quotient_verdicts),
            "has_involution_matching": has_involution,
        },
        "witnesses": {
            "matching": list(rep.matching) if rep.matching else None,
            "h_preserving": list(rep.h_preserving) if rep.h_preserving else None,
            "hall_violator": _violator_payload(sg, rep.violator),
        },
    }
    human = [
        f"order {sg.order}; D-classes {payload['d_class_sizes']}",
        "structure: "
        + ", ".join(k for k, v in vars(struct).items() if v is True),
        f"permutation matching: {'present' if rep.has_matching else 'absent'}",
        f"involution matching: {'present' if has_involution else 'absent'}",
    ]
    if rep.violator is not None:
        human.append("hall violator: " + _violator_line(sg, rep.violator))
    return _emit(args, payload, human)


def cmd_match(args) -> int:
    sg, header = _load_algebra(args.path)
    p, viol = matching.hall_on_graph(matching.build_inverse_graph(sg))
    payload = {
        **header,
        "verdicts": {"has_matching": p is not None},
        "witnesses": {
            "matching": list(p) if p else None,
            "hall_violator": _violator_payload(sg, viol),
        },
    }
    if p is not None:
        human = ["present", matching.format_matching(p).rstrip()]
    else:
        human = ["absent", "violator: " + _violator_line(sg, viol)]
    return _emit(args, payload, human)


def cmd_involution(args) -> int:
    sg, header = _load_algebra(args.path)
    p = matching.find_involution_matching(sg)
    payload = {
        **header,
        "verdicts": {"has_involution_matching": p is not None},
        "witnesses": {"involution": list(p) if p else None},
    }
    if args.oracle:
        # over the search budget the report omits oracle_agrees
        with contextlib.suppress(BudgetExhausted):
            oracle = matching.involution_backtracking(sg)
            payload["verdicts"]["oracle_agrees"] = (oracle is None) == (p is None)
    human = [("present" if p else "absent") + _disagreement(payload["verdicts"])]
    if p:
        human.append(matching.format_matching(p).rstrip())
    return _emit(args, payload, human)


def cmd_factors(args) -> int:
    sg, header = _load_algebra(args.path)
    rows = []
    for d_class, (f, box) in enumerate(zip(sg.factors, sg.egg_box.d_classes)):
        rows.append(
            {
                "d_class": d_class,
                "size": len(f.members),
                "zero_adjoined": f.zero_adjoined,
                "quotient": f"{len(box.r_classes)}x{len(box.l_classes)}",
                "has_matching": matching.find_permutation_matching(f.semigroup)
                is not None,
            }
        )
    payload = {**header, "factors": rows}
    human = [
        f"factor {r['d_class']}: size {r['size']}"
        f"{' +0' if r['zero_adjoined'] else ''}, quotient {r['quotient']}, "
        f"matching {'present' if r['has_matching'] else 'absent'}"
        for r in rows
    ]
    return _emit(args, payload, human)


# ---------------------------------------------------------------------------
# band subcommands


def cmd_band(args) -> int:
    band = bands.parse_band(_read(args.path))
    digest = _digest(bands.format_band(band))
    payload = {"input": {"kind": "band", "digest": digest},
               "m": band.m, "n": band.n}
    if args.mode == "check":
        ok, violator = bands.check_harem_condition(band)
        payload["verdicts"] = {"condition_holds": ok}
        payload["witnesses"] = {
            "violator": {"side": violator[0], "indices": list(violator[1])}
            if violator
            else None
        }
        if args.oracle and max(band.m, band.n) <= BAND_ORACLE_MAX_SIDE:
            ok2, _ = bands.check_harem_condition_exhaustive(band)
            payload["verdicts"]["oracle_agrees"] = ok == ok2
        human = [("holds" if ok else f"fails on {violator[0]} {list(violator[1])}")
                 + _disagreement(payload["verdicts"])]
    elif args.mode == "harem":
        fam = bands.harem_family(band)
        payload["verdicts"] = {"family_exists": fam is not None}
        payload["witnesses"] = {
            "functions": [list(f) for f in fam.functions] if fam else None
        }
        human = (
            [f"pi_{t}: {list(f)}" for t, f in enumerate(fam.functions)]
            if fam
            else ["absent"]
        )
    else:  # involution
        result = bands.involution_from_harem(band)
        verified = result is not None and bands.verify_band_involution(
            band, result.matching
        )
        payload["verdicts"] = {
            "involution_exists": result is not None,
            "verified": verified,
        }
        payload["witnesses"] = {
            "involution": list(result.matching) if result else None,
            "column_order": list(result.column_order) if result else None,
        }
        human = (
            [matching.format_matching(result.matching).rstrip()]
            if result
            else ["absent"]
        )
    return _emit(args, payload, human)


# ---------------------------------------------------------------------------
# colour subcommands


def cmd_colour(args) -> int:
    _require_positive(args, "--budget")
    if args.mode == "solve":
        inst = colours.parse_instance(_read(args.path))
        kind, text, witnesses = "instance", colours.format_instance(inst), {}
    else:  # reduce: the instance of a band matching, found when not given
        band = bands.parse_band(_read(args.band))
        if args.matching:
            phi = matching.parse_matching(_read(args.matching), band.order)
        else:
            phi = matching.find_permutation_matching(band)
            if phi is None:
                print("band has no permutation matching", file=sys.stderr)
                return EXIT_PRECONDITION
        inst = colours.instance_from_matching(band, phi)
        kind, text = "band", bands.format_band(band)
        witnesses = {"matching": list(phi), "involution": None}
    result = colours.solve(inst, budget=args.budget)
    verdicts = {"status": result.status, "nodes": result.nodes}
    witnesses["plan"] = list(result.plan.pairing) if result.plan else None
    human = [result.status]
    if result.plan is not None and args.mode == "solve":
        verdicts["plan_verified"] = colours.verify_plan(inst, result.plan)
        human.append(colours.format_plan(result.plan).rstrip() or "(all vacuous)")
    elif result.plan is not None:  # the plan's induced involution
        inv = colours.involution_from_plan(band, inst, result.plan)
        witnesses["involution"] = list(inv)
        # involution_from_plan raised unless the band verifier passed it
        verdicts["involution_verified"] = True
        if not args.json:
            human.append(matching.format_matching(inv).rstrip())
    payload = {"input": {"kind": kind, "digest": _digest(text)},
               "m": inst.m, "n": inst.n,
               "verdicts": verdicts, "witnesses": witnesses}
    return _emit(args, payload, human,
                 EXIT_BUDGET if result.status == "budget_exhausted" else EXIT_OK)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    _require_positive(args, "n", "--cap")
    data = transformations.enumerate_family(args.family, args.n, cap=args.cap)
    if args.dict:  # first: a path it cannot write leaves stdout empty
        mapping = {
            str(i): [None if v >= data.n else v for v in f]
            for i, f in enumerate(data.maps)
        }
        with open(args.dict, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, sort_keys=True, indent=1)
            fh.write("\n")
    sys.stdout.write(core.format_cayley(data.semigroup))
    return EXIT_OK


# ---------------------------------------------------------------------------
# search-q4: bands with a matching but no involution matching


def _q4_band_verdict(band, use_oracle: bool):
    g = matching.build_inverse_graph(band)
    p = matching.matching_on_graph(g)
    if p is None:
        return {"matched": False}
    inv = matching.involution_on_graph(g, matching=p)
    out = {
        "matched": True,
        "involution": inv is not None,
        "separator": inv is None,
    }
    if use_oracle and band.m * band.n <= Q4_ORACLE_MAX_CELLS:
        oracle = matching.involution_backtracking(band)
        out["oracle_agrees"] = (oracle is not None) == (inv is not None)
        out["separator"] = out["separator"] or not out["oracle_agrees"]
    if out["separator"]:
        out["certificate"] = {
            "pattern": bands.format_band(band).splitlines(),
            "matching": list(p),
            "gadget_involution": list(inv) if inv else None,
        }
    return out


def cmd_search_q4(args) -> int:
    _require_positive(args, "--m-max", "--n-max", "--samples")
    try:
        densities = [float(d) for d in args.densities.split(",") if d]
    except ValueError as exc:
        raise ParseError(f"bad --densities: {args.densities!r}") from exc
    # 2**c <= limit iff c <= top, so no 2**c is built; only sampled shapes
    # read the densities, and the largest shape is sampled when any is
    top = max(args.exhaustive_limit, 0).bit_length() - 1
    if not densities and args.m_max * args.n_max > top:
        raise ParseError(
            f"--densities is empty, but shape {args.m_max}x{args.n_max} is sampled"
        )
    # in lexicographic order
    shapes = [(m, n) for m in range(1, args.m_max + 1)
              for n in range(1, args.n_max + 1)]
    per_shape = []
    separators = []
    for shape_index, (m, n) in enumerate(shapes):
        cells = m * n
        exhaustive = cells <= top
        # one band at a time: each keeps its inverse graph while it lives
        if exhaustive:
            total, orbits = 2**cells, bands.pattern_orbits(m, n)
        else:
            seed = args.seed + 7919 * shape_index
            total = len(densities) * args.samples
            orbits = (
                (bands.random_band(m, n, density, seed + 101 * di + k), 1)
                for di, density in enumerate(densities)
                for k in range(args.samples)
            )
        counts = {"total": total, "regular": 0, "matched": 0, "involution": 0}
        found = []
        for band, size in orbits:
            verdict = _q4_band_verdict(band, args.oracle)
            decided = [(size, verdict)]
            if verdict.get("separator") and size > 1:
                # a separating orbit is reported pattern by pattern
                decided = [(1, _q4_band_verdict(b, args.oracle))
                           for b in bands.orbit_members(band)]
            for weight, verdict in decided:
                counts["regular"] += weight
                if verdict["matched"]:
                    counts["matched"] += weight
                    counts["involution"] += weight * verdict["involution"]
                if verdict.get("separator"):
                    found.append({"m": m, "n": n, **verdict["certificate"]})
        if exhaustive:  # in pattern order: bit i*n + j is cell (i, j)
            found.sort(key=lambda c: int("".join(c["pattern"][1:])[::-1], 2))
        separators.extend(found)
        per_shape.append(
            {"m": m, "n": n, "mode": "exhaustive" if exhaustive else "sampled",
             **counts}
        )
    payload = {
        "input": {
            "kind": "params",
            "digest": _digest(
                f"q4 m<={args.m_max} n<={args.n_max} lim={args.exhaustive_limit} "
                f"densities={args.densities} samples={args.samples} seed={args.seed}"
            ),
        },
        "verdicts": {
            "separators_found": len(separators),
            "shapes": per_shape,
        },
        "witnesses": {"separators": separators},
    }
    human = [
        f"{r['m']}x{r['n']} [{r['mode']}]: regular {r['regular']}, "
        f"matched {r['matched']}, involution {r['involution']}"
        for r in per_shape
    ]
    human.append(f"separators: {len(separators)}")
    return _emit(args, payload, human)


# ---------------------------------------------------------------------------
# search-on: matching existence for order-preserving maps on a chain


def cmd_search_on(args) -> int:
    _require_positive(args, "--n-max")
    transformations.check_family_cap("On", args.n_max, ON_MAX_MAPS)
    results = []
    for n in range(1, args.n_max + 1):
        size, found, verified = transformations.on_verdict(n)
        row = {
            "n": n,
            "size": size,
            "size_formula": transformations.family_size("On", n),
            "has_matching": found,
            "matching_verified": verified,
        }
        if args.oracle and n <= ON_ORACLE_MAX_N:
            data = transformations.enumerate_family("On", n)
            oracle = matching.matching_backtracking(data.semigroup)
            row["oracle_agrees"] = (oracle is not None) == found
        results.append(row)
    payload = {
        "input": {
            "kind": "params",
            "digest": _digest(f"on n<={args.n_max}"),
        },
        "verdicts": {"families": results},
        "witnesses": {},
    }
    human = [
        f"O_{r['n']}: size {r['size']}, matching "
        f"{'present' if r['has_matching'] else 'absent'}"
        + ("" if r["matching_verified"] or not r["has_matching"] else " (UNVERIFIED)")
        + _disagreement(r)
        for r in results
    ]
    return _emit(args, payload, human)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the command tree by its command words: ``()``, then
    ``("colour",)``, ``("colour", "reduce")`` and so on.  A command or mode
    holds its words as its ``cmd`` and ``mode`` defaults, so it parses alone."""
    # option parents: each command and mode takes only what its handler reads
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="emit a JSON report")
    report.add_argument("--timing", action="store_true",
                        help="include timing in reports (breaks rerun identity)")
    report.add_argument("--seed", type=int, default=0,
                        help="base random seed, echoed in the report")
    oracle = argparse.ArgumentParser(add_help=False, parents=[report])
    oracle.add_argument("--oracle", action="store_true",
                        help="cross-check by exhaustive search on small inputs")
    budget = argparse.ArgumentParser(add_help=False, parents=[report])
    budget.add_argument("--budget", type=int, default=matching.BACKTRACKING_BUDGET,
                        help="node budget for the exact solver")

    parser = argparse.ArgumentParser(
        prog="invmatch",
        description="permutation and involution matchings on finite regular "
        "semigroups",
    )
    parsers = {(): parser}
    below = {(): parser.add_subparsers(dest="cmd", required=True)}

    def leaf(words, text, *parents):
        p = below[words[:-1]].add_parser(words[-1], parents=list(parents),
                                         help=text)
        p.set_defaults(**dict(zip(("cmd", "mode"), words)))
        parsers[words] = p
        return p

    for name, parent, text in [
        ("analyze", report, "full structural and matching report"),
        ("match", report, "decide permutation matching"),
        ("involution", oracle, "decide involution matching"),
        ("factors", report, "list principal factors"),
    ]:
        leaf((name,), text, parent).add_argument("path")
    for name, text in [("band", "idempotent-pattern operations"),
                       ("colour", "ball-exchange alignment")]:
        group = parsers[(name,)] = below[()].add_parser(name, help=text)
        below[(name,)] = group.add_subparsers(dest="mode", required=True)

    for name, parent, text in [
        ("check", oracle, "decide the scaled Hall conditions"),
        ("harem", report, "build the harem family"),
        ("involution", report, "build an involution matching from it"),
    ]:
        leaf(("band", name), text, parent).add_argument("path")

    p = leaf(("colour", "solve"), "solve an instance", budget)
    p.add_argument("path", help="instance file")
    p = leaf(("colour", "reduce"), "solve the instance of a band matching",
             budget)
    p.add_argument("--band", required=True, help="band file")
    p.add_argument("--matching", help="matching file (found when omitted)")

    p = leaf(("gen",), "emit a transformation family table")
    p.add_argument("family", choices=list(transformations.FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=transformations.FAMILY_CAP)
    p.add_argument("--dict", help="write an index -> images JSON sidecar")

    p = leaf(("search-q4",), "hunt bands with a matching but no involution",
             oracle)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--exhaustive-limit", type=int, default=4096,
                   help="enumerate all patterns when 2^(m*n) is at most this")
    p.add_argument("--densities", default="0.3,0.5,0.7")
    p.add_argument("--samples", type=int, default=20)

    p = leaf(("search-on",), "matching existence for order-preserving maps",
             oracle)
    p.add_argument("--n-max", type=int, default=8)

    return parsers


def build_parser() -> argparse.ArgumentParser:
    """The root of the command tree, built once per process."""
    return _parsers()[()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsers = _parsers()
    # the longest prefix of argv that names a parser (the tree is two deep)
    # parses the rest, as the parsers above it would hand it on
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1]), ()) if w in parsers)
    parser = parsers[words]
    rest = argv[len(words):]
    if rest[:1] == ["--"] and not parser.get_default("cmd"):
        # some argparse releases drop this "--" and others refuse it
        parser.error("a command or mode word must come before '--'")
    args = parser.parse_args(rest)
    args._t0 = time.perf_counter()
    try:
        # looked up per call: the parser is shared, its handlers rebindable
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EntryOutOfRange, NotAssociative) as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return EXIT_ALGEBRA
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvmatchError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # a fault of this program: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
