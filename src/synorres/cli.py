"""Command-line front end.

Subcommands: betti (Macaulay-layout table), resolve (resolution JSON plus
certification), lattice (lcm lattice dump with synor annotations), synor
(generator/embedding dump), shuffle-demo (expanded shuffle product of two
chains) and verify, whose four theorem drivers take only what they read:

    verify subadditivity INPUT
    verify decomposition INPUT
    verify lattices [--max N]             (default 7)
    verify properties [--seed S] [--max N] (defaults 1 and 25)

Every command also takes --field (q or a prime p) and --format
(text|json); a verify driver's options follow the driver name.

Ideal input is a file path, `-` for stdin, or an `@` corpus form:
@example62, @powers:n,a, @kpq:p,q, @random:seed,n,g,emax.  Exit codes:
0 success, 1 input error, 2 verification or certification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import (DimensionError, DomainError, ValidationError,
                      field_from_flag, parse_monomial)
from .corpus import (IdealSpec, ideal_example62, ideal_kpq, ideal_powers,
                     parse_ideal_text, random_ideal, random_poset)
from .poset import (LATTICE_ENUMERATION_CAP, LcmLattice, build_lcm_lattice,
                    lattice_hash, poset_to_json, without_bottom)
from .resolution import (_betti_from_ranks, betti_from_resolution,
                         certify_resolution, interval_ranks,
                         resolution_to_json, synor_resolution)
from .shuffle import shuffle_product
from .chains import FormalChain, all_homology_ranks, basis_homology
from .synor import build_synor_complex, synor_to_json, synors
from .verify import (TheoremContradiction, TopAnalysis,
                     check_bracket_vanishing,
                     check_shift_count_bound, check_subadditivity,
                     sweep_lattices, verify_intervals,
                     verify_lattice_instances)

REPRODUCER_PATH = "synorres-reproducer.json"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors, keeping 2 for verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# @name:args -> (number of integer args, maker)
_CORPUS_FORMS = {"example62": (0, ideal_example62),
                 "powers": (2, ideal_powers), "kpq": (2, ideal_kpq),
                 "random": (4, random_ideal)}


def load_ideal(source: str) -> IdealSpec:
    """Resolve a path, `-`, or an @corpus form into an IdealSpec."""
    if source.startswith("@"):
        name, _sep, argtext = source[1:].partition(":")
        args = [a for a in argtext.split(",") if a] if argtext else []
        try:
            ints = [int(a) for a in args]
        except ValueError:
            raise ValidationError(f"non-integer argument in {source!r}")
        arity, make = _CORPUS_FORMS.get(name, (None, None))
        if len(ints) == arity:
            return make(*ints)
        raise ValidationError(
            f"unknown corpus form {source!r}; expected @example62, "
            f"@powers:n,a, @kpq:p,q or @random:seed,n,g,emax")
    try:
        text = (sys.stdin.read() if source == "-"
                else Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ValidationError(
            f"{source}: not UTF-8 text ({e.reason} at offset {e.start})")
    variables, gens = parse_ideal_text(text)
    return IdealSpec("stdin" if source == "-" else source, variables, gens,
                     {})


def lattice_of(spec: IdealSpec) -> LcmLattice:
    return build_lcm_lattice(list(spec.generators), spec.variables)


def _emit(args, payload, text_lines: list[str]):
    """Print payload() as JSON under --format json, else text_lines;
    the payload is built only when it is printed."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_betti(args, L, field) -> int:
    table = betti_from_resolution(synor_resolution(L, field))
    t_line = "t: " + " ".join(str(x) for x in table.t_sequence())
    lines = [] if args.format == "json" else [table.text(), t_line]
    _emit(args, table.to_json, lines)
    return 0


def cmd_resolve(args, L, field) -> int:
    resolution = synor_resolution(L, field)
    report = certify_resolution(resolution, L, field)
    match = betti_from_resolution(resolution) == _betti_from_ranks(
        L, lambda m: interval_ranks(L, m, field))

    def payload():
        return {
            "resolution": resolution_to_json(resolution),
            "certification": {
                "ok": report.ok,
                "checks": [[name, good] for name, good in report.checks],
                "problems": report.problems,
            },
            "betti_match": match,
        }
    lines = ["ranks: " + " ".join(str(r) for r in resolution.ranks)]
    lines.extend(report.lines())
    lines.append(f"betti cross-check: {'ok' if match else 'MISMATCH'}")
    _emit(args, payload, lines)
    return 0 if report.ok and match else 2


def cmd_lattice(args, L, field) -> int:
    # m is an (i-1)-synor of multiplicity beta_{i,m}: the rank of reduced
    # homology in degree i - 2 of the open interval below m; rows are in
    # (m, i) order, which is lattice id order
    table = betti_from_resolution(synor_resolution(L, field))
    synor_rows = [[m.format(L.variables), i - 1, b] for m, i, b in sorted(
        (m, i, b) for (i, m), b in table.entries.items() if i >= 1)]
    digest = lattice_hash(L)

    def payload():
        return {**poset_to_json(L), "hash": digest, "synors": synor_rows}
    lines = [
        f"elements: {L.n}",
        f"hash: {digest}",
        "atoms: " + " ".join(L.format_label(a) for a in L.atoms),
        "synors (element, dim, multiplicity):",
    ]
    lines.extend(f"  {lab}  {i}  {mult}" for lab, i, mult in synor_rows)
    _emit(args, payload, lines)
    return 0


def cmd_synor(args, L, field) -> int:
    S = build_synor_complex(without_bottom(L), field)
    counts = {d: len(S.generators(d)) for d in S.dims()}
    lines = [f"generators by dimension: "
             f"{' '.join(f'{d}:{n}' for d, n in sorted(counts.items()))}"]
    lines.append(f"total rank: {S.total_rank()}")
    _emit(args, lambda: synor_to_json(S, variables=L.variables), lines)
    return 0


def _parse_chain(text: str, L: LcmLattice, field) -> FormalChain:
    """A decreasing chain given as monomials joined by `>`."""
    parts = [p.strip() for p in text.split(">")]
    ids = []
    for part in parts:
        mono = parse_monomial(part, L.variables)
        if mono not in L.index:
            raise ValidationError(
                f"{part!r} is not an element of the lcm lattice")
        ids.append(L.index[mono])
    for a, b in zip(ids, ids[1:]):
        if not L.lt(b, a):
            raise ValidationError(
                f"chain is not strictly decreasing at {text!r}")
    return FormalChain.single(tuple(ids), field)


def cmd_shuffle_demo(args, L, field) -> int:
    left = _parse_chain(args.left, L, field)
    right = _parse_chain(args.right, L, field)
    product = shuffle_product(left, right, L)
    terms = [
        [[L.format_label(v) for v in key], str(coeff)]
        for key, coeff in product.items()
    ]
    lines = [
        f"left dim {left.dim}, right dim {right.dim}, "
        f"product dim {product.dim}, {len(terms)} terms"
    ]
    for key, coeff in terms:
        lines.append(f"  {coeff:>4}  ({' > '.join(key)})")
    _emit(args, lambda: {"dim": product.dim, "terms": terms}, lines)
    return 0


def _verify_subadditivity(args, L, field) -> tuple[bool, list[str]]:
    table = betti_from_resolution(synor_resolution(L, field))
    pd = table.projective_dimension()
    ok = True
    lines = [f"projective dimension: {pd}",
             "t: " + " ".join(str(x) for x in table.t_sequence())]
    for i1 in range(0, pd + 1):
        for i2 in range(i1, pd + 1):
            for k in range(0, min(i1, i2) + 1):
                if i1 + i2 - k > pd:
                    continue
                rep = check_subadditivity(L, i1, i2, k, field, table)
                ok = ok and rep.ok
                head = rep.lines()[0]
                lines.append(
                    f"SUBADD i1={i1} i2={i2} k={k} "
                    f"RESULT={'pass' if rep.ok else 'fail'} {head}")
                lines.extend("  " + w for w in rep.lines()[1:])
            if i1 + i2 <= pd:
                rep = check_shift_count_bound(table, i1, i2)
                ok = ok and rep.ok
                lines.append(
                    f"ACOUNT i1={i1} i2={i2} "
                    f"RESULT={'pass' if rep.ok else 'fail'} {rep.lines()[0]}")
    return ok, lines


def _verify_decomposition(args, L, field) -> tuple[bool, list[str]]:
    analysis = TopAnalysis(L, field)  # one synor complex for both
    ok1, lines1 = verify_lattice_instances(analysis)
    ok2, lines2 = verify_intervals(analysis)
    return ok1 and ok2, lines1 + lines2


def _verify_lattices(args, L, field) -> tuple[bool, list[str]]:
    counts: dict[int, int] = {}
    ok, lines = sweep_lattices(args.max, field, counts)
    lines.append("lattices checked: " + " ".join(
        f"n={n}:{c}" for n, c in sorted(counts.items())))
    return ok, lines


def _verify_properties(args, L, field) -> tuple[bool, list[str]]:
    """Soundness spot-suite on random posets: generator counts against
    the simplicial oracle, homology of a restriction, bracket vanishing."""
    if args.max < 1:
        raise ValidationError(
            f"verify properties needs --max of at least 1 trial, "
            f"not {args.max}")
    ok = True
    lines = []
    for seed in range(args.seed, args.seed + args.max):
        P = random_poset(seed, 4 + (seed % 7))
        S = build_synor_complex(P, field)
        oracle = {(x, d): mult for x, d, mult in synors(P, field)}
        built = {}
        for d in S.dims():
            if d < 0:
                continue
            for g in S.generators(d):
                built[(g.element, g.dim)] = built.get((g.element, g.dim), 0) + 1
        counts_ok = built == oracle
        ideal = sorted(
            set(y for x in range(0, P.n, 2) for y in P.below_or_equal(x)))
        sub = S.restrict(ideal)
        simplicial = all_homology_ranks(P.sub(ideal), field)
        top_dim = max(sub.dims(), default=-1)
        ranks_ok = all(
            hb.rank == simplicial.get(hb.dim, 0)
            for hb in basis_homology(sub.generators,
                                     lambda g: S.delta[g].terms, field,
                                     range(-1, top_dim + 2), "synor"))
        bracket_rep = check_bracket_vanishing(S, field)
        good = counts_ok and ranks_ok and bracket_rep.ok
        ok = ok and good
        lines.append(
            f"POSET seed={seed} n={P.n} RESULT={'pass' if good else 'fail'} "
            f"counts={'ok' if counts_ok else 'BAD'} "
            f"restriction={'ok' if ranks_ok else 'BAD'} "
            f"brackets={'ok' if bracket_rep.ok else 'BAD'}")
    return ok, lines


def cmd_verify(args, L, field) -> int:
    ok, lines = args.driver(args, L, field)
    lines.append("all pass" if ok else "FAILURES above")
    _emit(args, lambda: {"ok": ok, "lines": lines}, lines)
    return 0 if ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each command's defaults carry
    its handler as `func` (and a verify driver's as `driver`) and its own
    parser as `parser`, which reports arguments it does not declare."""
    parser = _Parser(prog="synorres", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, help, takes_input=True, **defaults):
        p = subparsers.add_parser(name, help=help)
        if takes_input:
            p.add_argument("input", help="ideal file, `-`, or @corpus form")
        p.add_argument("--field", default="q",
                       help="q for rationals or a prime p")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(parser=p, **defaults)
        return p

    command(sub, "betti", "Betti table from the synor resolution",
            func=cmd_betti)
    command(sub, "resolve", "minimal resolution with certification",
            func=cmd_resolve)
    command(sub, "lattice", "lcm lattice dump with synors", func=cmd_lattice)
    command(sub, "synor", "synor complex generator dump", func=cmd_synor)
    p = command(sub, "shuffle-demo", "expanded shuffle product of two chains",
                func=cmd_shuffle_demo)
    p.add_argument("left", help="chain, monomials joined by `>`")
    p.add_argument("right", help="chain, monomials joined by `>`")

    drivers = sub.add_parser(
        "verify", help="theorem verification drivers").add_subparsers(
            dest="what", required=True)
    command(drivers, "subadditivity",
            "subadditivity of maximal shifts and the shift-count bound",
            func=cmd_verify, driver=_verify_subadditivity)
    command(drivers, "decomposition",
            "decomposition theorem at the top and in lower intervals",
            func=cmd_verify, driver=_verify_decomposition)
    p = command(drivers, "lattices",
                "decomposition on every lattice of up to --max elements",
                takes_input=False, func=cmd_verify, driver=_verify_lattices)
    p.add_argument("--max", type=int, default=7,
                   help=f"largest lattice size, 2 to "
                        f"{LATTICE_ENUMERATION_CAP} (default 7)")
    p = command(drivers, "properties", "synor soundness on random posets",
                takes_input=False, func=cmd_verify, driver=_verify_properties)
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first poset (default 1)")
    p.add_argument("--max", type=int, default=25,
                   help="number of posets (default 25)")
    return parser


def main(argv=None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        L = lattice_of(load_ideal(args.input)) if "input" in args else None
        return args.func(args, L, field_from_flag(args.field))
    except TheoremContradiction as e:
        payload = {"message": str(e)}
        payload.update(e.payload)
        Path(REPRODUCER_PATH).write_text(
            json.dumps(payload, indent=2, default=str))
        print(f"theorem contradiction: {e}", file=sys.stderr)
        print(f"reproducer written to {REPRODUCER_PATH}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError, DimensionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
