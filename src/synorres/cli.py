"""Command-line front end.

Subcommands: betti (Macaulay-layout table), resolve (resolution JSON plus
certification), lattice (lcm lattice dump with synor annotations), synor
(generator/embedding dump), verify (theorem drivers), shuffle-demo
(expanded shuffle product of two chains).

Ideal input is a file path, `-` for stdin, or an `@` corpus form:
@example62, @powers:n,a, @kpq:p,q, @random:seed,n,g,emax.  Exit codes:
0 success, 1 input error, 2 verification or certification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import (DimensionError, DomainError, ValidationError,
                      field_from_flag, parse_monomial)
from .corpus import (IdealSpec, ideal_example62, ideal_kpq, ideal_powers,
                     parse_ideal_text, random_ideal, random_poset)
from . import poset
from .poset import (LcmLattice, build_lcm_lattice, lattice_hash,
                    poset_to_json, without_bottom)
from .resolution import (betti_from_intervals, betti_from_resolution,
                         certify_resolution, resolution_to_json,
                         synor_resolution)
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


def load_ideal(source: str) -> IdealSpec:
    """Resolve a path, `-`, or an @corpus form into an IdealSpec."""
    if source == "-":
        variables, gens = parse_ideal_text(sys.stdin.read())
        return IdealSpec("stdin", variables, gens, {})
    if source.startswith("@"):
        name, _sep, argtext = source[1:].partition(":")
        args = [a for a in argtext.split(",") if a] if argtext else []
        try:
            ints = [int(a) for a in args]
        except ValueError:
            raise ValidationError(f"non-integer argument in {source!r}")
        if name == "example62" and not ints:
            return ideal_example62()
        if name == "powers" and len(ints) == 2:
            # its lcm lattice is the Boolean lattice B_n, of 2^n elements
            if ints[0] >= poset.LCM_LATTICE_CAP.bit_length():
                raise DomainError(
                    f"{source}: refusing to build an lcm lattice with more "
                    f"than {poset.LCM_LATTICE_CAP} elements (2^{ints[0]})")
            return ideal_powers(*ints)
        if name == "kpq" and len(ints) == 2:
            return ideal_kpq(*ints)
        if name == "random" and len(ints) == 4:
            return random_ideal(*ints)
        raise ValidationError(
            f"unknown corpus form {source!r}; expected @example62, "
            f"@powers:n,a, @kpq:p,q or @random:seed,n,g,emax")
    text = Path(source).read_text()
    variables, gens = parse_ideal_text(text)
    return IdealSpec(source, variables, gens, {})


def lattice_of(spec: IdealSpec) -> LcmLattice:
    return build_lcm_lattice(list(spec.generators), spec.variables)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_betti(args) -> int:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
    table = betti_from_resolution(synor_resolution(L, field))
    t_line = "t: " + " ".join(str(x) for x in table.t_sequence())
    _emit(args, table.to_json(), [table.text(), t_line])
    return 0


def cmd_resolve(args) -> int:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
    resolution = synor_resolution(L, field)
    report = certify_resolution(resolution, L, field)
    match = betti_from_resolution(resolution) == betti_from_intervals(L, field)
    payload = {
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


def cmd_lattice(args) -> int:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
    # x is an (i-1)-synor of multiplicity beta_{i,x}: the rank of reduced
    # homology in degree i - 2 of the open interval below x
    table = betti_from_resolution(synor_resolution(L, field))
    pd = table.projective_dimension()
    synor_rows = [
        [L.format_label(x), i - 1, b]
        for x in range(L.n) if x != L.bottom
        for i in range(1, pd + 1)
        if (b := table.beta(i, L.monomials[x]))
    ]
    payload = poset_to_json(L)
    payload["hash"] = lattice_hash(L)
    payload["synors"] = synor_rows
    lines = [
        f"elements: {L.n}",
        f"hash: {payload['hash']}",
        "atoms: " + " ".join(L.format_label(a) for a in L.atoms),
        "synors (element, dim, multiplicity):",
    ]
    lines.extend(f"  {lab}  {i}  {mult}" for lab, i, mult in synor_rows)
    _emit(args, payload, lines)
    return 0


def cmd_synor(args) -> int:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
    S = build_synor_complex(without_bottom(L), field)
    payload = synor_to_json(S, variables=L.variables)
    counts = {d: len(S.generators(d)) for d in S.dims()}
    lines = [f"generators by dimension: "
             f"{' '.join(f'{d}:{n}' for d, n in sorted(counts.items()))}"]
    lines.append(f"total rank: {S.total_rank()}")
    _emit(args, payload, lines)
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


def cmd_shuffle_demo(args) -> int:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
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
    _emit(args, {"dim": product.dim, "terms": terms}, lines)
    return 0


def _verify_subadditivity(args) -> tuple[bool, list[str]]:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
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


def _verify_decomposition(args) -> tuple[bool, list[str]]:
    L = lattice_of(load_ideal(args.input))
    field = field_from_flag(args.field)
    analysis = TopAnalysis(L, field)  # one synor complex for both
    ok1, lines1 = verify_lattice_instances(L, field, analysis)
    ok2, lines2 = verify_intervals(L, field, analysis.S)
    return ok1 and ok2, lines1 + lines2


def _verify_lattices(args) -> tuple[bool, list[str]]:
    field = field_from_flag(args.field)
    max_n = args.max if args.max is not None else 7
    counts: dict[int, int] = {}
    ok, lines = sweep_lattices(max_n, field, counts)
    lines.append("lattices checked: " + " ".join(
        f"n={n}:{c}" for n, c in sorted(counts.items())))
    return ok, lines


def _verify_properties(args) -> tuple[bool, list[str]]:
    """Soundness spot-suite on random posets: generator counts against
    the simplicial oracle, homology of a restriction, bracket vanishing."""
    field = field_from_flag(args.field)
    count = args.max if args.max is not None else 25
    if count < 1:
        raise ValidationError(
            f"verify properties needs --max of at least 1 trial, not {count}")
    base = args.seed
    ok = True
    lines = []
    for trial in range(count):
        seed = base + trial
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


def cmd_verify(args) -> int:
    runner = {
        "subadditivity": _verify_subadditivity,
        "decomposition": _verify_decomposition,
        "lattices": _verify_lattices,
        "properties": _verify_properties,
    }[args.what]
    ok, lines = runner(args)
    payload = {"ok": ok, "lines": lines}
    lines.append("all pass" if ok else "FAILURES above")
    _emit(args, payload, lines)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synorres", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="ideal file, `-`, or @corpus form")
        p.add_argument("--field", default="q",
                       help="q for rationals or a prime p")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("betti",
                       help="Betti table from the synor resolution")
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("resolve",
                       help="minimal resolution with certification")
    common(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("lattice", help="lcm lattice dump with synors")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("synor", help="synor complex generator dump")
    common(p)
    p.set_defaults(func=cmd_synor)

    p = sub.add_parser("shuffle-demo",
                       help="expanded shuffle product of two chains")
    common(p)
    p.add_argument("left", help="chain, monomials joined by `>`")
    p.add_argument("right", help="chain, monomials joined by `>`")
    p.set_defaults(func=cmd_shuffle_demo)

    p = sub.add_parser("verify", help="theorem verification drivers")
    p.add_argument("what", choices=["subadditivity", "decomposition",
                                    "lattices", "properties"])
    p.add_argument("input", nargs="?",
                   help="ideal input (subadditivity/decomposition)")
    p.add_argument("--field", default="q")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "what", None) in ("subadditivity", "decomposition") \
            and not args.input:
        print("error: this verifier needs an ideal input", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except TheoremContradiction as e:
        payload = {"message": str(e)}
        payload.update(e.payload)
        Path(REPRODUCER_PATH).write_text(
            json.dumps(payload, indent=2, default=str))
        print(f"theorem contradiction: {e}", file=sys.stderr)
        print(f"reproducer written to {REPRODUCER_PATH}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
