"""The synorres functions the traced run wraps, and the counters they feed.

Names follow the package's modules (``poset``, ``synor``, ``linalg``,
``chains``, ``resolution``, ``shuffle``, ``verify``, ``cli``).  Each span
probe yields ``<layer>.<fn>.calls``, ``.s`` (inclusive busy time) and
``.self_s`` (busy time minus child spans).  The counters below repeat
exactly between runs of one seed; ratios are reported with their bases.
"""

from __future__ import annotations

from fractions import Fraction

from tracer import Probe


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sized(args, kwargs, pos, name):
    """Materialize an argument that may be a one-shot iterable, so a hook
    can measure it without consuming what the callee will read."""
    value = _arg(args, kwargs, pos, name)
    if hasattr(value, "__len__"):
        return value, args, kwargs
    value = list(value)
    if len(args) > pos:
        args = args[:pos] + (value,) + args[pos + 1:]
    else:
        kwargs = dict(kwargs, **{name: value})
    return value, args, kwargs


# --- poset ---

def _lattice_built(t, args, kwargs, result):
    t.add("poset.elements", result.n)


def _enumerated(t, args, kwargs, item):
    t.add("poset.enumerate.unique")


def _canonical_pre(t, args, kwargs):
    # a canonical form taken inside the enumeration is one candidate
    if t.active("poset.enumerate_lattices"):
        t.add("poset.enumerate.candidates")


# --- synor ---

def _synor_built(t, args, kwargs, S):
    t.add("synor.generators",
          sum(len(g) for d, g in S.gens_by_dim.items() if d >= 0))
    if isinstance(S.field.zero, Fraction):
        bits = 0
        for chain in S.delta.values():
            for v in chain.terms.values():
                bits = max(bits, v.numerator.bit_length(),
                           v.denominator.bit_length())
        t.maximum("synor.coeff_bits_max", bits)


def _restrict_pre(t, args, kwargs):
    ideal, args, kwargs = _sized(args, kwargs, 1, "ideal_ids")
    t.add("synor.restrict.pair_checks",
          len(set(ideal)) * len(args[0].element_set))
    return args, kwargs


def _rho_pre(t, args, kwargs):
    S, key = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "key")
    if tuple(int(x) for x in key) in S._rho:
        t.add("synor.rho.memo_hits")


# --- linalg ---

def _columns_pre(pos, name):
    def pre(t, args, kwargs):
        if t.layer_depth["linalg"]:
            return None
        cols, args, kwargs = _sized(args, kwargs, pos, name)
        t.add("linalg.columns", len(cols))
        t.add("linalg.nnz", sum(len(c) for c in cols))
        return args, kwargs
    return pre


def _homology_of_complex_pre(t, args, kwargs):
    if t.layer_depth["linalg"]:
        return None
    for pos, name in ((0, "boundary_cols_k"), (1, "boundary_cols_k_plus")):
        cols, args, kwargs = _sized(args, kwargs, pos, name)
        t.add("linalg.columns", len(cols))
        t.add("linalg.nnz", sum(len(c) for c in cols))
    return args, kwargs


def _insert_pre(t, args, kwargs):
    if not t.layer_depth["linalg"]:
        t.add("linalg.columns")
        t.add("linalg.nnz", len(_arg(args, kwargs, 1, "vec")))


def _insert_post(t, args, kwargs, pivot):
    if pivot is not None:
        t.add("linalg.insert.independent")


# --- chains ---

def _homology_pre(t, args, kwargs):
    # homology(P, k) builds the boundary matrices of degrees k and k + 1;
    # they depend on P's order relation only, not on its labels
    P, k = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "k")
    order = (P.leq.shape, P.leq.tobytes())
    t.add("chains.matrices", 2)
    t.note("chains.matrices", (order, k))
    t.note("chains.matrices", (order, k + 1))


# --- resolution ---

def _intervals_pre(t, args, kwargs):
    t.add("resolution.intervals", _arg(args, kwargs, 0, "L").n - 1)


# --- shuffle ---

def _tau_post(t, args, kwargs, key):
    t.add("shuffle.tau_evals")
    if all(key[p] != key[p + 1] for p in range(len(key) - 1)):
        t.add("shuffle.kept")


# --- verify ---

def _topanalysis_pre(t, args, kwargs):
    L = _arg(args, kwargs, 1, "L")
    t.add("verify.topanalysis.builds")
    t.note("verify.topanalysis", (L.leq.shape, L.leq.tobytes(), repr(L.labels)))


def _report_post(t, args, kwargs, report):
    t.add("verify.instances")
    if report.ok:
        t.add("verify.passes")


def _lines_post(t, args, kwargs, result):
    _ok, lines = result
    for line in lines:
        if "RESULT=" in line:
            t.add("verify.instances")
            if "RESULT=pass" in line:
                t.add("verify.passes")


def probes() -> list[Probe]:
    P = "synorres."
    return [
        Probe("poset.build_lcm_lattice", P + "poset", "build_lcm_lattice",
              post=_lattice_built),
        Probe("poset.lattice_tables", P + "poset", "_lattice_tables"),
        Probe("poset.linear_extension", P + "poset", "Poset.linear_extension"),
        Probe("poset.sub", P + "poset", "Poset.sub"),
        Probe("poset.enumerate_lattices", P + "poset", "enumerate_lattices",
              post=_enumerated),
        Probe("poset.canonical_form", P + "poset", "canonical_form",
              pre=_canonical_pre),
        Probe("synor.build_synor_complex", P + "synor", "build_synor_complex",
              post=_synor_built),
        Probe("synor.restrict", P + "synor", "SynorComplex.restrict",
              pre=_restrict_pre),
        Probe("synor.homology", P + "synor", "SynorComplex.homology"),
        Probe("synor.synors", P + "synor", "synors"),
        Probe("synor.rho", P + "synor", "rho", pre=_rho_pre),
        Probe("synor.homologous_in_pair", P + "synor", "homologous_in_pair"),
        Probe("linalg.homology_of_complex", P + "linalg", "homology_of_complex",
              pre=_homology_of_complex_pre),
        Probe("linalg.kernel_basis", P + "linalg", "kernel_basis",
              pre=_columns_pre(0, "columns")),
        Probe("linalg.rank_of", P + "linalg", "rank_of",
              pre=_columns_pre(0, "columns")),
        Probe("linalg.solve", P + "linalg", "solve",
              pre=_columns_pre(0, "columns")),
        Probe("linalg.insert", P + "linalg", "Reducer.insert",
              pre=_insert_pre, post=_insert_post),
        Probe("chains.homology", P + "chains", "homology", pre=_homology_pre),
        Probe("chains.all_homology_ranks", P + "chains", "all_homology_ranks"),
        Probe("resolution.synor_resolution", P + "resolution",
              "synor_resolution"),
        Probe("resolution.certify_resolution", P + "resolution",
              "certify_resolution"),
        Probe("resolution.betti_from_intervals", P + "resolution",
              "betti_from_intervals", pre=_intervals_pre),
        Probe("shuffle.shuffle_product", P + "shuffle", "shuffle_product"),
        Probe("shuffle.tau", P + "shuffle", "tau", post=_tau_post, span=False),
        Probe("verify.check_subadditivity", P + "verify", "check_subadditivity",
              post=_report_post),
        Probe("verify.interval_witness", P + "verify", "_interval_witness"),
        Probe("verify.bruteforce", P + "verify", "TopAnalysis.bruteforce"),
        Probe("verify.constructive", P + "verify", "TopAnalysis.constructive"),
        Probe("verify.witness_verify", P + "verify",
              "DecompositionWitness.verify"),
        Probe("verify.verify_intervals", P + "verify", "verify_intervals",
              post=_lines_post),
        Probe("verify.verify_lattice_instances", P + "verify",
              "verify_lattice_instances", post=_lines_post),
        Probe("verify.topanalysis_init", P + "verify", "TopAnalysis.__init__",
              pre=_topanalysis_pre, span=False),
        Probe("cli.main", P + "cli", "main"),
    ]


COUNTS = ["poset.elements", "poset.enumerate.candidates",
          "poset.enumerate.unique", "synor.generators",
          "synor.restrict.pair_checks", "synor.coeff_bits_max",
          "linalg.columns", "linalg.nnz", "resolution.intervals",
          "shuffle.tau_evals", "verify.topanalysis.builds",
          "verify.instances"]


def ratio_bases(t) -> dict[str, list]:
    """[numerator, denominator] of every ratio metric."""
    g = t.counters.get
    distinct = {k: len(v) for k, v in t.distinct.items()}
    return {
        "poset.enumerate.yield_ratio": [g("poset.enumerate.unique", 0),
                                        g("poset.enumerate.candidates", 0)],
        "synor.rho.memo_hit_ratio": [g("synor.rho.memo_hits", 0),
                                     t.calls["synor.rho"]],
        "linalg.insert.independent_ratio": [g("linalg.insert.independent", 0),
                                            t.calls["linalg.insert"]],
        "chains.matrix_distinct_ratio": [distinct.get("chains.matrices", 0),
                                         g("chains.matrices", 0)],
        "shuffle.kept_ratio": [g("shuffle.kept", 0), g("shuffle.tau_evals", 0)],
        "verify.topanalysis.distinct_ratio": [
            distinct.get("verify.topanalysis", 0),
            g("verify.topanalysis.builds", 0)],
        "verify.pass_ratio": [g("verify.passes", 0), g("verify.instances", 0)],
    }


def counter_metrics(t) -> dict[str, float]:
    """The per-layer counts and ratios (0 where the base is 0)."""
    out = {name: t.counters.get(name, 0) for name in COUNTS}
    for name, (num, den) in ratio_bases(t).items():
        out[name] = num / den if den else 0.0
    return out
