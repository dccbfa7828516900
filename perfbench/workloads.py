"""Workload inputs, jobs and output checks.

A workload turns a seed into inputs (`setup`), then into a list of jobs.
Each job is one timed call into synorres whose output is checked twice:
byte for byte against a golden captured from a known-good commit, and
against a reference that does not come from the code under test (binomial
ranks of the Boolean lattice, the Scarf complex of a generic ideal, the
paper's example62 numbers, OEIS A006966 lattice counts).
"""

from __future__ import annotations

import contextlib
import io
import random
from math import comb
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"
PRIME = 32003

# Generic ideals: GENERIC_VARS variables, GENERIC_GENS generators; the
# lcm lattice size is held in a narrow band so that the seed changes the
# ideal but barely the cost of resolving it.
GENERIC_VARS = 6
GENERIC_GENS = 9
GENERIC_ZERO_CHANCE = 0.4
GENERIC_BAND = (200, 240)
GENERIC_MAX_DRAWS = 20000

# OEIS A006966: lattices on n unlabeled elements, n = 2..8
LATTICE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}
EXAMPLE62_TOTALS = (1, 6, 11, 10, 5, 1)
EXAMPLE62_T = (0, 5, 6, 4, 5, 6)


def kpq_t(p: int, q: int) -> tuple:
    """Maximal shifts of the kpq ideal: two ramps, p+1+k for k <= q+1,
    then q+1+k up to k = p+1."""
    return (0, *(p + 1 + k for k in range(1, q + 2)),
            *(q + 1 + k for k in range(q + 2, p + 2)))


class Job:
    """One timed call.  run() returns the output text; check(text) lists
    its problems against references; golden is the file the output must
    equal byte for byte, if any; group names the end-to-end metric the
    job's time is summed into, if any."""

    def __init__(self, name, group, run, check, golden=None):
        self.name = name
        self.group = group
        self.run = run
        self.check = check
        self.golden = golden

    def problems(self, text: str) -> list[str]:
        out = self.check(text)
        if self.golden is not None:
            out += compare_golden(self.golden, text)
        return out


# --- the generic ideal ---

def _lcm_closure_size(gens) -> int:
    elems = {tuple([0] * len(gens[0]))} | set(gens)
    frontier = list(elems)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                c = tuple(max(a, b) for a, b in zip(m, g))
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return len(elems)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def generic_ideal(seed: int) -> dict:
    """A strongly generic, non-squarefree monomial ideal drawn from seed.

    In every variable the nonzero exponents of distinct generators differ
    (exponents are a random permutation of 1..g, some zeroed), so by
    Bayer-Peeva-Sturmfels the Scarf complex is its minimal resolution.
    Draws repeat until the generators form an antichain whose lcm lattice
    size lies in GENERIC_BAND.
    """
    rng = random.Random(seed)
    lo, hi = GENERIC_BAND
    for draw in range(1, GENERIC_MAX_DRAWS + 1):
        cols = []
        for _v in range(GENERIC_VARS):
            exps = rng.sample(range(1, GENERIC_GENS + 1), GENERIC_GENS)
            cols.append([0 if rng.random() < GENERIC_ZERO_CHANCE else e
                         for e in exps])
        gens = [tuple(col[i] for col in cols) for i in range(GENERIC_GENS)]
        if any(not any(g) for g in gens):
            continue
        if any(i != j and _divides(a, b)
               for i, a in enumerate(gens) for j, b in enumerate(gens)):
            continue
        size = _lcm_closure_size(gens)
        if lo <= size <= hi:
            return {"seed": seed, "draws": draw, "elements": size,
                    "variables": [f"x{i + 1}" for i in range(GENERIC_VARS)],
                    "generators": [list(g) for g in sorted(gens)]}
    raise RuntimeError(f"no generic ideal in band after {GENERIC_MAX_DRAWS} draws")


def scarf_betti(gens) -> dict:
    """{(i, exponents): count} of the Scarf complex: one entry per subset
    of generators whose lcm no other subset shares, in homological degree
    equal to the subset size."""
    lcm_count: dict = {}
    lcms = {}
    n = len(gens)
    for mask in range(1 << n):
        exps = tuple(max((gens[i][v] for i in range(n) if mask >> i & 1),
                         default=0) for v in range(len(gens[0])))
        lcms[mask] = exps
        lcm_count[exps] = lcm_count.get(exps, 0) + 1
    out: dict = {}
    for mask, exps in lcms.items():
        if lcm_count[exps] == 1:
            key = (bin(mask).count("1"), exps)
            out[key] = out.get(key, 0) + 1
    return out


# --- checks ---

def golden_path(workload: str, job: str) -> Path:
    return GOLDENS / workload / (job.replace(" ", "_").replace("@", "")
                                 .replace(":", "-").replace(",", "-") + ".txt")


def compare_golden(path: Path, text: str) -> list[str]:
    if not path.is_file():
        return [f"missing golden {path.name}"]
    want = path.read_bytes()
    got = text.encode()
    if got == want:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    return [f"output differs from golden {path.name} at byte {at}"]


def _all_pass(text: str) -> list[str]:
    problems = []
    results = [ln for ln in text.splitlines() if "RESULT=" in ln]
    if not results:
        problems.append("no RESULT lines")
    if any("RESULT=pass" not in ln for ln in results):
        problems.append("a RESULT line is not a pass")
    if text.splitlines()[-1:] != ["all pass"]:
        problems.append("last line is not 'all pass'")
    return problems


def _totals_and_t(text: str, totals, t) -> list[str]:
    problems = []
    total_line = "total: " + " ".join(str(x) for x in totals)
    if not any(" ".join(ln.split()) == total_line for ln in text.splitlines()):
        problems.append(f"totals are not {totals}")
    if "t: " + " ".join(str(x) for x in t) not in text.splitlines():
        problems.append(f"t-sequence is not {t}")
    return problems


# --- resolve-ladder ---

def _entry_lines(entries) -> list[str]:
    """Multigraded Betti numbers as sorted 'b <i> <exponents> <count>'."""
    return [f"b {i} {','.join(map(str, exps))} {v}"
            for (i, exps), v in sorted(entries.items())]


def _ladder_text(R, report, table) -> str:
    entries = {(i, m.exps): v for (i, m), v in table.entries.items()}
    return "\n".join(["ranks: " + " ".join(str(r) for r in R.ranks),
                      *report.lines(), table.text(),
                      "t: " + " ".join(str(x) for x in table.t_sequence()),
                      *_entry_lines(entries)]) + "\n"


def ladder_inputs(synorres, seed: int) -> dict:
    generic = generic_ideal(seed)
    specs = {
        "kpq-7-3": synorres.ideal_kpq(7, 3),
        "powers-9-1": synorres.ideal_powers(9, 1),
        "generic": synorres.IdealSpec(
            f"generic({seed})", tuple(generic["variables"]),
            tuple(synorres.Monomial(tuple(g)) for g in generic["generators"]),
            {}),
    }
    return {"specs": specs, "generic": generic}


def ladder_jobs(synorres, inputs) -> list[Job]:
    fields = {"qq": synorres.RationalField(), "gf": synorres.PrimeField(PRIME)}
    generic = inputs["generic"]
    references = {
        "kpq-7-3": {"elements": 269, "t": kpq_t(7, 3)},
        "powers-9-1": {"elements": 2 ** 9,
                       "ranks": tuple(comb(9, i) for i in range(10))},
        "generic": {"elements": generic["elements"],
                    "scarf": scarf_betti([tuple(g) for g in
                                          generic["generators"]])},
    }
    lattices: dict = {}
    jobs = []
    for name, spec in inputs["specs"].items():
        ref = references[name]

        def build(spec=spec, name=name):
            L = synorres.build_lcm_lattice(list(spec.generators),
                                           spec.variables)
            lattices[name] = L
            return f"elements: {L.n}\n"

        def check_build(text, ref=ref):
            want = f"elements: {ref['elements']}\n"
            return [] if text == want else [f"lattice size: {text.strip()}"]

        jobs.append(Job(f"build {name}", None, build, check_build))
        for fname, field in fields.items():
            def resolve(name=name, field=field):
                L = lattices[name]
                R = synorres.synor_resolution(L, field)
                report = synorres.certify_resolution(R, L, field)
                return _ladder_text(R, report, synorres.betti_from_resolution(R))

            golden = None if "scarf" in ref else golden_path(
                "resolve-ladder", f"{name}.{fname}")

            def check(text, ref=ref):
                lines = text.splitlines()
                problems = []
                if "certified" not in lines:
                    problems.append("resolution not certified")
                if "ranks" in ref and lines[0] != (
                        "ranks: " + " ".join(str(r) for r in ref["ranks"])):
                    problems.append("ranks are not binomial(9, i)")
                if "t" in ref and "t: " + " ".join(map(str, ref["t"])) not in lines:
                    problems.append(f"t-sequence is not {ref['t']}")
                if "scarf" in ref:
                    got = [ln for ln in lines if ln.startswith("b ")]
                    if got != _entry_lines(ref["scarf"]):
                        problems.append("Betti numbers differ from the Scarf complex")
                return problems

            jobs.append(Job(f"resolve {name} {fname}", f"resolve_{fname}_s",
                            resolve, check, golden))
    return jobs


# --- cli-example and lattice-sweep ---

def cli_output(synorres, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = synorres.cli.main(list(argv))
    return buf.getvalue() + f"exit {code}\n"


CLI_COMMANDS = [
    ("betti_s", "betti @example62"),
    ("resolve_s", "resolve @kpq:4,3"),
    ("subadd_s", "verify subadditivity @example62"),
    ("decomp_s", "verify decomposition @kpq:3,2"),
]
SWEEP_COMMAND = "verify lattices --max 8"


def _cli_references(command: str, text: str) -> list[str]:
    body = text.rsplit("exit ", 1)[0]
    problems = [] if text.endswith("exit 0\n") else ["nonzero exit"]
    if command.startswith("betti @example62"):
        problems += _totals_and_t(body, EXAMPLE62_TOTALS, EXAMPLE62_T)
    elif command.startswith("resolve"):
        lines = body.splitlines()
        if "certified" not in lines:
            problems.append("resolution not certified")
        if "betti cross-check: ok" not in lines:
            problems.append("betti cross-check failed")
    else:
        problems += _all_pass(body)
        if "subadditivity @example62" in command and \
                "t: " + " ".join(map(str, EXAMPLE62_T)) not in body.splitlines():
            problems.append(f"t-sequence is not {EXAMPLE62_T}")
        if command.startswith("verify lattices"):
            want = "lattices checked: " + " ".join(
                f"n={n}:{c}" for n, c in sorted(LATTICE_COUNTS.items()))
            if want not in body.splitlines():
                problems.append("lattice counts differ from OEIS A006966")
    return problems


def command_jobs(synorres, workload: str, commands) -> list[Job]:
    jobs = []
    for group, command in commands:
        def run(command=command):
            return cli_output(synorres, command.split())

        def check(text, command=command):
            return _cli_references(command, text)

        jobs.append(Job(command, group, run, check,
                        golden_path(workload, command)))
    return jobs


# --- the workload table ---

class Workload:
    """setup(synorres, seed) makes the inputs, jobs(synorres, inputs) the
    job list; groups are the workload's own job-group metrics.  Why each
    workload exists is said in BENCHMARK.json."""

    def __init__(self, name, stresses, bypasses, groups, setup, jobs):
        self.name = name
        self.stresses = stresses
        self.bypasses = bypasses
        self.groups = groups
        self.setup = setup
        self.jobs = jobs


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "resolve-ladder",
            ["poset", "synor", "linalg", "resolution"],
            ["chains", "shuffle", "verify", "cli"],
            ["resolve_qq_s", "resolve_gf_s"],
            ladder_inputs, ladder_jobs),
        Workload(
            "cli-example",
            ["cli", "verify", "chains", "linalg", "synor", "shuffle"],
            ["enumeration (enumerate_lattices, canonical_form)"],
            [g for g, _c in CLI_COMMANDS],
            lambda synorres, seed: {},
            lambda synorres, inputs: command_jobs(synorres, "cli-example",
                                                  CLI_COMMANDS)),
        Workload(
            "lattice-sweep",
            ["poset enumeration", "verify", "shuffle", "linalg"],
            ["build_lcm_lattice", "resolution", "interval_witness"],
            [],
            lambda synorres, seed: {},
            lambda synorres, inputs: command_jobs(
                synorres, "lattice-sweep", [(None, SWEEP_COMMAND)])),
    ]
}
