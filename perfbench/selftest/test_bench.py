"""Self-tests of the benchmark itself (not of synorres).

    python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Probe, Tracer, find_wrappers  # noqa: E402

synorres = worker.import_synorres()


def _failed_share(jobs, outputs) -> float:
    passes = [[{"job": job.name, "group": job.group, "wall_s": 0.0,
                "cpu_s": 0.0, "problems": job.problems(text)}
               for job, text in zip(jobs, outputs)]]
    return run.summarize({"passes": passes, "peak_rss_mib": 0.0}, [])[
        "metrics"]["failed_share"]


@pytest.fixture(scope="module")
def betti_job():
    jobs = workloads.command_jobs(synorres, "cli-example",
                                  workloads.CLI_COMMANDS[:1])
    return jobs[0], jobs[0].run()


def test_outputs_of_this_commit_pass(betti_job):
    job, text = betti_job
    assert job.problems(text) == []
    assert _failed_share([job], [text]) == 0


def test_mutated_output_byte_fails(betti_job):
    job, text = betti_job
    # flip one digit of the Betti table that no reference check reads
    at = text.index("    1: ") + len("    1: ") + 2
    mutated = text[:at] + ("4" if text[at] != "4" else "6") + text[at + 1:]
    assert mutated != text
    assert job.problems(mutated)
    assert _failed_share([job], [mutated]) > 0


def test_mutated_golden_byte_fails(betti_job, tmp_path):
    job, text = betti_job
    data = bytearray(job.golden.read_bytes())
    data[-3] ^= 1
    golden = tmp_path / "golden.txt"
    golden.write_bytes(bytes(data))
    assert workloads.compare_golden(golden, text)
    jobs = workloads.command_jobs(synorres, "cli-example",
                                  workloads.CLI_COMMANDS[:1])
    jobs[0].golden = golden
    assert _failed_share(jobs, [text]) > 0


def test_references_do_not_come_from_goldens():
    # a wrong t-sequence fails even if the golden were rewritten to match it
    text = "total: 1 6 11 10 5 1\nt: 0 5 6 4 5 7\nexit 0\n"
    assert workloads._cli_references("betti @example62", text)


def test_scarf_reference_on_a_small_generic_ideal():
    # (x^2, xy, y^2): lcm(x^2, y^2) = lcm of all three, so the Scarf
    # complex drops both faces and leaves the minimal resolution 1, 3, 2
    scarf = workloads.scarf_betti([(2, 0), (1, 1), (0, 2)])
    assert scarf == {(0, (0, 0)): 1, (1, (2, 0)): 1, (1, (1, 1)): 1,
                     (1, (0, 2)): 1, (2, (2, 1)): 1, (2, (1, 2)): 1}


def test_generic_ideal_is_seeded_and_in_band():
    a, b = workloads.generic_ideal(7), workloads.generic_ideal(7)
    assert a == b
    assert a != workloads.generic_ideal(8)
    lo, hi = workloads.GENERIC_BAND
    assert lo <= a["elements"] <= hi
    for v in range(workloads.GENERIC_VARS):
        nonzero = [g[v] for g in a["generators"] if g[v]]
        assert len(nonzero) == len(set(nonzero))


SYNTHETIC = """
def leaf(n):
    return sum(range(n))

def inner(n):
    return leaf(n)

def outer(n):
    return leaf(n) + leaf(2 * n) + inner(n)

alias_of_leaf = leaf
"""


def test_self_time_adds_up_on_a_nested_call(monkeypatch):
    mod = types.ModuleType("synthpkg")
    exec(SYNTHETIC, mod.__dict__)
    monkeypatch.setitem(sys.modules, "synthpkg", mod)
    t = Tracer("synthpkg", [Probe("s.outer", "synthpkg", "outer"),
                            Probe("s.inner", "synthpkg", "inner"),
                            Probe("s.leaf", "synthpkg", "leaf")])
    t.install()
    assert mod.alias_of_leaf is mod.leaf
    mod.outer(20000)
    t.uninstall()
    assert find_wrappers("synthpkg") == []
    m = t.metrics()
    assert (m["s.outer.calls"], m["s.inner.calls"], m["s.leaf.calls"]) == (1, 1, 3)
    spans = list(t.spans())
    assert [s[0] for s in spans] == ["s.outer", "s.leaf", "s.leaf",
                                     "s.inner", "s.leaf"]
    # self time of each span: its duration minus its direct children's
    own = {}
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        children = sum(e - s for _n, s, e, p, _j in spans if p == i)
        own[name] = own.get(name, 0.0) + (end - start) - children
    for name, value in own.items():
        assert m[f"{name}.self_s"] == pytest.approx(value, rel=1e-9, abs=1e-12)
    root = spans[0][2] - spans[0][1]
    assert sum(own.values()) == pytest.approx(root, rel=1e-9)
    assert m["s.outer.s"] == pytest.approx(root, rel=1e-12)


def test_alias_is_wrapped_by_identity():
    t = Tracer("synorres", layers.probes())
    t.install()
    try:
        import synorres.chains as chains
        import synorres.synor as synor
        assert synor.simplicial_homology is chains.homology
        assert getattr(chains.homology, "__perfbench_wrapped__", None)
        assert t.unwrapped_bindings() == []
    finally:
        t.uninstall()


def test_wrappers_are_removed_after_tracing():
    import synorres.chains as chains
    import synorres.synor as synor
    original = chains.homology
    t = Tracer("synorres", layers.probes())
    t.install()
    assert find_wrappers("synorres")
    text = workloads.cli_output(synorres, ["betti", "@example62"])
    t.uninstall()
    assert find_wrappers("synorres") == []
    assert chains.homology is original and synor.simplicial_homology is original
    assert t.calls["cli.main"] == 1 and t.calls["chains.homology"] > 0
    assert text.endswith("exit 0\n")


def test_every_per_layer_metric_is_declared():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    t = Tracer("synorres", layers.probes())
    produced = set(t.metrics()) | set(layers.counter_metrics(t)) | {
        "trace.overhead_ratio"}
    assert produced == declared
