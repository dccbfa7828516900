import random

import numpy as np
import pytest

from synorres import (Monomial, Poset, RationalField, build_lcm_lattice,
                      ideal_example62)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def QQ():
    return RationalField()


@pytest.fixture(scope="session")
def cycle_lattice():
    """lcm lattice of (xy, xz, yz): five elements, top a 1-synor twice."""
    gens = [Monomial((1, 1, 0)), Monomial((1, 0, 1)), Monomial((0, 1, 1))]
    return build_lcm_lattice(gens, ("x", "y", "z"))


@pytest.fixture(scope="session")
def example62_lattice():
    spec = ideal_example62()
    return build_lcm_lattice(list(spec.generators), spec.variables)


def ids_are_a_linear_extension(P) -> bool:
    """Whether every element's id is smaller than the ids above it."""
    return not np.tril(P.leq, -1).any()


@pytest.fixture(scope="session")
def relabel():
    """relabel(P, seed): P with its ids permuted at random, reversed if
    they still formed a linear extension, so that whenever P has a strict
    relation the new ids are not a linear extension."""
    def relabeled(P, seed):
        perm = list(range(P.n))
        random.Random(seed).shuffle(perm)
        lt = P.leq & ~np.eye(P.n, dtype=bool)
        if all(perm[i] < perm[j] for i, j in np.argwhere(lt)):
            perm = [P.n - 1 - new for new in perm]
        old = np.argsort(perm)  # old[new id] = old id
        Q = Poset(P.leq[np.ix_(old, old)])
        assert not lt.any() or not ids_are_a_linear_extension(Q)
        return Q
    return relabeled
