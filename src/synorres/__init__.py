"""Minimal free resolutions of monomial ideals through synor complexes.

Module map:
  algebra     exact fields (Q, F_p), monomials, parsing
  linalg      sparse exact elimination, kernels, homology ranks
  poset       posets, lattices minus their bottom, lcm lattices,
              enumeration, isomorphism
  chains      formal chains of several kinds, boundaries, order homology
  shuffle     shuffle products of lattice chains, the chain-map check
  synor       synor complexes, the embedding phi, rho lifts, brackets
  resolution  Betti tables, the resolution functor, certification
  corpus      named ideal families and deterministic random instances
  verify      theorem drivers: top and interval decomposition witnesses,
              subadditivity, shift counts, brackets, lattice sweeps
  cli         the `synorres` command
"""

from .algebra import (DimensionError, DomainError, Monomial, PrimeField,
                      RationalField, ValidationError, field_from_flag,
                      parse_monomial)
from .chains import FormalChain, all_homology_ranks, boundary, homology
from .corpus import (IdealSpec, MmixRandom, corpus_ideals, ideal_example62,
                     ideal_kpq, ideal_powers, parse_ideal_text, random_ideal,
                     random_poset)
from .poset import (Lattice, LcmLattice, Poset, build_lcm_lattice,
                    enumerate_lattices, is_isomorphic, lattice_hash,
                    open_interval, poset_from_json, poset_to_json,
                    without_bottom)
from .resolution import (BettiTable, FreeResolution, betti_from_intervals,
                         betti_from_resolution, certify_resolution,
                         resolution_to_json, synor_resolution)
from .shuffle import enumerate_shuffles, shuffle_product, tau
from .synor import (Generator, SynorComplex, bracket, build_synor_complex,
                    ell_representation, homologous_in_pair, rho, rho_chain,
                    synor_to_json, synors)
from .verify import (DecompositionWitness, TheoremContradiction, TopAnalysis,
                     check_bracket_vanishing, check_class_sums,
                     check_shift_count_bound, check_subadditivity,
                     sweep_lattices, verify_intervals,
                     verify_lattice_instances)

__version__ = "0.1.0"
