"""
Decomposing the top of a lattice into a synor pair
==================================================

"""

from synorres import RationalField, build_lcm_lattice, ideal_example62
from synorres.verify import TopAnalysis

field = RationalField()
spec = ideal_example62()
L = build_lcm_lattice(list(spec.generators), spec.variables)
ana = TopAnalysis(L, field)

# which (i1, i2, k) does the top support?  ana's synor complex gives
# the top one generator in dimensions 1 and 4, so its open interval has
# homology in degrees 0 and 3: it is a 2-synor and a 5-synor in the
# resolution indexing, where column i holds degree i - 2
print("middle homology:", {i - 2: ana.beta(i, L.top)
                           for i in range(L.n) if ana.beta(i, L.top)})
triples = ana.valid_triples()
print(f"{len(triples)} valid parameter triples")
print()

# the brute-force route scans synor pairs for a join equal to the top;
# the constructive route follows the shuffle-product proof and reads the
# witness out of the assembled chain.  Both certify the same theorem.
for params in [(1, 1, 0), (2, 3, 0), (4, 2, 1), (5, 5, 5)]:
    brute = ana.bruteforce(*params)
    built = ana.constructive(*params)
    i1, i2, k = params
    print(f"i1={i1} i2={i2} k={k}")
    print("  brute-force :", brute.describe(),
          "verified" if brute.verify(field) else "FAILED")
    print("  constructive:", built.describe(),
          "verified" if built.verify(field) else "FAILED")
    n1 = L.format_label(built.n1)
    n2 = L.format_label(built.n2)
    print(f"  lcm({n1}, {n2}) = {L.format_label(L.top)}")
print()

# the same decomposition applies inside any interval, which is how the
# subadditivity witnesses in verify.check_subadditivity are found; the
# Betti table is read off the synor complex that ana has built
from synorres import betti_from_resolution, resolution_from_complex
from synorres.verify import check_subadditivity

table = betti_from_resolution(resolution_from_complex(L, ana.S))
report = check_subadditivity(L, 2, 2, 0, field, table)
for line in report.lines():
    print(line)
