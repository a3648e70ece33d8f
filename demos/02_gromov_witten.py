"""Genus-zero and genus-one invariants of the quintic.

Runs the Yukawa-coupling pipeline for the genus-zero numbers (checking
n_1 = 2875 against an independent count of lines by Bott's residue
formula on the Grassmannian G(2,5)),
builds the genus-one log-derivative G(q), and extracts the genus-one
instanton numbers from its Lambert expansion against the genus-zero
instanton numbers.
"""

from mirrorcalc import gw, quintic, schubert

ORDER = 6

chart = quintic.mirror_map(ORDER)

print("Lines on a quintic threefold (Bott count):",
      schubert.count_lines())

table0 = gw.genus0_pipeline(chart)
print("\ninstanton numbers n_d:")
for d in range(1, ORDER + 1):
    print(f"  n_{d} = {table0.instanton_n0[d]}")

G = quintic.f1_log_derivative(chart)
print("\nG(q) =", G)
print("constant term:", G.coeffs[0], "(expected 50/12)")

# Genus-one Gopakumar-Vafa numbers (Bershadsky, Cecotti, Ooguri, Vafa 1993)
BCOV = {1: 0, 2: 0, 3: 609250, 4: 3721431625, 5: 12129909700200}
table = gw.extract_n1(G, table0.instanton_n0)
print("\ngenus-one instanton numbers n1(d):")
for d in range(1, ORDER + 1):
    note = f"  (BCOV: {BCOV[d]})" if d in BCOV else ""
    print(f"  n1({d}) = {table.n1[d]}{note}")

print("\nround-trip reproduces G:",
      gw.eta_product_log_derivative(table, ORDER) == G)
