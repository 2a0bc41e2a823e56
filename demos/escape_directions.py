"""Closing the escape hatch of a fixed hidden direction.

If the hidden direction u is pinned instead of averaged, the model bound
involves |(a^x - a^{x-1}) . u| and vanishes whenever u is orthogonal to
every difference of measurement vectors: such a u "escapes" the test.  The
fix is measuring additional copies of the chained set conjugated by a
unitary (compensated on the other side, so each copy reproduces the same
I_N).  Their difference spans accumulate orthogonal directions until the
whole Bloch space is covered and no unit vector is orthogonal to all of
them.

Run:  python demos/escape_directions.py
"""

import numpy as np

from cryptononlocal import (
    basis_to_bloch,
    chained_settings,
    chained_value,
    escape_report,
    joint_from_bases,
    marginal_distribution,
    maximally_entangled,
    multi_plane_families,
    state_to_bloch,
    statistical_distance,
)

D, N = 3, 9
settings = chained_settings(D, N)
families = multi_plane_families(settings, k=2)

print(f"d={D}, N={N}: two measurement families")
for fam in families:
    print(
        f"  family {fam.index}: difference span dim = {fam.span.shape[0]}, "
        f"new orthogonal directions = {fam.new_directions.shape[0]}"
    )
total = sum(f.new_directions.shape[0] for f in families)
print(f"  union covers {total} of {D * D - 1} Bloch dimensions")
print()

# a hidden direction built from a computational basis state is orthogonal
# to every difference vector of the first family
u = state_to_bloch(np.array([1, 0, 0], dtype=complex))
print("hidden direction u = coordinates of the state |0>")
for entry in escape_report(u, families):
    verdict = "escape possible" if entry.escape_possible else "pinned down"
    print(f"  family {entry.index}: |proj u| = {entry.projection:.6f} -> {verdict}")
print()

psi = maximally_entangled(D)
print(f"{'N':>4}  {'I_N':>10}  {'bound fam 1':>12}  {'bound fam 2':>12}")
for n in (5, 9, 12, 16, 20):
    fams_n = multi_plane_families(chained_settings(D, n), k=2)
    i_n = chained_value(joint_from_bases(psi, fams_n[0].alice, fams_n[0].bob))
    bounds = []
    for fam in fams_n:
        # bound at setting 1: the shift distance of u's outcome marginal
        p, _ = marginal_distribution(basis_to_bloch(fam.alice[0]), u)
        bounds.append(statistical_distance(p, np.roll(p, 1)))
    flag = "  <- family 2 violated" if i_n < max(bounds) else ""
    print(f"{n:>4}  {i_n:>10.6f}  {bounds[0]:>12.6f}  {bounds[1]:>12.6f}{flag}")
print()
print(
    "Family 1 alone can never convict this u (its bound is exactly zero),\n"
    "but the conjugated family keeps the same chained value while its span\n"
    "catches u: once I_N sinks below that family's bound, the combined\n"
    "constraint min(I_N^1, I_N^2) >= L fails and the fixed-direction model\n"
    "is falsified anyway.  At most d^2 - 2 families are ever needed to\n"
    "corner every direction."
)
