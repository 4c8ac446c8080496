"""Coalescing walks and the voter model are two views of one process.

Running both on the same cycle shows the consensus time of the lazy voter
model matching the coalescence time of walks started on every vertex, in
distribution: here we compare means and confidence intervals, then look
at how the number of surviving walks decays along one trajectory.
"""
from coalwalk import FamilySpec, estimate, generate, simulate_coalescence

g = generate(FamilySpec("cycle", n=32))

coal = estimate("coalescence", g, {}, trials=1500, master_seed=11)
voter = estimate("voter", g, {}, trials=1500, master_seed=12)

print(f"cycle n=32, 1500 trials each")
print(f"  coalescence mean {coal.mean:7.1f}  CI [{coal.ci95_lo:.1f}, {coal.ci95_hi:.1f}]")
print(f"  voter       mean {voter.mean:7.1f}  CI [{voter.ci95_lo:.1f}, {voter.ci95_hi:.1f}]")
print(f"  intervals overlap: {coal.overlaps(voter)}")

sample = simulate_coalescence(g, seed=7)
print(f"\none trajectory (seed 7) coalesced at t={sample.value}; survivors at")
print("power-of-two checkpoints:")
for t, count in sample.trajectory:
    print(f"  t={t:>6}  walks={count}")
