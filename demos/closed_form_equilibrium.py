"""Rate-unconstrained equilibrium across privacy weights.

The encoder sends Z = X + alpha*theta; decoder and eavesdropper apply MMSE
scalings.  Sweeping the privacy weight lam shows the central effect: the
encoder distorts its own message less and less about X as privacy pressure
grows (alpha -> 0 here since rho = 0), so the decoder's error *falls* even
though nobody is optimizing for the decoder.
"""

from strategiq import make_source, optimal_alpha, solve_equilibrium

source = make_source(sigma_x=1.0, r=1.0, rho=0.0)

print(f"{'lambda':>10} {'alpha*':>10} {'kappa':>8} {'nu':>8} "
      f"{'fidelity':>10} {'D_D':>10} {'D_theta':>10}")
for lam in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e7]:
    eq = solve_equilibrium(source, lam)
    rep = eq.report
    print(f"{lam:10.4g} {eq.alpha:10.6f} {eq.kappa:8.4f} {eq.nu:8.4f} "
          f"{rep.fidelity:10.6f} {rep.d_d:10.3e} {rep.d_theta:10.6f}")

print()
print("With correlation the fully private encoder subtracts the predictable")
print("part of theta instead of going silent: alpha -> -rho/r.")
for rho in (0.3, 0.6, -0.5):
    src = make_source(1.0, 2.0, rho)
    alpha = optimal_alpha(src, 1e9)
    print(f"  rho={rho:+.1f}, r=2: alpha* at lam=1e9 is {alpha:+.6f} (limit {-rho/2:+.3f})")

print()
print("Large-lambda identity: encoder fidelity approaches D_D + var(theta).")
rep = solve_equilibrium(source, 1e7).report
print(f"  fidelity={rep.fidelity:.8f}  D_D + var = {rep.d_d + 1.0:.8f}")
