"""End-to-end walkthrough of the slewing flexible-arm benchmark.

The arm is an Euler-Bernoulli beam pinned to a motor hub, with a full-span
piezo actuator/sensor pair: two inputs (hub torque, actuator voltage), two
outputs (hub angle, sensor voltage), and free body motion that puts a double
pole at the origin.  The script walks the whole analysis chain:

  1. modal roots and residue matrices of the transcendental model,
  2. the rigid-body Laurent coefficient lim s^2 G(s),
  3. a one-mode rational approximation and its NI certificate,
  4. an integral resonant controller and the stability verdict,
  5. cross-check against closed-loop eigenvalues and a step response.

Run:  python demos/flexible_arm_study.py
"""

import numpy as np

import nistab as ns


def main():
    p = ns.BeamParameters()
    print("== slewing arm benchmark ==")
    print(f"effective mass/length {p.mu:.4f} kg/m, bending stiffness "
          f"{p.EI:.4f} N m^2, hub inertia {p.hub_inertia:.4f} kg m^2")
    print(f"rigid-body inertia about the hub: {p.total_inertia:.5f} kg m^2")

    # 1. modal data ---------------------------------------------------------
    roots = ns.find_modal_roots(p, 6)
    print("\nfirst six flexible resonances (rad/s) and residue eigenvalues:")
    for w in roots:
        K = ns.modal_residue(p, float(w))
        lo, hi = np.linalg.eigvalsh(K)
        print(f"  w = {w:12.6f}   eig(K) = [{lo:+.2e}, {hi:.4f}]   (rank one, PSD)")

    # 2. free-body content --------------------------------------------------
    eps = 1e-4
    G2 = np.real(eps ** 2 * ns.beam_tf(p, eps + 0j))
    print("\nlim s^2 G(s) =")
    print(np.array_str(G2, precision=5, suppress_small=True))
    print(f"(equals 1/total inertia = {1.0 / p.total_inertia:.6f} on the torque channel)")

    # 3. rational approximation --------------------------------------------
    mm = ns.finite_dim_approx(p, 1)
    plant = ns.modal_to_ss(mm)
    ni = ns.classify_ni(plant)
    print(f"\none-mode model: states = {plant.n}, poles at 0 (double) and "
          f"{mm.terms[0][0]:.4f} rad/s; negative imaginary: {ni.is_ni}")

    # 4. controller and verdict ---------------------------------------------
    irc = ns.make_irc([[35.0, 15.0], [15.0, 20.0]],
                      [[0.745, 0.521], [0.521, 1.021]],
                      [[4.29, 0.0], [0.0, 2.22]])
    print("\nIRC DC gain:")
    print(np.array_str(irc.dc_gain(), precision=4, suppress_small=True))
    v = ns.stability_verdict(plant, irc.realization,
                             ns.VerdictOptions(run_oracle=True))
    print(f"verdict: {v.outcome.value} via {v.theorem_used.value} "
          f"({v.branch.value} branch)")
    for k, val in v.condition_values.items():
        print(f"  {k} = {val:.6f}")
    print(f"eigenvalue oracle agrees: {v.oracle_agrees}")

    # 5. step response -------------------------------------------------------
    # the slowest loop pole decays at ~0.019/s, so run well past it
    res = ns.step_response(plant, irc.realization, T_end=400.0, dt=0.1)
    i_settle = np.argmax(res.t > 300.0)
    print(f"\nstep response: theta({res.t[-1]:.0f}s) = {res.theta[-1]:+.4f}, "
          f"max|theta| = {np.abs(res.theta).max():.3f}, "
          f"diverged = {res.diverged}")
    print(f"sensor voltage at the end of the run: {res.Vs[-1]:+.2e}")
    assert not res.diverged and abs(res.theta[-1] - res.theta[i_settle]) < 0.05


if __name__ == "__main__":
    main()
