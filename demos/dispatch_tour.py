"""Tour of the stability-condition family, one plant per dispatch branch.

For a negative-imaginary plant G and a strictly-negative-imaginary
controller Gbar in positive feedback, internal stability is decided from
the Laurent data G(s) = G2/s^2 + G1/s + G0 + O(s) and Gbar(0) alone.  Every
free-body case is one test on a basis Y of the free-body outputs:

  G2 = 0, G1 = 0        dc-gain test          lambda_max(G(0) Gbar(0)) < 1
  G2 > 0 (or G1 full    Y = I                 Gbar(0) < 0 (N = 0, branch
  rank)                                        invertible)
  G2 != 0 singular      Y = J, G2 = J J'      J' Gbar(0) J < 0, then the
                                               range rule or the PSD/NSD
                                               branch of N = P(Gbar(0), J)
  G2 = 0, G1 != 0       Y = F1, the thin      F1' Gbar(0) F1 < 0, then as
                        factor of G1           for J
  G1 != 0 and G2 != 0   Y = F, the Hankel     F' Gbar(0) F < 0, then the
                        subspace matrix        branch with the friction term

The range rule (J and F1 only): when G0 vanishes off range(Y), both branch
terms vanish and the verdict is the *_range theorem, branch
nullspace_shortcut.  A failed Gram condition Y' Gbar(0) Y < 0 is UNSTABLE
whatever the sign of N.

Each example below is checked against the closed-loop eigenvalue oracle.

Run:  python demos/dispatch_tour.py
"""

import numpy as np

import nistab as ns


def show(title, plant, ctrl):
    v = ns.stability_verdict(plant, ctrl, ns.VerdictOptions(run_oracle=True))
    print(f"{title:<46} -> {v.outcome.value:<9} "
          f"[{v.theorem_used.value}/{v.branch.value}]  oracle Hurwitz: {v.oracle_hurwitz}")
    assert v.oracle_agrees in (True, None)
    return v


def lag_minus(delta):
    """Gbar(s) = 1/(s+1) - delta; SNI with DC gain 1 - delta."""
    return ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[-delta]])


def main():
    # no free body motion: damped oscillator 1/(s^2 + s + 1)
    osc = ns.StateSpaceModel([[0.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]],
                             [[1.0, 0.0]], [[0.0]])
    show("dc gain: 1/(s^2+s+1) vs 1/(s+1)-2", osc, lag_minus(2.0))

    # rigid body only: 1/s^2, decided purely by the sign of Gbar(0)
    dint = ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                              [[1.0, 0.0]], [[0.0]])
    show("definite: 1/s^2 vs 1/(s+1)-2", dint, lag_minus(2.0))
    show("definite: 1/s^2 vs 1/(s+1)-0.5 (unstable)", dint, lag_minus(0.5))

    # multivariable free body content in one channel only
    mm = ns.ModalModel(
        m=2,
        terms=((4.0, np.array([[0.6, 0.2], [0.2, 0.3]])),),
        g2=np.array([[1.0, 0.0], [0.0, 0.0]]),
    )
    plant2 = ns.modal_to_ss(mm)
    irc = ns.make_irc(np.eye(2) * 8.0, np.eye(2) * 0.5, np.eye(2) * 3.0)
    show("sign-split: partial rigid channel vs MIMO IRC",
         plant2, irc.realization)

    # single pole at the origin (rate-type free body motion)
    mm1 = ns.ModalModel(m=1, terms=((3.0, [[1.0]]),), g1=[[1.0]])
    show("single origin pole: 1/s content vs 1/(s+1)-2",
         ns.modal_to_ss(mm1), lag_minus(2.0))

    # both Laurent coefficients present: Hankel subspace route
    mm12 = ns.ModalModel(m=2,
                         terms=((5.0, np.diag([0.4, 0.2])),),
                         g1=np.array([[0.5, 0.3], [0.3, 0.4]]),
                         g2=np.array([[0.8, 0.0], [0.0, 0.0]]))
    show("mixed 1/s and 1/s^2 content vs MIMO IRC",
         ns.modal_to_ss(mm12), irc.realization)

    print("\nevery verdict above was confirmed by the eigenvalue oracle")


if __name__ == "__main__":
    main()
