"""Tour of the stability-condition family, one plant per dispatch branch.

For a negative-imaginary plant G and a strictly-negative-imaginary
controller Gbar in positive feedback, internal stability is decided from
the Laurent data G(s) = G2/s^2 + G1/s + G0 + O(s) and Gbar(0) alone.  The
data pick a basis Y of the free-body outputs, which names the theorem:

  G2 = 0, G1 = 0        dc_gain               no Y
  G2 > 0 (or G1 full    full_rank_free_body   Y = I
  rank)
  G2 != 0 singular      double_pole           Y = J, G2 = J J'
  G2 = 0, G1 != 0       single_pole           Y = F1, the thin factor of G1
  G1 != 0 and G2 != 0   double_pole_general   Y = F, the Hankel subspace
                                              matrix, with a friction term

One rule then decides every theorem: with a free body, Y' Gbar(0) Y < 0;
then every eigenvalue of (G0 + extra) N below 1, for the reduced gain
N = P(Gbar(0), Y) (N = Gbar(0) without free body, the DC-gain test; N = 0
when Y has m columns).  The branch printed after the theorem is N's sign:
nsd, psd, none (indefinite, or the DC-gain theorem) or invertible (N = 0).
The last example, a damped free mass beside two sprung ones, has an
indefinite G0 and an indefinite N.

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

    # a damped free mass beside two sprung ones: G = (I s^2 + D s + K)^-1
    # with K = diag(0, 2, 2) has one origin pole, an indefinite G0 and, under
    # this IRC (Gbar(0) = I - Delta), an indefinite reduced gain N
    K = np.diag([0.0, 2.0, 2.0])
    D = np.array([[2.5, 2.0, 2.0], [2.0, 3.0, 1.0], [2.0, 1.0, 2.0]])
    eye, zero = np.eye(3), np.zeros((3, 3))
    damped = ns.StateSpaceModel(np.block([[zero, eye], [-K, -D]]), np.vstack([zero, eye]),
                                np.hstack([eye, zero]))
    irc3 = ns.make_irc(eye, eye, np.diag([3.0, 0.0, 2.0]))
    v = show("indefinite N: damped free mass vs MIMO IRC", damped, irc3.realization)
    print(f"{'':<46}    largest eigenvalue of (G0 + extra) N: "
          f"{v.condition_values['dc_gain_lambda_max']:.3f}")

    print("\nevery verdict above was confirmed by the eigenvalue oracle")


if __name__ == "__main__":
    main()
