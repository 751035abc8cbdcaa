#!/usr/bin/env python3
"""Run the falsification scenario and print the norm-drift comparison.

Propagates the fixed 2x2 model once with the covariant generator
H(t) - i*Omega^-1(t)*Omegadot(t) and once with the bare H(t), then tabulates
the norm in the instantaneous physical inner product along both
trajectories.  The covariant run conserves it to integrator accuracy; the
naive run loses it at order one.
"""

import argparse

import numpy as np

from cryptoherm import propagate_naive, propagate_pair, scenario_falsification


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", type=float, default=1e-3, help="integrator step")
    args = parser.parse_args()

    ham, fam, phi0, grid = scenario_falsification()
    covariant = propagate_pair(ham, fam, phi0, None, grid, args.step)
    naive = propagate_naive(ham, fam, phi0, None, grid, args.step)

    print(f"{'t':>6}  {'covariant <Phi|Theta|Phi>':>26}  {'naive <Phi|Theta|Phi>':>22}")
    for k in range(0, grid.size, 2):
        print(
            f"{grid[k]:6.2f}  {covariant.metric_norm[k]:26.12f}  "
            f"{naive.metric_norm[k]:22.12f}"
        )
    print()
    print(f"covariant overlap drift : {covariant.max_norm_drift:.3e}")
    print(f"covariant metric drift  : {covariant.max_metric_drift:.3e}")
    print(f"naive metric drift      : {naive.max_metric_drift:.3e}")
    # the covariant drift is the worse of its two invariants, as in `cli demo`
    covariant_drift = max(covariant.max_norm_drift, covariant.max_metric_drift)
    ratio = naive.max_metric_drift / max(covariant_drift, np.finfo(float).tiny)
    print(f"naive / covariant ratio : {ratio:.1e}")


if __name__ == "__main__":
    main()
