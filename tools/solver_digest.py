"""Two sha256 digests, to show that a solver change leaves every output bit
in place: one over 1,461 optimal-policy solves, one over the discounted value
iterates and their structure reports at 96 points.

Run from the repository root, with one BLAS thread so that the dense solves
round alike from run to run::

    OPENBLAS_NUM_THREADS=1 python tools/solver_digest.py

It imports the package from the ``src`` next to this script, so a copy of the
script in another checkout digests that checkout.  Its first line gives the
number of reports, the total of their policy-iteration steps and the hash of
the solves; its second the number of points, the total of their iterates and
the hash of the iterates and reports.

The reports, in this order:

* cold ``rvi_solve`` on mu {1e-4, 0.01, 0.05, 0.2, 0.45, 0.7, 0.9, 1} x price
  {0, 0.3, 1, 3, 12.8, 1000} x a_max {2, 8, 40, 120} (192);
* ``sweep_lambdas`` at mu 0.01, a_max 400 over ``lambda_grid(0.01, 50, 25)``,
  the ``frontier`` defaults (25);
* 300 cold solves drawn from ``default_rng(5)``: 300 mu ~ U(0.005, 1), then
  300 prices ``exp(U(-3, 5))``, then 300 a_max in 2..149;
* ``sweep_lambdas`` at mu 0.3, a_max 50 over ``lambda_grid(0.01, 50, 800)``
  (800);
* cold solves at the tie price ``1 - mu`` and at price 1e6 on the mu and a_max
  of the first grid (64), at the tie prices 55/16 and 159/32 with mu 0.5 and
  a_max {8, 20, 50, 120} (8), and at mu {1e-12, 1e-9, 1e-6} on the first
  grid's prices and a_max (72).

Each report hashes ``repr`` of ``(g, iterations, converged, threshold_exact,
full_thresholds, span_residual, bellman_residual)`` and the bytes of ``h``.

The iterate points are mu {1e-4, 0.01, 0.5, 1} x price {0, 3, 1e6} x beta
{0.5, 0.99} x (a_max, n_iters) {(2, 0), (8, 40), (50, 100), (50, 300)}, in
that order.  Each hashes the bytes of every iterate of ``discounted_vi`` and
then ``repr`` of the ``to_dict`` of ``verify_structure`` over them, against the
policy of a cold ``rvi_solve`` at the point.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aoi_offload.cli import lambda_grid  # noqa: E402
from aoi_offload.core import ModelParams  # noqa: E402
from aoi_offload.mdp import discounted_vi, rvi_solve, sweep_lambdas, verify_structure  # noqa: E402

MUS = (1e-4, 0.01, 0.05, 0.2, 0.45, 0.7, 0.9, 1.0)
PRICES = (0.0, 0.3, 1.0, 3.0, 12.8, 1000.0)
A_MAXES = (2, 8, 40, 120)


def reports():
    def cold(mu, lam, a_max):
        return rvi_solve(ModelParams(mu=mu, lam=lam, a_max=a_max))

    for mu, lam, a_max in itertools.product(MUS, PRICES, A_MAXES):
        yield cold(mu, lam, a_max)
    for _, report in sweep_lambdas(0.01, lambda_grid(0.01, 50.0, 25), 400):
        yield report
    rng = np.random.default_rng(5)
    mus = rng.uniform(0.005, 1.0, 300)
    prices = np.exp(rng.uniform(-3.0, 5.0, 300))
    a_maxes = rng.integers(2, 150, 300)
    for mu, lam, a_max in zip(mus, prices, a_maxes):
        yield cold(float(mu), float(lam), int(a_max))
    for _, report in sweep_lambdas(0.3, lambda_grid(0.01, 50.0, 800), 50):
        yield report
    for mu, a_max in itertools.product(MUS, A_MAXES):
        yield cold(mu, 1.0 - mu, a_max)
        yield cold(mu, 1e6, a_max)
    for lam, a_max in itertools.product((55 / 16, 159 / 32), (8, 20, 50, 120)):
        yield cold(0.5, lam, a_max)
    for mu, lam, a_max in itertools.product((1e-12, 1e-9, 1e-6), PRICES, A_MAXES):
        yield cold(mu, lam, a_max)


def iterate_digest() -> tuple[int, int, str]:
    digest = hashlib.sha256()
    count = iterates = 0

    def hashed(grids):
        nonlocal iterates
        for grid in grids:
            digest.update(grid.tobytes())
            iterates += 1
            yield grid

    for mu, lam, beta, (a_max, n_iters) in itertools.product(
            (1e-4, 0.01, 0.5, 1.0), (0.0, 3.0, 1e6), (0.5, 0.99),
            ((2, 0), (8, 40), (50, 100), (50, 300))):
        params = ModelParams(mu=mu, lam=lam, beta=beta, a_max=a_max)
        report = verify_structure(hashed(discounted_vi(params, n_iters)), rvi_solve(params).policy)
        digest.update(repr(report.to_dict()).encode())
        count += 1
    return count, iterates, digest.hexdigest()


def main() -> None:
    digest = hashlib.sha256()
    count = steps = 0
    for r in reports():
        digest.update(repr((r.g, r.iterations, r.converged, r.threshold_exact, r.full_thresholds,
                            r.span_residual, r.bellman_residual)).encode())
        digest.update(r.h.tobytes())
        count += 1
        steps += r.iterations
    print(f"reports {count}  steps {steps}  sha256 {digest.hexdigest()}")
    points, iterates, sha = iterate_digest()
    print(f"points {points}  iterates {iterates}  sha256 {sha}")


if __name__ == "__main__":
    main()
