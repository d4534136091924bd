"""The benchmark's workloads and the golden answers their runs are checked against.

Every workload is one ``triprox`` command line, run through ``triprox.cli.main``
as a user runs it.  Inputs are fixed; the workload seed only feeds ``--seed``
of ``predict-n2``.  This module imports nothing from ``triprox`` so that the
runner and the checker stay light.
"""

from __future__ import annotations

from dataclasses import dataclass

# Golden answers, computed at the seed commit and cross-checked by a second
# engine path where one exists.
#: ``count --n 2 --bound 120 --convention primitive``.
COUNT_N2_B120_PRIMITIVE = 104027904
#: ``count --n 3 --bound 30 --convention mobius``; equals
#: ``count_points(3, 30, primitive)``, the direct primitive path.
COUNT_N3_B30_PRIMITIVE = 950859264
#: ``euler_product(2, 10**6, 40).value``: seed-free, so checked bit for bit.
EULER_PRODUCT_N2 = 1.046388128921806
#: ``predicted_constant(2, 10**6, 40, 32_000_000, seed=99)``: the reference C
#: and its stderr.  A run's C must lie within PREDICT_SIGMAS combined stderrs.
PREDICT_C_REF = 222.0455665233452
PREDICT_C_REF_STDERR = 0.00913915790558733
PREDICT_SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command and how its answer is checked."""

    name: str
    kind: str  # "count" or "predict": which record fields the gate reads
    argv_base: tuple[str, ...]
    threads: int = 1
    expected_count: int | None = None

    def argv(self, seed: int, threads: int | None = None) -> list[str]:
        """The ``triprox`` command line for ``seed``; ``threads`` overrides
        the workload's worker count (used by the traced single-worker pass)."""
        args = list(self.argv_base)
        if self.kind == "count":
            args += ["--threads", str(threads or self.threads)]
        else:
            args += ["--seed", str(seed)]
        return args


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The exact-count hot path behind `compare` and criterion 10, single
        # worker; dominated by the np.unique row dedupe today.
        Workload(
            "count-n2-primitive", "count",
            ("count", "--n", "2", "--bound", "120", "--convention", "primitive"),
            threads=1, expected_count=COUNT_N2_B120_PRIMITIVE,
        ),
        # The non-primitive path at n=3: 10 count_points calls, each starting a
        # 2-worker pool with tasks[i::threads] striping.
        Workload(
            "mobius-n3", "count",
            ("count", "--n", "3", "--bound", "30", "--convention", "mobius"),
            threads=2, expected_count=COUNT_N3_B30_PRIMITIVE,
        ),
        # Prediction only: the Euler product over the 78,498 primes below 10^6
        # and the MC, which the CLI runs twice today.
        Workload(
            "predict-n2", "predict",
            ("predict", "--n", "2", "--p-max", "1000000", "--t-max", "40",
             "--mc-samples", "4000000"),
        ),
    )
}
