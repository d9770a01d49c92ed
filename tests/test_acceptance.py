"""Acceptance suite: every criterion at its stated tolerance.

Criterion n runs its entry of the invariant registry ``checks.CHECKS`` on
``checks.entry_rng(name, n)``, the generator ``pseudobound verify --seed n``
gives that entry; ``test_invariant`` runs the other entries on the generators
of ``verify --seed 0``.  Criterion 08, a Monte Carlo over 1000 datasets, is
too slow for ``verify`` and lives here alone.  Each criterion prints one
[PASS]/[FAIL] line (run with -s to stream them).
"""

import time

import numpy as np
import pytest

from pseudobound import checks, cli, states, tomography as tomo, witnesses
from conftest import A_OPT, EPS_OPT

PARAMS = states.StateParams.symmetric(A_OPT)
W_PARAMS = witnesses.WitnessParams(PARAMS, EPS_OPT)

# criterion number -> (registry entry, label, time budget in seconds)
CRITERIA = {
    1: ("state family PPT", "PPT on all three cuts at the working point", 1.0),
    2: ("witness zero-trace identity", "witness expectation identities", 1.0),
    3: ("witness spectrum", "witness spectrum endpoints", 1.0),
    4: ("state family rank", "family member has numeric rank 7", None),
    5: ("temporal averaging weld", "temporal averaging + gate sequence weld", 1.0),
    6: ("witness optimization", "symmetric witness optimization", 300.0),
    7: ("tomography design rank and round trip", "noiseless tomography round trip", 10.0),
    9: ("end-to-end noisy report", "end-to-end noisy pipeline", 120.0),
    10: ("fidelity/trace-distance sandwich", "fidelity / trace-distance sandwich", None),
}


def _criterion(number, label):
    class _Reporter:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        @property
        def elapsed(self):
            return time.perf_counter() - self.t0

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[{status}] criterion {number}: {label} "
                  f"({time.perf_counter() - self.t0:.2f}s)")
            return False
    return _Reporter()


def _registry_criterion(number):
    name, label, budget = CRITERIA[number]

    def test():
        with _criterion(number, label) as c:
            dict(checks.CHECKS)[name](checks.entry_rng(name, number))
            assert budget is None or c.elapsed < budget
    return test


test_criterion_01_ppt_certification = _registry_criterion(1)
test_criterion_02_witness_identities = _registry_criterion(2)
test_criterion_03_witness_spectrum = _registry_criterion(3)
test_criterion_04_rank = _registry_criterion(4)
test_criterion_05_preparation_weld = _registry_criterion(5)
test_criterion_06_witness_optimization = _registry_criterion(6)
test_criterion_07_tomography_round_trip = _registry_criterion(7)
test_criterion_09_end_to_end_noisy_run = _registry_criterion(9)
test_criterion_10_metric_correctness = _registry_criterion(10)


INVARIANTS = [name for name, _ in checks.CHECKS
              if name not in {entry for entry, _, _ in CRITERIA.values()}]


@pytest.mark.parametrize("name", INVARIANTS)
def test_invariant(name):
    dict(checks.CHECKS)[name](checks.entry_rng(name, 0))


def test_the_suite_draws_what_verify_draws(monkeypatch):
    # every entry, run by its criterion or by test_invariant, gets the generator
    # state that verify gives it at the seed it is run at here
    drawn = {}

    def recorder(name):
        def check(rng):
            drawn[name] = rng.bit_generator.state
            return "recorded"
        return check

    monkeypatch.setattr(checks, "CHECKS", [(name, recorder(name)) for name, _ in checks.CHECKS])
    for number in CRITERIA:
        _registry_criterion(number)()
    for name in INVARIANTS:
        test_invariant(name)
    suite = dict(drawn)
    assert len(suite) == len(checks.CHECKS)
    seed_of = {entry: number for number, (entry, _, _) in CRITERIA.items()}
    for seed in {0, *CRITERIA}:
        assert cli.main(["verify", "--seed", str(seed)]) == 0
        for name in suite:
            assert seed_of.get(name, 0) != seed or drawn[name] == suite[name], (name, seed)


def test_criterion_08_error_propagation_validity():
    with _criterion(8, "propagated witness error matches Monte Carlo") as c:
        sigma = 1e-3
        rho = states.bound_entangled_state(PARAMS)
        w = witnesses.witness(W_PARAMS)
        first = None
        values = []
        for seed in range(1000):
            rec = tomo.reconstruct(tomo.generate_dataset(rho, sigma=sigma,
                                                         seed=10_000 + seed))
            if first is None:
                first = rec
            values.append(witnesses.expectation(w, rec.rho_hat))
        mc_std = float(np.std(values, ddof=1))
        propagated = tomo.propagate_witness_error(first, w)
        assert mc_std == pytest.approx(propagated, rel=0.20)
        assert c.elapsed < 120.0
