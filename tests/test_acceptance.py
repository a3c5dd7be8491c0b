"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria use fixed seeds, 32 replicas and a 5-standard-error
band, which keeps the false-alarm probability far below 1e-6 per run.
"""

import math
import time

import numpy as np
import pytest

from splitgrow import (ExperimentConfig, OrderedTree, SplittingWeights, UrnState,
                       bessel_i, compare, fixed_point_densities, grafting_density,
                       make_grafting, make_preferential, make_table, make_uniform,
                       make_rna, rna_closed_form, solve_finite, solve_two_colour,
                       densities_from_e, uniform_density, uniform_norm_constant,
                       run)
from conftest import DMAX3_ENTRIES, random_case3_model

E2 = math.e ** 2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_preferential_fixed_point():
    model = make_preferential(SplittingWeights(1.0, 0.0))
    t0 = time.monotonic()
    sol = fixed_point_densities(model, K=400, tol=1e-13)
    elapsed = time.monotonic() - t0
    ks = np.arange(1, 51)
    exact = 4.0 / (ks * (ks + 1) * (ks + 2))
    err = float(np.max(np.abs(sol.densities[:50] - exact)))
    ok = err <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"plane-recursive densities: max err {err:.2e} (tol 1e-8), "
                   f"{elapsed:.2f}s (< 5s), {sol.iterations} iterations")


def test_criterion_02_recursive_tree_fixed_point():
    sol = fixed_point_densities(make_grafting(0.0, 1.0), K=512, tol=1e-13)
    ks = np.arange(1, 41)
    err = float(np.max(np.abs(sol.densities[:40] - 2.0 ** -ks)))
    _report(2, err <= 1e-8, f"random-recursive densities 2^-k: max err {err:.2e}")


def test_criterion_03_uniform_fixed_point_and_bessel():
    sol = fixed_point_densities(make_uniform(0.0), K=512, tol=1e-13)
    exact = np.array([uniform_density(0.0, k) for k in range(1, 31)])
    err = float(np.max(np.abs(sol.densities[:30] - exact)))
    c0_err = abs(uniform_norm_constant(0.0) - (E2 - 1) / 8)
    ok = err <= 1e-8 and c0_err <= 1e-12
    _report(3, ok, f"uniform x=0: max density err {err:.2e} (tol 1e-8), "
                   f"Bessel-series C(0) err {c0_err:.2e} (tol 1e-12)")


def test_criterion_04_bounded_table_solvers_and_simulation():
    model = make_table(3, DMAX3_ENTRIES)
    lin = solve_finite(model)
    fp = fixed_point_densities(model, K=3, tol=1e-14)
    expect = np.array([0.25, 0.5, 0.25])
    err_lin = float(np.max(np.abs(lin.densities - expect)))
    err_fp = float(np.max(np.abs(fp.densities - expect)))
    cfg = ExperimentConfig(model={"family": "table", "d_max": 3,
                                  "entries": [list(e) for e in DMAX3_ENTRIES]},
                           t_final=100_000, replicas=32, seed=1404, k_check=3)
    rep = compare(cfg)
    worst_z = max(abs(r.z) for r in rep.rows if r.k <= 3)
    ok = err_lin <= 1e-10 and err_fp <= 1e-10 and rep.ok
    _report(4, ok, f"bounded table (1/4, 1/2, 1/4): linear err {err_lin:.2e}, "
                   f"fixed-point err {err_fp:.2e} (tol 1e-10); "
                   f"simulation max |z| = {worst_z:.2f} (< 5)")


def test_criterion_05_preferential_simulation():
    cfg = ExperimentConfig(model={"family": "preferential", "a": 1.0, "b": 0.0},
                           t_final=100_000, replicas=32, seed=1505, k_check=6)
    t0 = time.monotonic()
    rep = compare(cfg)
    elapsed = time.monotonic() - t0
    worst_z = max(abs(r.z) for r in rep.rows if r.k <= 6)
    ok = rep.ok and elapsed < 60.0
    _report(5, ok, f"w_i=i simulation t=1e5 R=32: max |z| = {worst_z:.2f} "
                   f"over k<=6 (< 5), {elapsed:.1f}s (< 60s)")


def test_criterion_06_exact_census_invariants():
    cases = [
        (make_preferential(SplittingWeights(1.0, 0.0)), "tree"),
        (make_uniform(0.0), "tree"),
        (make_grafting(0.5, 0.5), "urn"),
        (make_table(3, DMAX3_ENTRIES), "urn"),
    ]
    worst_float = 0.0
    for model, engine in cases:
        state = (OrderedTree.single_edge(model) if engine == "tree"
                 else UrnState.single_edge(model))
        rng = np.random.default_rng(6)
        for _ in range(3000):
            state.step(rng)
            sum_dev, moment_dev, drift = state.census_deviations()
            assert sum_dev == 0 and moment_dev == 0
            rel = abs(state.total_weight - state.expected_weight()) \
                / max(abs(state.total_weight), 1.0)
            worst_float = max(worst_float, drift, rel)
    _report(6, worst_float <= 1e-9,
            f"census sums exact at every step of 4 trajectories; "
            f"worst weight deviation {worst_float:.2e} (tol 1e-9)")


def test_criterion_07_engine_equivalence():
    model = make_uniform(0.0)
    steps, seeds = 10_000, 100
    for seed in range(seeds):
        urn = UrnState.single_edge(model)
        tree = OrderedTree.single_edge(model)
        decide = np.random.default_rng(seed)
        arrange = np.random.default_rng(10_000 + seed)
        for _ in range(steps):
            ev = urn.step(decide)
            tree.apply_to_degree(ev.parent_degree, ev.child_degrees[0], arrange)
        assert tree.counts == urn.counts, f"seed {seed}"
    _report(7, True, f"tree and urn censuses identical over {steps} steps "
                     f"x {seeds} seeds")


def test_criterion_08_monotone_iterates():
    rng = np.random.default_rng(8)
    checked = 0
    worst = 0.0
    for _ in range(24):
        model = random_case3_model(rng)
        sol = fixed_point_densities(model, K=48, tol=1e-11,
                                    record_iterates=True, max_iter=300_000)
        worst = max(worst, float(-np.diff(sol.iterates, axis=0).min()))
        checked += 1
    _report(8, worst <= 1e-15,
            f"iterates nondecreasing per coordinate over {checked} randomised "
            f"two-banded models (worst backward step {worst:.1e})")


def test_criterion_09_two_colour_rna():
    sol = solve_two_colour(make_rna(), K=400)
    errs = []
    for k in range(1, 21):
        ew, eb = rna_closed_form(k)
        errs.append(abs(sol.e_white[k - 1] - ew))
        errs.append(abs(sol.e_black[k - 1] - eb))
    solver_err = max(errs)
    rho_w, rho_b = densities_from_e(sol)
    cross = max(abs(rho_w[k - 1] + rho_b[k - 1] - uniform_density(0.0, k))
                for k in range(1, 31))
    cfg = ExperimentConfig(model={"family": "rna"}, t_final=100_000,
                           replicas=32, seed=1909, k_check=5)
    rep = compare(cfg)
    worst_z = max(abs(r.z) for r in rep.rows if r.k <= 5)
    ok = solver_err <= 1e-8 and cross <= 1e-10 and rep.ok
    _report(9, ok, f"RNA: solver vs closed forms err {solver_err:.2e} (tol 1e-8); "
                   f"colour-sum vs one-colour err {cross:.2e} (tol 1e-10); "
                   f"simulation max |z| = {worst_z:.2f} (< 5)")


def test_criterion_10_grafting_family():
    worst = 0.0
    for al, ga in ((0.0, 0.5), (0.5, 0.5), (0.5, 1.0)):
        sol = fixed_point_densities(make_grafting(al, ga), K=400, tol=1e-13)
        exact = np.array([grafting_density(al, ga, k) for k in range(1, 31)])
        worst = max(worst, float(np.max(np.abs(sol.densities[:30] - exact))))
    # rate check over entries well above the absolute stopping tolerance
    # (below that floor the relative error of tiny densities dominates)
    sol = fixed_point_densities(make_grafting(0.5, 1.0), K=128, tol=1e-13)
    logr = np.log(sol.densities[2:18]) - np.log(sol.densities[1:17])
    rate_err = float(np.max(np.abs(np.exp(logr) - (1 - 0.5) / (2 - 0.5))))
    ok = worst <= 1e-8 and rate_err <= 1e-6
    _report(10, ok, f"grafting closed forms: max err {worst:.2e} (tol 1e-8); "
                    f"geometric rate via log-ratios err {rate_err:.2e} (tol 1e-6)")
