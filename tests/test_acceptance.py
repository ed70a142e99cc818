"""Acceptance gate: end-to-end numeric criteria for the whole package.

Each test emits one `ACCEPT <id> <name>: PASS/FAIL` line, echoed in the
terminal summary after the run, so the suite log doubles as an acceptance
report.
"""

import math
import sys
import time

import numpy as np
import pytest

from postselect import (
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
    check_projective_chain,
    check_projective_raw,
    check_ts_region,
    construct_generalized,
    construct_projective,
    default_rng,
    diversity_profile,
    emit_pt_sections,
    emit_ternary,
    evaluate_witness,
    oracle_max_s,
    oracle_min_s,
    run_campaign,
    witness_distribution,
)
from postselect.feasibility import OUTSIDE_SIMPLEX, check_ternary_disk
from postselect.regions import INSCRIBED_DISK_FRACTION
from conftest import REFERENCE_BOUND, random_feasible_scenario, random_scenario
from conftest import reference_deviation, triple_deviation


def report(ident, name, ok, detail=""):
    line = f"ACCEPT {ident:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr, flush=True)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_01_checker_equivalence():
    rng = default_rng(101)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(100_000):
        sc = random_scenario(rng, allow_zeros=True)
        if check_projective_raw(sc).feasible != check_projective_chain(sc).feasible:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "checker equivalence raw vs chain",
        disagreements == 0 and elapsed < 5.0,
        f"{disagreements} disagreements in 1e5, {elapsed:.2f}s",
    )


def test_02_necessity_fuzz():
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]
    per_shape = -(-1_000_000 // len(shapes))
    t0 = time.perf_counter()
    total_violations = 0
    total_samples = 0
    for i, (d, n) in enumerate(shapes):
        rep = run_campaign(d, n, per_shape, 200 + i)
        total_violations += len(rep.violations)
        total_samples += rep.samples
    elapsed = time.perf_counter() - t0
    report(
        2,
        "necessity fuzz 1e6 witnesses",
        total_violations == 0 and elapsed < 60.0,
        f"{total_samples} samples, {total_violations} violations, {elapsed:.1f}s",
    )


def test_03_sufficiency_round_trip():
    # Every tenth witness is also evaluated by tests/reference.py from its document.
    rng = default_rng(303)
    t0 = time.perf_counter()
    worst = worst_reference = 0.0
    for i in range(10_000):
        sc = random_feasible_scenario(rng)
        w = construct_projective(sc)
        out = evaluate_witness(w)
        worst = max(worst, triple_deviation(out, sc))
        if i % 10 == 0:
            worst_reference = max(worst_reference, reference_deviation(w, out))
    worst_boundary = 0.0
    for i in range(500):
        n = int(rng.integers(2, 7))
        dist = OutcomeDistribution(rng.dirichlet(np.ones(n)))
        root_d_half = float(np.sqrt(dist.probs).sum())
        s = 1.0 / root_d_half**2
        sc = ScenarioTriple(min(1.0, root_d_half**2 * s), s, dist)
        w = construct_projective(sc)
        out = evaluate_witness(w)
        worst_boundary = max(worst_boundary, triple_deviation(out, sc))
        if i % 10 == 0:
            worst_reference = max(worst_reference, reference_deviation(w, out))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "projective sufficiency round-trip",
        worst <= 1e-9 and worst_boundary <= 1e-8 and worst_reference <= REFERENCE_BOUND
        and elapsed < 30.0,
        f"worst {worst:.2e}, boundary worst {worst_boundary:.2e}, "
        f"reference {worst_reference:.2e}, {elapsed:.1f}s",
    )


def test_04_generalized_universality():
    rng = default_rng(404)
    worst = 0.0
    worst_complete = 0.0
    worst_collinear = 0.0
    worst_reference = 0.0  # every tenth witness, evaluated by tests/reference.py
    for i in range(10_000):
        sc = random_scenario(rng, allow_zeros=True)
        w = construct_generalized(sc)
        out = evaluate_witness(w)
        if i % 10 == 0:
            worst_reference = max(worst_reference, reference_deviation(w, out))
        worst = max(worst, triple_deviation(out, sc))
        d = w.dimension
        total = sum(v.conj().T @ v for v in w.kraus)
        worst_complete = max(worst_complete, float(np.max(np.abs(total - np.eye(d)))))
        psi = np.asarray(w.psi)
        states = []
        for k, v in enumerate(w.kraus):
            if sc.dist[k] == 0.0:
                continue
            outv = v @ psi
            states.append(outv / np.linalg.norm(outv))
        for other in states[1:]:
            worst_collinear = max(
                worst_collinear, abs(abs(np.vdot(states[0], other)) - 1.0)
            )
    report(
        4,
        "generalized universality",
        worst <= 1e-9 and worst_complete <= 1e-10 and worst_collinear <= 1e-9
        and worst_reference <= REFERENCE_BOUND,
        f"round-trip {worst:.2e}, completeness {worst_complete:.2e}, "
        f"collinearity {worst_collinear:.2e}, reference {worst_reference:.2e}",
    )


def test_05_forced_fairness():
    rng = default_rng(505)
    basis = (
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
    )
    worst = 0.0
    for _ in range(10_000):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = z / np.linalg.norm(z)
        phi = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        u = np.linalg.qr(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )[0]
        projectors = tuple(u @ p @ u.conj().T for p in basis)
        sc = evaluate_witness(ProjectiveWitness(psi, phi, projectors))
        worst = max(worst, abs(sc.dist[0] - 0.5))
    report(
        5,
        "orthogonal dichotomic forced fairness",
        worst <= 1e-9,
        f"max |P(1) - 1/2| = {worst:.2e} over 1e4 witnesses",
    )


def test_06_polarizer_maximum():
    best = oracle_max_s(0.0, 2, 2, 10_000, default_rng(606))
    boundary_ok = True
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        s_star = (t + 1.0) / 2.0
        if not check_ts_region(t, min(1.0, s_star), 2).feasible:
            boundary_ok = False
        if s_star + 1e-9 <= 1.0 and check_ts_region(t, s_star + 1e-9, 2).feasible:
            boundary_ok = False
    report(
        6,
        "polarizer maximum S",
        0.49 <= best <= 0.5 + 1e-9 and boundary_ok,
        f"search best {best:.6f}, boundary (T+1)/2 exact: {boundary_ok}",
    )


def test_07_failure_probability_factor():
    rng = default_rng(707)
    worst_gap = 0.0
    worst_excess = 0.0
    for _ in range(1000):
        t = float(rng.random())
        s_max = (t + 1.0) / 2.0
        # No feasible point may exceed S = (T+1)/2 ...
        if check_ts_region(t, min(1.0, s_max + 1e-6), 2).feasible and s_max + 1e-6 <= 1.0:
            worst_excess = max(worst_excess, 1e-6)
        # ... and a witness achieves it: failure probability exactly halved.
        dist = witness_distribution(t, s_max, 2)
        out = evaluate_witness(
            construct_projective(ScenarioTriple(t, s_max, dist))
        )
        worst_gap = max(worst_gap, abs((1.0 - out.s) - (1.0 - t) / 2.0))
    report(
        7,
        "failure probability halved at best",
        worst_excess == 0.0 and worst_gap <= 1e-9,
        f"max |(1-S) - (1-T)/2| at optimum = {worst_gap:.2e}",
    )


def test_08_lower_bound_t_over_four():
    rng = default_rng(808)
    worst = 0.0
    for t in (0.3, 0.6, 0.9):
        found = oracle_min_s(t, 4, 4, 6000, rng)
        worst = max(worst, abs(found - t / 4.0))
        assert found >= t / 4.0 - 1e-9
    report(
        8,
        "minimum S approaches T/4 at d=n=4",
        worst <= 0.02,
        f"max deviation from T/4: {worst:.4f}",
    )


def test_09_ternary_disk():
    grid = emit_ternary(400)
    inside = ~grid.has(OUTSIDE_SIMPLEX)
    frac = float(grid.feasible[inside].mean())
    frac_ok = abs(frac - INSCRIBED_DISK_FRACTION) <= 0.01 * INSCRIBED_DISK_FRACTION
    midpoints_ok = all(
        check_ternary_disk(OutcomeDistribution(p))
        for p in ((0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5))
    )
    vertices_ok = not any(
        check_ternary_disk(OutcomeDistribution(p))
        for p in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    )
    report(
        9,
        "ternary disk geometry",
        frac_ok and midpoints_ok and vertices_ok,
        f"area fraction {frac:.4f} vs {INSCRIBED_DISK_FRACTION:.4f}; "
        f"midpoints in: {midpoints_ok}, vertices out: {vertices_ok}",
    )


def test_10_entropy_inequalities():
    rng = default_rng(1010)
    worst = math.inf
    for _ in range(100_000):
        n = int(rng.integers(1, 9))
        prof = diversity_profile(OutcomeDistribution(rng.dirichlet(np.ones(n))))
        root_half = math.sqrt(prof.d_half)
        root_inf_inv = 1.0 / math.sqrt(prof.d_inf)
        worst = min(
            worst,
            prof.d_half - prof.d_inf,
            1.0 / prof.d_inf + (root_half - root_inf_inv) ** 2 - 1.0,
            1.0 - (2.0 * root_inf_inv - root_half),
        )
    report(
        10,
        "diversity ordering and peak inequalities",
        worst >= -1e-12,
        f"minimum slack {worst:.2e} over 1e5 distributions",
    )


def test_11_section_cuts():
    s_star = 2.0 / (2.0 + math.sqrt(3.0))
    res = 400
    grid = emit_pt_sections(s_star, res)
    has_t = grid.feasible.reshape(res, res).any(axis=1)
    p = grid.axes[0].centers()
    cell = 1.0 / res
    expected = (p <= 0.25) | (p >= 0.75)
    mismatch = has_t != expected
    # Allow mismatches only within one cell of the analytic cut points.
    near_cut = (np.abs(p - 0.25) <= cell) | (np.abs(p - 0.75) <= cell)
    ok = not np.any(mismatch & ~near_cut)
    report(
        11,
        "section support splits at p = 1/4, 3/4",
        ok,
        f"s = {s_star:.4f}, {int(mismatch.sum())} boundary-cell mismatches",
    )
