"""Acceptance gate: one test per criterion, each printing a verdict line.

The shipped scenarios are executed once per session and shared; criteria
assert on their reports at the pinned tolerances.  Run with ``pytest -s
tests/test_acceptance.py`` to see the verdict lines as they appear.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from proplab import (Potential, build_adaptor, load_scenario, run_scenario,
                     serialize_config)
from proplab.cli import main as cli_main
from proplab.suites import operator_identity_suite

from conftest import plant


def announce(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_runs")


@pytest.fixture(scope="module")
def radial_artifact(out_root):
    t0 = time.time()
    artifact = run_scenario(load_scenario("positive_potential_radial"), str(out_root))
    artifact.elapsed = time.time() - t0
    return artifact


@pytest.fixture(scope="module")
def well_artifact(out_root):
    return run_scenario(load_scenario("well_with_barrier"), str(out_root))


@pytest.fixture(scope="module")
def selfsim_artifact(out_root):
    return run_scenario(load_scenario("self_similar_W"), str(out_root))


@pytest.fixture(scope="module")
def nls_artifact(out_root):
    return run_scenario(load_scenario("cubic_nls_small"), str(out_root))


@pytest.fixture(scope="module")
def morawetz_artifact(out_root):
    return run_scenario(load_scenario("morawetz_radial"), str(out_root))


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def test_criterion_1_operator_identities():
    t0 = time.time()
    config = load_scenario("free")
    report = operator_identity_suite(config.grid_n, config.grid_extent,
                                     Potential.zero(), state_width=config.state_width,
                                     dt_ref=config.dt)
    elapsed = time.time() - t0
    by = checks_by_name(report)
    ok = (report.passed
          and by["dilation commutator residual"].measured <= 1e-4
          and 3.5 <= by["dilation commutator h-halving ratio"].measured <= 4.5
          and by["free conformal conservation residual"].measured <= 1e-4
          and 3.5 <= by["free conformal refinement ratio"].measured <= 4.5
          and elapsed <= 60.0)
    announce(1, ok, f"weak-form residuals <= 1e-4 at n=1024 with x4 refinement "
                    f"ratios ({elapsed:.1f}s)")


def test_criterion_2_adaptor_suite(radial_artifact):
    report = radial_artifact.reports["adaptor"]
    by = checks_by_name(report)
    ok = (by["hermiticity"].passed
          and by["continuous-subspace support"].passed
          and by["positivity (for -Q >= 0)"].passed
          and by["truncated commutator closure"].passed
          and by["weighted residual non-increasing in horizon"].passed)

    # brute-force quadrature oracle on small systems, to 1e-6
    from conftest import dense_adaptor
    from test_adaptors import brute_force_adaptor
    from proplab import (HermitianOperator, classify_spectrum, conformal_Q,
                         diagonalize, laplacian, make_grid)
    g = make_grid("line", 12, 6.0)
    pot = Potential.gaussian(0.8)
    h = HermitianOperator(laplacian(g).matrix + np.diag(pot.v(g.points)), g, "H")
    spec = classify_spectrum(diagonalize(h))
    q = conformal_Q(pot, g)
    b = build_adaptor(spec, q, 2.5)
    gap = np.abs(dense_adaptor(b) - brute_force_adaptor(spec, q.samples, 2.5, steps=6000)).max()
    ok = ok and gap <= 1e-6
    announce(2, ok, f"B_V invariants, exact closure, oracle gap {gap:.2e}, "
                    f"monotone weighted residual")


def test_criterion_3_pointwise_weighted_decay(radial_artifact):
    report = radial_artifact.reports["weighted_decay"]
    slope = report.rates["weighted_norm"]
    ok = (-1.25 <= slope <= -0.80) and radial_artifact.elapsed <= 180.0
    announce(3, ok, f"weighted propagator norm slope {slope:+.3f} over [5,50] "
                    f"({radial_artifact.elapsed:.0f}s for the whole scenario)")


def test_criterion_4_conformal_corollary(radial_artifact):
    report = radial_artifact.reports["positive_potential"]
    by = checks_by_name(report)
    l6 = report.rates["L6"]
    f1 = report.rates["first_level"]
    bound = by["uniform conformal+potential bound"]
    ok = (-1.25 <= l6 <= -0.80 and -0.70 <= f1 <= -0.35 and bound.passed)
    announce(4, ok, f"L6 slope {l6:+.3f}, first-level slope {f1:+.3f}, "
                    f"uniform bound ratio {bound.measured:.3g} with no growth trend")


def test_criterion_5_general_potential(well_artifact):
    report = well_artifact.reports["general_potential"]
    by = checks_by_name(report)
    ok = (report.rates["delta_star"] > 0
          and by["lens lower bound uniform in t"].passed
          and by["iterated t^2 [(-x.grad V)]_+ bound"].passed)
    announce(5, ok, f"delta* = {report.rates['delta_star']:.3f} > 0, lens bound "
                    f"uniform on [1,50], iterated series bounded")


def test_criterion_6_time_dependent(selfsim_artifact, out_root):
    report = selfsim_artifact.reports["timedep"]
    by = checks_by_name(report)
    core = (by["dispersive integral bounded"].passed
            and by["H1 norm bounded"].passed
            and by["asymptotic energy Cauchy decrease"].passed
            and by["integration by parts over time"].passed
            and by["integration by parts over time"].measured <= 1e-4)

    strong = replace(load_scenario("self_similar_W"), name="self_similar_strong",
                     timedep_delta=1.0, expect_log_growth=True,
                     suites=("timedep",))
    strong_art = run_scenario(strong, str(out_root))
    srep = strong_art.reports["timedep"]
    sby = checks_by_name(srep)
    log_ok = sby["log-growth envelope"].passed and np.isfinite(srep.rates["log_coefficient"])
    announce(6, core and log_ok,
             f"dispersive/H1/Cauchy/IBP pass at delta=0.05 "
             f"(IBP gap {by['integration by parts over time'].measured:.2e}); "
             f"delta=1.0 grows like {srep.rates['log_coefficient']:.3g} log t")


def test_criterion_7_cubic_flow(nls_artifact):
    report = nls_artifact.reports["nls"]
    by = checks_by_name(report)
    ok = (by["mass conservation"].measured <= 1e-10
          and 3.5 <= by["order-2 step convergence ratio"].measured <= 4.5
          and report.rates["sup_norm"] <= -0.3)
    announce(7, ok, f"mass drift {by['mass conservation'].measured:.1e}, "
                    f"dt ratio {by['order-2 step convergence ratio'].measured:.2f}, "
                    f"sup-norm slope {report.rates['sup_norm']:+.3f}")


def test_criterion_8_morawetz(morawetz_artifact):
    report = morawetz_artifact.reports["morawetz"]
    by = checks_by_name(report)
    ok = (by["kinetic Morawetz commutator positivity"].passed
          and by["smoothing integral envelope fit"].passed
          and by["smoothing constants stable under refinement"].passed
          and by["smoothing constants stable under refinement"].measured <= 0.20)
    announce(8, ok, f"commutator min eig {by['kinetic Morawetz commutator positivity'].measured:.2e}, "
                    f"C={report.rates['smoothing_C']:.3g} C'={report.rates['smoothing_Cprime']:.3g} "
                    f"stable to {by['smoothing constants stable under refinement'].measured:.1%}")



def test_morawetz_writes_its_series(morawetz_artifact):
    # the smoothing partial integrals of both sweeps (n = 640 and the refined
    # n = 961) at the same 8 checkpoints, and L6^2 at the 10 L6 times
    series = morawetz_artifact.reports["morawetz"].series
    assert sorted(series) == ["l6_squared", "smoothing_integral", "smoothing_integral_refined"]
    assert sorted(map(os.path.basename, morawetz_artifact.series_files)) == [
        f"morawetz__{key}.tsv" for key in sorted(series)]
    coarse, fine = series["smoothing_integral"], series["smoothing_integral_refined"]
    assert len(coarse.times) == 8 and coarse.times.tobytes() == fine.times.tobytes()
    assert len(series["l6_squared"].times) == 10 and np.all(np.diff(coarse.values) > 0)


def failed_checks(artifact):
    return sorted(c.name for report in artifact.reports.values() for c in report.checks
                  if not c.passed)


def test_criterion_9_negative_tests(out_root, monkeypatch):
    # each planted defect FAILs exactly the checks that read what it breaks
    bad_q = replace(load_scenario("positive_potential_radial"),
                    name="flipped_q", grid_n=256, grid_extent=60.0,
                    t_max=6.0, suites=("adaptor",))
    with monkeypatch.context() as patch:
        plant(patch, "flipped_q")
        art_q = run_scenario(bad_q, str(out_root))

    bad_db = replace(load_scenario("free"), name="negated_db_dt", grid_n=256,
                     grid_extent=16.0, t_max=2.0, dt=0.01,
                     suites=("conformal_identity",))
    with monkeypatch.context() as patch:
        plant(patch, "negated_db_dt")
        art_db = run_scenario(bad_db, str(out_root))

    focusing = serialize_config(load_scenario("cubic_nls_small")).replace(
        "lambda = 1.0", "lambda = -1.0")
    cfg_path = out_root / "focusing.cfg"
    cfg_path.write_text(focusing)
    code = cli_main(["run", str(cfg_path), "--out-dir", str(out_root)])

    q_fails, db_fails = failed_checks(art_q), failed_checks(art_db)
    ok = (q_fails == ["expectation decay slope <= -0.8", "expectation nonnegative",
                      "positivity (for -Q >= 0)"]
          and db_fails == ["Heisenberg consistency"] and code == 2)
    announce(9, ok, f"sign-flipped Q fails {q_fails}, negated dB/dt fails {db_fails}, "
                    f"focusing lambda rejected (exit {code})")


def test_criterion_10_determinism(out_root):
    config = load_scenario("free")
    a = run_scenario(config, str(out_root / "det_a"))
    b = run_scenario(config, str(out_root / "det_b"))
    identical = True
    for pa, pb in zip(a.series_files, b.series_files):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            identical = identical and fa.read() == fb.read()
    identical = identical and len(a.series_files) == len(b.series_files) > 0
    announce(10, identical, f"{len(a.series_files)} series files byte-identical "
                            f"across repeated runs")
