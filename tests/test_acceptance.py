"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failing tests) and then asserts, so the suite both
reports and gates.
"""

import time

import numpy as np
import pytest

from nptsub import (
    BipartiteDims,
    antidiag_sums,
    build_subspace,
    construct_via_dual_cone,
    count_negative_eigenvalues,
    eigh,
    partial_transpose,
    random_density_matrix,
    realign,
    sample_mixture_in_subspace,
    solve_construction_sdp,
    subspace_projector,
)
from nptsub.cli import load_matrix, paper_fixture_path, verify_matrix
from nptsub.subspace import locate_witness

CONSTRUCTION_DIMS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)]
MIXTURE_DIMS = [(2, 2), (3, 3), (3, 4)]
BOUND_DIMS = [(2, 2), (3, 3), (3, 4), (4, 5)]
TRIALS = 1000
BASE_SEED = 20_260_811


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {verdict}{suffix}")


@pytest.fixture(scope="module")
def mixture_samples():
    """Shared seeded mixtures with range in S for criteria 4 and 5."""
    samples = {}
    for m, n in MIXTURE_DIMS:
        dims = BipartiteDims(m, n)
        basis = build_subspace(dims)
        per_dims = []
        for i in range(TRIALS):
            rng = np.random.Generator(np.random.PCG64(BASE_SEED + i))
            ens = sample_mixture_in_subspace(basis, rank=min(3, basis.dim), rng=rng)
            per_dims.append(ens)
        samples[(m, n)] = (basis, per_dims)
    return samples


def test_criterion_1_fixture_reproduction():
    start = time.perf_counter()
    mat, dims, _ = load_matrix(paper_fixture_path())
    rep = verify_matrix(mat, dims)
    elapsed = time.perf_counter() - start

    negs = np.sort(np.array(rep.negative_eigenvalues))
    ok = (
        rep.is_hermitian
        and rep.is_psd
        and float(eigh(mat).eigenvalues[0]) >= -1e-10
        and abs(rep.trace - 1.0) <= 1e-12
        and rep.negative_count == 6
        and elapsed < 1.0
    )
    pair_ok = False
    value_ok = False
    if rep.negative_count == 6:
        pairs = negs.reshape(3, 2)
        pair_ok = bool(np.all(np.abs(pairs[:, 0] - pairs[:, 1]) <= 1e-6))
        value_ok = bool(
            np.all(np.abs(pairs[:, 0] - np.array([-0.0204, -0.0159, -0.0105])) <= 5e-4)
        )
    ok = ok and pair_ok and value_ok
    report(1, "fixture reproduction", ok,
           f"negatives={negs.round(6).tolist()}, {elapsed:.3f}s")
    assert ok


def test_criterion_2_direct_construction():
    failures = []
    details = []
    for m, n in CONSTRUCTION_DIMS:
        dims = BipartiteDims(m, n)
        P = subspace_projector(build_subspace(dims))
        start = time.perf_counter()
        sol = solve_construction_sdp(dims, P, tol_gap=1e-4)
        elapsed = time.perf_counter() - start
        count, _ = count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))
        limit = 60.0 if (m, n) != (5, 5) else 600.0
        checks = {
            "d>1+1e-6": sol.d >= 1 + 1e-6,
            "count": count == dims.npt_dim,
            "feas<=1e-6": sol.residuals["pt_constraint_gap"] <= 1e-6,
            "psd": sol.residuals["psd_gap"] <= 1e-9,
            "time": elapsed <= limit,
        }
        if not all(checks.values()):
            failures.append(((m, n), checks))
        details.append(f"({m},{n}) d={sol.d:.6f} {elapsed:.1f}s")
    report(2, "construction, direct route", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_3_dual_cone_construction():
    failures = []
    details = []
    for m, n in CONSTRUCTION_DIMS:
        dims = BipartiteDims(m, n)
        P = subspace_projector(build_subspace(dims))
        dec = construct_via_dual_cone(dims, P)
        count, _ = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
        margin = float(np.linalg.eigvalsh(dec.X1)[0])  # X = X1 + X2^G by construction
        checks = {
            "c in (0,1)": 0.0 < dec.c < 1.0,
            "split_margin>=-1e-9": margin >= -1e-9,
            "count": count == dims.npt_dim,
        }
        if (m, n) == (2, 2):
            checks["c=0.5+-1e-5"] = abs(dec.c - 0.5) <= 1e-5
            sol = solve_construction_sdp(dims, P, tol_gap=1e-4)
            checks["d*=1.5+-1e-4"] = abs(sol.d - 1.5) <= 1e-4
        if not all(checks.values()):
            failures.append(((m, n), checks))
        details.append(f"({m},{n}) c={dec.c:.6f} margin={margin:.1e}")
    report(3, "construction, dual-cone route", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_4_npt_property_suite(mixture_samples):
    failures = 0
    total = 0
    for (m, n), (basis, ensembles) in mixture_samples.items():
        dims = BipartiteDims(m, n)
        for ens in ensembles:
            total += 1
            w = eigh(partial_transpose(ens.to_density_matrix().mat, dims)).eigenvalues
            if not float(w[0]) < -1e-12 * float(w[-1]):
                failures += 1
    ok = failures == 0 and total == TRIALS * len(MIXTURE_DIMS)
    report(4, "NPT property suite", ok, f"{total - failures}/{total} NPT")
    assert ok


def test_criterion_5_witness_suite(mixture_samples):
    failures = 0
    total = 0
    for (m, n), (basis, ensembles) in mixture_samples.items():
        for ens in ensembles:
            total += 1
            try:
                cert = locate_witness(ens, basis)
            except Exception:  # noqa: BLE001
                failures += 1
                continue
            if not (
                cert.determinant < 0
                and abs(cert.determinant + abs(cert.mixture_sum) ** 2) <= 1e-10
            ):
                failures += 1
    ok = failures == 0 and total == TRIALS * len(MIXTURE_DIMS)
    report(5, "witness suite", ok, f"{total - failures}/{total} certificates valid")
    assert ok


def test_criterion_6_upper_bound_suite():
    failures = 0
    total = 0
    for m, n in BOUND_DIMS:
        dims = BipartiteDims(m, n)
        cap = dims.npt_dim
        for i in range(TRIALS):
            total += 1
            rho = random_density_matrix(dims, rank=dims.total, seed=BASE_SEED + i)
            count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, dims))
            if count > cap:
                failures += 1
    ok = failures == 0
    report(6, "negative-count upper bound suite", ok,
           f"{total - failures}/{total} within cap")
    assert ok


def test_criterion_7_subspace_structure():
    failures = []
    for m in range(2, 7):
        for n in range(2, 7):
            dims = BipartiteDims(m, n)
            basis = build_subspace(dims)
            P = subspace_projector(basis).P
            ok = (
                basis.dim == dims.npt_dim
                and np.linalg.norm(P @ P - P) <= 1e-10
                and np.abs(P - P.conj().T).max() <= 1e-10
            )
            for g in basis.generators.T:
                sums = antidiag_sums(realign(g, dims))
                ok = ok and bool(np.abs(sums).max() <= 1e-12)
            if not ok:
                failures.append((m, n))
    report(7, "subspace structure", not failures,
           "dims 2..6 squared, projector and anti-diagonal checks")
    assert not failures, failures


def test_criterion_8_linear_algebra():
    sizes = [4, 9, 16, 36, 64, 100, 144]
    worst_resid = 0.0
    worst_orth = 0.0
    for d in sizes:
        rng = np.random.default_rng(d)
        for _ in range(100):
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            A = (A + A.conj().T) / 2
            spec = eigh(A)
            scale = max(1.0, float(np.linalg.norm(A)))
            resid = float(
                np.linalg.norm(A @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues)
            )
            worst_resid = max(worst_resid, resid / scale)
            orth = float(
                np.linalg.norm(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(d))
            )
            worst_orth = max(worst_orth, orth)
    resid_ok = worst_resid <= 1e-11
    orth_ok = worst_orth <= 1e-10

    rng = np.random.default_rng(1)
    dims = BipartiteDims(3, 4)
    involution_ok = True
    for _ in range(50):
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        involution_ok = involution_ok and np.array_equal(
            partial_transpose(partial_transpose(A, dims), dims), A
        )
    ok = resid_ok and orth_ok and involution_ok
    report(8, "linear algebra", ok,
           f"max resid={worst_resid:.2e}, max orth={worst_orth:.2e}, "
           f"involution bit-exact={involution_ok}")
    assert ok
