import dataclasses
import re

import numpy as np
import pytest

from nptsub import (
    BipartiteDims,
    DensityMatrix,
    build_subspace,
    closed_form_state,
    construct_via_dual_cone,
    count_negative_eigenvalues,
    errors,
    frob_inner,
    optimize_over_ppt,
    partial_transpose,
    solve_construction_sdp,
    subspace_projector,
)
from nptsub import _layout, sdp, subspace
from nptsub._layout import _pictures
from nptsub.linalg import _clamp_psd
from nptsub.sdp import _ConePair, _max_shift, _round_to_ppt

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D34 = BipartiteDims(3, 4)


@pytest.fixture
def no_iteration(monkeypatch):
    """Fail the test if the splitting loop runs."""
    def fail(*args, **kwargs):
        raise AssertionError("the splitting loop ran")

    monkeypatch.setattr(sdp, "_split", fail)


@pytest.fixture
def no_frame(monkeypatch):
    """Find no local frame, so that a locally rotated projector runs on one
    complex block of all mn x mn entries: the path of every input that no
    local unitary takes to real sector blocks."""
    monkeypatch.setattr(_layout, "_local_frame", lambda *args: None)


def npt_projector(dims):
    return subspace_projector(build_subspace(dims))


def haar_unitary(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def rotated_projector(dims, rng):
    """(U x V) P (U x V)^dag for Haar U, V: same optimum, no block structure."""
    U = np.kron(haar_unitary(dims.m, rng), haar_unitary(dims.n, rng))
    R = U @ npt_projector(dims).P @ U.conj().T
    return (R + R.conj().T) / 2


def maximally_entangled():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def singlet_projector():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def _product_see_saw(W, m, n, rng, restarts=40, sweeps=200):
    """Brute-force max of <a x b|W|a x b> by alternating eigenvector updates."""
    T = W.reshape(m, n, m, n)
    best = -np.inf
    for _ in range(restarts):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b /= np.linalg.norm(b)
        val = -np.inf
        for _ in range(sweeps):
            # T[i, j, k, l] pairs (a*_i b*_j) with (a_k b_l)
            Ma = np.einsum("j,ijkl,l->ik", b.conj(), T, b)
            wa, Va = np.linalg.eigh((Ma + Ma.conj().T) / 2)
            a = Va[:, -1]
            Mb = np.einsum("i,ijkl,k->jl", a.conj(), T, a)
            wb, Vb = np.linalg.eigh((Mb + Mb.conj().T) / 2)
            b = Vb[:, -1]
            if abs(wb[-1] - val) < 1e-14:
                break
            val = wb[-1]
        best = max(best, float(val))
    return best


ENTRY_POINTS = {
    "construction_sdp": lambda dims, M, **kw: solve_construction_sdp(dims, M, **kw),
    "dual_cone_route": lambda dims, M, **kw: construct_via_dual_cone(dims, M, **kw),
    "optimize_over_ppt": lambda dims, M, **kw: optimize_over_ppt(dims, M, **kw),
}


class TestInputValidation:
    """Every solver entry point takes only a Hermitian mn x mn matrix."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("shape", [(5, 5), (4, 3), (16,)], ids=["5x5", "4x3", "flat"])
    def test_wrong_shape(self, entry, shape):
        with pytest.raises(errors.ShapeMismatch):
            ENTRY_POINTS[entry](D22, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("defect", ["asymmetric", "nan"])
    def test_not_hermitian(self, entry, defect):
        M = npt_projector(D22).P.copy()
        if defect == "asymmetric":
            M[0, 1] += 0.5
        else:
            M[0, 0] = np.nan
        with pytest.raises(errors.NotHermitian):
            ENTRY_POINTS[entry](D22, M)

    @pytest.mark.parametrize("entry,name", [
        ("construction_sdp", "tol_gap"),
        ("optimize_over_ppt", "tol"),
        ("dual_cone_route", "tol_c"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_bad_tolerance(self, entry, name, bad, no_iteration):
        # rejected before the first iteration, not after the whole budget
        with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
            ENTRY_POINTS[entry](D22, npt_projector(D22).P, **{name: bad})

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad,message", [
        (0, "max_iter must be at least 1, got 0"),
        (-5, "max_iter must be at least 1, got -5"),
        (2.5, "max_iter must be an integer, got 2.5"),
        (True, "max_iter must be an integer, got True"),
    ], ids=["zero", "negative", "float", "bool"])
    def test_bad_iteration_budget(self, entry, bad, message, no_iteration):
        # rejected before the splitting loop, not by a TypeError inside it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ENTRY_POINTS[entry](D22, npt_projector(D22).P, max_iter=bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_projector_of_other_dims(self, entry, no_iteration):
        # a 3 x 4 projector has the 12 x 12 shape of 2 x 6, but not its dims
        with pytest.raises(errors.ShapeMismatch, match="projector of dims"):
            ENTRY_POINTS[entry](BipartiteDims(2, 6), npt_projector(D34))

    @pytest.mark.parametrize("entry", ["construction_sdp", "dual_cone_route"])
    @pytest.mark.parametrize("P", [np.zeros((4, 4)), -np.eye(4)], ids=["zero", "negative"])
    def test_trace_not_positive_is_degenerate(self, entry, P, no_iteration):
        # both routes refuse a P of trace <= 0 before the first iteration
        with pytest.raises(errors.DegenerateSubspace, match="positive trace"):
            ENTRY_POINTS[entry](D22, P)


class TestConstructionSdp:
    def test_2x2_analytic_optimum(self, monkeypatch):
        # sandwiching the constraint with the singlet forces d <= 3/2,
        # attained by the maximally entangled state.  That state is the
        # closed-form seed, returned at iteration 0 with the product bound
        # 2 above it; unseeded, the loop closes the gap on 3/2
        seeded = solve_construction_sdp(D22, npt_projector(D22))
        assert seeded.iterations == 0
        assert seeded.upper_bound == pytest.approx(2.0, rel=0, abs=1e-12)
        TestClosedFormSeed.unseeded(monkeypatch)
        plain = solve_construction_sdp(D22, npt_projector(D22))
        assert plain.upper_bound - plain.lower_bound <= 1e-4 + 1e-12
        for sol in (seeded, plain):
            assert sol.converged
            assert sol.d == pytest.approx(1.5, abs=1e-4)
            assert frob_inner(maximally_entangled(), sol.rho.mat) >= 0.999
            count, negs = count_negative_eigenvalues(partial_transpose(sol.rho.mat, D22))
            assert count == 1
            assert negs[0] == pytest.approx(-0.5, abs=1e-3)

    def test_2x2_certified_feasibility(self):
        sol = solve_construction_sdp(D22, npt_projector(D22))
        assert sol.residuals["psd_gap"] <= 1e-9
        assert sol.residuals["pt_constraint_gap"] <= 1e-6
        assert sol.residuals["trace_gap"] <= 1e-10

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4)])
    def test_negative_count_and_margin(self, m, n):
        dims = BipartiteDims(m, n)
        sol = solve_construction_sdp(dims, npt_projector(dims))
        assert sol.d >= 1 + 1e-6
        count, _ = count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))
        assert count == dims.npt_dim

    @pytest.mark.parametrize("m,n", [(1, 4), (4, 1)])
    def test_zero_projector_is_degenerate(self, m, n, no_iteration):
        # m = 1 or n = 1: the projector is zero and d is unbounded, so the
        # solve is refused before the first iteration
        with pytest.raises(errors.DegenerateSubspace):
            solve_construction_sdp(BipartiteDims(m, n), np.zeros((4, 4), dtype=complex))

    @pytest.mark.parametrize("P,optimum", [
        (0.45 * singlet_projector(), 1.5 / 0.45),
        (0.6 * singlet_projector(), 1.5 / 0.6),
        (np.diag([0.4, 0.0, 0.0, 0.0]), 2.5),
    ], ids=["0.45-singlet", "0.6-singlet", "diag-0.4"])
    def test_small_trace_is_certified(self, P, optimum, monkeypatch):
        # a P of trace below 1 runs the same certified solve: the singlet
        # bound d <= 3/2 scales to 1.5/s, and |11><11| attains 1/0.4.  At
        # s = 0.6 (rank 1) the seed claims, so the seeded bracket is
        # [2.5, 1/0.3] from iteration 0; unseeded, the loop closes it
        seeded = solve_construction_sdp(D22, P)
        TestClosedFormSeed.unseeded(monkeypatch)
        plain = solve_construction_sdp(D22, P)
        assert plain.upper_bound <= plain.lower_bound + 1e-4
        for sol in (seeded, plain):
            assert sol.converged
            assert sol.lower_bound <= optimum + 1e-9
            assert sol.upper_bound >= optimum - 1e-9
            assert sol.lower_bound <= sol.upper_bound
            M = partial_transpose(sol.rho.mat, D22) + sol.lower_bound * P - np.eye(4)
            assert np.linalg.eigvalsh(M)[-1] <= 1e-12

    def test_wide_bracket_inversion_raises(self, monkeypatch):
        # a lower bound far above the dual bound is not rounding: the
        # solver must not report it as a certified (empty) bracket
        monkeypatch.setattr(sdp, "_max_shift", lambda *args: 10.0)
        with pytest.raises(errors.NoConvergence, match="bracket is empty") as err:
            solve_construction_sdp(D22, npt_projector(D22).P)
        assert err.value.partial.lower_bound == 10.0 > err.value.partial.upper_bound
        assert not err.value.partial.converged

    def test_dense_residual_raises_after_a_claim_stop(self, monkeypatch, no_frame):
        # a claim stop waives the gap, not the dense feasibility recheck:
        # neither on P, whose closed-form seed stops the solve at iteration
        # 0, nor on the Haar-rotated P on one complex block, which the seed
        # does not fit and whose solve stops at round 250
        residuals = sdp._construction_residuals
        monkeypatch.setattr(sdp, "_construction_residuals",
                            lambda *args: {**residuals(*args), "pt_constraint_gap": 1e-6})
        dims = BipartiteDims(5, 6)
        for P, iterations in ((npt_projector(dims), 0),
                              (rotated_projector(dims, np.random.default_rng(30)), 250)):
            with pytest.raises(errors.NoConvergence, match="^construction SDP dense residual "
                               f"1.000e-06 above 1e-07 after {iterations} iterations$") as err:
                solve_construction_sdp(dims, P)
            assert not err.value.partial.converged

    def test_local_unitary_invariance(self):
        # conjugating the projector by A (x) B transforms the feasible set
        # covariantly, so the optimum cannot move
        rng = np.random.default_rng(1)
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            dims = BipartiteDims(m, n)
            base = solve_construction_sdp(dims, npt_projector(dims).P).d
            rotated = rotated_projector(dims, rng)
            assert solve_construction_sdp(dims, rotated).d == pytest.approx(
                base, abs=2e-4
            )

    def test_bracket_around_one_raises(self, no_frame):
        # at the default tol_gap the bracket of the Haar-rotated 7 x 7
        # projector on one complex block, which the closed-form seed does
        # not fit, closes around 1: it does not decide the claim d > 1, so
        # the solve raises with that bracket and its state (30 of the 36
        # negatives) attached.  Its upper end is the product bound 1/c from
        # the start, so the gap closes at round 200 (550 without that start)
        dims = BipartiteDims(7, 7)
        with pytest.raises(errors.NoConvergence, match="does not decide d against 1") as err:
            solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(49)))
        assert "smaller tol_gap, such as 1e-05" in str(err.value)
        sol = err.value.partial
        assert not sol.converged
        assert sol.iterations == 200
        assert sol.lower_bound == pytest.approx(0.9999482177216985, rel=0, abs=1e-9)
        assert sol.upper_bound == pytest.approx(1.0000274521884203, rel=0, abs=1e-9)
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == 30

    def test_smaller_gap_certifies_7x7(self, no_frame):
        # the tol_gap the error above names certifies the rotated 7 x 7
        # claim on one complex block (at round 1,550); on P, and on the
        # rotation in its local frame, the starting bracket needs no rerun
        dims = BipartiteDims(7, 7)
        sol = solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(49)),
                                     tol_gap=1e-5)
        assert sol.converged and sol.lower_bound > 1.0
        assert sol.iterations == 1550
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == 36

    def test_claim_stop(self, no_frame):
        # the gap-closing solve takes 450 iterations here.  On P the
        # closed-form state certifies d > 1 with all 20 negatives before the
        # first iteration, and the product bound is finite, so the solve
        # stops at iteration 0; the Haar-rotated projector (one complex
        # block), which the seed does not fit, certifies the claim at round
        # 250
        dims = BipartiteDims(5, 6)
        sol = solve_construction_sdp(dims, npt_projector(dims))
        rot = solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(30)))
        for s, iterations in ((sol, 0), (rot, 250)):
            assert s.converged
            assert s.iterations == iterations
            assert 1.0 < s.lower_bound <= s.upper_bound < np.inf
            assert s.upper_bound - s.lower_bound > 1e-4  # converged on the claim, not the gap
            count, _ = count_negative_eigenvalues(partial_transpose(s.rho.mat, dims))
            assert count == dims.npt_dim == 20
        assert rot.lower_bound == pytest.approx(1.000095808027662, rel=0, abs=1e-9)

    def test_count_miss_does_not_stop(self, monkeypatch):
        # a state without the target count is no claim: with a target no
        # state reaches, the solve runs on until the gap closes
        monkeypatch.setattr(sdp, "_target_count", lambda P: 21)
        dims = BipartiteDims(5, 6)
        sol = solve_construction_sdp(dims, npt_projector(dims))
        assert sol.iterations == 450
        assert sol.upper_bound - sol.lower_bound <= 1e-4

    def test_budget_exhaustion_raises(self, no_frame):
        # on the rotated P on one complex block, which the closed-form seed
        # does not fit, three iterations certify neither the claim nor the
        # gap
        with pytest.raises(errors.NoConvergence, match="gap") as err:
            solve_construction_sdp(D34, rotated_projector(D34, np.random.default_rng(12)), max_iter=3)
        partial = err.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.residuals["psd_gap"] <= 1e-9  # rounded output is still a state


def antisymmetric_projector():
    """(I - F) / 2 on C^3 (x) C^3, F the swap: rank 3, real and sector-block."""
    j, k = np.divmod(np.arange(9), 3)
    F = np.zeros((9, 9))
    F[k * 3 + j, j * 3 + k] = 1.0
    return (np.eye(9) - F) / 2


def dense_shift(dims, P, rho):
    """Largest d with d P <= I - rho^G, from one dense eigh: 1 over the top
    eigenvalue of M^(-1/2) P M^(-1/2), M = I - rho^G."""
    w, V = np.linalg.eigh(np.eye(dims.total) - partial_transpose(rho, dims))
    M_isqrt = (V / np.sqrt(w)) @ V.conj().T
    return 1.0 / np.linalg.eigvalsh(M_isqrt @ P @ M_isqrt)[-1]


SEED_SIZES = [(m, n) for m in range(2, 11) for n in range(m, 11)]
SEED_ROTATIONS = [(2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)]


class TestClosedFormSeed:
    """The direct route starts its bracket's lower end at the closed-form
    state when that state already certifies the claim, d > 1 with rank P
    negatives, and its upper end at the product-state bound 1 / c.  A
    claiming start with a finite upper end is the first certify round: the
    solve returns it at iteration 0, on P and on its local rotations from
    2 x 2 to 10 x 10.  The splitting loop itself runs on the unseeded
    solve (``unseeded``), which the tests that pin its rounds use."""

    @staticmethod
    def unseeded(monkeypatch):
        # the maximally mixed state never claims: its shift is 1 - 1/mn < 1
        monkeypatch.setattr(sdp, "_closed_form", lambda dims: np.eye(dims.total) / dims.total)

    @pytest.mark.parametrize("m,n,rotated", [
        *[pytest.param(m, n, False, id=f"{m}-{n}") for m, n in SEED_SIZES],
        *[pytest.param(m, n, True, id=f"rotated-{m}-{n}") for m, n in SEED_ROTATIONS],
    ])
    def test_claim_at_the_first_certify_round(self, m, n, rotated):
        # the starting bracket, [d of the closed form, the product bound],
        # already claims, so the solve returns it at iteration 0 whatever
        # its gap (unseeded, the 7 x 7 bracket closes around 1 after 550
        # iterations with 33 of 36 negatives, and 8 x 8's after 400 with 41
        # of 49).  A Haar rotation is solved in its local frame, with the
        # seed taken in the frame: the same d, to rounding
        dims = BipartiteDims(m, n)
        P = npt_projector(dims).P
        rho_cf = closed_form_state(dims).mat
        M = rotated_projector(dims, np.random.default_rng(m * n)) if rotated else P
        assert (_pictures(dims, M)[0].frame is not None) == rotated
        sol = solve_construction_sdp(dims, M)
        assert sol.converged
        assert sol.iterations == 0
        assert sol.lower_bound == pytest.approx(dense_shift(dims, P, rho_cf), rel=0, abs=1e-12)
        assert 1.0 < sol.lower_bound <= sol.upper_bound
        assert sol.upper_bound == pytest.approx(1.0 / sdp._product_state(dims, M)[0], rel=0, abs=1e-12)
        assert sol.residuals["pt_constraint_gap"] <= sdp._TOL_FEAS
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == dims.npt_dim
        if not rotated:
            assert sol.rho.mat.dtype == rho_cf.dtype and sol.rho.mat.tobytes() == rho_cf.tobytes()

    @pytest.mark.parametrize("m,n,lb", [(5, 6, 1.000059535999984), (6, 6, 1.000015005101734)])
    def test_open_starting_gap_stops_at_iteration_0(self, m, n, lb):
        # the product bound is 1 + 7.2e-4 and 1 + 2.3e-4 here, so the
        # starting gap is open: the seeded solve still returns at iteration
        # 0, with the seed's d, which round 50 did not beat, and the product
        # bound, tighter than round 50's (1 + 1.8e-3 and 1 + 1.5e-3)
        dims = BipartiteDims(m, n)
        P = npt_projector(dims)
        sol = solve_construction_sdp(dims, P)
        assert sol.converged
        assert sol.iterations == 0
        assert sol.lower_bound == pytest.approx(lb, rel=0, abs=1e-9)
        assert sol.upper_bound - sol.lower_bound > sdp.DEFAULT_TOL_GAP
        assert sol.upper_bound == pytest.approx(1.0 / sdp._product_state(dims, P.P)[0], rel=0, abs=1e-12)
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == dims.npt_dim

    @pytest.mark.parametrize("kind,iterations,lb,ub", [
        ("P-7x7", 50, 1.000001354737846, 1.0029533799855306),
        ("P-5x6", 50, 1.000059535999984, 1.0018042947384072),
        ("rotated-7x7", 550, 0.9999530752011003, 1.0000497044252692),
    ])
    def test_no_product_start_changes_nothing_else(self, kind, iterations, lb, ub, monkeypatch, no_frame):
        # a product state of overlap 0 offers no dual certificate, so the
        # upper end starts at inf: each solve returns the values it had
        # before the product start (the rotated 7 x 7 raises, as then)
        m, n = (7, 7) if kind.endswith("7x7") else (5, 6)
        dims = BipartiteDims(m, n)
        P = rotated_projector(dims, np.random.default_rng(49)) if kind == "rotated-7x7" else npt_projector(dims)
        monkeypatch.setattr(sdp, "_product_state", lambda dims, P: (0.0, np.zeros(dims.total)))
        try:
            sol = solve_construction_sdp(dims, P)
        except errors.NoConvergence as err:
            assert kind == "rotated-7x7"
            sol = err.partial
        assert sol.iterations == iterations
        assert sol.lower_bound == pytest.approx(lb, rel=0, abs=1e-12)
        assert sol.upper_bound == pytest.approx(ub, rel=0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["rotated-5x5", "antisymmetric-3x3"])
    def test_unclaimed_seed_changes_nothing(self, kind, monkeypatch, no_frame):
        # the closed form does not fit the rotated projector on one complex
        # block (d < 1 there), and has 4 negatives where the antisymmetric
        # projector's rank is 3: each solve is bit for bit the unseeded one
        if kind == "rotated-5x5":
            dims = BipartiteDims(5, 5)
            P, iterations, lb = rotated_projector(dims, np.random.default_rng(25)), 150, 1.0003030248201392
        else:
            dims, P, iterations, lb = D33, antisymmetric_projector(), 50, 4 / 3
            rho_pt = partial_transpose(closed_form_state(dims).mat, dims)
            assert count_negative_eigenvalues(rho_pt)[0] == 4 != sdp._target_count(P) == 3
        seeded = solve_construction_sdp(dims, P)
        self.unseeded(monkeypatch)
        plain = solve_construction_sdp(dims, P)
        assert (seeded.iterations, seeded.lower_bound, seeded.upper_bound) == (
            plain.iterations, plain.lower_bound, plain.upper_bound)
        assert seeded.rho.mat.tobytes() == plain.rho.mat.tobytes()
        assert seeded.iterations == iterations
        assert seeded.lower_bound == pytest.approx(lb, rel=0, abs=1e-9)

    def test_rank_zero_has_no_seed(self, monkeypatch):
        # a P of rank 0 has no claim, so the closed form is never built
        def fail(dims):
            raise AssertionError("the closed form was built")

        monkeypatch.setattr(sdp, "_closed_form", fail)
        sol = solve_construction_sdp(D22, 0.45 * singlet_projector())
        assert sol.converged


def product_oracle(m, n):
    """The PPT maximum c of <P, sigma>: cos^2(pi/2n) at 2 x n, 10/11 at 3 x 3
    and (9 + 2 sqrt 2)/12 at 4 x 4."""
    if m == 2:
        return np.cos(np.pi / (2 * n)) ** 2
    return 10.0 / 11.0 if n == 3 else (9.0 + 2.0 * np.sqrt(2.0)) / 12.0


PRODUCT_ORACLE_DIMS = [*[(2, n) for n in range(2, 9)], (3, 3), (4, 4)]


class TestProductState:
    """The product vector whose overlap with P starts the direct route's
    upper end: the alternating top-eigenvector iteration reaches the PPT
    maximum c on the NPT projector."""

    @staticmethod
    def check(dims, P, value):
        overlap, ab = sdp._product_state(dims, P)
        assert np.linalg.norm(ab) == pytest.approx(1.0, rel=0, abs=1e-14)
        assert np.vdot(ab, P @ ab).real == pytest.approx(overlap, rel=0, abs=1e-12)
        assert overlap == pytest.approx(value, rel=0, abs=1e-12)
        # a (x) b is a product vector: its coefficient matrix has rank 1
        assert np.linalg.svd(ab.reshape(dims.m, dims.n), compute_uv=False)[1:].max() <= 1e-12
        return ab

    @pytest.mark.parametrize("m,n", PRODUCT_ORACLE_DIMS)
    def test_oracle(self, m, n):
        dims = BipartiteDims(m, n)
        ab = self.check(dims, npt_projector(dims).P, product_oracle(m, n))
        assert not np.iscomplexobj(ab)  # real P: real arithmetic

    @pytest.mark.parametrize("m,n", PRODUCT_ORACLE_DIMS)
    def test_oracle_on_rotated_projector(self, m, n):
        # a local unitary maps product vectors to product vectors
        dims = BipartiteDims(m, n)
        self.check(dims, rotated_projector(dims, np.random.default_rng(m * n)), product_oracle(m, n))

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 4), (5, 5)])
    def test_below_certified_ppt_maximum(self, m, n):
        # a product state is PPT, so its overlap never exceeds a certified
        # upper bound on the PPT maximum (here within 1e-6 of it)
        dims = BipartiteDims(m, n)
        P = npt_projector(dims).P
        opt = optimize_over_ppt(dims, P, tol=1e-6)
        overlap = sdp._product_state(dims, P)[0]
        assert opt.upper_bound - 1e-6 <= overlap <= opt.upper_bound

    def test_antisymmetric_projector(self):
        # (I - F)/2 has product overlap at most 1/2, reached by orthogonal a, b
        assert sdp._product_state(D33, antisymmetric_projector())[0] == pytest.approx(0.5, abs=1e-15)


class TestPinnedOutputs:
    """Iteration counts and certified values of both routes.  Each route
    stops its solve at the first certify round that certifies the claim
    with the full count, so the rows pin that round.  The direct route's
    bracket starts at the closed-form state, which claims from 2 x 2 to
    10 x 10, and at the finite product bound, so its solve on P returns at
    iteration 0: the 5 x 5 row is the seed's own d.  The 3 x 3 and 4 x 4
    rows pin the splitting loop on the unseeded solve: the round-50
    certify values of the gap-closing solve, recorded before the direct
    route stopped on the claim, which beat the seed.  The
    direct rows and the gap-closing PPT solve on P at 3 x 4 and 4 x 4 run
    within 200 iterations and keep the plain arithmetic, which the shared
    core keeps from when each route ran its own copy of the splitting
    loop: their Anderson acceleration starts only after iteration 200, so
    these counts and values must match exactly.  The longer gap-closing
    rows were recorded with the acceleration on, the relative-residual
    penalty balancing that fires from 5 x 5 on the PPT solve, and its
    reset of the Anderson history.  The dual-cone claim stops were
    recorded with the claim-stopping solve's own schedule: accelerated
    from its first iteration and certified every 50.  The dual-cone counts
    are the PPT solve's alone: its closed-form split takes no iteration."""

    @pytest.mark.parametrize("m,n,iterations,lb", [
        (3, 3, 50, 1.034649909496204),
        (4, 4, 50, 1.0036586588767948),
        (5, 5, 0, 1.0001979150369023),
    ])
    def test_direct_route(self, m, n, iterations, lb, monkeypatch):
        # a row of 0 iterations is the seeded solve; the others pin the loop
        dims = BipartiteDims(m, n)
        if iterations:
            TestClosedFormSeed.unseeded(monkeypatch)
        sol = solve_construction_sdp(dims, npt_projector(dims))
        assert sol.iterations == iterations
        assert sol.lower_bound == pytest.approx(lb, rel=0, abs=1e-9)

    @pytest.mark.parametrize("m,n,iterations,c", [
        (3, 4, 200, 0.9588325262291642),
        (4, 4, 200, 0.9857022678211579),
        (5, 5, 300, 0.9981180605564325),
        (5, 6, 500, 0.9992835870389891),
        (6, 6, 500, 0.9997663213717155),
    ])
    def test_dual_cone_route(self, m, n, iterations, c):
        # the rows pin the PPT solve on P run until its bracket closes to
        # tol_c = 1e-6; the route's claim-stopping solve accelerates from
        # its first iteration instead, stops no later, and its certified
        # bracket overlaps that one
        dims = BipartiteDims(m, n)
        P = npt_projector(dims)
        opt = optimize_over_ppt(dims, P.P, tol=1e-6)
        assert opt.iterations == iterations
        assert opt.upper_bound == pytest.approx(c, rel=0, abs=1e-9)
        dec = construct_via_dual_cone(dims, P)
        assert dec.iterations <= iterations
        assert dec.c_lower <= c and c - 1e-6 <= dec.c

    @pytest.mark.parametrize("m,n,iterations,c", [
        (3, 4, 50, 0.9588325307514791),
        (4, 4, 50, 0.9857711681634939),
        (5, 5, 50, 0.9987624598826412),
        (5, 6, 50, 0.9996568162802922),
        (6, 6, 100, 0.9998657567455405),
    ])
    def test_dual_cone_claim_stop(self, m, n, iterations, c):
        dims = BipartiteDims(m, n)
        dec = construct_via_dual_cone(dims, npt_projector(dims))
        assert dec.iterations == iterations
        assert dec.c == pytest.approx(c, rel=0, abs=1e-9)
        assert dec.c_lower < dec.c < 1.0

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (3, 4), (4, 4), (5, 5), (5, 6), (6, 6)])
    @pytest.mark.parametrize("s", [1.0, 1 + 2.0 ** -52, 1 + 2.0 ** -51, 1 + 2.0 ** -50])
    def test_claim_stop_is_stable_in_the_last_bits(self, m, n, s):
        # s P differs from P in the last bits of its entries; each route
        # still claims at its round on P with the full count (the direct
        # route at iteration 0, from the closed-form seed).  Off P the
        # claim stop is not this stable: the antisymmetric projector at
        # 4 x 4 claims at round 50 at s = 1 and at round 2,550 at 1 + 2^-52
        dims = BipartiteDims(m, n)
        P, target = npt_projector(dims).P * s, (m - 1) * (n - 1)
        dec = construct_via_dual_cone(dims, P)
        assert dec.iterations == (100 if (m, n) == (6, 6) else 50)
        assert count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))[0] == target
        sol = solve_construction_sdp(dims, P)
        assert sol.converged and sol.iterations == 0 and sol.d > 1.0
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == target


class TestSectorLayout:
    """The solver iterates' storage: entry vectors on diagonal blocks."""

    DIMS = [(2, 4), (3, 3), (4, 5), (7, 7)]

    @staticmethod
    def random_member(pic, rng):
        """Random Hermitian matrix in the picture's domain: supported on its
        blocks, and reflection-symmetrized when its orbits are non-trivial."""
        x = rng.standard_normal(pic.flat.size)
        if pic.dtype is complex:
            x = x + 1j * rng.standard_normal(pic.flat.size)
        X = pic.unpack(x)
        X = X + X.conj().T
        return X if np.array_equal(pic.src, pic.stack) else X + X[::-1, ::-1]

    @staticmethod
    def layout(m, n, rotated):
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng(m * 10 + n)
        P = rotated_projector(dims, rng) if rotated else npt_projector(dims).P
        return dims, P, _pictures(dims, P), rng

    @pytest.mark.parametrize("m,n", DIMS)
    def test_projector_gets_sector_blocks(self, m, n):
        dims = BipartiteDims(m, n)
        for pic in _pictures(dims, npt_projector(dims).P):
            assert pic.dtype is float
            assert pic.shape == (m + n - 1, min(m, n), min(m, n))
            assert pic.orbits == ((m + n) // 2, min(m, n), min(m, n))

    @pytest.mark.parametrize("perturb", ["imaginary", "off_sector", "random", "antisymmetric_rotated"])
    def test_other_inputs_get_one_block(self, perturb):
        # inputs that no local unitary takes to real sector blocks: P with
        # one entry perturbed, a random Hermitian W (the only local
        # generators commuting with it are the two identities) and the
        # antisymmetric projector rotated by U (x) V with U != V (U A U^dag
        # (x) I + I (x) V A V^dag commutes with it for every A: 10
        # directions with the identities, not 3)
        dims = BipartiteDims(3, 4)
        P = npt_projector(dims).P.copy()
        if perturb == "imaginary":
            P[1, 3] += 1e-3j  # entry inside a j+k block
            P[3, 1] -= 1e-3j
        elif perturb == "off_sector":
            P[0, 1] = P[1, 0] = 1e-3
        elif perturb == "random":
            P = TestBoundRecheck.objective("random", dims)
        else:
            dims, rng = D33, np.random.default_rng(9)
            K = np.kron(haar_unitary(3, rng), haar_unitary(3, rng))
            P = K @ antisymmetric_projector() @ K.conj().T
        for pic in _pictures(dims, P):
            assert pic.frame is None
            assert pic.dtype is complex
            assert pic.shape == (1, dims.total, dims.total)
            assert np.array_equal(pic.src, pic.stack)

    def test_rotated_projector_gets_sector_blocks_in_a_frame(self):
        # a local rotation of P gets P's layout in the recovered frame,
        # U (x) V in P's picture and U (x) conj(V) in the other: pack and
        # unpack invert each other, and the partial transpose is the gather
        dims = BipartiteDims(3, 4)
        R = rotated_projector(dims, np.random.default_rng(5))
        pics = _pictures(dims, R)
        plain = _pictures(dims, npt_projector(dims).P)
        rng = np.random.default_rng(6)
        for (src, dst), ref in zip((pics, pics[::-1]), plain):
            assert src.frame is not None and src.dtype is float
            assert (src.shape, src.orbits) == (ref.shape, ref.orbits) == ((6, 3, 3), (3, 3, 3))
            x = ref.pack(self.random_member(ref, rng))
            X = src.unpack(x)  # a member of the frame's blocks, in R's basis
            assert np.abs(src.pack(X) - x).max() <= 1e-14
            assert np.abs(dst.unpack(x[src.pt]) - partial_transpose(X, dims)).max() <= 1e-14
        assert np.abs(pics[0].unpack(pics[0].pack(R)) - R).max() <= 1e-14

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_pack_gather_and_project(self, m, n, rotated, no_frame):
        dims, _, pics, rng = self.layout(m, n, rotated)
        members = [self.random_member(pic, rng) for pic in pics]
        for (src, dst), X in zip((pics, pics[::-1]), members):
            x = src.pack(X)
            assert np.array_equal(src.unpack(x), X)
            assert np.array_equal(dst.unpack(x[src.pt]), partial_transpose(X, dims))
            assert src.trace(x) == pytest.approx(np.trace(X).real, abs=1e-12)
        cones = _ConePair(*pics)
        z = cones.project(np.concatenate([pic.pack(X) for pic, X in zip(pics, members)]))
        for pic, z_i, X in zip(pics, cones.split(z), members):
            assert np.abs(pic.unpack(z_i) - _clamp_psd(X)).max() <= 1e-12

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_block_eigenvalues_match_dense(self, m, n, rotated, no_frame):
        # definite members catch a padding leak: a zero-padded block would
        # report a spurious 0 as the lowest (or highest) eigenvalue
        _, _, pics, rng = self.layout(m, n, rotated)
        for pic in pics:
            X = self.random_member(pic, rng)
            G = self.random_member(pic, rng)
            definite = G @ G + 0.1 * np.eye(pic.d)
            for M in (X, definite, -definite):
                dense = np.linalg.eigvalsh(M)
                assert np.abs(pic.eigvalsh(pic.pack(M)) - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_merged_projection_is_two_projections(self, m, n, rotated, no_frame):
        # each cone of the merged projection is the dense projection of its
        # own input; a pair whose cones are both PSD comes back unchanged
        _, _, pics, rng = self.layout(m, n, rotated)
        X1, X2 = (self.random_member(pic, rng) for pic in pics)
        psd1, psd2 = (self.psd_member(pic, rng) for pic in pics)
        # one pair for every call, as in a solve: the stack is reused, and
        # no returned vector may alias it (both cones PSD, then neither)
        cones = _ConePair(*pics)
        outputs = []
        for a, b in ((X1, X2), (X1, psd2), (psd1, X2), (psd1, psd2), (X1, X2)):
            x = np.concatenate((pics[0].pack(a), pics[1].pack(b)))
            z = cones.project(x)
            outputs.append((z, z.copy()))
            for pic, z_i, M in zip(pics, cones.split(z), (a, b)):
                assert np.abs(pic.unpack(z_i) - _clamp_psd(M)).max() <= 1e-12
            if a is psd1 and b is psd2:
                assert np.array_equal(z, x)
        assert all(np.array_equal(z, kept) for z, kept in outputs)

    @classmethod
    def psd_member(cls, pic, rng):
        """Random positive definite member, exactly reflection-symmetric
        when the orbits are non-trivial (the rounding of G @ G is not)."""
        G = cls.random_member(pic, rng)
        M = G @ G + 0.1 * np.eye(pic.d)
        return M if np.array_equal(pic.src, pic.stack) else M + M[::-1, ::-1]

    @staticmethod
    def asymmetric_member(pic, rng):
        """Random real symmetric matrix on the picture's blocks, not mirrored."""
        X = pic.unpack(rng.standard_normal(pic.flat.size)).real
        return X + X.T

    @pytest.mark.parametrize("m,n", DIMS)
    def test_projections_are_mirror_invariant(self, m, n):
        # every entry of a mirror pair of blocks is read back from its orbit
        # representative, so the pairs come out exactly invariant in both
        # cones of the merged projection, even for an input off the invariant
        # domain; a middle block (odd block count) represents itself and is
        # as invariant as its input, to rounding
        _, _, pics, rng = self.layout(m, n, False)
        for member in (self.asymmetric_member, self.random_member):
            X1, X2 = (member(pic, rng) for pic in pics)
            x1, x2 = pics[0].pack(X1), pics[1].pack(X2)
            cones = _ConePair(*pics)
            for pic, z in zip(pics, cones.split(cones.project(np.concatenate((x1, x2))))):
                K, s, _ = pic.shape
                in_middle = (pic.stack // (s * s) == K // 2) & (K % 2 == 1)
                middle = pic.unpack(in_middle).real.astype(bool)
                Z = pic.unpack(z)
                defect = np.abs(Z - Z[::-1, ::-1])
                assert not defect[~middle].any()
                if member is self.random_member:
                    assert defect.max() <= 1e-13 * max(1.0, np.abs(Z).max())

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    def test_asymmetric_sector_input_gets_trivial_orbits(self, m, n, monkeypatch):
        # a real-sector W that is not reflection-invariant keeps all blocks
        # as their own representatives, and its PPT optimum matches the one
        # the dense one-block layout certifies
        dims = BipartiteDims(m, n)
        pic, _ = _pictures(dims, npt_projector(dims).P)
        W = self.asymmetric_member(pic, np.random.default_rng(m * 10 + n))
        assert np.abs(W - W[::-1, ::-1]).max() > 1e-2
        for p in _pictures(dims, W):
            assert p.dtype is float
            assert p.orbits == p.shape
            assert np.array_equal(p.src, p.stack)
        blocks = optimize_over_ppt(dims, W)
        pictures = sdp._pictures
        dense_layout = lambda dims, M: pictures(dims, np.ones(M.shape))
        assert dense_layout(dims, W)[0].shape == (1, dims.total, dims.total)
        monkeypatch.setattr(sdp, "_pictures", dense_layout)
        dense = optimize_over_ppt(dims, W)
        assert blocks.value == pytest.approx(dense.value, abs=1e-5)

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_ppt_rounding_is_a_ppt_state(self, m, n, rotated, no_frame):
        # PSD inputs, as the certify step passes: P (NPT, like every state
        # supported on the NPT subspace) and a random positive definite one
        dims, P, pics, rng = self.layout(m, n, rotated)
        assert np.linalg.eigvalsh(partial_transpose(P, dims))[0] < -1e-3
        for X in (P, self.psd_member(pics[0], rng)):
            sigma = pics[0].unpack(_round_to_ppt(pics, pics[0].pack(X)))
            assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-14
            assert np.linalg.eigvalsh(partial_transpose(sigma, dims))[0] >= -1e-14

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_ppt_rounding_keeps_a_ppt_input(self, m, n, rotated, no_frame):
        # I + t H with ||t H||_F = 1/2 stays PPT (the partial transpose
        # keeps the Frobenius norm): it is only normalized, and a zero
        # input falls back to I/d
        dims, _, pics, rng = self.layout(m, n, rotated)
        H = self.random_member(pics[0], rng)
        x = 3.0 * pics[0].pack(np.eye(dims.total) + 0.5 * H / np.linalg.norm(H))
        assert np.array_equal(_round_to_ppt(pics, x), x / pics[0].trace(x))
        assert np.array_equal(_round_to_ppt(pics, 0.0 * x), pics[0].eye / dims.total)

    @pytest.mark.parametrize("m,n", DIMS)
    @pytest.mark.parametrize("rotated", [False, True])
    def test_feasible_shift_passes_dense_check(self, m, n, rotated, no_frame):
        # rho is a random state in rho's picture; the shift d must satisfy
        # d P <= I - rho^G densely and sit at the generalized eigenvalue
        dims, P, (pic_S, pic_r), rng = self.layout(m, n, rotated)
        p = pic_S.pack(P)
        for _ in range(3):
            G = self.random_member(pic_r, rng)
            rho = G @ G / np.trace(G @ G).real
            M = np.eye(dims.total) - partial_transpose(rho, dims)
            d = _max_shift(pic_S, pic_S.pack(M), p)
            assert np.linalg.eigvalsh(M - d * P)[0] >= -1e-13
            w, V = np.linalg.eigh(M)
            M_isqrt = (V / np.sqrt(w)) @ V.conj().T
            assert d == pytest.approx(1.0 / np.linalg.eigvalsh(M_isqrt @ P @ M_isqrt)[-1], rel=1e-9)

    def test_feasible_shift_without_feasible_point(self):
        # M = -I admits no d >= 0: the congruence candidate fails its check,
        # so no shift is verified instead of an unchecked one
        dims = BipartiteDims(3, 3)
        pic_S, _ = _pictures(dims, npt_projector(dims).P)
        assert _max_shift(pic_S, -pic_S.eye, pic_S.pack(npt_projector(dims).P)) == -np.inf

    # the index arrays of a layout, all a pure function of the size
    INDEX_ARRAYS = ("flat", "stack", "src", "rep", "diag", "live", "pad", "eye", "pt")

    @staticmethod
    def assert_read_only(arr):
        # the assignment would write the same values, were it allowed
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr.copy()

    @pytest.mark.parametrize("m,n", DIMS)
    def test_layout_is_shared_and_read_only(self, m, n):
        # two calls at one size get two picture objects that share every
        # index array, and each cone pair still gets its own buffer
        dims = BipartiteDims(m, n)
        P = npt_projector(dims).P
        first, second = _pictures(dims, P), _pictures(dims, P)
        for a, b in zip(first, second):
            assert a is not b
            for name in self.INDEX_ARRAYS:
                assert getattr(a, name) is getattr(b, name)
                self.assert_read_only(getattr(a, name))
        cones = _ConePair(*first), _ConePair(*second)
        assert cones[0].buffer is not cones[1].buffer
        assert cones[0].buffer.flags.writeable

    def test_reflection_test_is_per_call(self, monkeypatch):
        # a real sector-block W that is not reflection-invariant, solved
        # right after P at the same size, gets one orbit per block; P,
        # solved after it, gets its ceil(K/2) orbits again
        dims = BipartiteDims(4, 5)
        P = npt_projector(dims).P
        W = P.copy()
        W[0, 0] += 0.1  # the (0, 0) sector is a block of its own
        orbits = []

        def spy(dims, M):
            pics = _pictures(dims, M)
            orbits.append([pic.orbits[0] for pic in pics])
            return pics

        monkeypatch.setattr(sdp, "_pictures", spy)
        solve_construction_sdp(dims, P)
        optimize_over_ppt(dims, W, tol=1e-3)
        solve_construction_sdp(dims, P)
        assert orbits == [[4, 4], [8, 8], [4, 4]]

    def test_rotation_shares_the_layout_not_the_frame(self):
        # Haar rotations of P get P's very index arrays, each carrying its
        # own frame, and P after them still carries none
        dims = D34
        P = npt_projector(dims).P
        rotations = [rotated_projector(dims, np.random.default_rng(seed)) for seed in (5, 6)]
        framed = [_pictures(dims, R) for R in rotations]
        plain = _pictures(dims, P)
        for ref, one, other in zip(plain, *framed):
            assert ref.frame is None
            assert one.frame is not None and other.frame is not None
            assert np.abs(one.frame - other.frame).max() > 0.1
            for name in self.INDEX_ARRAYS:
                assert getattr(one, name) is getattr(ref, name) is getattr(other, name)
        for R, pics in zip(rotations, framed):
            assert np.abs(pics[0].unpack(pics[0].pack(R)) - R).max() <= 1e-14

    def test_no_frame_forces_one_block_at_a_warm_size(self, monkeypatch):
        # with the sector layout of this size cached by a framed call, an
        # input whose frame search finds none still gets one complex block
        dims = D34
        R = rotated_projector(dims, np.random.default_rng(5))
        assert _pictures(dims, R)[0].frame is not None
        monkeypatch.setattr(_layout, "_local_frame", lambda *args: None)
        for pic in _pictures(dims, R):
            assert pic.frame is None
            assert pic.dtype is complex
            assert pic.shape == (1, dims.total, dims.total)
        sol = solve_construction_sdp(dims, R)
        assert sol.converged and sol.iterations == 50

    def test_closed_form_state_is_a_fresh_copy(self):
        # the state copies the shared matrix, which neither route changes
        dims = D34
        cached = subspace._closed_form(dims)
        before = cached.copy()
        self.assert_read_only(cached)
        a, b = closed_form_state(dims), closed_form_state(dims)
        assert a.mat is not b.mat
        assert not np.shares_memory(a.mat, cached)
        for M in (npt_projector(dims).P, rotated_projector(dims, np.random.default_rng(5))):
            sol = solve_construction_sdp(dims, M)
            construct_via_dual_cone(dims, M)
            assert not np.shares_memory(sol.rho.mat, cached)
        assert subspace._closed_form(dims) is cached
        assert np.array_equal(cached, before)


class TestAnderson:
    """The acceleration of the splitting core's fixed-point map."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_linear_fixed_point(self, dtype):
        # on an affine contraction s -> A s + b the extrapolation is
        # GMRES-like: 20 steps reach the fixed point to rounding, where
        # the plain iteration is still 1e-5 away
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        A *= 0.95 / np.linalg.norm(A, 2)
        b = rng.standard_normal(8) + (1j * rng.standard_normal(8) if dtype is complex else 0)
        fixed = np.linalg.solve(np.eye(8) - A, b)
        anderson = sdp._Anderson(np.zeros(8, dtype))
        s = plain = np.zeros(8, dtype)
        for _ in range(20):
            s = anderson.step(s, A @ s + b)
            plain = A @ plain + b
        assert np.linalg.norm(s - fixed) <= 1e-10
        assert np.linalg.norm(plain - fixed) >= 1e-6

    def test_first_step_after_reset_is_plain(self):
        anderson = sdp._Anderson(np.zeros(3))
        for k in range(5):
            anderson.step(np.full(3, float(k)), np.full(3, k + 0.5))
        anderson.reset()
        f = np.array([1.0, 2.0, 3.0])
        assert anderson.step(np.zeros(3), f) is f


class TestRotationEquivalence:
    """On a Haar-rotated projector run on one complex block (no local frame)
    both routes retrace the sector-block solve on P: same iterations, same
    certified values.
    That holds past the start of the Anderson acceleration (5 x 5 and
    6 x 6), whose inner products are invariant under the local unitary.
    The direct route on P returns the closed-form seed at iteration 0, and
    the rotated projector on one block does not fit that seed, so the
    rotated direct solve retraces the unseeded solve on P."""

    @pytest.fixture(autouse=True)
    def one_block(self, no_frame):
        pass

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4)])
    def test_direct_route(self, m, n, monkeypatch):
        dims = BipartiteDims(m, n)
        rot = solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(m * n)))
        TestClosedFormSeed.unseeded(monkeypatch)
        base = solve_construction_sdp(dims, npt_projector(dims))
        assert rot.iterations == base.iterations == 50
        assert rot.lower_bound == pytest.approx(base.lower_bound, rel=0, abs=1e-9)

    def test_direct_route_past_the_acceleration_at_6x6(self):
        # the values the unseeded solve on P and on this rotation both had
        dims = BipartiteDims(6, 6)
        rot = solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(36)))
        assert rot.iterations == 450
        assert rot.lower_bound == pytest.approx(1.0000442850303408, rel=0, abs=1e-9)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4), (5, 5), (6, 6)])
    def test_dual_cone_route(self, m, n):
        dims = BipartiteDims(m, n)
        base = construct_via_dual_cone(dims, npt_projector(dims))
        rot = construct_via_dual_cone(dims, rotated_projector(dims, np.random.default_rng(m * n)))
        assert rot.iterations == base.iterations
        assert rot.c == pytest.approx(base.c, rel=0, abs=1e-9)


def fingerprint(x):
    """Every float of a solver output as its repr and every array as its
    dtype, shape and bytes, walking dataclasses, dicts and tuples."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, dict):
        return tuple((key, fingerprint(value)) for key, value in sorted(x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(value) for value in x)
    if dataclasses.is_dataclass(x):
        return tuple((f.name, fingerprint(getattr(x, f.name))) for f in dataclasses.fields(x))
    assert isinstance(x, (bool, int, str, type(None))), type(x)
    return repr(x)


class TestLayoutCache:
    """The per-size caches of the layouts and the closed form change no
    output: a solve with every cache cleared and the same solve again,
    warm, agree byte for byte."""

    CACHES = (_layout._layout_pair, subspace._closed_form, subspace._antidiagonals,
              subspace._search_order)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (5, 6)])
    @pytest.mark.parametrize("kind", ["P", "rotated", "no_frame"])
    def test_cold_and_warm_calls_agree(self, m, n, kind, monkeypatch):
        dims = BipartiteDims(m, n)
        if kind == "P":
            M = npt_projector(dims).P
        else:
            M = rotated_projector(dims, np.random.default_rng(m * n))
        if kind == "no_frame":
            monkeypatch.setattr(_layout, "_local_frame", lambda *args: None)

        def solve():
            return [fingerprint(route(dims, M)) for route in (solve_construction_sdp, construct_via_dual_cone)]

        for cache in self.CACHES:
            cache.cache_clear()
        cold = solve()
        assert all(cache.cache_info().maxsize for cache in self.CACHES)
        assert _layout._layout_pair.cache_info().currsize == 1
        assert solve() == cold
        assert _layout._layout_pair.cache_info().hits >= 2
        assert (_pictures(dims, M)[0].frame is not None) == (kind == "rotated")
        assert _pictures(dims, M)[0].dtype is (complex if kind == "no_frame" else float)


def sector_mask(dims):
    j, k = np.divmod(np.arange(dims.total), dims.n)
    return (j + k)[:, None] != (j + k)[None, :]


class TestLocalFrame:
    """A locally rotated projector is solved in the local frame recovered
    from it: both routes then retrace the solve on P, closed-form seed
    included."""

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 12), (3, 3), (3, 4), (4, 5), (5, 5), (5, 6),
                                     (6, 7), (7, 7), (8, 8), (9, 9), (10, 10), (11, 11), (12, 12)])
    def test_recovers_the_projector(self, m, n):
        dims = BipartiteDims(m, n)
        P = npt_projector(dims).P
        R = rotated_projector(dims, np.random.default_rng(m * n))
        U, V, M = _layout._local_frame(dims, R, sector_mask(dims))
        assert not np.iscomplexobj(M)
        assert np.abs(M - P).max() <= 1e-14
        K = np.kron(U, V)
        assert np.abs(K.conj().T @ K - np.eye(dims.total)).max() <= 1e-14
        assert np.abs(K @ P @ K.conj().T - R).max() <= 1e-14
        for pic, ref in zip(_pictures(dims, R), _pictures(dims, P)):
            assert pic.frame is not None
            assert (pic.dtype, pic.shape, pic.orbits) == (ref.dtype, ref.shape, ref.orbits)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 4)])
    def test_real_input_with_an_imaginary_generator(self, m, n):
        # the spin rotation exp(-i pi/2 J_x) takes J_z to J_y, which is
        # imaginary, and takes P to a real matrix that is not sector-block:
        # the commuting generator found in real arithmetic is i times a
        # real one, and the frame still takes the input back to P
        def half_turn(s):
            J = (s - 1) / 2
            mz = J - np.arange(1, s)
            off = np.sqrt(J * (J + 1) - mz * (mz + 1)) / 2
            w, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            return (V * np.exp(-0.5j * np.pi * w)) @ V.conj().T

        dims = BipartiteDims(m, n)
        P = npt_projector(dims).P
        K = np.kron(half_turn(m), half_turn(n))
        R = K @ P @ K.conj().T
        assert np.abs(R.imag).max() <= 1e-15
        R = R.real
        assert np.abs(R[sector_mask(dims)]).max() > 0.1
        U, V, M = _layout._local_frame(dims, R, sector_mask(dims))
        assert np.abs(M - P).max() <= 1e-14

    def test_no_frame_for_a_nonlocal_perturbation(self):
        # 1e-12 of random Hermitian noise leaves a commuting local generator
        # to within the null-space test, but its frame fails the snap test:
        # the rotated matrix is 1e-12 off real sector blocks, above 1e-14
        dims = BipartiteDims(4, 4)
        R = rotated_projector(dims, np.random.default_rng(16))
        R = R + 1e-12 * TestBoundRecheck.objective("random", dims)
        assert _layout._local_frame(dims, R, sector_mask(dims)) is None
        assert _pictures(dims, R)[0].shape == (1, 16, 16)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_rotated_claim_at_iteration_0(self, n):
        # the closed-form seed fits the rotation in its frame: the starting
        # bracket is within tol_gap, with the full count, and the returned
        # state passes the dense residual check against the caller's P
        dims = BipartiteDims(n, n)
        R = rotated_projector(dims, np.random.default_rng(49))
        sol = solve_construction_sdp(dims, R)
        assert sol.converged
        assert sol.iterations == 0
        assert 1.0 < sol.lower_bound <= sol.upper_bound <= sol.lower_bound + sdp.DEFAULT_TOL_GAP
        assert sol.residuals["pt_constraint_gap"] <= sdp._TOL_FEAS
        M = partial_transpose(sol.rho.mat, dims) + sol.lower_bound * R - np.eye(dims.total)
        assert np.linalg.eigvalsh(M)[-1] <= sdp._TOL_FEAS
        assert count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))[0] == (n - 1) ** 2

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (3, 4), (4, 5), (5, 6), (6, 6), (7, 7)])
    def test_direct_route_agrees(self, m, n):
        dims = BipartiteDims(m, n)
        base = solve_construction_sdp(dims, npt_projector(dims))
        rot = solve_construction_sdp(dims, rotated_projector(dims, np.random.default_rng(m * n)))
        assert rot.iterations == base.iterations
        assert rot.lower_bound == pytest.approx(base.lower_bound, rel=0, abs=1e-12)
        assert rot.upper_bound == pytest.approx(base.upper_bound, rel=0, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (3, 4), (4, 5), (5, 6), (6, 6)])
    def test_dual_cone_route_agrees(self, m, n):
        dims = BipartiteDims(m, n)
        base = construct_via_dual_cone(dims, npt_projector(dims))
        rot = construct_via_dual_cone(dims, rotated_projector(dims, np.random.default_rng(m * n)))
        assert rot.iterations == base.iterations
        assert rot.c == pytest.approx(base.c, rel=0, abs=1e-12)
        assert rot.c_lower == pytest.approx(base.c_lower, rel=0, abs=1e-12)


class TestBoundRecheck:
    """The returned brackets, recomputed from scratch in dense numpy."""

    @staticmethod
    def objective(kind, dims):
        if kind == "P":
            return npt_projector(dims).P
        if kind == "rotated":
            return rotated_projector(dims, np.random.default_rng(7))
        rng = np.random.default_rng(11)
        G = rng.standard_normal((dims.total,) * 2) + 1j * rng.standard_normal((dims.total,) * 2)
        return (G + G.conj().T) / 2

    @pytest.mark.parametrize("kind", ["P", "rotated", "random"])
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    def test_ppt_bounds(self, kind, m, n):
        # the rotated W is solved in its local frame, the random one on one
        # complex block; both pairs are rechecked in the caller's basis
        dims = BipartiteDims(m, n)
        W = self.objective(kind, dims)
        assert (_pictures(dims, W)[0].frame is not None) == (kind == "rotated")
        opt = optimize_over_ppt(dims, W)
        sigma = opt.sigma.mat
        Y1, Y2 = opt.dual_basis
        assert np.linalg.eigvalsh(Y1)[0] >= -1e-12
        assert np.linalg.eigvalsh(Y2)[0] >= -1e-12
        assert np.vdot(W, sigma).real == pytest.approx(opt.lower_bound, rel=0, abs=1e-12)
        ub = np.linalg.eigvalsh(W + Y1 + partial_transpose(Y2, dims))[-1]
        assert ub == pytest.approx(opt.upper_bound, rel=0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["P", "rotated"])
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    def test_direct_lower_bound_is_feasible(self, kind, m, n):
        dims = BipartiteDims(m, n)
        P = self.objective(kind, dims)
        sol = solve_construction_sdp(dims, P)
        tol_feas = sdp._TOL_FEAS
        assert sol.residuals["pt_constraint_gap"] <= tol_feas
        M = partial_transpose(sol.rho.mat, dims) + sol.lower_bound * P - np.eye(dims.total)
        assert np.linalg.eigvalsh(M)[-1] <= tol_feas


class TestOptimizeOverPpt:
    def test_singlet_overlap_is_half(self):
        # no PPT state overlaps the singlet by more than 1/2 (attained
        # by |01><01|)
        opt = optimize_over_ppt(D22, singlet_projector(), tol=1e-6)
        assert opt.value == pytest.approx(0.5, abs=1e-5)
        assert opt.upper_bound == pytest.approx(0.5, abs=1e-5)
        assert opt.lower_bound <= opt.upper_bound + 1e-12

    def test_identity_objective(self):
        opt = optimize_over_ppt(D22, np.eye(4, dtype=complex))
        assert opt.value == pytest.approx(1.0, abs=1e-8)

    def test_product_projector_saturates(self):
        W = np.diag([1.0, 0, 0, 0]).astype(complex)
        opt = optimize_over_ppt(D22, W, tol=1e-6)
        assert opt.value == pytest.approx(1.0, abs=1e-5)

    def test_min_sense(self):
        # a minimum is the negated maximum of -W: the singlet's PPT minimum
        # 0 (attained by |00><00|) lies in [-upper_bound, -lower_bound]
        opt = optimize_over_ppt(D22, -singlet_projector(), tol=1e-6)
        assert -opt.upper_bound - 1e-12 <= 0.0 <= -opt.lower_bound + 1e-12
        assert opt.upper_bound - opt.lower_bound <= 1e-6
        assert -opt.value == pytest.approx(0.0, abs=1e-5)

    def test_feasible_sigma(self):
        opt = optimize_over_ppt(D33, npt_projector(D33).P, tol=1e-6)
        sig = opt.sigma.mat
        assert np.linalg.eigvalsh(sig)[0] >= -1e-8
        assert np.linalg.eigvalsh(partial_transpose(sig, D33))[0] >= -1e-8
        assert np.trace(sig).real == pytest.approx(1.0, abs=1e-10)
        assert frob_inner(npt_projector(D33).P, sig) == pytest.approx(opt.value, abs=1e-12)

    def test_rejects_non_hermitian(self):
        W = np.zeros((4, 4), dtype=complex)
        W[0, 1] = 1.0
        with pytest.raises(errors.NotHermitian):
            optimize_over_ppt(D22, W)

    @pytest.mark.parametrize("m,n,seed", [(2, 2, 0), (2, 2, 1), (2, 3, 2), (2, 3, 3)])
    def test_against_product_state_see_saw(self, m, n, seed):
        # for mn <= 6 the PPT states are exactly the separable ones, so the
        # maximum over product states is an independent oracle
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        W = (W + W.conj().T) / 2
        oracle = _product_see_saw(W, m, n, rng)
        opt = optimize_over_ppt(dims, W, tol=1e-7)
        # product states are PPT-feasible, so the optimizer can never fall
        # below the oracle; by separability it cannot exceed it either
        assert opt.value >= oracle - 1e-6
        assert opt.value <= oracle + 1e-5


class TestDualConeRoute:
    def test_2x2_full_chain(self):
        dec = construct_via_dual_cone(D22, npt_projector(D22))
        assert dec.c == pytest.approx(0.5, abs=1e-5)
        assert np.allclose(
            np.linalg.eigvalsh(dec.X), [-1.0, 1.0, 1.0, 1.0], atol=1e-4
        )
        assert frob_inner(maximally_entangled(), dec.rho.mat) >= 0.99
        count, negs = count_negative_eigenvalues(partial_transpose(dec.rho.mat, D22))
        assert count == 1
        assert negs[0] == pytest.approx(-0.5, abs=1e-3)

    def test_x_consistency(self):
        dec = construct_via_dual_cone(D33, npt_projector(D33))
        X_expected = np.eye(9) - npt_projector(D33).P / dec.c
        assert np.linalg.norm(dec.X - X_expected) <= 1e-10
        assert np.linalg.norm(
            dec.rho.mat - dec.X2 / np.trace(dec.X2).real
        ) <= 1e-12

    def test_x_spectrum_structure(self):
        dec = construct_via_dual_cone(D34, npt_projector(D34))
        w = np.linalg.eigvalsh(dec.X)
        assert np.allclose(w[:6], 1.0 - 1.0 / dec.c, atol=1e-8)
        assert np.allclose(w[6:], 1.0, atol=1e-8)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    def test_negative_counts_match_direct_route(self, m, n):
        dims = BipartiteDims(m, n)
        P = npt_projector(dims)
        dec = construct_via_dual_cone(dims, P)
        sol = solve_construction_sdp(dims, P)
        c_direct, _ = count_negative_eigenvalues(partial_transpose(sol.rho.mat, dims))
        c_dual, _ = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
        assert c_direct == c_dual == dims.npt_dim

    def test_monotonicity_bound(self, monkeypatch):
        # the dual-cone output yields a feasible point of the direct SDP
        # at 1 + (1/c - 1)/Tr(X2), so no certified upper end of the direct
        # route lies below it (the seeded solve's is the product bound),
        # and the loop, unseeded, reaches it (at 3 x 4 the seed's d is
        # 1.00896, below the feasible point 1.01137)
        for dims in (D22, D33, D34):
            P = npt_projector(dims)
            dec = construct_via_dual_cone(dims, P)
            bound = 1.0 + (1.0 / dec.c - 1.0) / np.trace(dec.X2).real
            assert bound <= solve_construction_sdp(dims, P).upper_bound + 1e-12
            with monkeypatch.context() as unseeded:
                TestClosedFormSeed.unseeded(unseeded)
                sol = solve_construction_sdp(dims, P)
            assert bound <= sol.upper_bound + 1e-12
            assert sol.d >= bound - 1e-4

    @pytest.mark.parametrize("m,n", [*[(2, n) for n in range(2, 9)], (3, 3)])
    def test_certified_c_brackets_oracle(self, m, n):
        # known PPT optima: c(2,n) = cos^2(pi/2n) and c(3,3) = 10/11; the
        # PPT solve brackets them within its tol, and the route, which
        # stops once the claim is certified, within [c_lower, c]
        oracle = product_oracle(m, n)
        dims = BipartiteDims(m, n)
        P = npt_projector(dims)
        tol = 1e-6
        opt = optimize_over_ppt(dims, P.P, tol=tol)
        assert opt.upper_bound - tol <= oracle <= opt.upper_bound
        dec = construct_via_dual_cone(dims, P)
        assert dec.c_lower <= oracle <= dec.c

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4)])
    def test_stopping_pair_is_used_as_the_claim_left_it(self, monkeypatch, m, n):
        # the claim that stops the PPT solve has already computed the
        # stopping pair's dense bound and its split: after the splitting
        # loop returns, neither the dense bound (an eigvalsh in sdp) nor
        # _cone_split runs again
        events = []
        for name in ("_split", "_cone_split", "eigvalsh"):
            original = getattr(sdp, name)

            def logged(*args, _name=name, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                events.append(_name)
                return out

            monkeypatch.setattr(sdp, name, logged)
        dims = BipartiteDims(m, n)
        dec = construct_via_dual_cone(dims, npt_projector(dims))
        assert dec.c < 1.0 and events.count("_split") == 1
        assert events[-1] == "_split" and "_cone_split" in events

    def test_degenerate_dims(self):
        with pytest.raises(errors.DegenerateSubspace):
            construct_via_dual_cone(BipartiteDims(1, 5), np.zeros((5, 5)))

    def test_c_outside_unit_interval(self):
        # every state has <2 I, sigma> = 2, so the certified c is 2: refused,
        # with the PPT optimum that certified it attached
        with pytest.raises(errors.NoConvergence, match=r"outside \(0, 1\)") as info:
            construct_via_dual_cone(D22, 2.0 * np.eye(4))
        opt = info.value.partial
        assert isinstance(opt, sdp.PptOptimum)
        assert opt.converged
        assert opt.lower_bound - 1e-12 <= 2.0 <= opt.upper_bound + 1e-12

    @staticmethod
    def crafted_optimum(monkeypatch, dims, Y2):
        """Replace the PPT solve by a converged optimum certifying c = 1/2
        with the dual pair (0, Y2)."""
        d = dims.total
        opt = sdp.PptOptimum(
            value=0.5, sigma=DensityMatrix(dims, np.eye(d) / d), lower_bound=0.5,
            upper_bound=0.5, iterations=1, converged=True, dual_basis=(np.zeros((d, d)), Y2),
        )
        monkeypatch.setattr(sdp, "_solve_ppt", lambda *args, **kwargs: opt)

    def test_vanishing_x2_raises_with_the_pair(self, monkeypatch):
        # Y2 = 0 gives X2 = 0: no state to normalize, so the PPT optimum
        # that certified c is attached, with its pair (0, 0)
        self.crafted_optimum(monkeypatch, D33, np.zeros((9, 9)))
        with pytest.raises(errors.NoConvergence, match=r"dual pair gives Tr\(X2\) = 0\.000e\+00") as info:
            construct_via_dual_cone(D33, npt_projector(D33))
        opt = info.value.partial
        assert isinstance(opt, sdp.PptOptimum)
        assert opt.upper_bound == 0.5
        assert np.array_equal(opt.dual_basis[1], np.zeros((9, 9)))

    def test_count_miss_raises_with_the_state(self, monkeypatch):
        # Y2 = I gives rho = I/9, which is PPT: 0 negatives against 4
        self.crafted_optimum(monkeypatch, D33, np.eye(9))
        with pytest.raises(errors.NoConvergence, match="dual-cone state has 0 negative partial-transpose "
                           "eigenvalues, expected 4") as info:
            construct_via_dual_cone(D33, npt_projector(D33))
        # the decomposition is attached whole: its bracket, split and state
        dec = info.value.partial
        assert isinstance(dec, sdp.ConeDecomposition)
        assert (dec.c, dec.c_lower, dec.iterations) == (0.5, 0.5, 1)
        assert np.array_equal(dec.rho.mat, np.eye(9) / 9)
        assert np.array_equal(dec.X2, 2.0 * np.eye(9))

    def test_decomposition_psd(self, no_frame):
        # the closed-form split from the certifying dual pair, on the
        # sector-block path (P) and the one-block path (rotated P)
        inputs = [(BipartiteDims(m, n), npt_projector(BipartiteDims(m, n)).P)
                  for m, n in [(2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (6, 6)]]
        inputs += [(BipartiteDims(m, n), rotated_projector(BipartiteDims(m, n), np.random.default_rng(m * n)))
                   for m, n in [(3, 3), (3, 4), (4, 4)]]
        for dims, P in inputs:
            dec = construct_via_dual_cone(dims, P)
            assert np.linalg.norm(dec.X - dec.X1 - partial_transpose(dec.X2, dims)) <= 1e-12
            assert np.linalg.eigvalsh(dec.X1)[0] >= -1e-9
            assert np.linalg.eigvalsh(dec.X2)[0] >= -1e-9
            assert np.abs(dec.rho.mat - dec.X2 / np.trace(dec.X2).real).max() <= 1e-12

    def test_acceleration_is_live(self):
        # the plain splitting closes the PPT bracket on P to 1e-6 in 6,500
        # iterations here; the Anderson acceleration in well under 2,500
        dims = BipartiteDims(7, 7)
        opt = optimize_over_ppt(dims, npt_projector(dims).P, tol=1e-6)
        assert opt.converged
        assert opt.iterations <= 2500

    def test_claim_stop_at_7x7(self):
        # the gap-closing solve takes 1,400 iterations here; c < 1 with the
        # full count is certified by 400
        dims = BipartiteDims(7, 7)
        dec = construct_via_dual_cone(dims, npt_projector(dims))
        assert dec.iterations <= 400
        assert dec.c_lower <= dec.c < 1.0
        count, _ = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
        assert count == dims.npt_dim == 36

    @pytest.mark.parametrize("m,n", [*[(2, n) for n in range(2, 6)], (3, 3)])
    def test_claim_stop_meets_the_oracle(self, m, n):
        # the claim-stopping solve, accelerated from its first iteration,
        # certifies at round 50 with c on the PPT maximum to 1e-9
        oracle = product_oracle(m, n)
        dims = BipartiteDims(m, n)
        dec = construct_via_dual_cone(dims, npt_projector(dims))
        assert dec.iterations == 50
        assert dec.c_lower <= oracle <= dec.c <= oracle + 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_lower_end_stays_below_the_maximum(self, n):
        # the rounded PPT state keeps a margin above 0 in both pictures, so
        # <P, sigma> stays below the maximum 1/2 even when the solve has
        # converged to rounding level, as at 3 x 3
        dec = construct_via_dual_cone(BipartiteDims(n, n), self.antisymmetric_projector(n))
        assert dec.c_lower < 0.5 <= dec.c

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m,n,rank", [(2, 3, 2), (3, 3, 4), (3, 3, 2), (3, 4, 6), (3, 4, 4),
                                          (4, 4, 9), (4, 4, 7)])
    def test_random_projectors(self, m, n, rank, seed):
        # random complex projectors of rank (m-1)(n-1) and (m-1)(n-1) - 2,
        # solved on one complex block (no local frame takes them to
        # sectors): the route certifies c < 1 with rank P negatives, except
        # for the rank-9 projectors at 4 x 4, whose PPT maximum lies within
        # tol_c of 1, so the certified c is not below 1 and the route raises
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((dims.total, rank)) + 1j * rng.standard_normal((dims.total, rank))
        Q = np.linalg.qr(G)[0]
        P = Q @ Q.conj().T
        P = (P + P.conj().T) / 2
        if (m, n, rank) == (4, 4, 9):
            with pytest.raises(errors.NoConvergence, match=r"outside \(0, 1\)"):
                construct_via_dual_cone(dims, P)
            return
        dec = construct_via_dual_cone(dims, P)
        assert dec.c_lower <= dec.c < 1.0
        count, _ = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
        assert count == rank

    @staticmethod
    def antisymmetric_projector(n):
        """(I - F) / 2 on C^n (x) C^n, F the swap: rank n(n-1)/2."""
        d = n * n
        j, k = np.divmod(np.arange(d), n)
        F = np.zeros((d, d))
        F[k * n + j, j * n + k] = 1.0
        return (np.eye(d) - F) / 2

    @pytest.mark.parametrize("n,rank", [(3, 3), (4, 6)])
    def test_target_is_the_rank_of_p(self, n, rank):
        # a PPT state overlaps the antisymmetric subspace by at most 1/2,
        # and the split's state has rank P negatives, not (n-1)^2
        dims = BipartiteDims(n, n)
        P = self.antisymmetric_projector(n)
        dec = construct_via_dual_cone(dims, P)
        assert dec.c_lower <= 0.5 <= dec.c < 0.5 + 1e-5
        count, _ = count_negative_eigenvalues(partial_transpose(dec.rho.mat, dims))
        assert count == rank < dims.npt_dim
