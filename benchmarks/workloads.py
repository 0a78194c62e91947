"""Workloads, their seeded inputs, one measured pass, and the output checks.

Importing this module imports numpy and the nptsub package from the
checkout's ``src/`` directory (never an installed copy), so the set-up
probe can time "import plus input building" by importing it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import nptsub  # noqa: E402
from nptsub import bipartite, cli, sdp, subspace  # noqa: E402
from nptsub.errors import NoConvergence  # noqa: E402

if Path(nptsub.__file__).resolve().parent != SRC / "nptsub":
    raise ImportError(f"nptsub imported from {nptsub.__file__}, not from {SRC}")

#: Width of the c bracket implied by construct_via_dual_cone: it returns the
#: certified upper end c only once the PPT optimum is bracketed within its
#: default tol_c = 1e-6, so [c - 1e-6, c] holds the true value.
DUAL_BRACKET = 1e-6

#: construct SDP feasibility tolerance (solve_construction_sdp's tol_feas).
DIRECT_FEAS_TOL = 1e-7

#: Negatives the bundled 3x4 paper fixture documents.
FIXTURE_NEGATIVES = 6

CONSTRUCT_DIRECT = ((4, 4), (5, 5), (5, 6), (6, 6), (7, 7))
CONSTRUCT_DUAL = ((2, 4), (3, 3), (3, 4), (4, 4), (5, 5), (5, 6), (6, 6))


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  Every workload runs the same five phases per pass
    (direct ladder, dual-cone ladder, stress suites, file round trips, the
    fixture check); the sizes and counts decide which layers dominate."""

    name: str
    why: str
    direct: tuple[tuple[int, int], ...]
    dual: tuple[tuple[int, int], ...]
    suites: tuple[tuple[int, int, int], ...]  # (m, n, trials) for npt and bound
    rotated: bool = False
    roundtrip_states: int = 0  # seeded 8x8 states supported on S, round-tripped through a file


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "construct",
            "sdp and large complex eigh do almost all the work on the real, "
            "sector-block-diagonal projector P",
            CONSTRUCT_DIRECT, CONSTRUCT_DUAL,
            suites=((3, 4, 160), (5, 5, 80), (8, 8, 40)),
            roundtrip_states=8,
        ),
        Workload(
            "construct-rotated",
            "same ladder on P' = (U x V) P (U x V)^dagger with Haar U, V: same d, c "
            "and iterations, but complex with no block structure",
            CONSTRUCT_DIRECT, CONSTRUCT_DUAL,
            suites=((3, 4, 160), (5, 5, 80), (8, 8, 40)),
            rotated=True,
            roundtrip_states=8,
        ),
        Workload(
            "suites",
            "sdp nearly idle: many small eigh calls, bipartite/subspace Python "
            "overhead and cli serialization of 8x8 documents",
            ((2, 4), (3, 3), (3, 4)), ((2, 4), (3, 3), (3, 4)),
            suites=((3, 4, 200), (5, 5, 100), (8, 8, 40)),
            roundtrip_states=12,
        ),
    )
}


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def build_inputs(wl: Workload, seed: int) -> SimpleNamespace:
    """Projectors (rotated if asked), round-trip states and the fixture."""
    projectors = {}
    for m, n in sorted(set(wl.direct) | set(wl.dual)):
        dims = bipartite.BipartiteDims(m, n)
        P = subspace.subspace_projector(subspace.build_subspace(dims)).P
        if wl.rotated:
            rng = np.random.Generator(np.random.PCG64([seed, m, n]))
            K = np.kron(haar_unitary(m, rng), haar_unitary(n, rng))
            P = K @ P @ K.conj().T
            P = (P + P.conj().T) / 2
        projectors[(m, n)] = P
    states = []
    if wl.roundtrip_states:
        dims = bipartite.BipartiteDims(8, 8)
        basis = subspace.build_subspace(dims)
        for k in range(wl.roundtrip_states):
            rng = np.random.Generator(np.random.PCG64([seed, k]))
            ens = subspace.sample_mixture_in_subspace(basis, rank=3, rng=rng)
            states.append((dims, ens.to_density_matrix().mat))
    fixture, fixture_dims, _ = cli.load_matrix(cli.paper_fixture_path())
    return SimpleNamespace(
        projectors=projectors, states=states, fixture=(fixture_dims, fixture), seed=seed,
    )


# --------------------------------------------------------------------------
# independent checks
# --------------------------------------------------------------------------

def _pt(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on the second factor, written independently of nptsub."""
    d = m * n
    return a.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(d, d)


def independent_negatives(a: np.ndarray, m: int, n: int) -> int:
    """Eigenvalues of a^Gamma below -max(1e-10, 1e-9 |lambda_max|)."""
    w = np.linalg.eigvalsh(_pt(a, m, n))
    tau = max(1e-10, 1e-9 * abs(float(w[-1])))
    return int(np.count_nonzero(w < -tau))


def _state_problems(mat, dims) -> list[str]:
    """verify_matrix and an independent count must both find (m-1)(n-1)."""
    target = dims.npt_dim
    report = cli.verify_matrix(mat, dims)
    count = independent_negatives(np.asarray(mat), dims.m, dims.n)
    problems = []
    if not report.passed:
        problems.append("verify_matrix rejects the state")
    if report.negative_count != target:
        problems.append(f"verify_matrix counts {report.negative_count}/{target} negatives")
    if count != target:
        problems.append(f"independent count {count}/{target} negatives")
    return problems


def oracle_c(m: int, n: int) -> float | None:
    """Known PPT optima: c(2,n) = cos^2(pi/2n) and c(3,3) = 10/11."""
    if min(m, n) == 2:
        return math.cos(math.pi / (2 * max(m, n))) ** 2
    if (m, n) == (3, 3):
        return 10.0 / 11.0
    return None


@dataclass
class Op:
    """One attempted operation of a pass, with its timing and verdict."""

    kind: str
    label: str
    s: float
    ok: bool = True
    why: str = ""
    iterations: int | None = None
    bracket: tuple[float, float] | None = None
    margin: float | None = None
    trials: int = 0

    def fail(self, *problems: str):
        if problems:
            self.ok = False
            self.why = "; ".join(filter(None, [self.why, *problems]))


def check_direct(op: Op, dims, P, sol, err):
    if sol is None:
        return op.fail(f"raised {type(err).__name__}: {err}")
    op.iterations = int(sol.iterations)
    op.bracket = (float(sol.lower_bound), float(sol.upper_bound))
    op.margin = float(sol.lower_bound) - 1.0
    if err is not None:
        op.fail(f"NoConvergence: {err}")
    m, n = dims.m, dims.n
    mat = np.asarray(sol.rho.mat)
    gap = float(np.linalg.eigvalsh(_pt(mat, m, n) + sol.lower_bound * P - np.eye(m * n))[-1])
    op.fail(*_state_problems(mat, dims))
    if not sol.lower_bound > 1.0:
        op.fail(f"certified lb {sol.lower_bound:.9g} is not above 1")
    if not sol.lower_bound <= sol.upper_bound:
        op.fail(f"bracket [{sol.lower_bound:.9g}, {sol.upper_bound:.9g}] is empty")
    if gap > DIRECT_FEAS_TOL:
        op.fail(f"rho^G + lb P <= I violated by {gap:.3e}")


def check_dual(op: Op, dims, dec, err):
    if dec is None or err is not None:
        return op.fail(f"raised {type(err).__name__}: {err}")
    c = float(dec.c)
    op.iterations = int(dec.iterations)
    op.bracket = (c - DUAL_BRACKET, c)
    op.margin = 1.0 - c
    op.fail(*_state_problems(dec.rho.mat, dims))
    if not c < 1.0:
        op.fail(f"certified c {c:.9g} is not below 1")
    oracle = oracle_c(dims.m, dims.n)
    if oracle is not None and not c - DUAL_BRACKET <= oracle <= c + 1e-12:
        op.fail(f"oracle c = {oracle:.12g} outside certified [{c - DUAL_BRACKET:.12g}, {c:.12g}]")


def check_roundtrip(op: Op, mat, dims, loaded, ldims, report):
    """The state was drawn from S: reload bit-identical, verified, in S and NPT."""
    if loaded.shape != mat.shape or loaded.tobytes() != np.asarray(mat, dtype=complex).tobytes():
        op.fail("reloaded matrix is not bit-identical")
    if (ldims.m, ldims.n) != (dims.m, dims.n):
        op.fail(f"reloaded dims {ldims} differ from {dims}")
    if not report.passed:
        op.fail("verify_matrix rejects the reloaded state")
    if not (report.range_in_subspace and report.negative_count >= 1):
        op.fail("state supported on S is not reported in S and NPT")


def check_suite(op: Op, result, trials: int):
    if result.trials != trials:
        op.fail(f"ran {result.trials} of {trials} trials")
    if not result.passed:
        op.fail(f"{len(result.failures)} failed trials, first {result.failures[0]}")


def check_fixture(op: Op, report):
    if not report.passed:
        op.fail("verify_matrix rejects the fixture")
    if report.negative_count != FIXTURE_NEGATIVES:
        op.fail(f"fixture shows {report.negative_count} negatives, documented {FIXTURE_NEGATIVES}")


def check_overlap(ops: list[Op], reference: dict):
    """Rotated brackets must overlap the structured run's at the same size."""
    for op in ops:
        if op.kind not in ("direct", "dual") or op.bracket is None:
            continue
        ref = reference.get((op.kind, op.label))
        if ref is None:
            op.fail("no structured reference bracket")
        elif not (op.bracket[0] <= ref[1] and ref[0] <= op.bracket[1]):
            op.fail(f"bracket {op.bracket} misses structured {ref}")


# --------------------------------------------------------------------------
# one pass
# --------------------------------------------------------------------------

@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)

    def seconds(self, kind: str | None = None) -> float:
        return sum(op.s for op in self.ops if kind is None or op.kind.startswith(kind))

    def signature(self) -> tuple:
        """What must repeat exactly: every op's iterations, trials and verdict."""
        return tuple((op.kind, op.label, op.iterations, op.trials, op.ok) for op in self.ops)


def _label(dims) -> str:
    return f"{dims.m}x{dims.n}"


def _call(fn, *args):
    """(result, exception) of fn(*args); NoConvergence yields its partial."""
    try:
        return fn(*args), None
    except NoConvergence as exc:
        return exc.partial, exc
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return None, exc


def _guard(op: Op, check, *args, **kwargs):
    """Run a check; a check that raises fails the op instead of the run."""
    try:
        check(op, *args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        op.fail(f"check raised {type(exc).__name__}: {exc}")


def _roundtrip(path: Path, mat, dims):
    cli.save_matrix(path, mat, dims)
    loaded, ldims, _ = cli.load_matrix(path)
    return loaded, ldims, cli.verify_matrix(loaded, ldims, check_subspace=True)


def run_pass(wl: Workload, inp: SimpleNamespace, workdir: Path, tick=None) -> Pass:
    """Run every op of the workload once.  Only the calls are timed; the
    checks run outside the timed region.  ``tick`` runs before each op."""
    clock = time.perf_counter
    out = Pass()

    def timed(kind, dims, fn, *args, trials=0):
        if tick is not None:
            tick()
        t0 = clock()
        res, err = _call(fn, *args)
        op = Op(kind, _label(dims), clock() - t0, trials=trials)
        out.ops.append(op)
        if err is not None and kind not in ("direct", "dual"):
            op.fail(f"raised {type(err).__name__}: {err}")
        return op, res, err

    for m, n in wl.direct:
        dims = bipartite.BipartiteDims(m, n)
        P = inp.projectors[(m, n)]
        op, sol, err = timed("direct", dims, sdp.solve_construction_sdp, dims, P)
        if not isinstance(sol, sdp.SdpSolution):
            sol, err = None, err or TypeError(f"unexpected result {sol!r}")
        _guard(op, check_direct, dims, P, sol, err)

    for m, n in wl.dual:
        dims = bipartite.BipartiteDims(m, n)
        op, dec, err = timed("dual", dims, sdp.construct_via_dual_cone, dims, inp.projectors[(m, n)])
        _guard(op, check_dual, dims, dec, err)

    for m, n, trials in wl.suites:
        dims = bipartite.BipartiteDims(m, n)
        for kind, fn in (("suite-npt", cli.run_npt_suite), ("suite-bound", cli.run_bound_suite)):
            op, res, err = timed(kind, dims, fn, dims, trials, inp.seed, trials=trials)
            if err is None:
                _guard(op, check_suite, res, trials)

    path = workdir / "roundtrip.json"
    for dims, mat in inp.states[:wl.roundtrip_states]:
        op, res, err = timed("roundtrip", dims, _roundtrip, path, mat, dims)
        if err is None:
            _guard(op, check_roundtrip, mat, dims, *res)

    fdims, fmat = inp.fixture
    op, report, err = timed("fixture", fdims, cli.verify_matrix, fmat, fdims, True)
    if err is None:
        _guard(op, check_fixture, report)
    return out


def warmup_workload(wl: Workload) -> Workload:
    """The smallest op of each phase, run once before timing starts."""
    return replace(
        wl, direct=wl.direct[:1], dual=wl.dual[:1],
        suites=tuple((m, n, 2) for m, n, _ in wl.suites[:1]),
        roundtrip_states=min(wl.roundtrip_states, 1),
    )


def structured_reference(wl: Workload, seed: int) -> dict:
    """Certified brackets of the same ladder on the unrotated projectors."""
    plain = replace(wl, suites=(), rotated=False, roundtrip_states=0)
    inp = build_inputs(plain, seed)
    reference = {}
    for m, n in plain.direct:
        dims = bipartite.BipartiteDims(m, n)
        sol, _ = _call(sdp.solve_construction_sdp, dims, inp.projectors[(m, n)])
        if isinstance(sol, sdp.SdpSolution):
            reference[("direct", _label(dims))] = (sol.lower_bound, sol.upper_bound)
    for m, n in plain.dual:
        dims = bipartite.BipartiteDims(m, n)
        dec, err = _call(sdp.construct_via_dual_cone, dims, inp.projectors[(m, n)])
        if err is None and dec is not None:
            reference[("dual", _label(dims))] = (dec.c - DUAL_BRACKET, dec.c)
    return reference


# --------------------------------------------------------------------------
# self-test of the checks
# --------------------------------------------------------------------------

def self_test() -> dict[str, bool]:
    """Feed the checks outputs known to be wrong; each must count as failed,
    and the bundled fixture (known to be right) must pass."""
    dims = bipartite.BipartiteDims(3, 3)
    P = subspace.subspace_projector(subspace.build_subspace(dims)).P
    mixed = np.eye(9, dtype=complex) / 9
    rho = SimpleNamespace(mat=mixed)
    verdicts = {}

    op = Op("direct", "3x3", 0.0)
    check_direct(op, dims, P, SimpleNamespace(
        rho=rho, lower_bound=1.05, upper_bound=1.06, iterations=1), None)
    verdicts["direct state with 0 negatives"] = not op.ok

    op = Op("dual", "3x3", 0.0)
    check_dual(op, dims, SimpleNamespace(c=0.95, rho=rho, iterations=1), None)
    verdicts["dual c off its oracle, 0 negatives"] = not op.ok

    op = Op("roundtrip", "3x3", 0.0)
    flipped = mixed.copy()
    flipped[0, 0] = np.nextafter(flipped[0, 0].real, 1.0)
    check_roundtrip(op, mixed, dims, flipped, dims, cli.verify_matrix(flipped, dims, True))
    verdicts["reload off by one ulp"] = not op.ok

    op = Op("suite-npt", "3x3", 0.0)
    check_suite(op, SimpleNamespace(trials=5, passed=False, failures=[(0, "not NPT")]), 5)
    verdicts["suite with a failed trial"] = not op.ok

    fmat, fdims, _ = cli.load_matrix(cli.paper_fixture_path())
    op = Op("fixture", "3x4", 0.0)
    check_fixture(op, cli.verify_matrix(fmat, fdims, True))
    verdicts["fixture accepted"] = op.ok
    return verdicts


# --------------------------------------------------------------------------
# machine speed
# --------------------------------------------------------------------------

#: Median time of reference_kernel() on the machine the baseline was recorded
#: on (2 vCPU, OpenBLAS 0.3.31, one BLAS thread); the scale of "nominal" seconds.
REFERENCE_NOMINAL_S = 0.016

_REF_RNG = np.random.Generator(np.random.PCG64(0))
_REF = _REF_RNG.standard_normal((30, 30)) + 1j * _REF_RNG.standard_normal((30, 30))
_REF = _REF + _REF.conj().T
_EIGH = np.linalg.eigh  # bound now, so a traced run does not trace the gauge


def reference_kernel() -> float:
    """Seconds for a fixed mix of the work nptsub does: small complex eigh,
    matrix products and interpreted Python."""
    clock = time.perf_counter
    t0 = clock()
    for _ in range(80):
        _, v = _EIGH(_REF)
        v @ v.conj().T
    total = 0
    for i in range(40_000):
        total += i * i
    return clock() - t0


class SpeedGauge:
    """Tracks how fast the machine runs, by timing the reference kernel
    between ops (at most every ``interval`` seconds) throughout a run.

    On a shared VM the same op takes up to 1.75x longer in slow stretches
    that last seconds, so one process can run 25% slower than the next.
    ``scale()`` converts the run's seconds to nominal seconds: it is
    REFERENCE_NOMINAL_S over the median kernel time of the run."""

    def __init__(self, interval: float = 0.4):
        self.interval = interval
        self.last = -math.inf
        self.seconds: list[float] = []

    def sample(self):
        self.seconds.append(reference_kernel())
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.seconds)
