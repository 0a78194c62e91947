"""Command-line front end and file serialization.

Subcommands: ``subspace``, ``construct``, ``verify``, ``witness``,
``stress``.  Exit codes: 0 success/pass, 1 verification or property
failure (a ``construct`` state whose negative count is not (m-1)(n-1)
included), 2 usage or parse error, 3 solver non-convergence.  ``main`` is
the one map from exceptions to exit codes: a ValueError (MatrixFileError
included) exits 2 with ``error: ...``, an OSError exits 2 with
``error: cannot write output: ...`` and a NoConvergence exits 3 with
``error: ...``; ``witness`` reports a state outside S (``not in
subspace: ...``) or a failed search (``no witness: ...``) itself, with
exit 1.  Every command judges a state by the one rule of
DensityMatrix, with its fixed thresholds: ``verify`` passes a matrix
exactly when ``witness`` accepts it as a state.  ``construct`` runs both
routes through one path: a solve that raises with a state (an SdpSolution
or a ConeDecomposition) still has that state written, with the reason as
``failure``, and exits 3.  A ``construct`` file records ``converged``
true only when the solve converged and its state has (m-1)(n-1)
negatives.

Matrices travel as JSON documents with embedded local dimensions and
explicit [re, im] entry pairs; floats are printed with 17 significant
digits so that parse(serialize(M)) reproduces M bit-exactly.  Both
directions work on whole arrays: one formatting pass (``_float_texts``)
serves the payload and the checksum, and a load (``load_matrix``, which
states what it accepts) converts the entry texts with one numpy call.  A
save checks the shape before it formats anything, so a failed save
leaves an existing file as it was.  The product basis |j>|k> is ordered
with the first factor major (index j*n + k), stated in every file's
metadata.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__, bipartite
from .bipartite import (
    DENSITY_EIG_FLOOR,
    DENSITY_TRACE_TOL,
    GENERATOR_NAME,
    NEGATIVE_ABS_FLOOR,
    NEGATIVE_REL,
    BipartiteDims,
    DensityMatrix,
    _check_seed,
    _generators,
    _ginibre_states,
    _integer,
    _mixture,
    _negative_counts,
    _pt_spectra,
    _state_checks,
    _state_error,
)
from .errors import DegenerateSubspace, NoConvergence, NotInSubspace, NoWitness, ShapeMismatch
from .linalg import HERMITICITY_RTOL, eigvalsh, hermiticity_defect
from .sdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL_C,
    DEFAULT_TOL_GAP,
    ConeDecomposition,
    SdpSolution,
    construct_via_dual_cone,
    solve_construction_sdp,
)
from .subspace import (
    _in_subspace,
    _sample_mixtures,
    _witnesses,
    build_subspace,
    locate_witness,
    subspace_projector,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOCONV = 3


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

class MatrixFileError(ValueError):
    """File cannot be parsed as a matrix/vectors document."""


def _float_texts(values) -> list[str]:
    """Canonical texts of the re and im parts of ``values`` (complex or
    real), row-major: re, im, re, im, ...

    17 significant digits, so parsing a text returns the same double.
    "%.17g" prints an integral value below 1e17 in magnitude without a
    point; those get ".0" so json reads them back as floats (an int would
    lose the sign of -0.0).

    Each distinct magnitude is formatted once, and a value whose sign bit
    is set reads "-" followed by its magnitude's text.  For every finite
    double v (-0.0 included) "%.17g" of -v is "-" and "%.17g" of v, and the
    ".0" rule depends on |v| alone, so the texts are those of per-value
    formatting.  The package's matrices repeat most magnitudes (Hermitian
    mirror entries, zero rows, the projector's few distinct values).
    """
    x = np.ascontiguousarray(values, dtype=complex).view(float).ravel()
    if not np.isfinite(x).all():
        bad = x[~np.isfinite(x)][0]
        raise MatrixFileError(f"non-finite value {float(bad)!r} cannot be serialized")
    mags, inverse = np.unique(np.abs(x), return_inverse=True)
    texts = ("%.17g " * mags.size % tuple(mags.tolist())).split()
    for i in np.flatnonzero((mags == np.trunc(mags)) & (mags < 1e17)).tolist():
        texts[i] += ".0"
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    return table[inverse + mags.size * np.signbit(x)].tolist()


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _float_texts(x)[0]
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        for k in x:
            if not isinstance(k, str):
                raise MatrixFileError(f"metadata key {k!r} is not a string")
        items = sorted(x.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in items) + "}"
    raise MatrixFileError(f"cannot serialize {type(x)!r}")


def _checksum(texts: list[str] | list[bytes], rows: int, cols: int) -> str:
    """SHA-256 of the entry texts (formatted, or as read from a file): one
    line per row, "re im" pairs separated by spaces."""
    layout = "\n".join([" ".join(["%s %s"] * cols)] * rows)
    if texts and isinstance(texts[0], bytes):
        return hashlib.sha256(layout.encode("ascii") % tuple(texts)).hexdigest()
    return hashlib.sha256((layout % tuple(texts)).encode("ascii")).hexdigest()


def _pairs_payload(texts: list[str], rows: int, cols: int) -> str:
    """The entry texts as JSON rows of [re, im] pairs."""
    row = "[" + ", ".join(["[%s, %s]"] * cols) + "]"
    return ("[" + ", ".join([row] * rows) + "]") % tuple(texts)


def matrix_checksum(mat: np.ndarray) -> str:
    """SHA-256 over the canonical 17-digit entry encoding.  Raises
    ShapeMismatch unless ``mat`` is 2-D."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    return _checksum(_float_texts(mat), *mat.shape)


def _document(kind: str, dims: BipartiteDims, payload_key: str, payload: str, metadata: dict) -> str:
    meta = {"tool_version": __version__, "format": "nptsub-v1",
            "basis_ordering": "product basis |j,k> at index j*n+k (first factor major)"}
    meta.update(metadata or {})
    return (
        "{\n"
        f'  "kind": {json.dumps(kind)},\n'
        f'  "m": {dims.m},\n'
        f'  "n": {dims.n},\n'
        f'  "{payload_key}": {payload},\n'
        f'  "metadata": {_fmt(meta)}\n'
        "}\n"
    )


def serialize_matrix(mat: np.ndarray, dims: BipartiteDims, metadata: dict | None = None) -> str:
    """The matrix document of ``mat``; raises ShapeMismatch unless it is
    (mn) x (mn), the only shape ``load_matrix`` accepts for ``dims``."""
    mat = np.asarray(mat)
    d = dims.total
    if mat.shape != (d, d):
        raise ShapeMismatch(f"expected {(d, d)} matrix for dims {dims}, got shape {mat.shape}")
    texts = _float_texts(mat)
    meta = {**(metadata or {}), "checksum_sha256": _checksum(texts, *mat.shape)}
    return _document("matrix", dims, "matrix", _pairs_payload(texts, *mat.shape), meta)


def serialize_vectors(vectors: np.ndarray, dims: BipartiteDims, metadata: dict | None = None) -> str:
    """One [re, im]-encoded vector per column of ``vectors``, which must be
    2-D with mn rows (ShapeMismatch otherwise)."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] != dims.total:
        raise ShapeMismatch(f"expected a 2-D ({dims.total}, k) array for dims {dims}, "
                            f"got shape {vectors.shape}")
    cols = vectors.T
    payload = _pairs_payload(_float_texts(cols), *cols.shape)
    return _document("vectors", dims, "vectors", payload, metadata or {})


def save_matrix(path, mat, dims, metadata=None):
    # serialize before open, so that a failed save leaves the file as it was
    text = serialize_matrix(mat, dims, metadata)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _floats(x):
    """``x`` with every float text (bytes) turned into a float."""
    if isinstance(x, bytes):
        return float(x)
    if isinstance(x, list):
        return [_floats(v) for v in x]
    if isinstance(x, dict):
        return {k: _floats(v) for k, v in x.items()}
    return x


def load_matrix(path) -> tuple[np.ndarray, BipartiteDims, dict]:
    """Parse a matrix document; verifies the checksum when present.

    Rejects (``MatrixFileError``) a document of another "kind", one whose
    "m" or "n" is not an integer, whose "metadata" is not an object, whose
    "matrix" is not (mn) x (mn) entries of exactly two JSON numbers, or
    whose entries are not finite or do not match the stored checksum.

    The checksum is first taken over the entry texts as read, which in a
    document ``serialize_matrix`` wrote are the canonical texts, so no
    formatting pass is needed.  Any other document (an integer entry,
    another spelling such as 5e-1, a mismatch) is checked against its
    entries formatted again.  So a checksum computed over a document's
    own non-canonical texts matches too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # floats stay as their ASCII texts, in a type JSON never
            # produces (bytes), so a string entry still stands out
            doc = json.load(fh, parse_float=str.encode)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        if doc.get("kind", "matrix") != "matrix":
            raise ValueError(f"document kind {doc['kind']!r} is not 'matrix'")
        m, n, metadata = doc["m"], doc["n"], _floats(doc.get("metadata", {}))
        if type(m) is not int or type(n) is not int or not isinstance(metadata, dict):
            raise ValueError("m and n must be integers and metadata an object")
        dims = BipartiteDims(m, n)
        values = np.array(doc.pop("matrix"), dtype=object)
        texts = values.ravel().tolist()
        types = set(map(type, texts))
        # a float is NaN or an infinity, rejected as not finite below
        if not types <= {bytes, int, float}:
            raise ValueError("entries must be [re, im] pairs of JSON numbers")
        values = values.astype(float)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise MatrixFileError(f"cannot load matrix file {path}: {exc}") from exc
    d = dims.total
    if values.shape != (d, d, 2):
        raise MatrixFileError(f"entries in {path} have shape {values.shape}, expected ({d}, {d}, 2)")
    if not np.isfinite(values).all():
        raise MatrixFileError("matrix entries must be finite")
    mat = values.view(complex).reshape(d, d)
    expected = metadata.get("checksum_sha256")
    if expected is not None and not (
        (types == {bytes} and _checksum(texts, d, d) == expected)
        or matrix_checksum(mat) == expected
    ):
        raise MatrixFileError(f"checksum mismatch in {path}")
    return mat, dims, metadata


def paper_fixture_path() -> str:
    """Path of the bundled 3x4 example state."""
    return str(resources.files("nptsub").joinpath("fixtures/paper_3x4.json"))


# --------------------------------------------------------------------------
# verification report
# --------------------------------------------------------------------------

@dataclass
class VerificationReport:
    is_hermitian: bool
    is_psd: bool
    trace: float
    negative_count: int | None
    negative_eigenvalues: list[float] | None
    range_in_subspace: bool | None
    thresholds: dict[str, float]

    @property
    def passed(self) -> bool:
        return (
            self.is_hermitian
            and self.is_psd
            and abs(self.trace - 1.0) <= self.thresholds["trace"]
        )


def verify_matrix(mat: np.ndarray, dims: BipartiteDims, check_subspace: bool = False) -> VerificationReport:
    """Aggregate state checks: Hermiticity, positivity, trace, PT negatives.

    The verdicts are those of DensityMatrix, from the same
    ``_state_checks`` and thresholds (HERMITICITY_RTOL, DENSITY_EIG_FLOOR,
    DENSITY_TRACE_TOL), so a matrix passes exactly when it constructs a
    DensityMatrix.  Positivity costs no eigenvalues (one Cholesky
    factorization), and the one eigvalsh is that of the partial transpose.
    A matrix that is not Hermitian (a non-square one included) has no
    spectrum: its negatives are not computed (None), nor is its range.
    Raises ShapeMismatch for an input that is not 2-D.
    """
    thresholds = {"hermiticity": HERMITICITY_RTOL, "psd": -DENSITY_EIG_FLOOR,
                  "trace": DENSITY_TRACE_TOL}
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    if mat.shape[0] == mat.shape[1]:
        hermitian, trace, psd, H = _state_checks(mat)
    else:
        hermitian, trace, psd = False, np.trace(mat).real, False
    count = negatives = in_subspace = None
    if hermitian:
        _, w_pt = _pt_spectra(H, dims)
        count = int(_negative_counts(w_pt))
        negatives = w_pt[:count].tolist()
        if check_subspace:
            in_subspace = _in_subspace(dims, mat)
    return VerificationReport(
        is_hermitian=bool(hermitian), is_psd=bool(psd), trace=float(trace),
        negative_count=count, negative_eigenvalues=negatives,
        range_in_subspace=in_subspace, thresholds=thresholds,
    )


# --------------------------------------------------------------------------
# stress suites
# --------------------------------------------------------------------------

@dataclass
class SuiteResult:
    suite: str
    dims: BipartiteDims
    trials: int
    failures: list[tuple[int, str]]

    @property
    def passed(self) -> bool:
        return not self.failures


#: Bytes of the stacked states and partial transposes (complex128, half
#: each) of one chunk of a suite: 56 trials at 3 x 4, 13 at 5 x 5 and 2 at
#: 8 x 8, enough to share each numpy call across trials.  Chunks of 2 MB ran
#: about 5% faster but raised the process's peak memory by over 5 MB.
_SUITE_CHUNK_BYTES = 2**18


def _chunks(dims: BipartiteDims, trials: int, seed: int):
    """Trial seeds seed, ..., seed + trials - 1, in ranges of at most
    _SUITE_CHUNK_BYTES of stacked matrices (at least one trial each)."""
    size = max(1, _SUITE_CHUNK_BYTES // (2 * 16 * dims.total**2))
    for start in range(seed, seed + trials, size):
        yield range(start, min(start + size, seed + trials))


def _check_trials(trials: int, seed: int) -> None:
    """Raise ValueError unless ``trials`` >= 1 and ``seed`` >= 0 are integers."""
    if _integer("trials", trials) < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_seed(seed)


def _witness_bounds(B: np.ndarray, rho_pt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min(B), tau_bar) for each Hermitian 2 x 2 block B (k, 2, 2) of
    the partial transposes rho_pt (k, mn, mn): the block's lowest eigenvalue
    in closed form, an upper bound on lambda_min(rho^Gamma) by interlacing,
    and tau_bar = max(NEGATIVE_ABS_FLOOR, NEGATIVE_REL * ||rho^Gamma||_F),
    at least the negativity rule's tau since ||rho^Gamma||_F >= |lambda_max|.
    A block below -tau_bar makes the rule count a negative.  Unvalidated."""
    a, b = B[:, 0, 0].real, B[:, 1, 1].real
    block_min = (a + b) / 2 - np.hypot((a - b) / 2, np.abs(B[:, 0, 1]))
    tau = np.maximum(NEGATIVE_ABS_FLOOR, NEGATIVE_REL * np.linalg.norm(rho_pt, axis=(-2, -1)))
    return block_min, tau


def run_npt_suite(dims: BipartiteDims, trials: int, seed: int) -> SuiteResult:
    """Sample mixtures supported on the NPT subspace; all must be NPT and
    carry a valid witness certificate.

    Trial i draws the mixture ``sample_mixture_in_subspace`` draws with
    rank min(3, dim S) from generator seed ``seed + i``, bit for bit, so
    results do not depend on execution order.  The trials run in chunks of
    at most _SUITE_CHUNK_BYTES of stacked matrices, each drawn as one
    stack (``_sample_mixtures``: one uniform draw per trial, then one
    Box-Muller transform and one basis map for the chunk, with the checks
    of Ensemble on every mixture).  The states get the checks of
    DensityMatrix as one stack (one Cholesky factorization for the PSD
    floor), and one stacked ``locate_witness`` search on the states and
    their partial transposes gives every certificate, containment judged
    by the rule of ``range_in_subspace``.  A trial is NPT by the negativity
    rule of ``is_ppt``.  Its witness block B, a 2 x 2 principal block of
    rho^Gamma, settles that without a spectrum when lambda_min(B) is below
    -tau_bar (``_witness_bounds``): the rule then counts a negative.  Only
    the other trials (no witness, or a block above -tau_bar) get one
    eigvalsh over their stacked partial transposes, which decides them and
    names the lowest eigenvalue of one that is not NPT.
    Raises ValueError unless trials >= 1 and seed >= 0 are integers, and
    DegenerateSubspace at m = 1 or n = 1, before any trial.
    """
    _check_trials(trials, seed)
    if dims.npt_dim == 0:
        raise DegenerateSubspace(f"NPT subspace is trivial at dims {dims}")
    basis = build_subspace(dims)
    rank = min(3, basis.dim)
    failures = []
    for seeds in _chunks(dims, trials, seed):
        rho = _mixture(*_sample_mixtures(basis, rank, _generators(seeds)))
        error = _state_error(rho)
        if error is not None:
            raise ValueError(error)
        rho_pt = bipartite.partial_transpose(rho, dims)
        found = _witnesses(rho, rho_pt, dims)
        block_min, tau = _witness_bounds(found.submatrix, rho_pt)
        npt = np.array([e is None for e in found.errors]) & (block_min < -tau)
        lowest = np.zeros(len(seeds))
        rest = np.flatnonzero(~npt)
        if rest.size:
            w_pt = np.linalg.eigvalsh(rho_pt[rest])
            npt[rest] = _negative_counts(w_pt) > 0
            lowest[rest] = w_pt[:, 0]
        for i, s in enumerate(seeds):
            if not npt[i]:
                failures.append((s, f"not NPT: min PT eigenvalue {lowest[i]:.3e}"))
                continue
            if found.errors[i] is not None:
                failures.append((s, f"witness failed: {found.errors[i]}"))
                continue
            cert = found.certificate(i)
            if not cert.determinant < 0:
                failures.append((s, f"witness determinant {cert.determinant:.3e} >= 0"))
                continue
            mismatch = abs(cert.determinant + abs(cert.mixture_sum) ** 2)
            if mismatch > 1e-10:
                failures.append((s, f"determinant identity off by {mismatch:.3e}"))
    return SuiteResult("npt", dims, trials, failures)


def run_bound_suite(dims: BipartiteDims, trials: int, seed: int) -> SuiteResult:
    """Unrestricted random states never exceed (m-1)(n-1) PT negatives.

    Trial i is ``random_density_matrix(dims, mn, seed + i)``, bit for bit.
    The trials run in chunks as in ``run_npt_suite``: each chunk's states
    are drawn as one stack (``_ginibre_states``), checked as DensityMatrix
    checks them (one Cholesky factorization for the PSD floor) and counted
    with one eigvalsh of their partial transposes.  Raises ValueError
    unless trials >= 1 and seed >= 0 are integers, before any trial.
    """
    _check_trials(trials, seed)
    cap = dims.npt_dim
    failures = []
    for seeds in _chunks(dims, trials, seed):
        rho = _ginibre_states(dims, dims.total, seeds)
        error = _state_error(rho)
        if error is not None:
            raise ValueError(error)
        _, w_pt = _pt_spectra(rho, dims)
        counts = _negative_counts(w_pt)
        failures += [(s, f"{count} negatives exceeds cap {cap}")
                     for s, count in zip(seeds, counts.tolist()) if count > cap]
    return SuiteResult("bound", dims, trials, failures)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_subspace(args) -> int:
    dims = BipartiteDims(args.m, args.n)
    basis = build_subspace(dims)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    meta = {"generators": "|j>|k+1> - |j+1>|k> in lexicographic (j,k) order"}
    (out / "generators.json").write_text(
        serialize_vectors(basis.generators, dims, meta), encoding="ascii"
    )
    meta = {"orthonormalization": "qr of the generators, R with positive diagonal"}
    (out / "basis.json").write_text(
        serialize_vectors(basis.orthonormal, dims, meta), encoding="ascii"
    )
    if args.projector:
        P = subspace_projector(basis)
        save_matrix(out / "projector.json", P.P, dims,
                    {"trace": float(np.trace(P.P).real)})
    print(f"subspace dimension: {basis.dim} (m-1)(n-1) = {dims.npt_dim}")
    if basis.dim == 0:
        print("warning: subspace is zero-dimensional (m = 1 or n = 1)", file=sys.stderr)
    print(f"wrote {out}/generators.json, {out}/basis.json"
          + (f", {out}/projector.json" if args.projector else ""))
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be a finite positive number, got {args.tol}", file=sys.stderr)
        return EXIT_USAGE
    direct = args.method == "direct"
    tol = args.tol if args.tol is not None else (DEFAULT_TOL_GAP if direct else DEFAULT_TOL_C)
    solve = solve_construction_sdp if direct else construct_via_dual_cone
    dims = BipartiteDims(args.m, args.n)
    P = subspace_projector(build_subspace(dims))
    failure = None
    try:
        result = solve(dims, P, tol, args.max_iter)
    except NoConvergence as exc:
        # a failed solve that formed a state has it written and flagged;
        # any other failure has no state to write
        if not isinstance(exc.partial, (SdpSolution, ConeDecomposition)):
            raise
        result, failure = exc.partial, str(exc)
    if direct:
        gap = result.upper_bound - result.lower_bound
        diagnostics = result.residuals
        route = {"d": result.d, "objective_gap": gap if np.isfinite(gap) else None,
                 "residuals": diagnostics}
        summary = f"d in [{result.lower_bound:.10g}, {result.upper_bound:.10g}]"
    else:
        # lambda_min(X1) >= 0 is what makes X = X1 + X2^G a dual-cone
        # split; its size shows how near the certified pair is to failing
        diagnostics = {"split_margin": float(eigvalsh(result.X1)[0])}
        route = {"c": result.c, "c_lower": result.c_lower, **diagnostics}
        summary = f"c in [{result.c_lower:.10g}, {result.c:.10g}]"
    report = verify_matrix(result.rho.mat, dims)  # the count `verify` prints for the file
    count, negs = report.negative_count, report.negative_eigenvalues
    meta = {
        "method": args.method,
        "solver_budgets": {"max_iter": args.max_iter, "tolerance": tol},
        "iterations": result.iterations,
        "negative_count": count,
        # converged: the solve converged and its state has the paper's count
        "converged": failure is None and count == dims.npt_dim,
        **route,
    }
    if failure is not None:
        meta["failure"] = failure
    save_matrix(args.out, result.rho.mat, dims, meta)
    print(f"{summary}, negatives = {count} (target {dims.npt_dim})")
    print(f"iterations = {result.iterations}")
    print("negative eigenvalues:", " ".join(f"{x:.6g}" for x in negs))
    for name, value in diagnostics.items():
        print(f"{name} = {value:.6g}")
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        print("warning: solver did not converge; partial output written", file=sys.stderr)
    print(f"wrote {args.out}")
    if count != dims.npt_dim:
        print(f"error: {count} negative partial-transpose eigenvalues, "
              f"expected (m-1)(n-1) = {dims.npt_dim}", file=sys.stderr)
    if failure is not None:
        return EXIT_NOCONV
    return EXIT_OK if count == dims.npt_dim else EXIT_FAIL


def _cmd_verify(args) -> int:
    mat, dims, _ = load_matrix(args.infile)
    report = verify_matrix(mat, dims, check_subspace=args.subspace)
    # with --json-out -, stdout carries only the JSON document
    say = functools.partial(print, file=sys.stderr if args.json_out == "-" else sys.stdout)
    say(f"dims: {dims.m} x {dims.n} (total {dims.total})")
    say(f"hermitian: {report.is_hermitian} (defect {hermiticity_defect(mat):.3g})")
    say(f"psd: {report.is_psd}")
    say(f"trace: {report.trace:.6g}")
    if report.negative_count is None:
        say("partial transpose negatives: not computed (not Hermitian)")
    else:
        say(f"partial transpose negatives: {report.negative_count} "
            f"(cap (m-1)(n-1) = {dims.npt_dim})")
    if report.negative_eigenvalues:
        say("negative eigenvalues:", " ".join(f"{x:.6g}" for x in report.negative_eigenvalues))
    if report.range_in_subspace is not None:
        say(f"range in NPT subspace: {report.range_in_subspace}")
    say("thresholds:", " ".join(f"{k}={v:g}" for k, v in report.thresholds.items()))
    if args.json_out:
        text = _fmt(asdict(report)) + "\n"
        if args.json_out == "-":
            sys.stdout.write(text)
        else:
            with open(args.json_out, "w", encoding="ascii") as fh:
                fh.write(text)
    say("verdict:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_witness(args) -> int:
    mat, dims, _ = load_matrix(args.infile)
    for flag, given, actual in (("--m", args.m, dims.m), ("--n", args.n, dims.n)):
        if given is not None and given != actual:
            print(f"error: flag {flag} {given} disagrees with file dims "
                  f"({dims.m}, {dims.n})", file=sys.stderr)
            return EXIT_USAGE
    basis = build_subspace(dims)
    try:
        rho = DensityMatrix(dims, mat)
        cert = locate_witness(rho, basis)
    except NotInSubspace as exc:
        print(f"not in subspace: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except NoWitness as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"not a valid state: {exc}", file=sys.stderr)
        return EXIT_FAIL
    ai, bi = cert.flat_indices(dims)
    print(f"alpha: |{cert.alpha[0]},{cert.alpha[1]}> (index {ai})")
    print(f"beta:  |{cert.beta[0]},{cert.beta[1]}> (index {bi})")
    print(f"anti-diagonal index: {cert.antidiag_index}")
    print("submatrix of the partial transpose:")
    for row in cert.submatrix:
        print("  " + "  ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in row))
    print(f"determinant: {cert.determinant:.6g}")
    print(f"mixture sum: {cert.mixture_sum.real:+.6g}{cert.mixture_sum.imag:+.6g}j")
    return EXIT_OK


def _cmd_stress(args) -> int:
    dims = BipartiteDims(args.m, args.n)
    suite = run_npt_suite if args.suite == "npt" else run_bound_suite
    result = suite(dims, args.trials, args.seed)
    ok = result.trials - len(result.failures)
    print(f"suite {result.suite} at ({dims.m},{dims.n}): "
          f"{ok}/{result.trials} passed (base seed {args.seed}, "
          f"generator {GENERATOR_NAME})")
    for trial_seed, msg in result.failures[:20]:
        print(f"  FAIL seed={trial_seed}: {msg}")
    return EXIT_OK if result.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="nptsub",
        description="NPT subspaces and extremal partial-transpose spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subspace", help="construct the NPT subspace basis")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--projector", action="store_true", help="also write the projector")
    p.set_defaults(func=_cmd_subspace)

    p = sub.add_parser("construct", help="construct an extremal state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["direct", "dual-cone"], default="direct")
    p.add_argument("--tol", type=float, default=None,
                   help="objective tolerance: for direct, the certified gap on d at which "
                        "the route stops if no earlier round certifies d > 1 with the full "
                        "count (up to 10x10 the closed-form state certifies it, so the route "
                        "returns before any iteration, whatever the gap; "
                        f"default {DEFAULT_TOL_GAP:g}); "
                        "for dual-cone, the bracket on c "
                        "at which the route stops if no earlier round certifies c < 1 with "
                        f"the full count (default {DEFAULT_TOL_C:g})")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help=f"splitting-iteration budget per solve (default {DEFAULT_MAX_ITER})")
    p.add_argument("--out", type=Path, required=True, help="output matrix file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a state from a matrix file")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--subspace", action="store_true",
                   help="also check range containment in the NPT subspace")
    p.add_argument("--json-out", default=None,
                   help="write the machine-readable report here ('-' for stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="locate a 2x2 witness for a state in S")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("stress", help="randomized property suites")
    p.add_argument("--suite", choices=["npt", "bound"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stress)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one map from its exceptions to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        # a closed stdout fails here, not at interpreter exit
        sys.stdout.flush()
        return code
    except ValueError as exc:  # a MatrixFileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the unwritten output would fail again when the interpreter exits
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
