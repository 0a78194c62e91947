"""Command-line front end and file serialization.

Subcommands: ``subspace``, ``construct``, ``verify``, ``witness``,
``stress``.  Exit codes: 0 success/pass, 1 verification or property
failure (a ``construct`` state whose negative count is not (m-1)(n-1)
included), 2 usage or parse error, 3 solver non-convergence.

Matrices travel as JSON documents with embedded local dimensions and
explicit [re, im] entry pairs; floats are printed with 17 significant
digits so that parse(serialize(M)) reproduces M bit-exactly.  Both
directions work on whole arrays: one formatting pass serves the payload
and the checksum, and a load parses the entries with one numpy call.  A
load accepts only integer m, n, an object as metadata and (mn) x (mn)
entries of exactly two finite JSON numbers whose checksum (when stored)
matches.  The product basis |j>|k> is ordered with the first factor major
(index j*n + k), stated in every file's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__
from .bipartite import (
    GENERATOR_NAME,
    BipartiteDims,
    DensityMatrix,
    count_negative_eigenvalues,
    partial_transpose,
    random_density_matrix,
)
from .errors import NoConvergence, NotInSubspace
from .linalg import eigvalsh, hermiticity_defect, is_hermitian
from .sdp import (
    DEFAULT_TOL_C,
    DEFAULT_TOL_GAP,
    construct_via_dual_cone,
    solve_construction_sdp,
)
from .subspace import (
    build_subspace,
    locate_witness,
    range_in_subspace,
    sample_mixture_in_subspace,
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
    """
    x = np.ascontiguousarray(values, dtype=complex).view(float).ravel()
    if not np.isfinite(x).all():
        bad = x[~np.isfinite(x)][0]
        raise MatrixFileError(f"non-finite value {float(bad)!r} cannot be serialized")
    texts = ("%.17g " * x.size % tuple(x.tolist())).split()
    for i in np.flatnonzero((x == np.trunc(x)) & (np.abs(x) < 1e17)).tolist():
        texts[i] += ".0"
    return texts


def _fmt(x) -> str:
    if isinstance(x, bool):
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
        items = sorted(x.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in items) + "}"
    raise MatrixFileError(f"cannot serialize {type(x)!r}")


def _checksum(texts: list[str], rows: int, cols: int) -> str:
    """SHA-256 of the entry texts: one line per row, "re im" pairs
    separated by spaces."""
    text = "\n".join([" ".join(["%s %s"] * cols)] * rows) % tuple(texts)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _pairs_payload(texts: list[str], rows: int, cols: int) -> str:
    """The entry texts as JSON rows of [re, im] pairs."""
    row = "[" + ", ".join(["[%s, %s]"] * cols) + "]"
    return ("[" + ", ".join([row] * rows) + "]") % tuple(texts)


def matrix_checksum(mat: np.ndarray) -> str:
    """SHA-256 over the canonical 17-digit entry encoding."""
    mat = np.asarray(mat)
    return _checksum(_float_texts(mat), *mat.shape)


def _document(kind: str, dims: BipartiteDims, payload_key: str, payload: str, metadata: dict) -> str:
    meta = {"tool_version": __version__, "format": "nptsub-v1",
            "basis_ordering": "product basis |j,k> at index j*n+k (first factor major)"}
    meta.update(metadata or {})
    body = (
        "{\n"
        f'  "kind": {json.dumps(kind)},\n'
        f'  "m": {dims.m},\n'
        f'  "n": {dims.n},\n'
        f'  "{payload_key}": {payload},\n'
        f'  "metadata": {_fmt(meta)}\n'
        "}\n"
    )
    return body


def serialize_matrix(mat: np.ndarray, dims: BipartiteDims, metadata: dict | None = None) -> str:
    mat = np.asarray(mat)
    texts = _float_texts(mat)
    meta = dict(metadata or {})
    meta.setdefault("checksum_sha256", _checksum(texts, *mat.shape))
    return _document("matrix", dims, "matrix", _pairs_payload(texts, *mat.shape), meta)


def serialize_vectors(vectors: np.ndarray, dims: BipartiteDims, metadata: dict | None = None) -> str:
    """One [re, im]-encoded vector per column of ``vectors``."""
    cols = np.asarray(vectors).T
    payload = _pairs_payload(_float_texts(cols), *cols.shape)
    return _document("vectors", dims, "vectors", payload, metadata or {})


def save_matrix(path, mat, dims, metadata=None):
    # serialize before open, so that a failed save leaves the file as it was
    text = serialize_matrix(mat, dims, metadata)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path) -> tuple[np.ndarray, BipartiteDims, dict]:
    """Parse a matrix document; verifies the checksum when present.

    Rejects (``MatrixFileError``) a document whose "m" or "n" is not an
    integer, whose "metadata" is not an object, whose "matrix" is not
    (mn) x (mn) entries of exactly two JSON numbers, or whose entries are
    not finite or do not match the stored checksum.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        m, n, metadata = doc["m"], doc["n"], doc.get("metadata", {})
        if type(m) is not int or type(n) is not int or not isinstance(metadata, dict):
            raise ValueError("m and n must be integers and metadata an object")
        dims = BipartiteDims(m, n)
        # pop and rebind, so that the parsed values are freed before the checksum pass
        values = np.array(doc.pop("matrix"), dtype=object)
        if not set(map(type, values.ravel().tolist())) <= {int, float}:
            raise ValueError("entries must be [re, im] pairs of JSON numbers")
        values = values.astype(float)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"cannot load matrix file {path}: {exc}") from exc
    d = dims.total
    if values.shape != (d, d, 2):
        raise MatrixFileError(f"entries in {path} have shape {values.shape}, expected ({d}, {d}, 2)")
    if not np.isfinite(values).all():
        raise MatrixFileError("matrix entries must be finite")
    mat = values.view(complex).reshape(d, d)
    expected = metadata.get("checksum_sha256")
    if expected is not None and matrix_checksum(mat) != expected:
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
    negative_count: int
    negative_eigenvalues: list[float]
    range_in_subspace: bool | None
    thresholds: dict[str, float]

    @property
    def passed(self) -> bool:
        return (
            self.is_hermitian
            and self.is_psd
            and abs(self.trace - 1.0) <= self.thresholds["trace"]
        )


def verify_matrix(
    mat: np.ndarray,
    dims: BipartiteDims,
    check_subspace: bool = False,
    tol_herm: float = 1e-12,
    tol_psd: float = 1e-10,
    tol_trace: float = 1e-10,
) -> VerificationReport:
    """Aggregate state checks: Hermiticity, positivity, trace, PT negatives."""
    thresholds = {"hermiticity": tol_herm, "psd": tol_psd, "trace": tol_trace}
    hermitian = is_hermitian(mat, rtol=tol_herm)
    trace = float(np.trace(mat).real)
    if hermitian:
        lo = float(eigvalsh(mat)[0])
        psd = lo >= -tol_psd
        count, negs = count_negative_eigenvalues(partial_transpose(mat, dims))
        negatives = [float(x) for x in negs]
    else:
        psd = False
        count, negatives = 0, []
    in_subspace = None
    if check_subspace and hermitian:
        in_subspace = range_in_subspace(build_subspace(dims), mat)
    return VerificationReport(
        is_hermitian=hermitian, is_psd=psd, trace=trace,
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


def run_npt_suite(dims: BipartiteDims, trials: int, seed: int) -> SuiteResult:
    """Sample mixtures supported on the NPT subspace; all must be NPT and
    carry a valid witness certificate.

    Trial i uses generator seed ``seed + i``, so results do not depend on
    execution order.
    """
    basis = build_subspace(dims)
    failures = []
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed + i))
        ens = sample_mixture_in_subspace(basis, rank=min(3, basis.dim), rng=rng)
        rho = ens.to_density_matrix()
        w = eigvalsh(partial_transpose(rho.mat, dims))
        if not w[0] < -1e-12 * float(w[-1]):
            failures.append((seed + i, f"not NPT: min PT eigenvalue {w[0]:.3e}"))
            continue
        try:
            cert = locate_witness(ens, basis)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures.append((seed + i, f"witness failed: {exc}"))
            continue
        if not cert.determinant < 0:
            failures.append((seed + i, f"witness determinant {cert.determinant:.3e} >= 0"))
            continue
        mismatch = abs(cert.determinant + abs(cert.mixture_sum) ** 2)
        if mismatch > 1e-10:
            failures.append((seed + i, f"determinant identity off by {mismatch:.3e}"))
    return SuiteResult("npt", dims, trials, failures)


def run_bound_suite(dims: BipartiteDims, trials: int, seed: int) -> SuiteResult:
    """Unrestricted random states never exceed (m-1)(n-1) PT negatives."""
    cap = dims.npt_dim
    failures = []
    for i in range(trials):
        rho = random_density_matrix(dims, rank=dims.total, seed=seed + i)
        count, _ = count_negative_eigenvalues(partial_transpose(rho.mat, dims))
        if count > cap:
            failures.append((seed + i, f"{count} negatives exceeds cap {cap}"))
    return SuiteResult("bound", dims, trials, failures)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_subspace(args) -> int:
    dims = BipartiteDims(args.m, args.n)
    basis = build_subspace(dims)
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
        meta = {"generators": "|j>|k+1> - |j+1>|k> in lexicographic (j,k) order"}
        (out / "generators.json").write_text(
            serialize_vectors(basis.generators, dims, meta), encoding="ascii"
        )
        (out / "basis.json").write_text(
            serialize_vectors(basis.orthonormal, dims,
                              {"orthonormalization": "modified gram-schmidt"}),
            encoding="ascii",
        )
        if args.projector:
            P = subspace_projector(basis)
            save_matrix(out / "projector.json", P.P, dims,
                        {"trace": float(np.trace(P.P).real)})
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"subspace dimension: {basis.dim} (m-1)(n-1) = {dims.npt_dim}")
    if basis.dim == 0:
        print("warning: subspace is zero-dimensional (m = 1 or n = 1)", file=sys.stderr)
    print(f"wrote {out}/generators.json, {out}/basis.json"
          + (f", {out}/projector.json" if args.projector else ""))
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.m < 2 or args.n < 2:
        print("error: construction requires m, n >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
        print(f"error: --tol must be a finite positive number, got {args.tol}", file=sys.stderr)
        return EXIT_USAGE
    direct = args.method == "direct"
    tol = args.tol if args.tol is not None else (DEFAULT_TOL_GAP if direct else DEFAULT_TOL_C)
    dims = BipartiteDims(args.m, args.n)
    P = subspace_projector(build_subspace(dims))
    meta = {
        "method": args.method,
        "solver_budgets": {"max_iter": args.max_iter, "tolerance": tol},
    }
    exit_code = EXIT_OK
    if direct:
        try:
            sol = solve_construction_sdp(
                dims, P, tol_gap=tol, max_iter=args.max_iter
            )
        except NoConvergence as exc:
            sol = exc.partial
            exit_code = EXIT_NOCONV
        rho = sol.rho
        gap = sol.upper_bound - sol.lower_bound
        meta.update({
            "d": sol.d, "objective_gap": gap if np.isfinite(gap) else None,
            "converged": sol.converged, "residuals": sol.residuals,
        })
        summary = f"d = {sol.d:.6g}"
        diagnostics = sol.residuals
    else:
        try:
            dec = construct_via_dual_cone(
                dims, P, tol_c=tol, max_iter=args.max_iter
            )
        except NoConvergence as exc:
            if not isinstance(exc.partial, DensityMatrix):
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_NOCONV
            rho = exc.partial
            meta.update({"converged": False, "failure": str(exc)})
            exit_code = EXIT_NOCONV
            diagnostics = {}
            summary = "dual-cone route did not converge"
        else:
            rho = dec.rho
            # lambda_min(X1) >= 0 is what makes X = X1 + X2^G a dual-cone
            # split; its size shows how near the certified pair is to failing
            diagnostics = {"split_margin": float(eigvalsh(dec.X1)[0])}
            meta.update({"c": dec.c, "converged": True, **diagnostics})
            summary = f"c = {dec.c:.6g}"
    count, negs = count_negative_eigenvalues(partial_transpose(rho.mat, dims))
    meta["negative_count"] = count
    try:
        save_matrix(args.out, rho.mat, dims, meta)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{summary}, negatives = {count} (target {dims.npt_dim})")
    print("negative eigenvalues:", " ".join(f"{x:.6g}" for x in negs))
    for name, value in diagnostics.items():
        print(f"{name} = {value:.6g}")
    if exit_code == EXIT_NOCONV:
        print("warning: solver did not converge; partial output written", file=sys.stderr)
    print(f"wrote {args.out}")
    if count != dims.npt_dim:
        print(f"error: {count} negative partial-transpose eigenvalues, "
              f"expected (m-1)(n-1) = {dims.npt_dim}", file=sys.stderr)
        if exit_code == EXIT_OK:
            exit_code = EXIT_FAIL
    return exit_code


def _cmd_verify(args) -> int:
    try:
        mat, dims, _ = load_matrix(args.infile)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_matrix(
        mat, dims, check_subspace=args.subspace,
        tol_herm=args.tol_herm, tol_psd=args.tol_psd, tol_trace=args.tol_trace,
    )
    print(f"dims: {dims.m} x {dims.n} (total {dims.total})")
    print(f"hermitian: {report.is_hermitian} (defect {hermiticity_defect(mat):.3g})")
    print(f"psd: {report.is_psd}")
    print(f"trace: {report.trace:.6g}")
    print(f"partial transpose negatives: {report.negative_count} "
          f"(cap (m-1)(n-1) = {dims.npt_dim})")
    if report.negative_eigenvalues:
        print("negative eigenvalues:",
              " ".join(f"{x:.6g}" for x in report.negative_eigenvalues))
    if report.range_in_subspace is not None:
        print(f"range in NPT subspace: {report.range_in_subspace}")
    print("thresholds:", " ".join(f"{k}={v:g}" for k, v in report.thresholds.items()))
    if args.json_out:
        text = _fmt(asdict(report)) + "\n"
        if args.json_out == "-":
            sys.stdout.write(text)
        else:
            with open(args.json_out, "w", encoding="ascii") as fh:
                fh.write(text)
    print("verdict:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_witness(args) -> int:
    try:
        mat, dims, _ = load_matrix(args.infile)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.m is not None or args.n is not None:
        if (args.m, args.n) != (dims.m, dims.n):
            print(f"error: flags (--m {args.m} --n {args.n}) disagree with "
                  f"file dims ({dims.m}, {dims.n})", file=sys.stderr)
            return EXIT_USAGE
    basis = build_subspace(dims)
    try:
        rho = DensityMatrix(dims, mat)
        cert = locate_witness(rho, basis)
    except NotInSubspace as exc:
        print(f"not in subspace: {exc}", file=sys.stderr)
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
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    dims = BipartiteDims(args.m, args.n)
    if args.suite == "npt":
        if dims.npt_dim == 0:
            print("error: npt suite needs m, n >= 2", file=sys.stderr)
            return EXIT_USAGE
        result = run_npt_suite(dims, args.trials, args.seed)
    else:
        result = run_bound_suite(dims, args.trials, args.seed)
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
                   help="objective tolerance: the certified gap for direct (default "
                        f"{DEFAULT_TOL_GAP:g}), the bracket on c for dual-cone "
                        f"(default {DEFAULT_TOL_C:g})")
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--out", type=Path, required=True, help="output matrix file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a state from a matrix file")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--subspace", action="store_true",
                   help="also check range containment in the NPT subspace")
    p.add_argument("--tol-herm", type=float, default=1e-12)
    p.add_argument("--tol-psd", type=float, default=1e-10)
    p.add_argument("--tol-trace", type=float, default=1e-10)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
