import hashlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from nptsub import BipartiteDims, build_subspace, cli, sdp, subspace_projector
from nptsub.errors import NoConvergence

D22 = BipartiteDims(2, 2)
D34 = BipartiteDims(3, 4)


def library_default(solver, name):
    """Default value of a solver's keyword argument."""
    return inspect.signature(solver).parameters[name].default


def singlet_matrix():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def write_state(path, mat, dims):
    cli.save_matrix(path, mat, dims, {"seed": 0})
    return path


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat[0, 0] = 1e-300 + 1e300j  # extreme magnitudes survive
        path = tmp_path / "m.json"
        cli.save_matrix(path, mat, D22, {"note": "round trip"})
        loaded, dims, meta = cli.load_matrix(path)
        assert dims == D22
        assert np.array_equal(loaded, mat)
        assert meta["note"] == "round trip"

    def test_checksum_guards_edits(self, tmp_path):
        path = tmp_path / "m.json"
        cli.save_matrix(path, np.eye(4, dtype=complex) / 4, D22)
        doc = json.loads(path.read_text())
        doc["matrix"][0][0][0] = 0.3
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(path)

    def test_rejects_non_finite(self):
        with pytest.raises(cli.MatrixFileError):
            cli.serialize_matrix(np.array([[np.inf]]), BipartiteDims(1, 1))

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"m": 2, "n": 2, "matrix": [[[1, 0]]], "metadata": {}}')
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(path)

    def test_deterministic_bytes(self, tmp_path):
        mat = np.eye(4, dtype=complex) / 4
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.save_matrix(a, mat, D22, {"seed": 1})
        cli.save_matrix(b, mat, D22, {"seed": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_negative_zero_round_trip(self, tmp_path):
        mat = np.array([[0.0, -0.0], [np.copysign(0.0, -1.0), 1.0]], dtype=complex)
        path = tmp_path / "z.json"
        cli.save_matrix(path, mat, BipartiteDims(1, 2), {})
        loaded, _, _ = cli.load_matrix(path)
        assert np.signbit(loaded[0, 1].real) and np.signbit(loaded[1, 0].real)

    def test_bundled_fixture_matches_repo_copy(self):
        import pathlib

        bundled = pathlib.Path(cli.paper_fixture_path())
        repo_copy = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "paper_3x4.json"
        assert bundled.read_bytes() == repo_copy.read_bytes()


#: Values whose canonical text is easy to get wrong: signed zeros, the
#: integral values around the 1e17 cut of the ".0" rule, subnormals and
#: extreme magnitudes, plus one random entry.
EDGE_VALUES = [
    0.0, -0.0, 1.0, -3.0, 0.1, 1e16, 1e17, 2.0**53, 5e-324, 1e300,
    0.1257302210933933, -1e16, -1e17, 9.999999999999998e16, 123456789.0,
    -2.5e-08, 1e-300, -0.1,
]

#: serialize_matrix of EDGE_VALUES as a 3x3 matrix, dims (1, 3), written by
#: the per-float formatter this package used before whole-array formatting.
GOLDEN_DOCUMENT = """{
  "kind": "matrix",
  "m": 1,
  "n": 3,
  "matrix": [[[0.0, -0.0], [1.0, -3.0], [0.10000000000000001, 10000000000000000.0]], [[1e+17, 9007199254740992.0], [4.9406564584124654e-324, 1.0000000000000001e+300], [0.1257302210933933, -10000000000000000.0]], [[-1e+17, 99999999999999984.0], [123456789.0, -2.4999999999999999e-08], [1e-300, -0.10000000000000001]]],
  "metadata": {"basis_ordering": "product basis |j,k> at index j*n+k (first factor major)", "checksum_sha256": "398d9d00f4f846dddd32efd037f913bc828d35a6a983f01acb94cba1e5b373b2", "format": "nptsub-v1", "seed": 0, "tool_version": "0.1.0"}
}
"""
GOLDEN_CHECKSUM = "398d9d00f4f846dddd32efd037f913bc828d35a6a983f01acb94cba1e5b373b2"


def reference_float_text(x: float) -> str:
    """The per-float canonical text, one value at a time."""
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


class TestFileBytes:
    """Documents and checksums stay byte-identical to the per-float writer."""

    def test_golden_document(self):
        mat = np.array(EDGE_VALUES).view(complex).reshape(3, 3)
        text = cli.serialize_matrix(
            mat, BipartiteDims(1, 3), {"seed": 0, "tool_version": "0.1.0"}
        )
        assert text == GOLDEN_DOCUMENT
        assert cli.matrix_checksum(mat) == GOLDEN_CHECKSUM

    def test_golden_document_loads_bit_exact(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(GOLDEN_DOCUMENT)
        mat, dims, meta = cli.load_matrix(path)
        assert dims == BipartiteDims(1, 3)
        assert np.array_equal(mat.view(float).ravel(), EDGE_VALUES)
        assert np.array_equal(np.signbit(mat.view(float).ravel()), np.signbit(EDGE_VALUES))
        assert meta["checksum_sha256"] == GOLDEN_CHECKSUM

    def test_texts_match_per_float_reference(self):
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-310, 300, 2000)
        values = np.concatenate([
            EDGE_VALUES, np.negative(EDGE_VALUES),
            rng.standard_normal(2000) * scales,
            np.round(rng.standard_normal(2000) * 10.0 ** rng.integers(0, 20, 2000)),
            [2.0**52 + 0.5, 2.0**53 + 2, 1e17 - 16, 1e17 + 16, 2.2250738585072014e-308,
             1.7976931348623157e308],
        ])
        values = values[np.isfinite(values)]
        assert cli._float_texts(values.astype(complex))[0::2] == [
            reference_float_text(v) for v in values
        ]
        assert cli._float_texts(values)[1::2] == ["0.0"] * values.size

    def test_generators_3x4_bytes(self):
        from nptsub import build_subspace

        text = cli.serialize_vectors(
            build_subspace(D34).generators, D34, {"tool_version": "0.1.0"}
        )
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "1179ea73afe049f363b5e4908d0469f7e8af19e7b8f154e39147f736d83e683a"
        )
        doc = json.loads(text)
        assert len(doc["vectors"]) == 6 and len(doc["vectors"][0]) == 12

    def test_fixture_checksum_and_bytes(self):
        import pathlib

        path = pathlib.Path(cli.paper_fixture_path())
        mat, dims, meta = cli.load_matrix(path)
        assert meta["checksum_sha256"].startswith("f51f3471")
        assert cli.matrix_checksum(mat) == meta["checksum_sha256"]
        assert cli.serialize_matrix(mat, dims, meta) == path.read_text()

    def test_round_trip_8x8_state_in_subspace(self, tmp_path):
        from nptsub import build_subspace, sample_mixture_in_subspace

        dims = BipartiteDims(8, 8)
        rng = np.random.Generator(np.random.PCG64([1, 0]))
        ens = sample_mixture_in_subspace(build_subspace(dims), rank=3, rng=rng)
        mat = ens.to_density_matrix().mat
        path = tmp_path / "state.json"
        cli.save_matrix(path, mat, dims)
        loaded, ldims, _ = cli.load_matrix(path)
        assert ldims == dims
        assert np.array_equal(loaded.view(float), mat.view(float))
        report = cli.verify_matrix(loaded, ldims, check_subspace=True)
        assert report.passed and report.range_in_subspace is True
        assert report.negative_count >= 1


class TestMalformedFiles:
    """A load either returns the written matrix or raises MatrixFileError."""

    def write(self, path, matrix="[[[0.5, 0.0]]]", m="1", n="1", metadata="{}"):
        path.write_text(
            f'{{"kind": "matrix", "m": {m}, "n": {n}, "matrix": {matrix}, '
            f'"metadata": {metadata}}}'
        )
        return path

    def test_well_formed_loads(self, tmp_path):
        mat, dims, meta = cli.load_matrix(self.write(tmp_path / "ok.json", "[[[1, -0.0]]]"))
        assert mat.shape == (1, 1) and mat[0, 0] == 1.0 and np.signbit(mat[0, 0].imag)
        assert dims == BipartiteDims(1, 1) and meta == {}

    @pytest.mark.parametrize("matrix", [
        "[[[1.0, 0.0, 7.0]]]",
        "[[[1.0]]]",
        '[[["1.5", "0"]]]',
        '[[[1.5, "0"]]]',
        "[[[true, false]]]",
        "[[[1.0, true]]]",
        "[[[1.0, null]]]",
        "[[[[1.0], [0.0]]]]",
        "[[[1.0, 0.0]], [[1.0, 0.0]]]",
        "[[1.0, 0.0]]",
        "[[[NaN, 0.0]]]",
        "[[[0.0, Infinity]]]",
        "[[[1e400, 0.0]]]",
        "[[[1" + "0" * 400 + ", 0]]]",
        '{"re": 1.0}',
    ])
    def test_rejects_bad_entries(self, tmp_path, matrix):
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(self.write(tmp_path / "bad.json", matrix))

    def test_rejects_ragged_rows(self, tmp_path):
        path = self.write(tmp_path / "bad.json", "[[[1, 0], [0, 0]], [[0, 0]]]", m="1", n="2")
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(path)

    @pytest.mark.parametrize("m", ["1.7", "1.0", "true", '"1"', "0", "-1", "null"])
    def test_rejects_bad_dims(self, tmp_path, m):
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(self.write(tmp_path / "bad.json", m=m))

    @pytest.mark.parametrize("metadata", ["[]", '"note"', "1", "null"])
    def test_rejects_metadata_not_object(self, tmp_path, metadata):
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(self.write(tmp_path / "bad.json", metadata=metadata))

    @pytest.mark.parametrize("doc", ["[]", "3", '"matrix"', '{"m": 1, "n": 1}'])
    def test_rejects_non_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(path)

    def test_verify_exits_2_on_metadata_list(self, tmp_path, capsys):
        path = self.write(tmp_path / "bad.json", metadata="[]")
        assert cli.main(["verify", "--in", str(path)]) == 2
        assert "metadata" in capsys.readouterr().err

    def test_rejects_nan_imaginary_on_save(self):
        with pytest.raises(cli.MatrixFileError):
            cli.serialize_matrix(np.array([[1.0 + 1j * np.nan]]), BipartiteDims(1, 1))
        with pytest.raises(cli.MatrixFileError):
            cli.matrix_checksum(np.array([[1.0 + 1j * np.nan]]))

    def test_failed_save_keeps_existing_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old")
        with pytest.raises(cli.MatrixFileError, match="nan"):
            cli.save_matrix(path, np.array([[1.0 + 1j * np.nan]]), BipartiteDims(1, 1))
        assert path.read_text() == "old"


class TestVerifyCommand:
    def test_paper_fixture(self, capsys):
        code = cli.main(["verify", "--in", cli.paper_fixture_path()])
        out = capsys.readouterr().out
        assert code == 0
        assert "negatives: 6" in out
        assert "PASS" in out

    def test_maximally_mixed(self, tmp_path, capsys):
        path = write_state(tmp_path / "mixed.json", np.eye(12, dtype=complex) / 12, D34)
        code = cli.main(["verify", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "negatives: 0" in out

    def test_broken_psd_fails(self, tmp_path, capsys):
        mat, dims, _ = cli.load_matrix(cli.paper_fixture_path())
        mat[0, 0] -= 0.5
        mat[1, 1] += 0.5  # keep the trace but break positivity
        path = write_state(tmp_path / "broken.json", mat, dims)
        code = cli.main(["verify", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "psd: False" in out

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not a json document")
        assert cli.main(["verify", "--in", str(path)]) == 2

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main([
            "verify", "--in", cli.paper_fixture_path(), "--json-out", str(out)
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "is_hermitian", "is_psd", "trace", "negative_count",
            "negative_eigenvalues", "range_in_subspace", "thresholds",
        }
        assert set(report["thresholds"]) == {"hermiticity", "psd", "trace"}
        assert report["negative_count"] == 6
        assert report["is_psd"] is True
        assert len(report["negative_eigenvalues"]) == 6

    def test_subspace_flag(self, capsys):
        code = cli.main([
            "verify", "--in", cli.paper_fixture_path(), "--subspace"
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "range in NPT subspace" in out

    def test_subspace_check_on_a_matrix_that_is_not_a_state(self):
        # 2|v><v| has trace 2, so it fails state validation, yet its range
        # is span{v}, inside S
        dims = BipartiteDims(3, 3)
        v = build_subspace(dims).orthonormal[:, 0]
        report = cli.verify_matrix(2.0 * np.outer(v, v.conj()), dims, check_subspace=True)
        assert report.range_in_subspace is True

    def test_subspace_check_sees_a_column_outside(self):
        # |a><b| + |b><a| with a in S and b = |00>, orthogonal to S:
        # (I - P) M (I - P) vanishes, but the column b lies outside S
        dims = BipartiteDims(3, 3)
        a = build_subspace(dims).orthonormal[:, 0]
        b = np.zeros(dims.total, dtype=complex)
        b[0] = 1.0
        M = np.outer(a, b.conj()) + np.outer(b, a.conj())
        comp = np.eye(dims.total) - subspace_projector(build_subspace(dims)).P
        assert np.linalg.norm(comp @ M @ comp) < 1e-12
        report = cli.verify_matrix(M, dims, check_subspace=True)
        assert report.range_in_subspace is False


class TestSubspaceCommand:
    def test_2x2(self, tmp_path, capsys):
        code = cli.main(["subspace", "--m", "2", "--n", "2", "--out", str(tmp_path / "s")])
        out = capsys.readouterr().out
        assert code == 0
        assert "dimension: 1" in out
        doc = json.loads((tmp_path / "s" / "generators.json").read_text())
        assert doc["kind"] == "vectors"
        assert len(doc["vectors"]) == 1

    def test_3x4_projector_trace(self, tmp_path):
        code = cli.main([
            "subspace", "--m", "3", "--n", "4", "--out", str(tmp_path / "s"),
            "--projector",
        ])
        assert code == 0
        mat, dims, meta = cli.load_matrix(tmp_path / "s" / "projector.json")
        assert np.trace(mat).real == pytest.approx(6.0, abs=1e-9)
        assert meta["trace"] == pytest.approx(6.0, abs=1e-9)

    def test_degenerate_warns(self, tmp_path, capsys):
        code = cli.main(["subspace", "--m", "1", "--n", "5", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 0
        assert "zero-dimensional" in err


class TestConstructCommand:
    def test_direct_2x2(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = cli.main(["construct", "--m", "2", "--n", "2", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "d = 1.5" in text
        assert "negatives = 1" in text
        mat, dims, meta = cli.load_matrix(out)
        assert meta["negative_count"] == 1
        assert meta["converged"] is True
        assert meta["solver_budgets"]["tolerance"] == library_default(sdp.solve_construction_sdp, "tol_gap")

    def test_dual_cone_2x2(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "2", "--n", "2", "--method", "dual-cone",
            "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "c = 0.5" in text
        assert "negatives = 1" in text
        _, _, meta = cli.load_matrix(out)
        assert meta["solver_budgets"]["tolerance"] == library_default(sdp.construct_via_dual_cone, "tol_c")

    @pytest.mark.parametrize("argv,tol_c", [
        ([], library_default(sdp.construct_via_dual_cone, "tol_c")),
        (["--tol", "3e-5"], 3e-5),
    ])
    def test_dual_cone_tolerance(self, tmp_path, monkeypatch, argv, tol_c):
        # no --tol runs the library's own tol_c, and an explicit --tol is
        # passed unchanged, with no hidden cap
        seen = []

        def fake(dims, P, tol_c, max_iter):
            seen.append(tol_c)
            raise NoConvergence("stopped before any solve")

        monkeypatch.setattr(cli, "construct_via_dual_cone", fake)
        code = cli.main([
            "construct", "--m", "3", "--n", "3", "--method", "dual-cone", *argv,
            "--out", str(tmp_path / "rho.json"),
        ])
        assert code == 3
        assert seen == [tol_c]

    def test_direct_3x4(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = cli.main(["construct", "--m", "3", "--n", "4", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "negatives = 6" in text

    def test_bad_dims(self, tmp_path):
        code = cli.main(["construct", "--m", "1", "--n", "4",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "3", "--n", "4", "--max-iter", "3",
            "--out", str(out),
        ])
        assert code == 3
        mat, dims, meta = cli.load_matrix(out)  # partial output still written
        assert meta["converged"] is False

    def test_dual_cone_nonconvergence_without_state(self, tmp_path, capsys):
        # the PPT solve stops on its budget before any state exists: exit 3
        # with the solver's message, and no file is written
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "3", "--n", "4", "--method", "dual-cone",
            "--max-iter", "3", "--out", str(out),
        ])
        assert code == 3
        assert "PPT optimization did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_reports_negative_count(self, tmp_path, capsys):
        # exit 0 exactly when the written state has the full (m-1)(n-1) = 36
        # negatives; a missed count exits 1 with an error line
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "7", "--n", "7", "--method", "direct",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        _, _, meta = cli.load_matrix(out)
        count = meta["negative_count"]
        assert (code == 0) == (count == 36)
        if code != 0:
            assert code == 1
            assert f"error: {count} negative partial-transpose eigenvalues" in err

    def test_rejects_zero_iteration_budget(self, tmp_path, capsys):
        for method in ("direct", "dual-cone"):
            code = cli.main([
                "construct", "--m", "3", "--n", "3", "--method", method,
                "--max-iter", "0", "--out", str(tmp_path / "rho.json"),
            ])
            assert code == 2
            assert "max_iter must be at least 1, got 0" in capsys.readouterr().err
            assert not (tmp_path / "rho.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        # rejected before any solve: no iteration budget is spent, no file written
        code = cli.main([
            "construct", "--m", "3", "--n", "3", "--tol", tol,
            "--out", str(tmp_path / "rho.json"),
        ])
        assert code == 2
        assert "--tol must be a finite positive number" in capsys.readouterr().err
        assert not (tmp_path / "rho.json").exists()

    def test_dual_cone_reports_split_margin(self, tmp_path, capsys):
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "3", "--n", "3", "--method", "dual-cone",
            "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "decomposition_residual" not in text
        line = next(l for l in text.splitlines() if l.startswith("split_margin = "))
        margin = float(line.split("=")[1])
        assert margin >= 0.0
        _, _, meta = cli.load_matrix(out)
        assert meta["split_margin"] >= 0.0
        assert float(f"{meta['split_margin']:.6g}") == margin

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["construct", "--m", "2", "--n", "3", "--out", str(a)]) == 0
        assert cli.main(["construct", "--m", "2", "--n", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestWitnessCommand:
    def test_singlet(self, tmp_path, capsys):
        path = write_state(tmp_path / "singlet.json", singlet_matrix(), D22)
        code = cli.main(["witness", "--in", str(path), "--m", "2", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha: |0,0> (index 0)" in out
        assert "beta:  |1,1> (index 3)" in out
        assert "determinant: -0.25" in out

    def test_random_mixture_in_subspace(self, tmp_path, capsys):
        from nptsub import build_subspace, sample_mixture_in_subspace

        basis = build_subspace(D34)
        rng = np.random.Generator(np.random.PCG64(11))
        ens = sample_mixture_in_subspace(basis, rank=3, rng=rng)
        path = write_state(tmp_path / "mix.json", ens.to_density_matrix().mat, D34)
        code = cli.main(["witness", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        det_line = next(l for l in out.splitlines() if l.startswith("determinant"))
        assert float(det_line.split(":")[1]) < 0

    def test_product_state_rejected(self, tmp_path, capsys):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        path = write_state(tmp_path / "product.json", mat, D22)
        code = cli.main(["witness", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "not in subspace" in err

    def test_dims_flag_mismatch(self, tmp_path):
        path = write_state(tmp_path / "singlet.json", singlet_matrix(), D22)
        assert cli.main(["witness", "--in", str(path), "--m", "3", "--n", "4"]) == 2

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert cli.main(["witness", "--in", str(path)]) == 2


class TestStressCommand:
    def test_npt_suite(self, capsys):
        code = cli.main([
            "stress", "--suite", "npt", "--m", "2", "--n", "2",
            "--trials", "5", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 passed" in out

    def test_bound_suite(self, capsys):
        code = cli.main([
            "stress", "--suite", "bound", "--m", "3", "--n", "4",
            "--trials", "25", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "25/25 passed" in out

    def test_bad_trials(self):
        assert cli.main([
            "stress", "--suite", "bound", "--m", "2", "--n", "2",
            "--trials", "0", "--seed", "1",
        ]) == 2

    def test_usage_error(self):
        assert cli.main(["stress", "--suite", "bogus", "--m", "2", "--n", "2"]) == 2


class TestBlackBox:
    """Exit codes through a real process boundary."""

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "nptsub", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_verify_fixture_exit_0(self):
        proc = self.run("verify", "--in", cli.paper_fixture_path())
        assert proc.returncode == 0

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        proc = self.run("verify", "--in", str(bad))
        assert proc.returncode == 2

    def test_missing_subcommand_exit_2(self):
        proc = self.run()
        assert proc.returncode == 2

    def test_witness_singlet_exit_0(self, tmp_path):
        path = write_state(tmp_path / "singlet.json", singlet_matrix(), D22)
        proc = self.run("witness", "--in", str(path))
        assert proc.returncode == 0
        assert "determinant: -0.25" in proc.stdout
