import hashlib
import inspect
import json
import re
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from nptsub import (
    BipartiteDims,
    DensityMatrix,
    bipartite,
    build_subspace,
    cli,
    count_negative_eigenvalues,
    hermitize,
    linalg,
    random_density_matrix,
    sdp,
    subspace,
    subspace_projector,
)
from nptsub.errors import DegenerateSubspace, NoConvergence, ShapeMismatch

D22 = BipartiteDims(2, 2)
D33 = BipartiteDims(3, 3)
D34 = BipartiteDims(3, 4)


def library_default(solver, name):
    """Default value of a solver's keyword argument."""
    return inspect.signature(solver).parameters[name].default


def singlet_matrix():
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def product_weight_matrix(eps):
    """(1 - eps) rho_S + eps |00><00| at 3 x 4, rho_S the rank-3 mixture
    that sample_mixture_in_subspace draws from PCG64(1)."""
    rng = np.random.Generator(np.random.PCG64(1))
    mat = (1.0 - eps) * subspace.sample_mixture_in_subspace(build_subspace(D34), 3, rng).to_density_matrix().mat
    mat[0, 0] += eps
    return mat, D34


def tiny_generator_matrix():
    """The pure 3 x 3 state of v ~ 1e-9 g(0,0) + g(1,1), g the generators."""
    g = build_subspace(D33).generators
    v = 1e-9 * g[:, 0] + g[:, 3]
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj()), D33


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

    def test_save_stores_the_checksum_of_the_saved_matrix(self, tmp_path):
        # metadata loaded from another document carries its checksum; the
        # saved file must hold the checksum of the matrix written with it
        path = tmp_path / "m.json"
        cli.save_matrix(path, np.eye(4, dtype=complex) / 4, D22)
        _, _, meta = cli.load_matrix(path)
        other = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        cli.save_matrix(path, other, D22, meta)
        loaded, _, new_meta = cli.load_matrix(path)
        assert np.array_equal(loaded, other)
        assert new_meta["checksum_sha256"] == cli.matrix_checksum(other) != meta["checksum_sha256"]

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (16,), (1, 4, 4)])
    def test_save_rejects_a_matrix_of_another_shape(self, tmp_path, shape):
        # load_matrix accepts only (mn) x (mn) entries, so nothing is written
        path = tmp_path / "state.json"
        path.write_text("old")
        with pytest.raises(ShapeMismatch, match=r"expected \(4, 4\) matrix"):
            cli.save_matrix(path, np.ones(shape) / 4, D22)
        assert path.read_text() == "old"
        with pytest.raises(ShapeMismatch):
            cli.save_matrix(tmp_path / "new.json", np.ones(shape) / 4, D22)
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("shape", [(3, 2), (2, 4), (4,), (4, 2, 1)])
    def test_serialize_vectors_needs_mn_rows(self, shape):
        with pytest.raises(ShapeMismatch, match=r"2-D \(4, k\)"):
            cli.serialize_vectors(np.ones(shape), D22)
        doc = json.loads(cli.serialize_vectors(np.ones((4, 2)), D22))
        assert len(doc["vectors"]) == 2 and len(doc["vectors"][0]) == 4

    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 2)])
    def test_checksum_needs_a_2d_matrix(self, shape):
        with pytest.raises(ShapeMismatch, match="2-D matrix"):
            cli.matrix_checksum(np.ones(shape))

    def test_numpy_bool_metadata(self, tmp_path):
        path = tmp_path / "m.json"
        meta = {"flag": np.bool_(True), "off": np.bool_(False), "flags": [np.bool_(True)]}
        cli.save_matrix(path, np.eye(4, dtype=complex) / 4, D22, meta)
        _, _, loaded = cli.load_matrix(path)
        assert loaded["flag"] is True and loaded["off"] is False and loaded["flags"] == [True]

    @pytest.mark.parametrize("meta", [{1: "x"}, {"nested": {(0, 1): 0.5}}])
    def test_non_str_metadata_key(self, tmp_path, meta):
        path = tmp_path / "m.json"
        path.write_text("old")
        with pytest.raises(cli.MatrixFileError, match="metadata key .* is not a string"):
            cli.save_matrix(path, np.eye(4, dtype=complex) / 4, D22, meta)
        assert path.read_text() == "old"


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


def reference_values() -> np.ndarray:
    """EDGE_VALUES, their negatives, random values over the whole exponent
    range and large integral values."""
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.integers(-310, 300, 2000)
    values = np.concatenate([
        EDGE_VALUES, np.negative(EDGE_VALUES),
        rng.standard_normal(2000) * scales,
        np.round(rng.standard_normal(2000) * 10.0 ** rng.integers(0, 20, 2000)),
        [2.0**52 + 0.5, 2.0**53 + 2, 1e17 - 16, 1e17 + 16, 2.2250738585072014e-308,
         1.7976931348623157e308],
    ])
    return values[np.isfinite(values)]


def mixture_8x8() -> np.ndarray:
    """A seeded rank-3 state on S at 8 x 8, as the benchmark round-trips."""
    from nptsub import sample_mixture_in_subspace

    rng = np.random.Generator(np.random.PCG64([1, 0]))
    ens = sample_mixture_in_subspace(build_subspace(BipartiteDims(8, 8)), rank=3, rng=rng)
    return ens.to_density_matrix().mat


def repeated_values() -> np.ndarray:
    """Magnitudes that recur with both signs in shuffled order (signed
    zeros, integral values near 1e16 and 1e17, subnormals), then the parts
    of an 8 x 8 state, whose mirror entries share magnitudes."""
    rng = np.random.default_rng(5)
    mags = np.array([0.0, 1e16 - 2, 1e16, 1e16 + 2, 1e17 - 16, 1e17, 1e17 + 16, 123.0,
                     5e-324, 1e-310, 2.225073858507201e-308, 0.1, 1 / 3])
    signed = rng.choice(mags, 600) * rng.choice([-1.0, 1.0], 600)
    return np.concatenate([signed, mixture_8x8().view(float).ravel()])


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
        values = np.concatenate([reference_values(), repeated_values()])
        assert np.signbit(values[values == 0]).any() and not np.signbit(values[values == 0]).all()
        assert cli._float_texts(values.astype(complex))[0::2] == [
            reference_float_text(v) for v in values
        ]
        assert cli._float_texts(values)[1::2] == ["0.0"] * values.size
        # re and im parts of one Hermitian state, mirror entries side by side
        state = mixture_8x8()
        assert cli._float_texts(state) == [reference_float_text(v) for v in state.view(float).ravel()]

    @pytest.mark.parametrize("name,digest", [
        ("projector", "7403235ec6eeda9e10cdd3068382c3f4856c90657bb876c6a2df49a1752d672a"),
        ("mixture", "d06633fb40a94a109557fd0e1da6112ea685fff84538aef0666d3770585128a8"),
    ])
    def test_8x8_document_bytes(self, name, digest):
        # digests of the documents the per-value formatter wrote
        dims = BipartiteDims(8, 8)
        mat = subspace_projector(build_subspace(dims)).P if name == "projector" else mixture_8x8()
        text = cli.serialize_matrix(mat, dims, {"tool_version": "0.1.0"})
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

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


def count_formatting(monkeypatch):
    """Calls of ``cli._float_texts``, the formatting pass a load can skip."""
    calls = []
    real = cli._float_texts

    def counted(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(cli, "_float_texts", counted)
    return calls


def one_entry_document(path, re_text, checksum):
    path.write_text(
        f'{{"kind": "matrix", "m": 1, "n": 1, "matrix": [[[{re_text}, 0.0]]], '
        f'"metadata": {{"checksum_sha256": "{checksum}"}}}}'
    )
    return path


class TestChecksumPaths:
    """A load hashes the entry texts as read; only a document whose texts
    are not the canonical ones is formatted again."""

    def test_written_document_loads_without_formatting(self, tmp_path, monkeypatch):
        from nptsub import sample_mixture_in_subspace

        dims = BipartiteDims(8, 8)
        rng = np.random.Generator(np.random.PCG64([1, 0]))
        mat = sample_mixture_in_subspace(build_subspace(dims), rank=3, rng=rng).to_density_matrix().mat
        path = tmp_path / "state.json"
        cli.save_matrix(path, mat, dims)
        calls = count_formatting(monkeypatch)
        loaded, _, _ = cli.load_matrix(path)
        assert calls == []
        assert np.array_equal(loaded.view(float), mat.view(float))
        assert np.array_equal(np.signbit(loaded.view(float)), np.signbit(mat.view(float)))

    @pytest.mark.parametrize("text,value,canonical", [
        ("0.5", 0.5, True),
        ("-0.0", -0.0, True),
        ("5e-1", 0.5, False),
        ("1E+17", 1e17, False),
        ("1", 1.0, False),
        ("-0e0", -0.0, False),
        ("0.50", 0.5, False),
    ])
    def test_other_spellings_load_through_the_formatted_checksum(
        self, tmp_path, monkeypatch, text, value, canonical
    ):
        expected = cli.matrix_checksum(np.array([[value]], dtype=complex))
        path = one_entry_document(tmp_path / "m.json", text, expected)
        calls = count_formatting(monkeypatch)
        mat, _, _ = cli.load_matrix(path)
        assert (calls == []) == canonical
        assert mat[0, 0].real == value and np.signbit(mat[0, 0].real) == np.signbit(value)

    def test_checksum_over_the_texts_as_written_matches(self, tmp_path, monkeypatch):
        # a checksum taken over the file's own texts matches what it holds
        text = "5e-1 0.0"
        path = one_entry_document(tmp_path / "m.json", "5e-1", hashlib.sha256(text.encode()).hexdigest())
        calls = count_formatting(monkeypatch)
        mat, _, _ = cli.load_matrix(path)
        assert mat[0, 0] == 0.5 and calls == []

    def test_edited_entry_fails_both_checks(self, tmp_path, monkeypatch):
        path = one_entry_document(tmp_path / "m.json", "0.25", cli.matrix_checksum(np.array([[0.5]])))
        calls = count_formatting(monkeypatch)
        with pytest.raises(cli.MatrixFileError, match="checksum mismatch"):
            cli.load_matrix(path)
        assert len(calls) == 1

    def test_string_entry_with_matching_checksum_is_rejected(self, tmp_path):
        path = one_entry_document(tmp_path / "m.json", '"0.5"', cli.matrix_checksum(np.array([[0.5]])))
        with pytest.raises(cli.MatrixFileError, match="JSON numbers"):
            cli.load_matrix(path)

    @pytest.mark.parametrize("method,key", [("direct", "d"), ("dual-cone", "c")])
    def test_metadata_floats_load_as_json_floats(self, tmp_path, method, key):
        path = tmp_path / "state.json"
        argv = ["construct", "--m", "2", "--n", "3", "--method", method, "--out", str(path)]
        assert cli.main(argv) == 0
        _, _, meta = cli.load_matrix(path)
        reference = json.loads(path.read_text())["metadata"]
        # repr tells a float from an int and from the bytes a text is read as
        assert repr(meta) == repr(reference)
        assert type(meta[key]) is float
        if method == "direct":
            assert {type(v) for v in meta["residuals"].values()} == {float}

    def test_parsed_texts_equal_python_floats(self, tmp_path):
        # read back by load_matrix, the values equal float() of their texts
        values = reference_values()
        dims = BipartiteDims(5, 9)
        flat = np.zeros(2 * dims.total**2)
        flat[:values.size] = values
        path = tmp_path / "values.json"
        cli.save_matrix(path, flat.view(complex).reshape(dims.total, dims.total), dims)
        loaded, _, _ = cli.load_matrix(path)
        reference = np.array([float(t) for t in cli._float_texts(flat)[0::2]])
        assert np.array_equal(loaded.view(float).ravel(), reference)
        assert np.array_equal(np.signbit(loaded.view(float).ravel()), np.signbit(reference))


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

    @pytest.mark.parametrize("doc", [
        "[]", "3", '"matrix"', '{"m": 1, "n": 1}',
        pytest.param('{"m": 1, "n": 1, "matrix": [[[0.5, 0.0]]], "metadata": {"a": '
                     + "[" * 100000 + "]" * 100000 + "}}", id="deep-metadata"),
    ])
    def test_rejects_non_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(cli.MatrixFileError):
            cli.load_matrix(path)

    def test_rejects_a_document_of_another_kind(self, tmp_path):
        assert cli.main(["subspace", "--m", "2", "--n", "2", "--out", str(tmp_path)]) == 0
        with pytest.raises(cli.MatrixFileError, match="kind 'vectors' is not 'matrix'"):
            cli.load_matrix(tmp_path / "basis.json")

    def test_document_without_kind_loads(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"m": 1, "n": 1, "matrix": [[[0.5, 0.0]]]}')
        mat, dims, meta = cli.load_matrix(path)
        assert mat[0, 0] == 0.5 and dims == BipartiteDims(1, 1) and meta == {}

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

    @pytest.mark.parametrize("flags", [[], ["--subspace"]])
    def test_json_report_on_stdout_is_the_whole_stdout(self, capsys, flags):
        # with --json-out -, the human report moves to stderr
        code = cli.main(["verify", "--in", cli.paper_fixture_path(), "--json-out", "-", *flags])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["negative_count"] == 6
        assert "partial transpose negatives: 6" in captured.err
        assert "verdict: PASS" in captured.err

    def test_json_report_unwritable(self, tmp_path, capsys):
        # a report path in a missing directory is a usage error (exit 2),
        # not a FAIL verdict (exit 1) by traceback
        code = cli.main([
            "verify", "--in", cli.paper_fixture_path(),
            "--json-out", str(tmp_path / "missing" / "r.json"),
        ])
        assert code == 2
        assert "error: cannot write output:" in capsys.readouterr().err

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

    def test_hermiticity_tolerance_is_honoured(self, tmp_path, capsys):
        # a defect of 1e-6 is far above HERMITICITY_RTOL: not Hermitian, FAIL
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 1e-6
        path = write_state(tmp_path / "skew.json", mat, D22)
        code = cli.main(["verify", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "hermitian: False" in out and "verdict: FAIL" in out

    @pytest.mark.parametrize("flag", ["--tol-herm", "--tol-psd", "--tol-trace"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e-6", "1e-3"])
    def test_rejects_bad_tolerance(self, capsys, flag, value):
        # verify has no tolerance flags: any value, valid or not, is a usage
        # error from the parser, before any verdict
        code = cli.main(["verify", "--in", cli.paper_fixture_path(), f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments" in captured.err
        assert "verdict" not in captured.out

    def test_reports_the_state_thresholds(self):
        report = cli.verify_matrix(np.eye(4, dtype=complex) / 4, D22)
        assert report.thresholds == {
            "hermiticity": linalg.HERMITICITY_RTOL,
            "psd": -bipartite.DENSITY_EIG_FLOOR,
            "trace": bipartite.DENSITY_TRACE_TOL,
        }

    @pytest.mark.parametrize("defect,size,passes", [
        ("trace", 5e-11, True), ("trace", -5e-11, True),
        ("trace", 2e-10, False), ("trace", -2e-10, False),
        ("eigenvalue", -5e-11, True), ("eigenvalue", -2e-10, False),
        ("hermiticity", 5e-13, True), ("hermiticity", 2e-12, False),
    ])
    def test_one_verdict(self, tmp_path, capsys, defect, size, passes):
        # a matrix on either side of each DensityMatrix threshold: verify
        # passes it exactly when it is a state, and witness (the mixture is
        # supported on S) certifies it exactly when verify passes it
        dims = D33
        v = build_subspace(dims).orthonormal
        proj = [np.outer(v[:, i], v[:, i].conj()) for i in range(3)]
        mat = 0.5 * proj[0] + 0.5 * proj[1]
        if defect == "trace":
            mat = mat * (1.0 + size)
        elif defect == "eigenvalue":
            mat = 0.5 * proj[0] + (0.5 - size) * proj[1] + size * proj[2]
        else:
            mat = hermitize(mat)
            mat[0, 1] += size
        try:
            DensityMatrix(dims, mat)
            is_state = True
        except ValueError:
            is_state = False
        assert is_state == passes
        assert cli.verify_matrix(mat, dims).passed == passes
        path = write_state(tmp_path / "m.json", mat, dims)
        code = cli.main(["verify", "--in", str(path)])
        assert f"verdict: {'PASS' if passes else 'FAIL'}" in capsys.readouterr().out
        assert code == (0 if passes else 1)
        code = cli.main(["witness", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == (0 if passes else 1)
        assert ("not a valid state" in err) == (not passes)

    def test_not_hermitian_reports_no_negatives(self, tmp_path, capsys):
        # a matrix that fails the Hermiticity check has no spectrum: its
        # negatives are not computed, though its Hermitian part has 2
        v = build_subspace(D33).orthonormal
        mat = 0.5 * np.outer(v[:, 0], v[:, 0].conj()) + 0.5 * np.outer(v[:, 1], v[:, 1].conj())
        mat[0, 1] += 2e-12
        assert count_negative_eigenvalues(bipartite.partial_transpose(hermitize(mat), D33))[0] == 2
        report = cli.verify_matrix(mat, D33, check_subspace=True)
        assert not report.is_hermitian and not report.passed
        assert report.negative_count is None and report.negative_eigenvalues is None
        assert report.range_in_subspace is None
        path = write_state(tmp_path / "skew.json", mat, D33)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--in", str(path), "--subspace", "--json-out", str(out)])
        text = capsys.readouterr().out
        assert code == 1
        assert "partial transpose negatives: not computed (not Hermitian)" in text
        assert "negative eigenvalues" not in text and "range in NPT subspace" not in text
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "is_hermitian", "is_psd", "trace", "negative_count",
            "negative_eigenvalues", "range_in_subspace", "thresholds",
        }
        assert doc["negative_count"] is None and doc["negative_eigenvalues"] is None


    def test_non_square_fails(self):
        # not square, so not Hermitian: FAIL with no spectrum
        report = cli.verify_matrix(np.ones((4, 3), dtype=complex) / 3, D22)
        assert not report.is_hermitian and not report.is_psd and not report.passed
        assert report.trace == 1.0
        assert report.negative_count is None and report.negative_eigenvalues is None

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4)], ids=["vector", "stack"])
    def test_not_2d_raises(self, shape):
        # no matrix at all: a shape error, not numpy's own ValueError or TypeError
        with pytest.raises(ShapeMismatch, match=r"expected a 2-D matrix, got shape"):
            cli.verify_matrix(np.ones(shape, dtype=complex) / 4, D22)


def eigenvalue_floor_verdict(mat) -> bool:
    """The PSD floor by its definition: the lowest eigenvalue of the
    Hermitian part is at least DENSITY_EIG_FLOOR."""
    return np.linalg.eigvalsh(hermitize(np.asarray(mat, dtype=complex)))[0] >= bipartite.DENSITY_EIG_FLOOR


def floor_message(mat) -> str:
    lowest = np.linalg.eigvalsh(hermitize(np.asarray(mat, dtype=complex)))[0]
    return f"minimum eigenvalue {lowest:.3e} below PSD floor"


def state_with_lowest(dims, lowest, rng, complex_basis):
    """A trace-1 Hermitian matrix whose lowest eigenvalue is ``lowest`` (to
    rounding), in a random real or complex orthonormal basis."""
    d = dims.total
    z = rng.standard_normal((d, d))
    if complex_basis:
        z = z + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    w = rng.random(d) + 0.1
    w[1:] *= (1.0 - lowest) / w[1:].sum()
    w[0] = lowest
    return hermitize((q * w) @ q.conj().T)


FLOOR_DIMS = [BipartiteDims(m, n) for m, n in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5), (8, 8))]
FLOOR_SCALES = (0.0, 0.5, 0.9, 1.1, 2.0)


class TestPsdFloor:
    """The PSD floor, decided by one batched Cholesky factorization, against
    its definition by eigenvalues."""

    @pytest.mark.parametrize("complex_basis", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("dims", FLOOR_DIMS, ids=str)
    def test_agrees_with_the_eigenvalue_rule(self, dims, complex_basis):
        rng = np.random.Generator(np.random.PCG64([dims.m, dims.n, complex_basis]))
        mats = [state_with_lowest(dims, scale * bipartite.DENSITY_EIG_FLOOR, rng, complex_basis)
                for scale in FLOOR_SCALES]
        # exactly rank-deficient: a pure state and a diagonal state with a zero
        v = rng.standard_normal(dims.total) + 1j * complex_basis * rng.standard_normal(dims.total)
        v /= np.linalg.norm(v)
        mats.append(np.outer(v, v.conj()))
        mats.append(np.diag(np.r_[0.0, np.full(dims.total - 1, 1.0 / (dims.total - 1))]))
        verdicts = [eigenvalue_floor_verdict(mat) for mat in mats]
        assert verdicts == [True, True, True, False, False, True, True]
        for mat, verdict in zip(mats, verdicts):
            assert bipartite._state_error(mat) == (None if verdict else floor_message(mat))
            assert bipartite._meets_psd_floor(hermitize(mat)[None]).tolist() == [verdict]
            report = cli.verify_matrix(mat, dims)
            assert report.is_psd == verdict == report.passed
        stack = np.stack(mats)
        assert bipartite._meets_psd_floor(hermitize(stack)).tolist() == verdicts
        assert bipartite._state_error(stack) == floor_message(mats[3])
        passing = stack[np.array(verdicts)]
        assert bipartite._state_error(passing) is None
        assert bipartite._meets_psd_floor(hermitize(passing)).all()

    def test_stack_names_the_first_failure(self):
        # the message names the first failing matrix of a stack and its
        # exact lowest eigenvalue, whatever fails after it
        rng = np.random.Generator(np.random.PCG64(4))
        good = state_with_lowest(D34, 0.0, rng, True)
        low = state_with_lowest(D34, -2e-10, rng, True)
        lower = state_with_lowest(D34, -1e-6, rng, True)
        stack = np.stack([good, good, low, good, lower])
        assert bipartite._state_error(stack) == "minimum eigenvalue -2.000e-10 below PSD floor"
        assert bipartite._state_error(stack[[0, 4, 2]]) == "minimum eigenvalue -1.000e-06 below PSD floor"
        assert bipartite._state_error(stack.reshape(5, 1, 12, 12)) == (
            "minimum eigenvalue -2.000e-10 below PSD floor")
        assert bipartite._meets_psd_floor(stack).tolist() == [True, True, False, True, False]


def count_calls(monkeypatch, name):
    """Count the calls of np.linalg.<name>, wherever the package makes them."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestStateChecksComputeNoSpectrum:
    """A valid state is checked without an eigenvalue decomposition."""

    def test_density_matrix(self, monkeypatch):
        rho = random_density_matrix(D34, D34.total, 3).mat
        eig = count_calls(monkeypatch, "eigvalsh")
        chol = count_calls(monkeypatch, "cholesky")
        DensityMatrix(D34, rho)
        assert eig == [] and chol == [(1, 12, 12)]

    def test_verify_matrix(self, monkeypatch):
        # one eigvalsh, that of the partial transpose
        rho = random_density_matrix(D34, D34.total, 3).mat
        eig = count_calls(monkeypatch, "eigvalsh")
        report = cli.verify_matrix(rho, D34)
        assert report.passed and eig == [(12, 12)]

    def test_verify_matrix_runs_the_state_checks(self, monkeypatch):
        # verify decides the state by DensityMatrix's own checks, once:
        # one call of _state_checks and its one Cholesky factorization
        rho = random_density_matrix(D34, D34.total, 3).mat
        chol = count_calls(monkeypatch, "cholesky")
        checks = []
        state_checks = bipartite._state_checks
        monkeypatch.setattr(cli, "_state_checks", lambda mats: checks.append(mats) or state_checks(mats))
        assert cli.verify_matrix(rho, D34).passed
        assert len(checks) == 1 and chol == [(1, 12, 12)]

    def test_passing_stack_is_not_copied(self):
        # an exactly Hermitian stack is its own Hermitian part, and the PSD
        # floor of a stack of states is decided on it, not on a copy
        stack = cli._ginibre_states(D34, D34.total, range(4))
        hermitian, trace, psd, H = bipartite._state_checks(stack)
        assert H is stack
        assert hermitian.all() and psd.all() and np.abs(trace - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("suite", [cli.run_npt_suite, cli.run_bound_suite])
    @pytest.mark.parametrize("dims", [D34, BipartiteDims(8, 8)], ids=str)
    def test_one_suite_chunk(self, monkeypatch, suite, dims):
        # one Cholesky per chunk; the bound suite's one eigvalsh gives the
        # negative counts, and the npt suite's witness blocks settle every
        # trial, so it computes no spectrum at all
        size = chunk_size(dims)
        eig = count_calls(monkeypatch, "eigvalsh")
        chol = count_calls(monkeypatch, "cholesky")
        assert suite(dims, size, 5).passed
        assert chol == [(size, dims.total, dims.total)]
        assert eig == ([] if suite is cli.run_npt_suite else [(size, dims.total, dims.total)])


@pytest.mark.parametrize("argv", [
    ["subspace", "--m", "2", "--n", "2", "--out"],
    ["construct", "--m", "2", "--n", "2", "--out"],
], ids=["subspace", "construct"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # the output path runs through a regular file, so it cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main([*argv, str(blocker / "out")])
    assert code == 2
    assert "error: cannot write output:" in capsys.readouterr().err


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
        # the certified bracket on d is printed, with the count CI reads
        sol = sdp.solve_construction_sdp(D22, subspace_projector(build_subspace(D22)))
        assert sol.lower_bound == pytest.approx(1.5, abs=1e-12)
        assert f"d in [{sol.lower_bound:.10g}, {sol.upper_bound:.10g}], negatives = 1 (target 1)\n" in text
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
        # the route's certified bracket [c_lower, c], which holds c = 1/2,
        # is printed and stored
        dec = sdp.construct_via_dual_cone(D22, subspace_projector(build_subspace(D22)))
        assert dec.c_lower <= 0.5 <= dec.c < 1.0
        assert f"c in [{dec.c_lower:.10g}, {dec.c:.10g}], negatives = 1 (target 1)\n" in text
        _, _, meta = cli.load_matrix(out)
        assert (meta["c_lower"], meta["c"]) == (dec.c_lower, dec.c)
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

    def test_bad_dims(self, tmp_path, capsys):
        # m = 1: each route refuses the trivial subspace before any iteration
        out = tmp_path / "x.json"
        for method, message in (("direct", "construction needs a P of positive trace"),
                                ("dual-cone", "NPT subspace is trivial")):
            code = cli.main(["construct", "--m", "1", "--n", "4", "--method", method,
                             "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not out.exists()

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        # at 11 x 11 the closed-form seed's float count falls short, so it
        # does not claim, and three iterations close no gap
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "11", "--n", "11", "--max-iter", "3",
            "--out", str(out),
        ])
        assert code == 3
        mat, dims, meta = cli.load_matrix(out)  # partial output still written
        assert meta["converged"] is False
        D11 = BipartiteDims(11, 11)
        with pytest.raises(NoConvergence) as err:
            sdp.solve_construction_sdp(D11, subspace_projector(build_subspace(D11)), max_iter=3)
        assert meta["iterations"] == err.value.partial.iterations
        captured = capsys.readouterr()
        assert f"iterations = {err.value.partial.iterations}" in captured.out
        # the solver's reason reaches the file and stderr
        assert meta["failure"] == str(err.value) and "gap" in meta["failure"]
        assert f"error: {err.value}\nwarning: solver did not converge" in captured.err
        assert "error: construction SDP " in captured.err

    @pytest.mark.parametrize("method,solve", [
        ("direct", sdp.solve_construction_sdp),
        ("dual-cone", sdp.construct_via_dual_cone),
    ])
    def test_iterations_reported(self, tmp_path, capsys, method, solve):
        # the file and the output carry the splitting iterations the solve ran
        dims = BipartiteDims(3, 3)
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "3", "--n", "3", "--method", method, "--out", str(out),
        ])
        assert code == 0
        iterations = solve(dims, subspace_projector(build_subspace(dims))).iterations
        _, _, meta = cli.load_matrix(out)
        assert meta["iterations"] == iterations
        assert f"iterations = {iterations}\n" in capsys.readouterr().out

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

    def test_dual_cone_count_miss_writes_the_state(self, tmp_path, capsys, monkeypatch):
        # a PPT solve whose dual pair (0, I) certifies c = 1/2 gives rho = I/9,
        # with 0 of the 4 negatives: the state is written, flagged, and exit 3
        opt = sdp.PptOptimum(
            value=0.5, sigma=DensityMatrix(D33, np.eye(9) / 9), lower_bound=0.5, upper_bound=0.5,
            iterations=1, converged=True, dual_basis=(np.zeros((9, 9)), np.eye(9)),
        )
        monkeypatch.setattr(sdp, "_solve_ppt", lambda *args, **kwargs: opt)
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "3", "--n", "3", "--method", "dual-cone", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "warning: solver did not converge; partial output written" in err
        mat, _, meta = cli.load_matrix(out)
        assert np.array_equal(mat, np.eye(9) / 9)
        assert meta["converged"] is False
        assert meta["negative_count"] == 0
        assert meta["failure"] == "dual-cone state has 0 negative partial-transpose eigenvalues, expected 4"
        # the route's bracket and split are kept: X1 = (I - 2 P) - 2 I = -I - 2 P
        assert (meta["c"], meta["c_lower"], meta["iterations"]) == (0.5, 0.5, 1)
        assert meta["split_margin"] == pytest.approx(-3.0, abs=1e-12)

    def test_exit_code_reports_negative_count(self, tmp_path, capsys):
        # exit 0 exactly when the written state has the full (m-1)(n-1) = 36
        # negatives; at the default tol_gap the bracket closes around 1, so
        # the solve raises NoConvergence (exit 3) and the miss is reported
        out = tmp_path / "rho.json"
        code = cli.main([
            "construct", "--m", "7", "--n", "7", "--method", "direct",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        _, _, meta = cli.load_matrix(out)
        count = meta["negative_count"]
        assert (code == 0) == (count == 36)
        assert meta["converged"] == (count == 36)
        if code != 0:
            assert code == 3
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

    def test_iteration_budget_defaults_to_the_library_budget(self):
        args = cli.build_parser().parse_args(["construct", "--m", "2", "--n", "2", "--out", "x"])
        for solver in (sdp.solve_construction_sdp, sdp.construct_via_dual_cone):
            assert args.max_iter == library_default(solver, "max_iter")

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

    @pytest.mark.parametrize("name", ["product-weight-3e-10", "pure-3x3"])
    def test_state_accepted_by_the_rule_is_certified(self, tmp_path, capsys, name):
        # verify --subspace and witness read one containment rule, so a
        # state verify places in S gets a certificate
        mat, dims = product_weight_matrix(3e-10) if name.startswith("product") else tiny_generator_matrix()
        path = write_state(tmp_path / f"{name}.json", mat, dims)
        assert cli.main(["verify", "--in", str(path), "--subspace"]) == 0
        assert "range in NPT subspace: True" in capsys.readouterr().out
        assert cli.main(["witness", "--in", str(path)]) == 0
        det_line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("determinant"))
        assert float(det_line.split(":")[1]) < 0

    def test_state_outside_the_rule_is_not_in_subspace(self, tmp_path, capsys):
        mat, dims = product_weight_matrix(1e-8)
        path = write_state(tmp_path / "outside.json", mat, dims)
        assert cli.main(["verify", "--in", str(path), "--subspace"]) == 0
        assert "range in NPT subspace: False" in capsys.readouterr().out
        assert cli.main(["witness", "--in", str(path)]) == 1
        assert capsys.readouterr().err == (
            "not in subspace: ||(I - P) rho||_F > 1e-09 ||rho||_F: the range is not in S\n")

    def test_no_witness_exits_1(self, tmp_path, capsys):
        # a NoWitness (a RuntimeError) is reported, not raised out of main
        g = build_subspace(D33).generators
        v = np.sqrt(3e-9) * g[:, 0] + g[:, 3]
        v /= np.linalg.norm(v)
        u = g[:, 1] / np.sqrt(2)
        mat = (np.outer(v, v.conj()) + np.outer(u, u.conj())) / 2
        mat[0, 0] += 3e-10
        path = write_state(tmp_path / "boundary.json", mat / np.trace(mat).real, D33)
        assert cli.main(["witness", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("no witness: anti-diagonal 1, a = |1,0> ")
        assert captured.err.endswith("not negative\n")

    def test_dims_flag_mismatch(self, tmp_path):
        path = write_state(tmp_path / "singlet.json", singlet_matrix(), D22)
        assert cli.main(["witness", "--in", str(path), "--m", "3", "--n", "4"]) == 2

    @pytest.mark.parametrize("flags", [["--m", "3"], ["--n", "4"], ["--m", "3", "--n", "4"]])
    def test_agreeing_flags_reach_the_search(self, capsys, flags):
        # only the flags given are compared; the fixture is not in S
        code = cli.main(["witness", "--in", cli.paper_fixture_path(), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("not in subspace: ")

    @pytest.mark.parametrize("flags,message", [
        (["--m", "3", "--n", "5"], "flag --n 5 disagrees with file dims (3, 4)"),
        (["--n", "5"], "flag --n 5 disagrees with file dims (3, 4)"),
        (["--m", "2"], "flag --m 2 disagrees with file dims (3, 4)"),
        (["--m", "4", "--n", "3"], "flag --m 4 disagrees with file dims (3, 4)"),
    ])
    def test_disagreeing_flag_is_named(self, capsys, flags, message):
        code = cli.main(["witness", "--in", cli.paper_fixture_path(), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_negative_seed(self, capsys):
        code = cli.main(["stress", "--suite", "bound", "--m", "2", "--n", "2", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    def test_bad_trials(self, capsys):
        assert cli.main([
            "stress", "--suite", "bound", "--m", "2", "--n", "2",
            "--trials", "0", "--seed", "1",
        ]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"

    def test_usage_error(self):
        assert cli.main(["stress", "--suite", "bogus", "--m", "2", "--n", "2"]) == 2

    def test_failures_are_listed(self, capsys, monkeypatch):
        # the first 20 failing trials are printed, one line each, and exit 1
        failures = [(s, f"failure {s}") for s in range(3, 28)]
        monkeypatch.setattr(
            cli, "run_bound_suite",
            lambda dims, trials, seed: cli.SuiteResult("bound", dims, trials, failures),
        )
        code = cli.main(["stress", "--suite", "bound", "--m", "2", "--n", "2", "--trials", "30"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("suite bound at (2,2): 5/30 passed")
        assert lines[1:] == [f"  FAIL seed={s}: failure {s}" for s in range(3, 23)]


def reference_npt_suite(dims, trials, seed):
    """The npt suite one trial at a time, the reference the chunked suite
    must equal; patchable names are looked up through their modules."""
    basis = build_subspace(dims)
    failures = []
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed + i))
        ens = subspace.sample_mixture_in_subspace(basis, rank=min(3, basis.dim), rng=rng)
        rho = ens.to_density_matrix()
        pt = bipartite.partial_transpose(rho.mat, dims)
        if count_negative_eigenvalues(pt)[0] == 0:
            failures.append((seed + i, f"not NPT: min PT eigenvalue {np.linalg.eigvalsh(pt)[0]:.3e}"))
            continue
        try:
            cert = subspace.locate_witness(ens, basis)
        except Exception as exc:  # noqa: BLE001 - reported as the suite does
            failures.append((seed + i, f"witness failed: {exc}"))
            continue
        if not cert.determinant < 0:
            failures.append((seed + i, f"witness determinant {cert.determinant:.3e} >= 0"))
            continue
        mismatch = abs(cert.determinant + abs(cert.mixture_sum) ** 2)
        if mismatch > 1e-10:
            failures.append((seed + i, f"determinant identity off by {mismatch:.3e}"))
    return cli.SuiteResult("npt", dims, trials, failures)


def reference_bound_suite(dims, trials, seed):
    """The bound suite one trial at a time (see ``reference_npt_suite``)."""
    cap = dims.npt_dim
    failures = []
    for i in range(trials):
        rho = random_density_matrix(dims, rank=dims.total, seed=seed + i)
        count, _ = count_negative_eigenvalues(bipartite.partial_transpose(rho.mat, dims))
        if count > cap:
            failures.append((seed + i, f"{count} negatives exceeds cap {cap}"))
    return cli.SuiteResult("bound", dims, trials, failures)


def chunk_size(dims):
    return len(next(cli._chunks(dims, 10**6, 0)))


def pt_is_identity(monkeypatch):
    # rho^Gamma := rho, which is PSD: no trial is NPT
    monkeypatch.setattr(bipartite, "partial_transpose", lambda A, dims: A)


def pt_is_negated(monkeypatch):
    # rho^Gamma := -rho: a full-rank state has mn > (m-1)(n-1) negatives
    monkeypatch.setattr(bipartite, "partial_transpose", lambda A, dims: -A)


def no_entry_is_nonzero(monkeypatch):
    # every entry rho[b, a] counts as zero, so no position b pairs with a
    monkeypatch.setattr(subspace, "ENTRY_NONZERO_TOL", 10.0)


def blocks_too_shallow(monkeypatch):
    # every witness block gets lambda_min = -NEGATIVE_ABS_FLOOR / 2, inside
    # (-tau_bar, 0): too shallow to settle NPT, so the spectra decide
    witnesses = subspace._witnesses

    def shallow(rho, rho_pt, dims):
        found = witnesses(rho, rho_pt, dims)
        block = np.diag([-bipartite.NEGATIVE_ABS_FLOOR / 2, 1.0]).astype(complex)
        return replace(found, submatrix=np.broadcast_to(block, found.submatrix.shape))

    monkeypatch.setattr(cli, "_witnesses", shallow)


def determinants_flipped(monkeypatch):
    @dataclass(frozen=True)
    class Flipped(subspace.WitnessCertificate):
        def __post_init__(self):
            object.__setattr__(self, "determinant", -self.determinant)

    monkeypatch.setattr(subspace, "WitnessCertificate", Flipped)


#: sha256 of repr(run_npt_suite(...)) and repr(run_bound_suite(...)) at
#: (m, n) with the trials of the CI stress step.  Every trial passes, so a
#: result holds no per-trial number and the digest is the same for seeds 1
#: and 7: it pins that no state is rejected and no trial fails.
SUITE_DIGESTS = {
    (3, 4): ["9eb9d0eb6898310d609b179f5d671b92bbbec83cac51c38de2cb69d43d55378e",
             "57038fdcd7de7c68febde850a7eddb31d80cb58c0a4faf28850ba18775def264"],
    (5, 5): ["fad83f0815030f78a83c8c8a22136914630cb04e3342ba93f12f29ecd459482f",
             "23794d9f2ba2da3a10f099d0c82103501491916d3c326510313c2d8591ea1cb4"],
    (8, 8): ["9c16b5e1d35873b55907d68de7f2def78cda583e7debe1c237cf24267d44109d",
             "b79fbe7327589bfed79e8b0fded76307193031de192d33044ee505457d0fbbc1"],
}


class TestSuites:
    """The chunked suites against the per-trial reference loops above, and
    every failure message they can report."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("m,n,trials", [(3, 4, 200), (5, 5, 100), (8, 8, 40)])
    def test_equal_to_reference_at_benchmark_sizes(self, m, n, trials, seed):
        dims = BipartiteDims(m, n)
        assert cli.run_npt_suite(dims, trials, seed) == reference_npt_suite(dims, trials, seed)
        assert cli.run_bound_suite(dims, trials, seed) == reference_bound_suite(dims, trials, seed)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 6), (3, 4), (5, 5), (8, 8)])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_equal_to_reference_across_chunk_boundary(self, m, n, extra):
        dims = BipartiteDims(m, n)
        trials = chunk_size(dims) + extra
        if trials < 1:
            pytest.skip("a chunk of one trial has no shorter run")
        assert cli.run_npt_suite(dims, trials, 3) == reference_npt_suite(dims, trials, 3)
        assert cli.run_bound_suite(dims, trials, 3) == reference_bound_suite(dims, trials, 3)

    @pytest.mark.parametrize("patch,suite,reference", [
        (pt_is_identity, cli.run_npt_suite, reference_npt_suite),
        (pt_is_negated, cli.run_bound_suite, reference_bound_suite),
        (no_entry_is_nonzero, cli.run_npt_suite, reference_npt_suite),
        (determinants_flipped, cli.run_npt_suite, reference_npt_suite),
    ])
    def test_equal_to_reference_with_failures(self, monkeypatch, patch, suite, reference):
        # the failure messages carry the spectra and determinants they report
        patch(monkeypatch)
        trials = chunk_size(D34) + 3
        result = suite(D34, trials, 5)
        assert result == reference(D34, trials, 5)
        assert len(result.failures) == trials

    def test_bound_cap_message(self, monkeypatch):
        pt_is_negated(monkeypatch)
        result = cli.run_bound_suite(D34, 4, 0)
        assert [seed for seed, _ in result.failures] == [0, 1, 2, 3]
        for _, msg in result.failures:
            count = int(re.fullmatch(r"(\d+) negatives exceeds cap 6", msg).group(1))
            assert 6 < count <= 12

    def test_not_npt_message(self, monkeypatch):
        pt_is_identity(monkeypatch)
        result = cli.run_npt_suite(D34, 4, 0)
        assert [seed for seed, _ in result.failures] == [0, 1, 2, 3]
        for _, msg in result.failures:
            assert re.fullmatch(r"not NPT: min PT eigenvalue -?\d\.\d{3}e[+-]\d+", msg)

    def test_witness_failed_message(self, monkeypatch):
        no_entry_is_nonzero(monkeypatch)
        result = cli.run_npt_suite(D34, 3, 0)
        assert [seed for seed, _ in result.failures] == [0, 1, 2]
        for _, msg in result.failures:
            assert re.fullmatch(r"witness failed: anti-diagonal 1, a = \|1,0> \(rho\[a, a\] = "
                                r"\d\.\d{3}e-\d+\): no later \|rho\[b, a\]\| exceeds 10", msg)

    def test_witness_determinant_message(self, monkeypatch):
        determinants_flipped(monkeypatch)
        result = cli.run_npt_suite(D34, 3, 0)
        assert [seed for seed, _ in result.failures] == [0, 1, 2]
        for _, msg in result.failures:
            assert re.fullmatch(r"witness determinant \d\.\d{3}e-\d+ >= 0", msg)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("m,n,trials", [(3, 4, 200), (5, 5, 100), (8, 8, 40)])
    def test_results_are_pinned(self, m, n, trials, seed):
        # recorded when each state's PSD floor was decided by its eigenvalues
        dims = BipartiteDims(m, n)
        digests = [hashlib.sha256(repr(suite(dims, trials, seed)).encode()).hexdigest()
                   for suite in (cli.run_npt_suite, cli.run_bound_suite)]
        assert digests == SUITE_DIGESTS[(m, n)]

    def test_chunked_spectra_are_bit_identical(self):
        # the partial transposes of a chunk and their spectra match
        # trial-by-trial numpy calls
        for dims in (D22, D34, BipartiteDims(5, 5), BipartiteDims(8, 8)):
            seeds = range(chunk_size(dims) + 1)[-3:]
            rho = np.stack([random_density_matrix(dims, dims.total, s).mat for s in seeds])
            rho_pt, w_pt = bipartite._pt_spectra(rho, dims)
            for i in range(len(seeds)):
                pt = bipartite.partial_transpose(rho[i], dims)
                assert np.array_equal(rho_pt[i], pt)
                assert np.array_equal(w_pt[i], np.linalg.eigvalsh(pt))

    def test_round_off_negativity_is_not_npt(self, monkeypatch):
        # lambda_min(rho^Gamma) = -5e-11 with lambda_max = 0.5 lies above
        # -max(1e-10, 1e-9 * 0.5): the suite calls the trial PPT, as is_ppt does
        d = D34.total
        fake = np.diag([-5e-11, 0.5, 0.5] + [0.0] * (d - 3)).astype(complex)
        monkeypatch.setattr(bipartite, "partial_transpose",
                            lambda A, dims: np.broadcast_to(fake, np.shape(A)).copy())
        rho = random_density_matrix(D34, rank=d, seed=0)
        assert bipartite.is_ppt(rho)
        result = cli.run_npt_suite(D34, 2, 0)
        assert result.failures == [(s, "not NPT: min PT eigenvalue -5.000e-11") for s in (0, 1)]

    @pytest.mark.parametrize("round_off", [False, True], ids=["npt", "round-off"])
    def test_unsettled_trials_fall_back_to_the_spectrum(self, monkeypatch, round_off):
        # a block in (-tau_bar, 0) leaves the verdict to one eigvalsh per
        # chunk, over exactly its trials: NPT for the true partial
        # transposes, "not NPT" with the lowest eigenvalue for a spectrum
        # that is round-off, as in the reference
        if round_off:
            fake = np.diag([-5e-11, 0.5, 0.5] + [0.0] * (D34.total - 3)).astype(complex)
            monkeypatch.setattr(bipartite, "partial_transpose",
                                lambda A, dims: np.broadcast_to(fake, np.shape(A)).copy())
        trials = chunk_size(D34) + 3
        expected = reference_npt_suite(D34, trials, 5)
        blocks_too_shallow(monkeypatch)
        eig = count_calls(monkeypatch, "eigvalsh")
        result = cli.run_npt_suite(D34, trials, 5)
        assert result == expected
        assert eig == [(chunk_size(D34), 12, 12), (3, 12, 12)]
        assert result.failures == (
            [(s, "not NPT: min PT eigenvalue -5.000e-11") for s in range(5, 5 + trials)]
            if round_off else [])

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 8), (3, 4), (5, 5), (8, 8)])
    def test_witness_block_bounds_the_spectrum(self, m, n):
        # interlacing: lambda_min(B) >= lambda_min(rho^Gamma); tau_bar is at
        # least the rule's tau, so a block below -tau_bar means NPT
        dims = BipartiteDims(m, n)
        basis = build_subspace(dims)
        for seed in range(20):
            rank = (1, min(3, basis.dim), basis.dim)[seed % 3]
            rng = np.random.Generator(np.random.PCG64([m, n, seed]))
            ens = subspace.sample_mixture_in_subspace(basis, rank, rng)
            pt = bipartite.partial_transpose(ens.to_density_matrix().mat, dims)
            cert = subspace.locate_witness(ens, basis)
            block_min, tau_bar = cli._witness_bounds(cert.submatrix[None], pt[None])
            w = np.linalg.eigvalsh(pt)
            tau = max(bipartite.NEGATIVE_ABS_FLOOR, bipartite.NEGATIVE_REL * abs(w[-1]))
            assert block_min[0] >= w[0] - 1e-12
            assert np.isclose(block_min[0], np.linalg.eigvalsh(cert.submatrix)[0], rtol=0, atol=1e-15)
            assert tau_bar[0] >= tau
            assert block_min[0] < -tau_bar[0] and count_negative_eigenvalues(pt)[0] >= 1

    def test_invalid_state_raises(self, monkeypatch):
        # a drawn matrix that is not a state stops the suite, as the
        # DensityMatrix check of a single trial does
        monkeypatch.setattr(cli, "_ginibre_states",
                            lambda dims, rank, seeds: np.stack([np.eye(dims.total)] * len(seeds)))
        with pytest.raises(ValueError, match="trace 4.0 differs from 1"):
            cli.run_bound_suite(D22, 3, 0)

    def test_invalid_mixture_raises(self, monkeypatch):
        # a drawn mixture that Ensemble would reject stops the suite
        draws = subspace._mixture_draws

        def doubled_weights(Q, u, r):
            vectors, probs, norms = draws(Q, u, r)
            return vectors, 2 * probs, norms

        monkeypatch.setattr(subspace, "_mixture_draws", doubled_weights)
        with pytest.raises(ValueError, match="^ensemble probabilities must sum to 1$"):
            cli.run_npt_suite(D34, 3, 0)

    @pytest.mark.parametrize("suite", [cli.run_npt_suite, cli.run_bound_suite])
    @pytest.mark.parametrize("trials,seed,message", [
        (-3, 1, "trials must be >= 1, got -3"),
        (0, 1, "trials must be >= 1, got 0"),
        (5, -1, "seed must be >= 0, got -1"),
        (2.5, 1, "trials must be an integer, got 2.5"),
        (True, 1, "trials must be an integer, got True"),
        (5, 1.5, "seed must be an integer, got 1.5"),
    ])
    def test_rejects_bad_trials_and_seed(self, monkeypatch, suite, trials, seed, message):
        # raised before any generator is made
        monkeypatch.setattr(np.random, "PCG64", None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            suite(D34, trials, seed)

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (1, 1)])
    def test_npt_suite_rejects_trivial_subspace(self, m, n, capsys):
        with pytest.raises(DegenerateSubspace):
            cli.run_npt_suite(BipartiteDims(m, n), 2, 0)
        code = cli.main(["stress", "--suite", "npt", "--m", str(m), "--n", str(n)])
        assert code == 2
        assert "NPT subspace is trivial at dims" in capsys.readouterr().err


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

    def test_closed_stdout_exit_2(self):
        # the report fits the stdout buffer, so the write fails only when
        # main flushes it: exit 2 with the error line, not 120 at exit
        proc = subprocess.Popen(
            [sys.executable, "-m", "nptsub", "verify", "--in", cli.paper_fixture_path()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 2
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_witness_singlet_exit_0(self, tmp_path):
        path = write_state(tmp_path / "singlet.json", singlet_matrix(), D22)
        proc = self.run("witness", "--in", str(path))
        assert proc.returncode == 0
        assert "determinant: -0.25" in proc.stdout
