import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opslab
from opslab import (
    ArgumentError,
    MatrixFormatError,
    ToleranceConfig,
    adjoint,
    certify_power_bounded,
    frobenius,
    load_matrix,
    operator_norm,
)
from opslab.matcore import as_matrix, dump_json, load_json, matrix_from_json_dict

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_tolerance_validation():
    with pytest.raises(ArgumentError):
        ToleranceConfig(abs_tol=-1.0)
    tol = ToleranceConfig()
    assert tol.zero_threshold(0.0) == tol.abs_tol


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ArgumentError):
        as_matrix([1, 2, 3])
    with pytest.raises(ArgumentError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ArgumentError):
        as_matrix([[1, 2, 3], [4, 5, 6]], square=True)


def test_adjoint_examples():
    assert_allclose(adjoint(np.array([[1j]])), np.array([[-1j]]))
    eye = np.eye(3, dtype=complex)
    assert_allclose(adjoint(eye), eye)
    assert_allclose(
        adjoint(np.array([[1, 1], [0, 1]], dtype=complex)),
        np.array([[1, 0], [1, 1]], dtype=complex),
    )


def test_operator_norm_examples():
    assert_allclose(operator_norm(np.eye(3)), 1.0)
    assert_allclose(operator_norm(np.diag([3.0, 1.0])), 3.0)
    # Largest singular value of the standard 2x2 Jordan block: sqrt of the
    # top eigenvalue (3 + sqrt 5)/2 of its Gram matrix, i.e. the golden ratio.
    assert_allclose(operator_norm(np.array([[1, 1], [0, 1]])), GOLDEN, rtol=1e-12)


def test_operator_norm_is_bit_equal_to_the_numpy_2_norm():
    rng = np.random.default_rng(17)
    matrices = [random_complex(rng, n, n) for n in (1, 2, 5, 8, 32)]
    matrices += [random_complex(rng, r, 6) for r in (1, 3, 6)]  # r x n, as douglas_factor takes
    matrices += [random_complex(rng, 7, 2), rng.standard_normal((4, 4)), np.array([[-2.5]])]
    matrices += [np.zeros((1, 1)), np.zeros((3, 3)), np.zeros((2, 5))]
    for m in matrices:
        assert operator_norm(m) == np.linalg.norm(m.astype(complex), 2)
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_frobenius_is_bit_equal_to_the_numpy_norm():
    rng = np.random.default_rng(44)
    z, x = random_complex(rng, 6, 6), rng.standard_normal((6, 6))
    matrices = [z, x, z.T, x.T, z[::2, 1::3], x[1::2, ::-1], np.asfortranarray(z), z.real, z.imag]
    matrices += [np.arange(12).reshape(3, 4), np.array([[-3, 4]]), [[1, 2], [3, 4]], [[1j, 2.0]]]
    matrices += [np.zeros((0, 3)), np.zeros((3, 0), dtype=complex), np.zeros((0, 0), dtype=int)]
    for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(0.0, -np.inf)):
        for m in (z.copy(), x.copy()):
            m[2, 3] = bad if m.dtype.kind == "c" else np.real(bad)
            matrices.append(m)
    for big in (1e154, 1.5e154, 1e200):  # squares that overflow, alone or in a sum
        matrices += [np.full((3, 3), big * (1 + 1j)), np.full((2, 2), big), z * big, x * big]
    matrices += [z * 1e-160, x * 1e-170]  # squares that underflow
    for m in matrices:
        with np.errstate(over="ignore"):  # both warn of an overflowing dot
            got, want = frobenius(m), float(np.linalg.norm(m))
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def _calls_the_numpy_2_norm(node):
    """Whether the call node is ``np.linalg.norm(x, 2)`` or ``...norm(x, ord=2)``."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "norm"):
        return False
    ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)


def test_operator_norm_is_the_one_spectral_norm_route():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in Path(opslab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _calls_the_numpy_2_norm(node)
    ]
    assert offenders == []


def spectral_radius(m):
    """The spectral radius as the power-boundedness certificate reads it."""
    return certify_power_bounded(m).spectral_radius


def test_spectral_radius_examples():
    assert_allclose(spectral_radius(np.array([[1, 1], [0, 1]])), 1.0)
    assert_allclose(spectral_radius(np.diag([0.5, 2j])), 2.0)
    nil = np.triu(np.ones((4, 4)), k=1)
    assert spectral_radius(nil) < 1e-8
    with pytest.raises(ArgumentError):
        spectral_radius(np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_norm_properties(n, seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n, n)
    assert operator_norm(m) == pytest.approx(operator_norm(adjoint(m)), rel=1e-8)
    assert spectral_radius(m) <= operator_norm(m) + 1e-10


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(23)
    m = random_complex(rng, 3, 5)
    back = matrix_from_json_dict(json.loads(dump_json(m)))
    assert np.array_equal(back, m)  # bit-identical round trip


def per_entry_matrix(d):
    """The schema's data decoded one entry at a time: the oracle."""
    out = np.empty(d["rows"] * d["cols"], dtype=complex)
    for i, (re, im) in enumerate(d["data"]):
        out[i] = complex(float(re), float(im))
    return out.reshape(d["rows"], d["cols"])


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.complex128 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "data",
    [
        [[1, 2], [-3, 0], [0, -7], [2**53 + 1, -(2**62)]],
        [[0.5, -1e-300], [1e308, -2.5], [3.0, 4.0], [-0.0, -0.0]],
        [[1, 0.25], [-2, 3], [0.0, -0.0], [2**63 + 1, -1]],
        [[True, False], [False, True], [True, 2], [0.5, True]],
        [[2**63, 2**64 - 1], [1, 2], [3, 4], [5, 6]],
    ],
    ids=["ints", "floats", "mixed", "bools", "beyond-int64"],
)
def test_matrix_json_decodes_like_the_per_entry_loop(data):
    d = {"rows": 2, "cols": 2, "data": data}
    assert_same_bits(matrix_from_json_dict(d), per_entry_matrix(d))
    assert_same_bits(matrix_from_json_dict(json.loads(json.dumps(d))), per_entry_matrix(d))


_scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.tuples(_scalars, _scalars).map(list), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_matrix_json_decode_matches_the_loop_on_any_scalars(data):
    d = {"rows": 1, "cols": len(data), "data": data}
    assert_same_bits(matrix_from_json_dict(d), per_entry_matrix(d))


def per_entry_json(m):
    """The schema of ``m`` with its entries listed as Python floats: the writer's oracle."""
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return dump_json({"rows": m.shape[0], "cols": m.shape[1], "data": data})


# Shortest round-trip forms at the edges: signed zeros, the least subnormal,
# the least normal, the switches to exponent form, and the largest float.
_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e21, 1e22, 1e-7, 1.7976931348623157e308]


def test_matrix_json_encodes_like_the_per_entry_loop():
    rng = np.random.default_rng(5)
    base = random_complex(rng, 6, 7)
    base[0, 0] = complex(-0.0, -0.0)
    edges = np.array([x for e in _EDGES for x in (e, -e)])
    spread = rng.standard_normal(20_000) * 10.0 ** rng.integers(-323, 308, 20_000)  # all finite
    edged, spread = edges.view(complex).reshape(3, 3).T, spread.view(complex).reshape(100, 100)
    inputs = [base, base[::2, ::-3], base.T, base[1:4].real, edged, spread]
    for m in map(as_matrix, inputs):  # complex128, as the writer requires
        assert dump_json(m) == per_entry_json(m)


@pytest.mark.parametrize(
    "data, message",
    [
        ([[1, 0], [0, 1], ["1", 0], [0, 1]], "data[2] must be a [re, im] pair"),
        ([[1, 0], [0, 1], [0, 1], None], "data[3] must be a [re, im] pair"),
        ([[1, 0], [0, None], [0, 1], [0, 1]], "data[1] must be a [re, im] pair"),
        ([[1, 0], [0, 1, 2], [0, 1], [0, 1]], "data[1] must be a [re, im] pair"),
        ([[1, 0], [0, 1], [[0, 1], [1, 0]], [0, 1]], "data[2] must be a [re, im] pair"),
        ([[[1, 0], [0, 1]]] * 4, "data[0] must be a [re, im] pair"),
        ([[1, 0], [0], [0, 1], [0, 1]], "data[1] must be a [re, im] pair"),
        (json.loads("[[1, 0], [0, 1], [0, NaN], [0, 1]]"), "data[2] is not finite"),
        (json.loads("[[1, 0], [0, 1], [0, 1], [-Infinity, 1]]"), "data[3] is not finite"),
        ([[1, 0], [10**400, 1], [0, 1], [0, 1]], "data[1] is not finite"),
        ([[1, 0], [0.5, 1], [0, 1], [0, -(10**400)]], "data[3] is not finite"),
        ([[1, 0], [0, 1], [0, 1]], "data length 3 does not match rows*cols=4"),
        ([[1, 0]] * 5, "data length 5 does not match rows*cols=4"),
    ],
)
def test_matrix_json_malformed_messages(data, message):
    with pytest.raises(MatrixFormatError) as info:
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": data}, name="S")
    assert str(info.value) == f"S: {message}"


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2, "data": [[1, 0]] * 3},
        {"rows": 2, "cols": 2},
        {"rows": -1, "cols": 2, "data": []},
        {"rows": True, "cols": True, "data": [[1, 0]]},
        {"rows": 1, "cols": 1.0, "data": [[1, 0]]},
        {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        [1, 2, 3],
    ],
)
def test_matrix_json_rejects_malformed(payload):
    with pytest.raises(MatrixFormatError):
        matrix_from_json_dict(payload)


# The codec: ``dump_json`` writes and ``load_json`` reads every file and
# report; the stdlib ``json`` module is the reference it is held to.

_finite = st.floats(allow_nan=False, allow_infinity=False)
_EXTREMES = [[-0.0, 0.0], [5e-324, -2.2250738585072014e-308], [1e300, -1e-300], [1.7976931348623157e308, 0.1]]


@given(st.lists(st.tuples(_finite, _finite).map(list), min_size=1, max_size=12))
@example(_EXTREMES)
@settings(max_examples=200, deadline=None)
def test_codec_round_trips_any_finite_matrix_bit_for_bit(tmp_path_factory, data):
    m = np.array(data).view(np.complex128).reshape(1, len(data))
    path = tmp_path_factory.getbasetemp() / "codec.json"
    path.write_text(dump_json(m))
    assert_same_bits(load_matrix(path), m)


@given(st.lists(st.tuples(_scalars, _scalars).map(list), min_size=1, max_size=12))
@example(_EXTREMES)
@settings(max_examples=200, deadline=None)
def test_codec_reads_a_stdlib_file_as_stdlib_json_does(tmp_path_factory, data):
    text = json.dumps({"rows": 1, "cols": len(data), "data": data})  # how files were written so far
    path = tmp_path_factory.getbasetemp() / "stdlib.json"
    path.write_text(text)
    parsed, reference = load_json(path, "S"), json.loads(text)
    assert_same_bits(matrix_from_json_dict(parsed), matrix_from_json_dict(reference))
    if all(type(x) is float for pair in data for x in pair):
        assert parsed.keys() == reference.keys() and (parsed["rows"], parsed["cols"]) == (1, len(data))
        assert np.array_equal(np.array(parsed["data"]).view(np.uint64), np.array(reference["data"]).view(np.uint64))


def test_dump_json_is_one_compact_sorted_strict_line():
    obj = {"b": [1e-8, -0.0, 0.1], "a": {"z": np.float64(2.5), "y": np.bool_(True)}, "c": float("inf")}
    assert dump_json(obj) == '{"a":{"y":true,"z":2.5},"b":[1e-8,-0.0,0.1],"c":null}'
    assert json.loads(dump_json(obj)) == {**obj, "c": None}


def test_one_json_codec():
    importers = [
        f"{path.name}:{node.lineno}"
        for path in Path(opslab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json")
    ]
    assert importers == []
