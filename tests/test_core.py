"""Ground types: costs, discrete measures, samplers, and the plain c-transform
max_i phi_i - c(x, y_i), which lives in the noise module as the model-free
case of its one transform: ``smooth_c_transform(..., None)`` for the value at
one point and ``utilities_values_probs(U, None)`` for values and one-hot
subgradients of rows of utilities."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from sdot.core import (
    CostSpec,
    DiscreteMeasure,
    SamplerSpec,
    _array,
    _count,
    _readonly,
    cost_matrix,
    cost_vector,
    derive_seed,
    draw,
)
from sdot.noise import _ROW_BLOCK, smooth_c_transform, utilities_values_probs

SUP = CostSpec("sup-norm")
SQ = CostSpec("p-norm-power", p=2.0)


def random_measure(rng, n, d):
    atoms = rng.uniform(-1.0, 1.0, size=(n, d))
    w = rng.uniform(0.1, 1.0, size=n)
    w /= w.sum()
    return DiscreteMeasure(atoms, w)


# ---------------------------------------------------------------- eval_cost

def eval_cost(x, y, spec):
    """The cost between two points, the one entry of a 1 x 1 cost matrix."""
    return float(cost_matrix(x, y, spec)[0, 0])


def test_eval_cost_sup_norm_coordinate_max():
    assert eval_cost((0.0, 0.0), (1.0, -2.0), SUP) == 2.0


def test_eval_cost_zero_at_identity():
    for spec in (SUP, SQ, CostSpec("p-norm-power", p=1.0)):
        assert eval_cost((0.3, -0.7), (0.3, -0.7), spec) == 0.0


def test_eval_cost_scalar_square():
    assert eval_cost((0.0,), (3.0,), SQ) == 9.0


def test_eval_cost_euclidean_power():
    # |(3,4)| = 5, cubed
    assert eval_cost((0.0, 0.0), (3.0, 4.0), CostSpec("p-norm-power", p=3.0)) == pytest.approx(125.0)


def test_eval_cost_symmetry_and_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        for spec in (SUP, SQ):
            assert eval_cost(x, y, spec) == eval_cost(y, x, spec) >= 0.0


def test_eval_cost_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_cost((0.0, 0.0), (1.0,), SUP)


def test_cost_spec_validates_exponent():
    with pytest.raises(ValueError):
        CostSpec("p-norm-power", p=0.5)
    with pytest.raises(ValueError):
        CostSpec("no-such-kind")
    with pytest.raises(ValueError, match="sup-norm cost takes no exponent"):
        CostSpec("sup-norm", p=2.0)


def test_cost_matrix_matches_pointwise():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(7, 3))
    Y = rng.normal(size=(4, 3))
    for spec in (SUP, SQ, CostSpec("p-norm-power", p=1.5)):
        C = cost_matrix(X, Y, spec)
        for j in range(7):
            for i in range(4):
                diff = X[j] - Y[i]
                ref = (np.max(np.abs(diff)) if spec.kind == "sup-norm"
                       else np.sqrt(diff @ diff) ** spec.p)
                assert C[j, i] == pytest.approx(ref, abs=1e-14)


def frozen_sup_norm_matrix(X, Y):
    """The sup-norm cost matrix as it was built before the running max:
    one broadcast (m, n, d) difference reduced over its last axis."""
    return np.abs(X[:, None, :] - Y[None, :, :]).max(axis=2)


def test_sup_norm_cost_matrix_bit_identical_to_broadcast():
    rng = np.random.default_rng(12)
    for d in range(1, 6):
        X = rng.normal(size=(40, d))
        Y = rng.normal(size=(9, d))
        # ties: points on a coarse lattice, and a row equal to an atom
        Xt = np.round(rng.uniform(-2.0, 2.0, size=(40, d)) * 2.0) / 2.0
        Yt = np.round(rng.uniform(-2.0, 2.0, size=(9, d)) * 2.0) / 2.0
        Xt[0] = Yt[3]
        # zero width: every point equal, and no points at all
        same = np.full((5, d), 0.25)
        cases = [(X, Y), (Xt, Yt), (same, same[:2]), (X[:0], Y), (X, Y[:0])]
        for A, B in cases:
            got = cost_matrix(A, B, SUP)
            assert np.array_equal(got, frozen_sup_norm_matrix(A, B))
    with pytest.raises(ValueError, match="coordinate"):
        cost_matrix(np.zeros((3, 0)), np.zeros((2, 0)), SUP)


def frozen_norm_power_matrix(X, Y, p):
    """The Euclidean cost matrix as it was built before the coordinate
    loop: one broadcast (m, n, d) difference reduced by ``einsum``."""
    diff = X[:, None, :] - Y[None, :, :]
    sq = np.einsum("mnd,mnd->mn", diff, diff)
    return sq if p == 2.0 else sq ** (p / 2.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_norm_power_cost_matrix_matches_einsum(d):
    # with at most two squares per entry the loop adds them as einsum does,
    # bit for bit; past two the order of the sum may differ in the last bits
    rng = np.random.default_rng(30 + d)
    X = rng.normal(size=(20_000, d))
    Y = rng.normal(size=(5, d))
    X[0] = Y[2]  # a zero cost
    for p in (1.0, 1.5, 2.0, 3.0):
        spec = CostSpec("p-norm-power", p=p)
        got, want = cost_matrix(X, Y, spec), frozen_norm_power_matrix(X, Y, p)
        if d <= 2:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[0, 2] == 0.0


@pytest.mark.parametrize("spec", [SUP, SQ, CostSpec("p-norm-power", p=1.5)],
                         ids=["sup-norm", "p2", "p1.5"])
def test_cost_matrix_holds_no_point_by_atom_by_coordinate_temporary(spec):
    # at d = 5 an (m, n, d) difference alone is five outputs; the loop holds
    # the output and one (m,) scratch column
    rng = np.random.default_rng(41)
    m, n = 20_000, 10
    X, Y = rng.normal(size=(m, 5)), rng.normal(size=(n, 5))
    tracemalloc.start()
    try:
        cost_matrix(X, Y, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m * n * 8


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec", [SUP, SQ, CostSpec("p-norm-power", p=3.0)],
                         ids=["sup-norm", "p2", "p3"])
def test_cost_matrix_peak_is_its_output_and_one_column(spec, d):
    # each atom column is folded in a scratch column and written once: no
    # second (m, n) array, which alone would double the peak. The slack is
    # for the views' Python objects; no array fits in it
    rng = np.random.default_rng(43)
    m, n = 100_000, 10
    X, Y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        C = cost_matrix(X, Y, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.nbytes == m * n * 8
    assert peak < C.nbytes + m * 8 + 64 * 1024


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("spec", [SUP, SQ, CostSpec("p-norm-power", p=3.0)],
                         ids=["sup-norm", "p2", "p3"])
def test_cost_matrix_rows_match_cost_vector_across_row_blocks(spec, d):
    # a row's costs have the same bits alone as in a matrix of any height,
    # on either side of a row-block boundary
    rng = np.random.default_rng(50 + d)
    X, Y = rng.normal(size=(2 * _ROW_BLOCK + 1, d)), rng.normal(size=(4, d))
    rows = np.array([cost_vector(x, Y, spec) for x in X])
    for m in (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1):
        assert np.array_equal(cost_matrix(X[:m], Y, spec), rows[:m])


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norm_power_cost_needs_a_coordinate(p):
    with pytest.raises(ValueError, match="coordinate"):
        cost_matrix(np.zeros((3, 0)), np.zeros((2, 0)), CostSpec("p-norm-power", p=p))


# ------------------------------------------------------- discrete c-transform

def plain_transform(phi, x, nu, c):
    """Value and winning atom of the plain c-transform; the one-point value
    and the batched row must agree."""
    value = smooth_c_transform(phi, x, nu, c, None)
    vals, P = utilities_values_probs((phi - cost_vector(x, nu.atoms, c))[None, :], None)
    assert value == vals[0]
    return value, int(np.argmax(P[0]))


def plain_subgradient(phi, x, nu, c):
    return utilities_values_probs((phi - cost_vector(x, nu.atoms, c))[None, :], None)[1][0]


def test_c_transform_single_atom():
    nu = DiscreteMeasure(np.array([[1.0]]), np.array([1.0]))
    val, win = plain_transform(np.array([3.0]), np.array([0.0]), nu, SQ)
    assert val == pytest.approx(2.0)
    assert win == 0


def test_c_transform_tie_breaks_to_min_index():
    nu = DiscreteMeasure(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.5, 0.5]))
    val, win = plain_transform(np.zeros(2), np.zeros(2), nu, SUP)
    assert val == pytest.approx(-1.0)
    assert win == 0


def test_c_transform_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nu = random_measure(rng, 6, 2)
        phi = rng.normal(size=6)
        x = rng.normal(size=2)
        best_v, best_i = -np.inf, None
        for i in range(6):
            v = phi[i] - eval_cost(x, nu.atoms[i], SUP)
            if v > best_v:
                best_v, best_i = v, i
        val, win = plain_transform(phi, x, nu, SUP)
        assert val == pytest.approx(best_v)
        assert win == best_i


def test_c_transform_convex_in_phi():
    rng = np.random.default_rng(17)
    nu = random_measure(rng, 5, 2)
    x = rng.normal(size=2)
    for _ in range(40):
        a, b = rng.normal(size=5), rng.normal(size=5)
        t = rng.uniform()
        va, _ = plain_transform(a, x, nu, SQ)
        vb, _ = plain_transform(b, x, nu, SQ)
        vm, _ = plain_transform(t * a + (1 - t) * b, x, nu, SQ)
        assert vm <= t * va + (1 - t) * vb + 1e-12


def test_c_transform_shift_covariance():
    rng = np.random.default_rng(19)
    nu = random_measure(rng, 4, 3)
    phi = rng.normal(size=4)
    x = rng.normal(size=3)
    v0, w0 = plain_transform(phi, x, nu, SUP)
    for k in (-2.5, 0.3, 10.0):
        v1, w1 = plain_transform(phi + k, x, nu, SUP)
        assert v1 == pytest.approx(v0 + k)
        assert w1 == w0


def test_subgradient_is_one_hot_at_winner():
    rng = np.random.default_rng(23)
    nu = random_measure(rng, 5, 2)
    phi = rng.normal(size=5)
    x = rng.normal(size=2)
    _, win = plain_transform(phi, x, nu, SQ)
    p = plain_subgradient(phi, x, nu, SQ)
    expect = np.zeros(5)
    expect[win] = 1.0
    assert np.array_equal(p, expect)


def test_subgradient_tie_min_index():
    nu = DiscreteMeasure(np.array([[1.0], [-1.0], [1.0]]), np.full(3, 1 / 3))
    p = plain_subgradient(np.zeros(3), np.zeros(1), nu, SUP)
    assert np.array_equal(p, np.array([1.0, 0.0, 0.0]))


def test_subgradient_inequality():
    # psi(phi') >= psi(phi) + <p, phi' - phi>
    rng = np.random.default_rng(29)
    nu = random_measure(rng, 6, 2)
    x = rng.normal(size=2)
    for _ in range(40):
        phi, other = rng.normal(size=6), rng.normal(size=6)
        v, _ = plain_transform(phi, x, nu, SUP)
        v2, _ = plain_transform(other, x, nu, SUP)
        p = plain_subgradient(phi, x, nu, SUP)
        assert v2 >= v + p @ (other - phi) - 1e-12


# ------------------------------------------------------------------ sampling

def test_draw_same_seed_same_stream():
    spec = SamplerSpec("gaussian-standard", d=2, seed=42)
    assert np.array_equal(draw(spec, 50), draw(spec, 50))


def test_draw_prefix_equals_shorter_draw():
    # an experiment cell's SGD reads the first T of the reference's points
    specs = [
        SamplerSpec("gaussian-standard", d=2, seed=5),
        SamplerSpec("hypercube-uniform", d=3, seed=5),
        SamplerSpec(
            "empirical",
            seed=5,
            points=np.array([[0.0], [1.0], [2.0]]),
            weights=np.array([0.2, 0.5, 0.3]),
        ),
    ]
    for spec in specs:
        for n, k in ((1, 1), (13, 29), (100, 1)):
            assert np.array_equal(draw(spec, n + k)[:n], draw(spec, n))


def test_hypercube_support():
    pts = draw(SamplerSpec("hypercube-uniform", d=3, seed=1), 2000)
    assert pts.shape == (2000, 3)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


def test_gaussian_sample_mean_near_zero():
    pts = draw(SamplerSpec("gaussian-standard", d=2, seed=99), 100_000)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)


def test_empirical_sampler_respects_weights():
    pts = np.array([[0.0], [1.0], [2.0]])
    w = np.array([0.2, 0.5, 0.3])
    spec = SamplerSpec("empirical", seed=8, points=pts, weights=w)
    out = draw(spec, 40_000)
    assert set(np.unique(out)) <= {0.0, 1.0, 2.0}
    freq = np.array([(out == v).mean() for v in (0.0, 1.0, 2.0)])
    assert np.all(np.abs(freq - w) < 0.02)


def test_sampler_dim_and_validation():
    with pytest.raises(ValueError):
        SamplerSpec("gaussian-standard", d=0, seed=1)
    with pytest.raises(ValueError):
        SamplerSpec("no-such", d=2, seed=1)
    with pytest.raises(ValueError):
        SamplerSpec("empirical", seed=1, points=np.zeros((2, 1)), weights=np.array([0.7, 0.7]))
    # an empirical sampler takes its dimension from its points
    empirical = {"kind": "empirical", "points": [[0.0, 0.0]], "weights": [1.0]}
    assert SamplerSpec.from_json({**empirical, "d": 2}).d == 2
    with pytest.raises(ValueError, match="'d'"):
        SamplerSpec.from_json({**empirical, "d": 7})
    assert SamplerSpec("gaussian-standard", d=np.int64(2), seed=np.int64(3)).d == 2


def test_sampler_rejects_a_negative_seed():
    # numpy's SeedSequence would reject it only at the first draw
    for kind, kw in (("gaussian-standard", {"d": 2}),
                     ("empirical", {"points": np.zeros((1, 2)), "weights": np.ones(1)})):
        with pytest.raises(ValueError,
                           match="sampler field 'seed' must be an integer of at least 0, got -1"):
            SamplerSpec(kind, seed=-1, **kw)
        assert SamplerSpec(kind, seed=0, **kw).seed == 0


@pytest.mark.parametrize("points, weights", [
    ([[np.nan, 0.0], [1.0, 1.0]], [0.5, 0.5]),
    ([[0.0, 0.0], [-np.inf, 1.0]], [0.5, 0.5]),
    # abs(NaN - 1) > 1e-12 is false, so a sum check alone lets NaN through
    ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 1.0]),
])
def test_empirical_sampler_rejects_non_finite_points_and_weights(points, weights):
    with pytest.raises(ValueError, match="points and weights must be finite"):
        SamplerSpec("empirical", points=np.array(points), weights=np.array(weights))


@pytest.mark.parametrize("value", [{"a": 1}, "[1, 2]", 3.0, None, [1.0, "2"], [True, 1.0],
                                   [[1.0, 2.0], [3.0]], [1.0, None], [10 ** 400]])
def test_json_array_rejects_other_values_naming_the_field(value):
    with pytest.raises(ValueError, match="^input field 'w' must be an array of numbers$"):
        _array(value, "input field 'w'")


def test_json_array_converts_nested_numbers():
    out = _array([[1, 2.5], [-3, 0]], "field")
    assert out.dtype == float and out.tolist() == [[1.0, 2.5], [-3.0, 0.0]]
    assert _array([], "field").shape == (0,)


@pytest.mark.parametrize("field,value", [("d", 2.5), ("d", 2.0), ("d", True), ("seed", True),
                                         ("seed", 3.0), ("seed", None), ("seed", "1")])
def test_sampler_rejects_non_integer_fields(field, value):
    # a constructed spec fails on the field, as the JSON path does, before
    # a draw can fail on the value; a whole JSON number such as 2.0 is an
    # integer there, read as int before the spec sees it
    kw = {"d": 2, "seed": 0, field: value}
    least = 1 if field == "d" else 0
    with pytest.raises(ValueError, match=f"sampler field '{field}' must be an integer "
                                         f"of at least {least}, got "):
        SamplerSpec("gaussian-standard", **kw)
    if not isinstance(value, float) or not value.is_integer():
        with pytest.raises(ValueError, match=f"sampler field '{field}' must be"):
            SamplerSpec.from_json({"kind": "gaussian-standard", **kw})
    else:
        got = getattr(SamplerSpec.from_json({"kind": "gaussian-standard", **kw}), field)
        assert type(got) is int and got == value
    if field == "d":
        with pytest.raises(ValueError, match="sampler field 'd' must be an integer"):
            SamplerSpec("empirical", d=value, points=np.zeros((1, 2)), weights=np.ones(1))


@pytest.mark.parametrize("value, least", [(True, 0), (2.0, 0), (None, 0), ("3", 0), (-1, 0),
                                          (0, 1), (np.int64(0), 1)])
def test_count_rejects_what_is_no_integer_of_the_least_size(value, least):
    with pytest.raises(ValueError, match=f"^field 'k' must be an integer of at least {least}, "
                                         f"got {re.escape(repr(value))}$"):
        _count(value, "field 'k'", least)


def test_count_returns_python_and_numpy_integers():
    assert _count(0, "k") == 0 and _count(np.int64(3), "k", least=3) == 3
    spec = SamplerSpec("gaussian-standard", d=2)
    for n in (0, 2.0, True):
        with pytest.raises(ValueError, match="^draw count must be an integer of at least 1"):
            draw(spec, n)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7) != derive_seed(8)


# ---------------------------------------------------------------- validation

def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError, match="weights length must match the number of atoms"):
        DiscreteMeasure(np.zeros((2, 1)), np.ones(1))
    with pytest.raises(ValueError, match="atoms and weights must be finite"):
        DiscreteMeasure(np.array([[0.0], [np.inf]]), np.full(2, 0.5))


def test_cost_json_that_is_no_object_names_its_context():
    with pytest.raises(ValueError, match="^cost JSON must be a JSON object$"):
        CostSpec.from_json("sup-norm")


@pytest.mark.parametrize("kind, kw, needle", [
    ("empirical", {"points": np.zeros((2, 1))}, "needs points and weights"),
    ("empirical", {"weights": np.ones(1)}, "needs points and weights"),
    ("empirical", {"points": np.zeros(2), "weights": np.full(2, 0.5)}, "must be (K, d)"),
    ("empirical", {"points": np.zeros((2, 1)), "weights": np.ones(1)}, "must be (K, d)"),
    ("gaussian-standard", {"d": 1, "points": np.zeros((1, 1))}, "takes no point list"),
    ("hypercube-uniform", {"d": 1, "weights": np.ones(1)}, "takes no point list"),
])
def test_sampler_rejects_a_misplaced_or_misshapen_point_list(kind, kw, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        SamplerSpec(kind, **kw)


def test_measure_is_immutable():
    nu = DiscreteMeasure(np.zeros((2, 2)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        nu.weights[0] = 1.0


def test_constructors_store_readonly_copies():
    # the caller's arrays stay writeable, and writing to them leaves the
    # stored arrays unchanged
    rng = np.random.default_rng(15)
    atoms, w = rng.random((3, 2)), np.full(3, 1.0 / 3.0)
    points, pw = rng.random((4, 2)), np.full(4, 0.25)
    nu = DiscreteMeasure(atoms, w)
    spec = SamplerSpec("empirical", points=points, weights=pw)
    for given, stored in ((atoms, nu.atoms), (w, nu.weights),
                          (points, spec.points), (pw, spec.weights)):
        kept = stored.copy()
        assert given.flags.writeable
        assert not stored.flags.writeable
        given += 1.0
        assert np.array_equal(stored, kept)
    # a 0-d input stays 0-d
    assert _readonly(0.5).shape == ()


def test_potential_validation():
    nu = DiscreteMeasure(np.zeros((3, 1)), np.full(3, 1 / 3))
    for phi in (np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.nan, 0.0])):
        with pytest.raises(ValueError):
            smooth_c_transform(phi, np.zeros(1), nu, SUP, None)


# --------------------------------------------------------------------- JSON

def test_measure_json_round_trip():
    nu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.25, 0.75]))
    blob = json.dumps(nu.to_json())
    back = DiscreteMeasure.from_json(json.loads(blob))
    assert np.array_equal(back.atoms, nu.atoms)
    assert np.array_equal(back.weights, nu.weights)


def test_cost_and_sampler_json_round_trip():
    for spec in (SUP, SQ):
        assert CostSpec.from_json(spec.to_json()) == spec
    s = SamplerSpec("gaussian-standard", d=2, seed=3)
    s2 = SamplerSpec.from_json(s.to_json())
    assert s2 == s
    e = SamplerSpec("empirical", seed=3, points=np.array([[1.0, 2.0]]), weights=np.array([1.0]))
    e2 = SamplerSpec.from_json(e.to_json())
    assert np.array_equal(e2.points, e.points) and e2.seed == 3


def test_sampler_json_rejects_unknown_field():
    with pytest.raises(ValueError, match="sampler JSON has unknown field 'sed'"):
        SamplerSpec.from_json({"kind": "gaussian-standard", "d": 2, "sed": 4})


def test_measure_and_cost_json_reject_unknown_field():
    with pytest.raises(ValueError, match="measure JSON has unknown field 'mass'"):
        DiscreteMeasure.from_json({"atoms": [[0.0]], "weights": [1.0], "mass": 1})
    with pytest.raises(ValueError, match="cost JSON has unknown field 'pp'"):
        CostSpec.from_json({"kind": "p-norm-power", "p": 2, "pp": 3})
