"""Volume recovery through two-atom transport. Oracles: closed-form volumes
in one and two dimensions, analytic integrals of the one-dimensional costs,
and a Monte Carlo cross-check of the exact-volume helper."""

import numpy as np
import pytest

from sdot import hardness
from sdot.hardness import (
    KnapsackInstance,
    QuadratureSpec,
    _golden_max,
    _quad_costs,
    _two_point_dual,
    binary_search_min,
    exact_knapsack_volume,
    knapsack_volume_via_ot,
    wc_two_point,
)


def test_instance_validation():
    with pytest.raises(ValueError):
        KnapsackInstance(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        KnapsackInstance(np.array([1.0, -0.5]), 1.0)
    with pytest.raises(ValueError):
        KnapsackInstance(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        KnapsackInstance(np.array([1.0]), 1.0, p=0.5)
    with pytest.raises(ValueError, match="w must be a finite 1-d vector"):
        KnapsackInstance(np.ones((2, 2)), 1.0)


def test_instance_atoms():
    inst = KnapsackInstance(np.array([1.0, 1.0]), 1.0)
    assert np.allclose(inst.y1, [0.0, 0.0])
    assert np.allclose(inst.y2, [1.0, 1.0])
    inst2 = KnapsackInstance(np.array([2.0, 1.0]), 1.0)
    assert np.allclose(inst2.y2, [0.8, 0.4])


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureSpec("grid", m=0)
    with pytest.raises(ValueError):
        QuadratureSpec("monte-carlo", n=0)
    with pytest.raises(ValueError):
        QuadratureSpec("no-such")
    # grid quadrature is only supported up to three axes
    inst = KnapsackInstance(np.ones(4), 2.0)
    with pytest.raises(ValueError):
        wc_two_point(inst, 0.5, QuadratureSpec("grid", m=5))


# --------------------------------------------------------- binary search

def expected_calls(delta):
    return 2 * (int(np.ceil(np.log2(1.0 / delta))) + 1)


@pytest.mark.parametrize("kind, kw, field", [
    ("grid", {"m": 40, "n": 7}, "n"),
    ("grid", {"m": 40, "seed": 3}, "seed"),
    ("monte-carlo", {"n": 7, "m": 40}, "m"),
])
def test_quadrature_rejects_a_field_its_kind_does_not_take(kind, kw, field):
    with pytest.raises(ValueError, match=f"{kind} quadrature takes no field '{field}'"):
        QuadratureSpec(kind, **kw)


@pytest.mark.parametrize("kind, kw, field", [
    # m = 2.5 would build nodes at 0.2, 0.6 and 1.0, and 1.0 is no cell midpoint
    ("grid", {"m": 2.5}, "m"),
    ("grid", {"m": 2.0}, "m"),
    ("grid", {"m": True}, "m"),
    ("monte-carlo", {"n": 10.5}, "n"),
    ("monte-carlo", {"n": 10, "seed": -1}, "seed"),
    ("monte-carlo", {"n": 10, "seed": 1.5}, "seed"),
])
def test_quadrature_rejects_non_integer_counts_and_negative_seeds(kind, kw, field):
    with pytest.raises(ValueError, match=f"quadrature field '{field}' must be an integer"):
        QuadratureSpec(kind, **kw)


def test_monte_carlo_quadrature_settles_its_default_seed():
    assert QuadratureSpec("monte-carlo", n=10).seed == 0
    assert QuadratureSpec("monte-carlo", n=10, seed=4).seed == 4
    assert QuadratureSpec("grid", m=4).seed is None


def test_quadrature_accepts_numpy_integers():
    assert QuadratureSpec("grid", m=np.int64(4)).m == 4
    assert QuadratureSpec("monte-carlo", n=np.int64(4), seed=np.int64(0)).seed == 0


def _refuse(*args, **kwargs):
    raise AssertionError("allocated past the entry bound")


def test_quadrature_past_the_entry_bound_fails_before_building_nodes(monkeypatch):
    # the node builders refuse, so a missing guard fails here at once
    # instead of allocating gigabytes
    monkeypatch.setattr(np, "meshgrid", _refuse)
    monkeypatch.setattr(hardness, "draw", _refuse)
    with pytest.raises(ValueError, match=r"quadrature .* too large \(648000000 > 2e8"):
        wc_two_point(KnapsackInstance(np.ones(3), 1.0), 0.5, QuadratureSpec("grid", m=600))
    with pytest.raises(ValueError, match="quadrature .* too large"):
        knapsack_volume_via_ot(KnapsackInstance(np.ones(5), 2.5), 0.25,
                               QuadratureSpec("monte-carlo", n=10 ** 8))


def test_binary_search_known_quadratic():
    calls = []
    t_hat = binary_search_min(lambda t: (calls.append(t) or (t - 0.3) ** 2), 1e-3)
    assert abs(t_hat - 0.3) <= 1e-3
    assert len(calls) == expected_calls(1e-3)


def test_binary_search_call_counts():
    for delta in (0.5, 0.07, 1e-2, 1e-4):
        calls = []
        binary_search_min(lambda t: (calls.append(t) or (t - 0.41) ** 2), delta)
        assert len(calls) == expected_calls(delta)


def test_binary_search_edge_minimizers():
    assert binary_search_min(lambda t: t * t, 1e-3) <= 1e-3
    assert abs(binary_search_min(lambda t: (t - 1.0) ** 2, 1e-3) - 1.0) <= 1e-3


def test_binary_search_nonsmooth_convex():
    g = lambda t: abs(t - 0.37) + (t - 0.37) ** 2
    assert abs(binary_search_min(g, 1e-4) - 0.37) <= 1e-4


def test_binary_search_inexact_oracle():
    rng = np.random.default_rng(70)
    noise = {}

    def g(t):
        if t not in noise:
            noise[t] = rng.uniform(-1e-9, 1e-9)
        return (t - 0.3) ** 2 + noise[t]

    assert abs(binary_search_min(g, 1e-3) - 0.3) <= 2e-3


def test_binary_search_delta_domain():
    with pytest.raises(ValueError):
        binary_search_min(lambda t: t, 0.0)
    with pytest.raises(ValueError):
        binary_search_min(lambda t: t, 1.5)


# ----------------------------------------------------------- wc_two_point

D1 = KnapsackInstance(np.array([1.0]), 0.3)
GRID1 = QuadratureSpec("grid", m=2000)


def test_wc_endpoint_t1_single_destination():
    # all mass to the origin atom: integral of x^2 on [0,1] is 1/3
    val = wc_two_point(D1, 1.0, GRID1)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_wc_endpoint_t0_single_destination():
    # all mass to y2 = 0.6: integral of (x - 0.6)^2 = 0.6^3/3 + 0.4^3/3
    val = wc_two_point(D1, 0.0, GRID1)
    assert val == pytest.approx((0.6 ** 3 + 0.4 ** 3) / 3.0, abs=1e-5)


def test_wc_balanced_t_gives_min_integral():
    # at t equal to the winning fraction the optimal shift is zero
    nodes = (np.arange(2000) + 0.5) / 2000
    c1 = nodes ** 2
    c2 = (nodes - 0.6) ** 2
    t_star = float(np.mean(c1 - c2 <= 0.0))
    val = wc_two_point(D1, t_star, GRID1)
    assert val == pytest.approx(float(np.minimum(c1, c2).mean()), abs=1e-9)
    analytic = 0.3 ** 3 / 3.0 + (0.4 ** 3 + 0.3 ** 3) / 3.0
    assert val == pytest.approx(analytic, abs=1e-4)


def test_wc_convex_in_t():
    inst = KnapsackInstance(np.array([2.0, 1.0]), 1.0)
    quad = QuadratureSpec("grid", m=60)
    grid = np.linspace(0.0, 1.0, 11)
    vals = [wc_two_point(inst, t, quad) for t in grid]
    for i in range(1, 10):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_wc_monte_carlo_close_to_grid():
    inst = KnapsackInstance(np.array([1.0, 1.0]), 1.0)
    g = wc_two_point(inst, 0.4, QuadratureSpec("grid", m=250))
    m = wc_two_point(inst, 0.4, QuadratureSpec("monte-carlo", n=40000, seed=3))
    assert abs(g - m) <= 0.01
    m2 = wc_two_point(inst, 0.4, QuadratureSpec("monte-carlo", n=40000, seed=3))
    assert m == m2


def test_wc_t_domain():
    with pytest.raises(ValueError):
        wc_two_point(D1, -0.1, GRID1)
    with pytest.raises(ValueError):
        wc_two_point(D1, 1.1, GRID1)


def test_halfspace_boundary_identity():
    # the closer-to-origin region is exactly the knapsack half-space
    for p in (2.0, 3.0):
        inst = KnapsackInstance(np.array([2.0, 1.0]), 1.0, p=p)
        ax = (np.arange(37) + 0.5) / 37
        X = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        c1 = np.linalg.norm(X - inst.y1, axis=1) ** p
        c2 = np.linalg.norm(X - inst.y2, axis=1) ** p
        lhs = c1 <= c2
        rhs = X @ inst.w <= inst.b
        assert np.array_equal(lhs, rhs)


# --------------------------------------------------------------- volumes

def test_exact_volume_closed_forms():
    assert exact_knapsack_volume(KnapsackInstance(np.array([1.0]), 0.3)) \
        == pytest.approx(0.3)
    assert exact_knapsack_volume(KnapsackInstance(np.array([0.5]), 2.0)) \
        == pytest.approx(1.0)
    assert exact_knapsack_volume(KnapsackInstance(np.array([1.0, 1.0]), 1.0)) \
        == pytest.approx(0.5)
    assert exact_knapsack_volume(KnapsackInstance(np.array([2.0, 1.0]), 1.0)) \
        == pytest.approx(0.25)
    assert exact_knapsack_volume(KnapsackInstance(np.array([1.0, 1.0]), 2.5)) \
        == pytest.approx(1.0)
    assert exact_knapsack_volume(KnapsackInstance(np.array([1.0, 0.0]), 0.4)) \
        == pytest.approx(0.4)
    assert exact_knapsack_volume(KnapsackInstance(np.ones(3), 1.0)) is None


def frozen_piecewise_volume(inst):
    """The exact volume as it was computed before the inclusion-exclusion
    sum: a 1-D ratio, or the clipped line height integrated over its
    piecewise-linear segments."""
    w, b = inst.w, inst.b
    if inst.d == 1:
        return float(min(b / w[0], 1.0))
    if w[0] == 0.0 or w[1] == 0.0:
        i = 0 if w[0] > 0.0 else 1
        return float(min(b / w[i], 1.0))

    def height(x):
        return min(max((b - w[0] * x) / w[1], 0.0), 1.0)

    breaks = sorted({0.0, 1.0,
                     min(max((b - w[1]) / w[0], 0.0), 1.0),
                     min(max(b / w[0], 0.0), 1.0)})
    total = 0.0
    for a, c in zip(breaks[:-1], breaks[1:]):
        total += (c - a) * 0.5 * (height(a) + height(c))
    return float(total)


def test_exact_volume_matches_frozen_piecewise_integration():
    rng = np.random.default_rng(72)
    equal = 0
    for _ in range(2000):
        d = int(rng.integers(1, 3))
        w = rng.uniform(0.01, 3.0, d)
        if d == 2 and rng.uniform() < 0.15:
            w[rng.integers(2)] = 0.0
        # b from below the smallest weight to past the cube's far corner
        inst = KnapsackInstance(w, rng.uniform(0.01, 1.3) * w.sum())
        got, want = exact_knapsack_volume(inst), frozen_piecewise_volume(inst)
        assert got == pytest.approx(want, rel=0, abs=1e-14)
        equal += got == want
    assert equal >= 1500


def test_exact_volume_matches_monte_carlo():
    rng = np.random.default_rng(71)
    for _ in range(5):
        w = rng.uniform(0.2, 2.0, 2)
        b = rng.uniform(0.2, 1.5)
        inst = KnapsackInstance(w, b)
        X = rng.random((200_000, 2))
        mc = float(np.mean(X @ w <= b))
        assert exact_knapsack_volume(inst) == pytest.approx(mc, abs=5e-3)


def test_volume_via_ot_d1():
    inst = KnapsackInstance(np.array([1.0]), 0.3)
    t_hat = knapsack_volume_via_ot(inst, 4e-3, QuadratureSpec("grid", m=800))
    assert abs(t_hat - 0.3) <= 1e-2


def test_volume_via_ot_d2():
    inst = KnapsackInstance(np.array([1.0, 1.0]), 1.0)
    t_hat = knapsack_volume_via_ot(inst, 4e-3, QuadratureSpec("grid", m=120))
    assert abs(t_hat - 0.5) <= 1e-2


def test_volume_rescale_invariance():
    quad = QuadratureSpec("grid", m=80)
    a = knapsack_volume_via_ot(KnapsackInstance(np.array([2.0, 1.0]), 1.0), 1e-2, quad)
    b = knapsack_volume_via_ot(KnapsackInstance(np.array([6.0, 3.0]), 3.0), 1e-2, quad)
    assert a == b


# ------------------------------------------------- sorted two-point oracle

def frozen_wc_from_costs(t, c1, c2):
    """The two-point oracle as it was before the sort: every golden-section
    step re-reads all N quadrature costs."""
    span = 2.0 * float(max(c1.max(), c2.max()))

    def dual(delta):
        return t * delta - float(np.maximum(delta - c1, -c2).mean())

    return _golden_max(dual, -span, span)


# the one-shot benchmark's volume instances, with the volume each returned
# at delta 1e-3 under the frozen oracle (dyadic, so compared exactly)
BENCH_VOLUMES = [
    (KnapsackInstance(np.array([2.0]), 0.6), QuadratureSpec("grid", m=400), 0.2998046875),
    (KnapsackInstance(np.array([1.0, 1.0]), 1.0), QuadratureSpec("grid", m=400), 0.5),
    (KnapsackInstance(np.array([2.0, 1.0]), 1.0), QuadratureSpec("grid", m=400), 0.25),
    (KnapsackInstance(np.array([1.0, 2.0, 3.0]), 2.0), QuadratureSpec("grid", m=40),
     0.1943359375),
    (KnapsackInstance(np.ones(5), 2.5), QuadratureSpec("monte-carlo", n=50_000, seed=0),
     0.5009765625),
]
MC5D_FROZEN_VOLUMES = [0.5009765625, 0.5029296875, 0.5029296875, 0.50244140625,
                       0.49853515625, 0.4990234375, 0.50244140625, 0.49951171875]


@pytest.mark.parametrize("inst, quad, volume", BENCH_VOLUMES)
def test_sorted_oracle_matches_frozen_copy(inst, quad, volume):
    c1, c2 = _quad_costs(inst, quad)
    wc = _two_point_dual(c1, c2)
    for t in np.linspace(0.0, 1.0, 50):
        assert abs(wc(t) - frozen_wc_from_costs(t, c1, c2)) <= 1e-12
    assert knapsack_volume_via_ot(inst, 1e-3, quad) == volume


def test_sorted_oracle_mc5d_volumes_match_frozen_copy():
    inst = KnapsackInstance(np.ones(5), 2.5)
    for seed, volume in enumerate(MC5D_FROZEN_VOLUMES):
        quad = QuadratureSpec("monte-carlo", n=50_000, seed=seed)
        assert knapsack_volume_via_ot(inst, 1e-3, quad) == volume


def test_sorted_oracle_reaches_breakpoint_maximum():
    # the dual t delta - mean(max(delta - c1, -c2)) is concave and piecewise
    # linear with kinks at d = c1 - c2, so for t in [0, 1] its maximum is
    # attained at one of the d_k
    rng = np.random.default_rng(73)
    for trial in range(60):
        N = int(rng.integers(1, 201))
        c1 = rng.uniform(0.0, 3.0, N)
        c2 = rng.uniform(0.0, 3.0, N)
        if trial % 3 == 0:  # tied costs and tied differences
            c1, c2 = np.round(c1 * 4.0) / 4.0, np.round(c2 * 4.0) / 4.0
        wc = _two_point_dual(c1, c2)
        d = c1 - c2
        for t in (0.0, 1.0, *rng.uniform(0.0, 1.0, 4)):
            brute = max(t * dk - float(np.maximum(dk - c1, -c2).mean()) for dk in d)
            assert abs(wc(t) - brute) <= 1e-9
