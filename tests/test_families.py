"""Divided differences, confluent limits, and family metadata."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab import kernels
from moilab.errors import OrderLimitError, ParameterError
from moilab.families import (
    FunctionFamily,
    bump,
    classify,
    divided_difference,
    divided_difference_tensor,
    exponential,
    family_from_spec,
    fourier,
    gaussian,
    monomial,
    recip_plus,
    runge,
)
from moilab.families import _bump_numerators, _horner
from moilab.kernels import (
    _colex_ranks,
    _gathered,
    _hermite_table,
    _indexed_divided_differences,
    _near_span,
    _table_levels,
)
from moilab.rng import gue_like_pair

# dd of exp(-x^2) on nodes (0.1, 0.2, 0.3), computed with the mpmath table
# recursion at 60 significant digits (mp_confluent_dd); frozen here.
GAUSSIAN_DD2_ORACLE = -0.879892964212509


def mp_confluent_dd(fn, nodes, dps=60):
    """The confluent divided-difference table at dps digits, no node merged.

    Exactly equal nodes take mpmath derivatives f^(j)(x)/j!; every other
    entry is a difference quotient, whose cancellation the digits absorb.
    """
    import mpmath as mp

    with mp.workdps(dps):
        z = sorted(mp.mpf(float(x)) for x in nodes)
        col = [fn(x) for x in z]
        for j in range(1, len(z)):
            col = [
                mp.diff(fn, z[i], j) / mp.factorial(j) if z[i + j] == z[i]
                else (col[i + 1] - col[i]) / (z[i + j] - z[i])
                for i in range(len(z) - j)
            ]
        return complex(col[0])


def test_first_difference_of_square_is_node_sum():
    f = monomial(2)
    assert divided_difference(f, (2.0, 5.0)) == pytest.approx(7.0, abs=1e-12)


def test_second_difference_of_cube_is_symmetric_sum():
    f = monomial(3)
    assert divided_difference(f, (0.0, 1.0, 2.0)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_confluent_block_gives_scaled_derivative(n):
    lam = 0.37
    for fam in (gaussian(), runge(), fourier(1.3), exponential()):
        got = divided_difference(fam, (lam,) * (n + 1))
        want = complex(fam.eval(n, lam)) / math.factorial(n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_fourier_sup_past_the_largest_float_is_inf():
    # sup |f^(j)| = |s|^j: at s = 1e20 it passes the largest float at j = 16,
    # which is declared as inf, not raised as an OverflowError
    f = fourier(1e20)
    assert f.sup_abs_deriv(15, (0.0, 1.0)) == 1e20 ** 15
    assert f.sup_abs_deriv(16, (0.0, 1.0)) == math.inf
    assert f.eval(1, 0.0) == 1e20j


def test_fourier_derivative_past_the_largest_float_raises():
    # f^(16) = (i s)^16 exp(i s x) at s = 1e20 is past the largest float: a
    # typed error that names s and j, not the Python power's OverflowError
    with pytest.raises(ParameterError, match=r"s = 1e\+20 .* j = 16"):
        fourier(1e20).eval(16, 0.0)
    assert fourier(1e20).eval(15, 0.0) == (1e20j) ** 15


def test_gaussian_dd2_matches_high_precision_oracle():
    import mpmath as mp

    regenerated = mp_confluent_dd(lambda x: mp.e ** (-x * x), (0.1, 0.2, 0.3))
    assert regenerated.real == pytest.approx(GAUSSIAN_DD2_ORACLE, rel=1e-14)
    got = divided_difference(gaussian(), (0.1, 0.2, 0.3))
    assert got.real == pytest.approx(GAUSSIAN_DD2_ORACLE, rel=1e-12)
    assert got.imag == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.permutations([0.0, 0.45, -1.2, 2.3]),
)
def test_permutation_symmetry(perm):
    f = gaussian()
    base = divided_difference(f, (0.0, 0.45, -1.2, 2.3))
    assert divided_difference(f, tuple(perm)) == pytest.approx(base, rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=5))
def test_permutation_symmetry_generated_nodes(nodes):
    f = runge()
    base = divided_difference(f, nodes)
    reversed_ = divided_difference(f, list(reversed(nodes)))
    rotated = divided_difference(f, nodes[1:] + nodes[:1])
    assert reversed_ == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert rotated == pytest.approx(base, rel=1e-9, abs=1e-12)


@st.composite
def _permuted_node_tuples(draw):
    """A node tuple with repeated and near-repeated nodes, and a permutation of it.
    Offsets of 1e-12 and 1e-9 fall below the merge gap 1e-7 (1 + max |node|);
    1e-6 and 1e-4 do not."""
    nodes = []
    for x in draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            nodes.append(x + draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, -1e-4])))
    return nodes, draw(st.permutations(nodes))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_permuted_node_tuples(), st.sampled_from([gaussian(), runge(), fourier(0.7)]))
def test_divided_difference_bit_equal_under_permutation(pair, f):
    nodes, perm = pair
    got, want = divided_difference(f, perm), divided_difference(f, nodes)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (nodes, perm, got, want)


@pytest.mark.parametrize("fam", [gaussian(), runge(), exponential(), fourier(0.7)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_consistency(fam, n):
    # f[n](l0..ln) * (ln - l_{n-1}) == f[n-1](l0..l_{n-2}, ln) - f[n-1](l0..l_{n-1})
    nodes = [-1.1, 0.2, 0.9, 1.7, 2.4][: n + 1]
    lhs = divided_difference(fam, nodes) * (nodes[-1] - nodes[-2])
    rhs = divided_difference(fam, nodes[:-2] + [nodes[-1]]) - divided_difference(
        fam, nodes[:-1]
    )
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_confluent_continuity_monotone_decay():
    # as the gap shrinks geometrically the value approaches the merged value
    f = gaussian()
    lam = 0.6
    merged = divided_difference(f, (lam, lam, 1.4))
    gaps = [2.0 ** -k for k in range(3, 16)]
    errs = [abs(divided_difference(f, (lam, lam + g, 1.4)) - merged) for g in gaps]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3 * errs[0]


def test_sub_tolerance_gap_uses_confluent_values():
    f = gaussian()
    lam = 0.25
    tiny = 1e-12  # far below the merge tolerance
    got = divided_difference(f, (lam, lam + tiny, lam - tiny))
    want = f.eval(2, lam) / 2.0
    assert got.real == pytest.approx(want, rel=1e-9)


def test_confluent_bound_matches_derivative_sup():
    f = gaussian()
    for lam in np.linspace(-2, 2, 9):
        val = abs(divided_difference(f, (lam,) * 3))
        assert val <= f.sup_abs_deriv(2, (-2.0, 2.0)) / 2.0 + 1e-12


def test_order_above_max_order_raises():
    f = recip_plus()
    with pytest.raises(OrderLimitError):
        divided_difference(f, (0.0, 0.5, 1.0, 1.5))


def test_merged_blocks_take_the_confluent_value():
    # gaps of 1e-10 fall below the merge gap 1e-7 (1 + 5): each pair becomes
    # a doubled node at its mean, and f[a, a, b, b] is the Hermite value
    f = gaussian()
    got = divided_difference(f, [1.0, 1.0 + 1e-10, 5.0, 4.9999999999])
    a, b = float(np.mean([1.0, 1.0 + 1e-10])), float(np.mean([4.9999999999, 5.0]))
    assert got == divided_difference(f, [a, b, a, b])
    fab = (f.eval(0, b) - f.eval(0, a)) / (b - a)
    faab, fabb = (fab - f.eval(1, a)) / (b - a), (f.eval(1, b) - fab) / (b - a)
    assert got.real == pytest.approx((fabb - faab) / (b - a), rel=1e-12)


def test_divided_difference_requires_nodes():
    with pytest.raises(ParameterError, match="at least one node"):
        divided_difference(gaussian(), [])


def test_tensor_identity_function():
    t = divided_difference_tensor(monomial(1), 1, [[0.0], [1.0]])
    assert t.shape == (1, 1)
    assert t[0, 0] == pytest.approx(1.0)


def test_tensor_square_function():
    t = divided_difference_tensor(monomial(2), 1, [[1.0, 2.0], [3.0]])
    assert np.allclose(t, [[4.0], [5.0]])


def test_tensor_matches_entrywise_calls():
    rng = np.random.default_rng(3)
    lists = [sorted(rng.uniform(-1, 1, 3)) for _ in range(3)]
    f = exponential()
    t = divided_difference_tensor(f, 2, lists)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = divided_difference(f, (lists[0][i], lists[1][j], lists[2][k]))
                assert t[i, j, k] == pytest.approx(want, rel=1e-12)


def test_tensor_validates_inputs():
    with pytest.raises(ParameterError):
        divided_difference_tensor(gaussian(), 1, [[0.0]])
    with pytest.raises(ParameterError):
        divided_difference_tensor(gaussian(), 1, [[0.0], []])


def mp_function(fam):
    """The family's f in mpmath, for the built-in families of _ALL_FAMILIES."""
    import mpmath as mp

    fid, par = fam.family_id, fam.params
    if fid == "fourier":
        return lambda x: mp.expj(mp.mpf(par["s"]) * x)
    if fid == "bump":
        def f(x):
            u = (x - mp.mpf(par["center"])) / mp.mpf(par["halfwidth"])
            return mp.exp(-1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)
        return f
    if fid == "recip_plus":
        return lambda x: 1 / (1 + x) if x >= 0 else 3.5 - 4 * mp.exp(x) + 1.5 * mp.exp(2 * x)
    return {
        "monomial3": lambda x: x ** 3,
        "exp": mp.exp,
        "gaussian": lambda x: mp.exp(-x * x),
        "runge": lambda x: 1 / (1 + x * x),
    }[fid]


def taylor_coefficient_scale(fam, k, nodes):
    """max over j <= k of sup|f^(j)|/j! * scale^(j-k) on the padded node hull.

    Rounding in a level-j value of the table, divided by k-j spans of at
    least tau, reaches order k in these units; at j = k it is sup|f^(k)|/k!.
    """
    pad = float(fam.scale)
    grid = np.linspace(min(nodes) - pad, max(nodes) + pad, 801)
    return max(np.max(np.abs(fam.eval(j, grid))) / math.factorial(j) * pad ** (j - k)
               for j in range(k + 1))


# node offsets relative to (1 + |base|): exact repeats, gaps around the 1e-8
# and 1e-7 tolerances of the scalar oracle's merge, and clear gaps
_NEAR_OFFSETS = [0.0, 1e-12, 5e-9, 1e-8, 2e-8, 9e-8, 1e-7, 1.1e-7, 2e-7, 1e-3, 0.3]
_ALL_FAMILIES = [monomial(3), exponential(), fourier(1.3), gaussian(), bump(), runge(),
                 recip_plus()]

# Bound on |table - oracle|: C_TABLE (eps + eps^(1-k/(M+1))) in units of
# taylor_coefficient_scale, the error the table's tau = eps^(1/(M+1)) scale
# rule is derived to keep.  Measured: at most 0.25 on the 120 draws below and
# 0.71 on 7500 random draws of the same strategy, both at orders 0 and 1,
# where the bound is rounding alone.  The constant rounds 0.25 up by 4x.
C_TABLE = 1.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    fam=st.sampled_from(_ALL_FAMILIES),
    order=st.integers(0, 4),
    base=st.floats(-1.5, 1.5),
    offsets=st.lists(
        st.lists(st.tuples(st.sampled_from(_NEAR_OFFSETS), st.sampled_from([-1.0, 1.0])),
                 min_size=1, max_size=3),
        min_size=5, max_size=5,
    ),
)
def test_vectorized_tensor_matches_scalar_near_tolerances(fam, order, base, offsets):
    # the tensor against a 60-digit confluent table, not the scalar routine,
    # whose node merge loses digits just above its tolerance
    order = min(order, fam.max_order)
    lists = [[base + o * sign * (1.0 + abs(base)) for o, sign in slot] for slot in offsets]
    lists = lists[: order + 1]
    t = divided_difference_tensor(fam, order, lists)
    eps = np.finfo(float).eps
    fn = mp_function(fam)
    nodes = [x for slot in lists for x in slot]
    bound = C_TABLE * (eps + eps ** (1 - order / (fam.max_order + 1))) \
        * taylor_coefficient_scale(fam, order, nodes)
    for idx in np.ndindex(t.shape):
        want = mp_confluent_dd(fn, [lists[s][i] for s, i in enumerate(idx)])
        assert abs(t[idx] - want) <= bound, (idx, abs(t[idx] - want) / bound)


def test_rows_carry_the_trailing_axes_of_a_vector_family():
    # the Fourier sweep's use of the table: exp(isx) over several s at once as
    # a trailing axis, tau = eps^(1/17)/s per entry, against one fourier(s) each;
    # the spans 0.07 take the series at s = 0.3 and 1.3 and quotients at s = 40
    s = np.array([0.3, 1.3, 40.0])
    offsets = [0.0, 1e-12, 5e-8, 1.1e-7, 0.05, 0.3]
    nodes = 0.4 + 1.4 * np.array(offsets)
    M = fourier(1.0).max_order
    rows = np.array(list(itertools.product(range(len(nodes)), repeat=4)))
    rows.sort(axis=1)
    tau = _near_span(M, 1.0) * (1.0 / s)
    levels = _table_levels(nodes[rows], tau.max(), M)
    E = np.exp(1j * np.multiply.outer(nodes, s))

    def phase(j, x):
        e = E[x]
        if j:
            e *= (1j * s) ** j
        return e

    got = _hermite_table(phase, tau, rows, levels)
    assert got.shape == (len(rows), len(s))
    for j, sj in enumerate(s):
        want = divided_difference_tensor(fourier(sj), 3, [nodes] * 4)
        np.testing.assert_array_equal(got[:, j], want.ravel())


def _table_per_row(f, nodes, rows):
    """The Hermite table run over every sorted row, with no row shared."""
    rows = np.sort(rows, axis=1)
    tau = _near_span(f.max_order, f.scale)
    levels = _table_levels(nodes[rows], np.max(tau), f.max_order)
    return _hermite_table(_gathered(f, nodes), tau, rows, levels)


def _vector_fourier(s):
    """exp(isx) over several s at once as a trailing axis, tau per entry:
    the family the Fourier sweep runs the table for."""
    def ev(j, x):
        return np.exp(1j * np.multiply.outer(x, s)) * (1j * s) ** j
    return SimpleNamespace(max_order=fourier(1.0).max_order, scale=1.0 / s, _evaluator=ev)


@pytest.mark.parametrize("fam", [gaussian(), runge(), bump(),
                                 _vector_fourier(np.array([0.3, 1.3, 40.0]))])
def test_shared_rows_keep_the_bits_of_the_table_run_per_row(fam):
    # repeated nodes (confluent entries), nodes 1e-15 apart, spans just below
    # and just above tau (the smallest tau of the vector family), and clear
    # gaps; every row of the order-4 product against the table run over each
    # row on its own
    tau = np.min(_near_span(fam.max_order, fam.scale))
    nodes = np.sort(0.4 + np.array([0.0, 1e-15, 0.999 * tau, 1.001 * tau, 0.05, 0.3]))
    rows = np.array(list(itertools.product(range(len(nodes)), repeat=5)))
    want = _table_per_row(fam, nodes, rows)
    got = _indexed_divided_differences(fam, nodes, rows.copy())
    assert got.shape == want.shape == (len(rows),) + np.shape(fam.scale)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8) for k in range(1, 7)])
def test_colex_ranks_number_the_multisets_in_order(n, k):
    rows = sorted(itertools.combinations_with_replacement(range(n), k), key=lambda r: r[::-1])
    ranks = _colex_ranks(np.array(rows, dtype=np.intp).reshape(-1, k), n)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, np.arange(math.comb(n + k - 1, k)))


def _counting_table_rows(monkeypatch):
    """The rows that reach kernels._table_levels, one count per table."""
    counts = []
    levels = kernels._table_levels

    def counting(z, near_below, max_order):
        counts.append(len(z))
        return levels(z, near_below, max_order)

    monkeypatch.setattr(kernels, "_table_levels", counting)
    return counts


def test_table_runs_once_per_distinct_multiset(monkeypatch):
    # five slots of one d = 6 spectrum: 6^5 = 7776 rows, C(10, 5) = 252 multisets
    EA = np.linalg.eigvalsh(gue_like_pair(7, 6)[0])
    counts = _counting_table_rows(monkeypatch)
    t = divided_difference_tensor(gaussian(), 4, [EA] * 5)
    assert counts == [math.comb(10, 5)]
    assert np.array_equal(t, np.transpose(t, (4, 2, 0, 3, 1)))


def test_lists_past_the_int64_rank_run_every_row(monkeypatch):
    # 20,001 distinct nodes in five slots: C(20005, 5) > 2^63 multisets, so the
    # rows are run as they are, and give the bits of a list short enough to rank
    x = np.linspace(0.0, 1.0, 20000)
    counts = _counting_table_rows(monkeypatch)
    big = divided_difference_tensor(gaussian(), 4, [x] + [[0.5]] * 4)
    small = divided_difference_tensor(gaussian(), 4, [x[:50]] + [[0.5]] * 4)
    assert counts == [20000, 50]
    assert np.array_equal(big[:50], small)


@pytest.mark.parametrize("fam", [gaussian(), fourier(40.0)])
def test_tensor_evaluates_each_derivative_once_per_distinct_node(fam):
    # repeated, near-confluent and distinct nodes across the slots: every
    # order the table asks for is evaluated at no more points than there
    # are distinct nodes
    points = {}

    def counting(j, x):
        points[j] = points.get(j, 0) + np.size(x)
        return fam._evaluator(j, x)

    counted = FunctionFamily(fam.family_id, fam.max_order, counting, bounded_deriv={},
                             vanishes_at_inf={}, scale=fam.scale)
    lists = [[0.1, 0.1 + 1e-9, 0.5, 0.1], [0.5, 0.1, 0.1 + 1e-12], [0.1, 0.3, 0.5]]
    t = divided_difference_tensor(counted, 2, lists)
    distinct = len({x for l in lists for x in l})
    assert set(points) >= {0, 2}  # confluent entries and Taylor series were taken
    assert max(points.values()) <= distinct, points
    np.testing.assert_array_equal(t, divided_difference_tensor(fam, 2, lists))


@pytest.mark.parametrize("fam,k", [(gaussian(), 3), (runge(), 3), (bump(halfwidth=2.0), 3),
                                   (fourier(1.1), 3), (recip_plus(), 1)])
def test_derivative_evaluators_match_finite_differences(fam, k):
    # central difference of eval(k) approaches eval(k+1) at O(h^2)
    pts = {"recip_plus": [-2.0, -0.5, 0.7, 3.0]}.get(fam.family_id, [-1.3, -0.2, 0.4, 1.1])
    for x in pts:
        for kk in range(k):
            errs = []
            for h in (1e-3, 5e-4):
                fd = (fam.eval(kk, x + h) - fam.eval(kk, x - h)) / (2 * h)
                errs.append(abs(fd - fam.eval(kk + 1, x)))
            if errs[0] > 1e-11:  # below that, rounding hides the h^2 law
                assert errs[1] <= 0.30 * errs[0] + 1e-12


# Bound on |eval(j, x) - f^(j)(x)|: C_EVAL * eps in units of max |f^(j)| over
# the points of the test below.  Measured: at most 3.5 (bump, order 3); the
# constant rounds it up by 4.6x.
C_EVAL = 16


@pytest.mark.parametrize("fam", _ALL_FAMILIES, ids=lambda f: f.family_id)
def test_derivative_evaluators_match_mpmath_at_every_order(fam):
    # every order up to max_order, where the Taylor entries read them, against
    # mpmath's derivative of the family's f at 60 digits
    import mpmath as mp

    pts = {"recip_plus": [-2.0, -0.5, 0.7, 3.0], "bump": [-0.6, -0.2, 0.1, 0.5]}.get(
        fam.family_id, [-1.3, -0.2, 0.4, 1.1])
    fn = mp_function(fam)
    with mp.workdps(60):
        for j in range(fam.max_order + 1):
            want = np.array([complex(mp.diff(fn, mp.mpf(x), j)) for x in pts])
            got = np.asarray(fam.eval(j, np.array(pts)))
            bound = C_EVAL * np.finfo(float).eps * np.abs(want).max()
            assert np.abs(got - want).max() <= bound, (j, np.abs(got - want).max() / bound)


@pytest.mark.parametrize("fam", _ALL_FAMILIES, ids=lambda f: f.family_id)
def test_scalar_evaluation_is_bit_equal_to_array_evaluation(fam):
    # a kernel table and an oracle may evaluate f in different shapes
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, 200)
    for j in range(fam.max_order + 1):
        whole = fam.eval(j, xs)
        moved = [x for x, w in zip(xs, whole) if fam.eval(j, x) != w]
        assert not moved, (j, len(moved))


def test_recip_plus_matches_reciprocal_on_positive_axis():
    f = recip_plus()
    x = np.linspace(0.0, 5.0, 11)
    assert np.allclose(f.eval(0, x), 1.0 / (1.0 + x))
    assert np.allclose(f.eval(1, x), -1.0 / (1.0 + x) ** 2)
    # C^2 matching at 0 from the left
    for k in (0, 1, 2):
        left = f.eval(k, -1e-9)
        right = f.eval(k, 0.0)
        assert left == pytest.approx(right, abs=1e-7)


def test_real_families_return_real_values():
    for fam in (gaussian(), runge(), bump(), monomial(3), recip_plus()):
        v = divided_difference(fam, (0.1, 0.3))
        assert abs(v.imag) == 0.0


def test_bump_numerators_match_numpy_polynomial():
    # the bump's numerators P_j are coefficient arrays evaluated by Horner's
    # rule; numpy.polynomial, a test-only oracle here, builds the same
    # recurrence: the coefficients agree exactly, the values bit for bit
    from numpy.polynomial import Polynomial

    one_minus = Polynomial([1.0, 0.0, -1.0])
    ref = [Polynomial([1.0])]
    for j in range(1, 7):
        p = ref[-1]
        ref.append(p.deriv() * one_minus ** 2
                   + (4 * (j - 1)) * Polynomial([0.0, 1.0]) * one_minus * p
                   + Polynomial([0.0, -2.0]) * p)
    polys = _bump_numerators(6)
    x = np.linspace(-3.0, 3.0, 20005)
    for center, halfwidth in ((0.0, 1.0), (0.3, 0.7)):
        u = (x - center) / halfwidth
        u = u[np.abs(u) < 1.0]
        for j in range(7):
            np.testing.assert_array_equal(polys[j], ref[j].coef)
            got, want = _horner(polys[j], u), ref[j](u)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_classify_bump_admits_everything():
    rep = classify(bump(), 3)
    assert rep.differentiable_lp
    assert rep.trace_formula_lp
    assert rep.trace_formula_schatten


def test_classify_monomial_above_order_is_moment_only():
    rep = classify(monomial(5), 3)
    assert not rep.differentiable_lp
    assert not rep.trace_formula_lp
    assert not rep.trace_formula_schatten
    assert rep.moment_identities_only


def test_classify_fourier_is_differentiable_but_not_decaying():
    rep = classify(fourier(2.5), 3)
    assert rep.differentiable_lp
    assert not rep.nth_deriv_vanishes
    assert not rep.trace_formula_lp
    assert rep.trace_formula_schatten


def test_family_from_spec_roundtrip():
    fam = family_from_spec({"id": "fourier", "s": 2.5})
    assert fam.params["s"] == 2.5
    with pytest.raises(ParameterError):
        family_from_spec({"id": "no-such-family"})
    with pytest.raises(ParameterError):
        family_from_spec({})
    with pytest.raises(ParameterError, match="foo"):
        family_from_spec({"id": "gaussian", "foo": 1})
    with pytest.raises(ParameterError):
        family_from_spec({"id": "fourier"})
    with pytest.raises(ParameterError):
        family_from_spec("gaussian")
