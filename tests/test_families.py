"""Divided differences, confluent limits, and family metadata."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moilab.errors import DomainError, OrderLimitError, ParameterError
from moilab.families import (
    FunctionFamily,
    NodeList,
    bump,
    classify,
    divided_difference,
    divided_difference_rows,
    divided_difference_tensor,
    exponential,
    family_from_spec,
    fourier,
    gaussian,
    monomial,
    recip_plus,
    runge,
)

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8))
def test_nodelist_merge_invariant(nodes):
    from moilab.families import merge_tolerance

    nl = NodeList(nodes)
    tol = merge_tolerance(nodes)
    reps, mults = nl.merged(tol)
    assert int(np.sum(mults)) == len(nodes)
    if len(reps) > 1:
        assert np.all(np.diff(reps) > tol)


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
        assert val <= f.sup_abs_deriv(2) / 2.0 + 1e-12


def test_order_above_max_order_raises():
    f = recip_plus()
    with pytest.raises(OrderLimitError):
        divided_difference(f, (0.0, 0.5, 1.0, 1.5))


def test_domain_violation_raises():
    f = gaussian()
    f.domain = (-1.0, 1.0)
    with pytest.raises(DomainError):
        divided_difference(f, (0.0, 2.0))


def test_nodelist_merging_structure():
    nl = NodeList([1.0, 1.0 + 1e-10, 5.0, 4.9999999999])
    reps, mults = nl.merged(tol=1e-6)
    assert len(reps) == 2
    assert mults.tolist() == [2, 2]
    assert np.all(np.diff(reps) > 1e-6)


def test_nodelist_requires_nodes():
    with pytest.raises(ParameterError):
        NodeList([])


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
    # one family per entry of s, evaluated at once, against one fourier(s) each
    s = np.array([0.3, 1.3, 40.0])
    vec = FunctionFamily(
        "fourier_vec", fourier(1.0).max_order,
        lambda j, x, cols=slice(None):
            (1j * s[cols]) ** j * np.exp(1j * np.multiply.outer(x, s[cols])),
        bounded_deriv={}, vanishes_at_inf={}, real_valued=False, scale=1.0 / s,
    )
    offsets = [0.0, 1e-12, 5e-8, 1.1e-7, 0.3]
    rows = 0.4 + 1.4 * np.array(list(itertools.product(offsets, repeat=4)))
    got = divided_difference_rows(vec, rows)
    assert got.shape == (len(rows), len(s))
    for j, sj in enumerate(s):
        np.testing.assert_array_equal(got[:, j], divided_difference_rows(fourier(sj), rows))


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
        assert fam.real_valued
        v = divided_difference(fam, (0.1, 0.3))
        assert abs(v.imag) == 0.0


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
