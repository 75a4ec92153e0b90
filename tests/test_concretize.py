import itertools
import math

import numpy as np
import pytest

from helpers import random_synonym_instance
from lirpa import (
    Graph,
    GraphError,
    Input,
    InputLayout,
    LinearBounds,
    LpBall,
    Node,
    Synonym,
    brute_force_synonym,
    concretize_bounds,
    concretize_lp,
    concretize_synonym_dp,
)


def _bounds(lw, lb, uw=None, ub=None):
    return LinearBounds(lw, lb, uw if uw is not None else lw, ub if ub is not None else lb)


def test_lp_linf_golden_from_demo_net():
    # the demo net's backward upper coefficients, rounded as published
    lb = _bounds(np.array([[0.40, 3.74]]), np.array([12.26]))
    box = concretize_lp(lb, LpBall([0.0, 1.0], 2.0, math.inf))
    assert box.upper[0] == pytest.approx(24.28, abs=1e-12)


def test_lp_l2_is_euclidean_row_norm():
    lb = _bounds(np.array([[3.0, 4.0]]), np.array([0.0]))
    box = concretize_lp(lb, LpBall([0.0, 0.0], 1.0, 2.0))
    assert box.upper[0] == pytest.approx(5.0, abs=1e-12)
    assert box.lower[0] == pytest.approx(-5.0, abs=1e-12)


def test_lp_zero_radius_is_exact_affine_value():
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, 3)
    x0 = rng.uniform(-1, 1, 4)
    box = concretize_lp(_bounds(w, b), LpBall(x0, 0.0, math.inf))
    assert box.lower == pytest.approx(w @ x0 + b, abs=0.0)
    assert box.upper == pytest.approx(w @ x0 + b, abs=0.0)


def test_lp_p1_uses_max_row_entry():
    lb = _bounds(np.array([[1.0, -3.0, 2.0]]), np.array([0.0]))
    box = concretize_lp(lb, LpBall([0.0, 0.0, 0.0], 2.0, 1.0))
    assert box.upper[0] == pytest.approx(6.0, abs=1e-12)


def test_lp_rejects_p_below_one():
    with pytest.raises(GraphError, match="p >= 1"):
        LpBall([0.0], 1.0, 0.5)


def _dyadic(rng, shape):
    return rng.integers(-64, 65, size=shape).astype(float) / 64.0


def test_linf_matches_corner_enumeration_exactly():
    # dyadic weights/centers keep all float ops exact, so equality is bitwise
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(1, 11))
        w = _dyadic(rng, (3, d))
        b = _dyadic(rng, 3)
        x0 = _dyadic(rng, d)
        eps = 0.5
        box = concretize_lp(_bounds(w, b), LpBall(x0, eps, math.inf))
        corners = np.array(list(itertools.product([-eps, eps], repeat=d))).T
        values = w @ (x0[:, None] + corners) + b[:, None]
        assert np.array_equal(box.upper, values.max(axis=1))
        assert np.array_equal(box.lower, values.min(axis=1))


def test_l2_bound_attained_at_analytic_maximizer():
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = int(rng.integers(1, 8))
        w = rng.uniform(-1, 1, (2, d))
        b = rng.uniform(-1, 1, 2)
        x0 = rng.uniform(-1, 1, d)
        eps = float(rng.uniform(0.1, 2.0))
        box = concretize_lp(_bounds(w, b), LpBall(x0, eps, 2.0))
        for row in range(2):
            direction = w[row] / max(np.linalg.norm(w[row]), 1e-30)
            attained = w[row] @ (x0 + eps * direction) + b[row]
            assert box.upper[row] == pytest.approx(attained, abs=1e-9)


def _clean_value(lb, spec, side="lower"):
    w = getattr(lb, f"{side}_w")
    b = getattr(lb, f"{side}_b")
    return w @ spec.clean_vector() + b


def test_synonym_zero_budget_is_clean_sentence():
    rng = np.random.default_rng(3)
    lb, spec = random_synonym_instance(rng)
    spec = Synonym(spec.words, spec.substitutions, spec.embeddings, 0)
    box = concretize_synonym_dp(lb, spec)
    assert box.lower == pytest.approx(_clean_value(lb, spec, "lower"), abs=1e-12)
    assert box.upper == pytest.approx(_clean_value(lb, spec, "upper"), abs=1e-12)


def test_synonym_single_word_two_candidate_min():
    spec = Synonym(
        ("a",),
        {0: ("b",)},
        {"a": np.array([1.0, 0.0]), "b": np.array([-2.0, 0.0])},
        budget=1,
    )
    lb = _bounds(np.array([[1.0, 0.0]]), np.array([0.5]))
    box = concretize_synonym_dp(lb, spec)
    assert box.lower[0] == pytest.approx(0.5 - 2.0)
    assert box.upper[0] == pytest.approx(0.5 + 1.0)


def test_synonym_dp_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        lb, spec = random_synonym_instance(rng)
        dp = concretize_synonym_dp(lb, spec)
        brute = brute_force_synonym(lb, spec)
        assert dp.lower == pytest.approx(brute.lower, abs=1e-9)
        assert dp.upper == pytest.approx(brute.upper, abs=1e-9)


def test_synonym_closed_form_edge_cases_match_brute_force():
    # ragged and empty substitution sets, budgets from 0 past the sentence
    # length, and many output rows at once
    rng = np.random.default_rng(10)
    seen = set()
    for _ in range(300):
        rows = int(rng.choice([1, 3, 40]))
        lb, spec = random_synonym_instance(
            rng, max_words=5, max_subs=4, max_budget=7, max_emb=3, rows=rows
        )
        counts = {len(spec.candidates(t)) for t in range(spec.length)}
        seen.update(
            name
            for name, hit in [
                ("no candidates", 0 in counts),
                ("ragged", len(counts - {0}) > 1),
                ("budget 0", spec.budget == 0),
                ("budget >= length", spec.budget == spec.length),
                ("many rows", rows == 40),
            ]
            if hit
        )
        box = concretize_synonym_dp(lb, spec)
        brute = brute_force_synonym(lb, spec)
        assert box.lower == pytest.approx(brute.lower, abs=1e-9)
        assert box.upper == pytest.approx(brute.upper, abs=1e-9)
    assert len(seen) == 5


def test_synonym_full_budget_is_per_position_extreme():
    rng = np.random.default_rng(5)
    lb, spec = random_synonym_instance(rng, max_words=4)
    spec = Synonym(spec.words, spec.substitutions, spec.embeddings, spec.length)
    box = concretize_synonym_dp(lb, spec)
    d = spec.embedding_dim
    lower = lb.lower_b.copy()
    upper = lb.upper_b.copy()
    for t in range(spec.length):
        wl = lb.lower_w[:, t * d:(t + 1) * d]
        wu = lb.upper_w[:, t * d:(t + 1) * d]
        options = [spec.embedding(spec.words[t])] + [spec.embedding(w) for w in spec.candidates(t)]
        lower += np.stack([wl @ e for e in options]).min(axis=0)
        upper += np.stack([wu @ e for e in options]).max(axis=0)
    assert box.lower == pytest.approx(lower, abs=1e-9)
    assert box.upper == pytest.approx(upper, abs=1e-9)


def test_synonym_empty_substitution_sets_keep_clean_point():
    rng = np.random.default_rng(6)
    lb, spec = random_synonym_instance(rng, max_subs=0)
    box = concretize_synonym_dp(lb, spec)
    assert box.lower == pytest.approx(_clean_value(lb, spec, "lower"), abs=1e-12)
    assert box.upper == pytest.approx(_clean_value(lb, spec, "upper"), abs=1e-12)


def test_synonym_budget_clamps_to_length():
    rng = np.random.default_rng(7)
    lb, spec = random_synonym_instance(rng, max_words=3)
    clamped = Synonym(spec.words, spec.substitutions, spec.embeddings, 99)
    full = Synonym(spec.words, spec.substitutions, spec.embeddings, spec.length)
    a = concretize_synonym_dp(lb, clamped)
    b = concretize_synonym_dp(lb, full)
    assert a.lower == pytest.approx(b.lower, abs=0.0)
    assert a.upper == pytest.approx(b.upper, abs=0.0)


def test_synonym_budget_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        lb, spec = random_synonym_instance(rng)
        prev = None
        for budget in range(spec.length + 1):
            box = concretize_synonym_dp(
                lb, Synonym(spec.words, spec.substitutions, spec.embeddings, budget)
            )
            if prev is not None:
                assert np.all(box.lower <= prev.lower + 1e-12)
                assert np.all(box.upper >= prev.upper - 1e-12)
            prev = box


def test_dp_table_clean_prefix_row():
    # with no substitutions allowed, every prefix of the sentence is bounded
    # by its clean value, accumulated left to right
    rng = np.random.default_rng(9)
    lb, spec = random_synonym_instance(rng)
    d = spec.embedding_dim
    acc = lb.lower_b.copy()
    for i in range(1, spec.length + 1):
        wt = lb.lower_w[:, (i - 1) * d:i * d]
        acc = acc + wt @ spec.embedding(spec.words[i - 1])
        subs = {t: ws for t, ws in spec.substitutions.items() if t < i}
        prefix = Synonym(spec.words[:i], subs, spec.embeddings, 0)
        w = lb.lower_w[:, :i * d]
        box = concretize_synonym_dp(_bounds(w, lb.lower_b), prefix)
        assert box.lower == pytest.approx(acc, abs=1e-12)
        assert box.upper == pytest.approx(acc, abs=1e-12)


def test_concretize_rejects_mismatched_columns():
    lb = _bounds(np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(GraphError, match="columns"):
        concretize_lp(lb, LpBall([0.0, 0.0], 1.0, 2.0))
    spec = Synonym(("a",), {}, {"a": np.array([1.0, 2.0])}, 0)
    with pytest.raises(GraphError, match="columns"):
        concretize_synonym_dp(lb, spec)


def test_brute_force_guard_trips():
    words = tuple(f"w{t}" for t in range(8))
    embeddings = {w: np.zeros(1) for w in words}
    subs = {}
    for t in range(8):
        names = tuple(f"w{t}s{k}" for k in range(7))
        subs[t] = names
        embeddings.update({name: np.zeros(1) for name in names})
    spec = Synonym(words, subs, embeddings, 8)
    lb = _bounds(np.zeros((1, 8)), np.zeros(1))
    with pytest.raises(GraphError, match="guard"):
        brute_force_synonym(lb, spec)


def test_concretize_bounds_mixes_heterogeneous_blocks():
    from lirpa import Constant

    spec_syn = Synonym(
        ("a", "b"),
        {0: ("c",), 1: ("d",)},
        {
            "a": np.array([1.0]),
            "b": np.array([0.0]),
            "c": np.array([-1.0]),
            "d": np.array([2.0]),
        },
        budget=1,
    )
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Input(), (), 2),
        Node(2, Input(), (), 1),
    )
    g = Graph(nodes, 0)
    specs = {
        0: LpBall([0.0, 0.0], 1.0, math.inf),
        1: spec_syn,
        2: Constant([5.0]),
    }
    layout = InputLayout.from_specs(g, specs)
    assert layout.dim == 4  # constant carries no columns
    w = np.array([[1.0, 1.0, 1.0, 1.0]])
    lb = LinearBounds(w, np.array([0.0]), w, np.array([0.0]))
    box = concretize_bounds(lb, layout, specs)
    # ball block: +/-2; synonym block: clean (1, 0), best single swap
    # lower: -2 + min(1+0, -1+0, 1+2 -> swap to -1 or d) = -2 + (-1)
    assert box.lower[0] == pytest.approx(-2.0 + -1.0)
    assert box.upper[0] == pytest.approx(2.0 + 3.0)


def test_concretize_bounds_is_sum_of_per_block_concretizers():
    rng = np.random.default_rng(11)
    for _ in range(50):
        syn_lb, spec = random_synonym_instance(rng, rows=4)
        m = int(rng.integers(1, 5))
        p = float(rng.choice([1.0, 2.0, math.inf]))
        ball = LpBall(rng.uniform(-1, 1, m), float(rng.uniform(0, 1)), p)
        wl, wu = rng.uniform(-1, 1, (2, 4, m))
        g = Graph((Node(0, Input(), (), m), Node(1, Input(), (), syn_lb.input_dim)), 0)
        specs = {0: ball, 1: spec}
        lb = LinearBounds(
            np.hstack([wl, syn_lb.lower_w]),
            syn_lb.lower_b,
            np.hstack([wu, syn_lb.upper_w]),
            syn_lb.upper_b,
        )
        box = concretize_bounds(lb, InputLayout.from_specs(g, specs), specs)
        lp = concretize_lp(LinearBounds(wl, np.zeros(4), wu, np.zeros(4)), ball)
        syn = concretize_synonym_dp(syn_lb, spec)
        assert box.lower == pytest.approx(lp.lower + syn.lower, abs=1e-12)
        assert box.upper == pytest.approx(lp.upper + syn.upper, abs=1e-12)


def _two_word_spec():
    return Synonym(("a", "b"), {0: ("c",)}, {w: np.ones(2) for w in "abc"}, budget=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("budget", 5),
        ("words", ("a",)),
        ("substitutions", {}),
        ("embeddings", {}),
        ("option_table", None),
    ],
)
def test_synonym_rejects_attribute_assignment(field, value):
    spec = _two_word_spec()
    with pytest.raises(AttributeError):
        setattr(spec, field, value)


def test_synonym_mappings_and_arrays_are_read_only():
    spec = _two_word_spec()
    with pytest.raises(TypeError):
        spec.embeddings["a"] = np.zeros(2)
    with pytest.raises(TypeError):
        spec.substitutions[1] = ("c",)
    with pytest.raises(ValueError, match="read-only"):
        spec.embeddings["a"][0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        spec.option_table[0, 0, 0] = np.nan


def test_synonym_copies_caller_data():
    emb = {w: np.ones(2) for w in "abc"}
    subs = {0: ("c",)}
    spec = Synonym(("a", "b"), subs, emb, budget=1)
    emb["a"][0] = 7.0
    subs[1] = ("c",)
    assert spec.embeddings["a"][0] == 1.0
    assert spec.candidates(1) == ()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_specs_reject_non_finite_numbers(bad):
    from lirpa import Constant

    with pytest.raises(GraphError, match="finite"):
        Constant([bad])
    with pytest.raises(GraphError, match="finite"):
        Synonym(("a",), {}, {"a": np.array([1.0, bad])}, 0)
    with pytest.raises(GraphError, match="finite"):
        LpBall([0.0, bad], 1.0, math.inf)
    with pytest.raises(GraphError, match="finite"):
        LpBall([0.0], bad, math.inf)


def test_lp_and_constant_arrays_are_read_only():
    from lirpa import Constant

    with pytest.raises(ValueError, match="read-only"):
        LpBall([0.0], 1.0, 2.0).center[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        Constant([0.0]).value[0] = 1.0
