import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprune.errors import AllocationError, ShapeMismatchError
from rankprune.pruning import (
    apply_head_pruning,
    apply_pruning,
    channel_scores,
    decide_head_pruning,
    decide_pruning,
    energy_rank_ratio,
    group_scores,
    head_scores,
    mask_to_pgm,
    wanda_mask,
    weight_importance,
)
from rankprune.transformer import silu


def sort_oracle(scores, keep_ratio, retain_least):
    """Stated selection rule via plain python sorting: top block by
    (-score, index), bottom block by (score, index) skipping top members."""
    d_m = len(scores)
    n_retained = int(np.floor(keep_ratio * d_m + 0.5))
    n_bottom = min(max(1, int(np.floor(retain_least * d_m))) if retain_least > 0 else 0, n_retained)
    n_top = n_retained - n_bottom
    by_desc = sorted(range(d_m), key=lambda i: (-scores[i], i))
    top = by_desc[:n_top]
    by_asc = sorted(range(d_m), key=lambda i: (scores[i], i))
    bottom = [i for i in by_asc if i not in set(top)][:n_bottom]
    return sorted(top + bottom), set(top), set(bottom)


# ---------------------------------------------------------------------------
# Importance and scores


def test_weight_importance_zero_weight():
    assert np.all(weight_importance(np.zeros((3, 4)), np.ones(4)) == 0.0)


def test_weight_importance_unit_norms_is_abs():
    w = np.array([[1.0, -2.0], [3.0, -4.0]])
    assert np.allclose(weight_importance(w, np.ones(2)), np.abs(w))


def test_weight_importance_hand_case():
    w = np.array([[1.0, -2.0], [3.0, 4.0]])
    x = np.array([2.0, 1.0])
    assert np.allclose(weight_importance(w, x), [[2.0, 2.0], [6.0, 4.0]])


def test_weight_importance_shape_check():
    with pytest.raises(ShapeMismatchError):
        weight_importance(np.zeros((2, 3)), np.ones(2))


def test_channel_scores_345():
    imp = np.array([[3.0, 4.0]])
    assert channel_scores(imp, "l2")[0] == pytest.approx(5.0)
    assert channel_scores(imp, "l1")[0] == pytest.approx(7.0)
    assert channel_scores(imp, "linf")[0] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        channel_scores(imp, "l3")


def test_channel_scores_brute_force():
    rng = np.random.default_rng(0)
    imp = np.abs(rng.normal(size=(8, 8)))
    got = channel_scores(imp, "l2")
    want = [np.sqrt(sum(imp[i, j] ** 2 for j in range(8))) for i in range(8)]
    assert np.allclose(got, want, atol=1e-10)


def test_group_scores_zero_everything():
    assert np.all(group_scores(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((3, 4)), np.ones(3), np.ones(4)) == 0.0)


def test_group_scores_locality():
    up = np.zeros((4, 3))
    up[2, 1] = 5.0
    scores = group_scores(up, np.zeros((4, 3)), np.zeros((3, 4)), np.ones(3), np.ones(4))
    assert scores[2] > 0.0
    assert np.all(scores[[0, 1, 3]] == 0.0)


def test_group_scores_hand_case():
    # 4 intermediate channels, d=4; all-ones stats, hand-set weights
    rng = np.random.default_rng(1)
    up = rng.integers(-3, 4, size=(4, 4)).astype(float)
    gate = rng.integers(-3, 4, size=(4, 4)).astype(float)
    down = rng.integers(-3, 4, size=(4, 4)).astype(float)
    x_in = np.array([1.0, 2.0, 1.0, 0.5])
    x_mid = np.array([2.0, 1.0, 1.0, 3.0])
    got = group_scores(up, gate, down, x_in, x_mid)
    for i in range(4):
        s_up = np.sqrt(np.sum((np.abs(up[i]) * x_in) ** 2))
        s_gate = np.sqrt(np.sum((np.abs(gate[i]) * x_in) ** 2))
        s_down = np.sqrt(np.sum((np.abs(down[:, i]) * x_mid[i]) ** 2))
        assert got[i] == pytest.approx(s_up + s_gate + s_down, rel=1e-12)


def test_group_scores_permutation_equivariance():
    rng = np.random.default_rng(2)
    up, gate = rng.normal(size=(2, 10, 6))
    down = rng.normal(size=(6, 10))
    x_in = rng.uniform(0.1, 2.0, size=6)
    x_mid = rng.uniform(0.1, 2.0, size=10)
    base = group_scores(up, gate, down, x_in, x_mid)
    perm = rng.permutation(10)
    permuted = group_scores(up[perm], gate[perm], down[:, perm], x_in, x_mid[perm])
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_group_scores_scale_invariance_of_selection():
    rng = np.random.default_rng(3)
    up, gate = rng.normal(size=(2, 12, 5))
    down = rng.normal(size=(5, 12))
    x_in = rng.uniform(0.1, 2.0, size=5)
    x_mid = rng.uniform(0.1, 2.0, size=12)
    s1 = group_scores(up, gate, down, x_in, x_mid)
    s2 = group_scores(up, gate, down, 4.0 * x_in, 4.0 * x_mid)
    assert np.allclose(s2, 4.0 * s1, rtol=1e-12)
    d1 = decide_pruning(s1, 0.5, 0.01)
    d2 = decide_pruning(s2, 0.5, 0.01)
    assert np.array_equal(d1.retained, d2.retained)


# ---------------------------------------------------------------------------
# decide / apply


def test_decide_pruning_counts_example():
    rng = np.random.default_rng(4)
    scores = rng.uniform(size=128)
    dec = decide_pruning(scores, 0.8, 0.01)
    assert dec.retained.size == 102
    assert dec.provenance.count("bottom") == 1
    assert sum(1 for p in dec.provenance if p == "top") == 101


def test_decide_pruning_keep_all():
    dec = decide_pruning(np.arange(10.0), 1.0, 0.01)
    assert dec.retained.tolist() == list(range(10))


def test_decide_pruning_pure_topk():
    scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    dec = decide_pruning(scores, 0.6, 0.0)
    assert dec.retained.tolist() == [0, 2, 4]
    assert dec.provenance.count("bottom") == 0


def test_decide_pruning_bottom_is_least():
    scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0] * 20)
    dec = decide_pruning(scores, 0.5, 0.02)
    assert dec.provenance.count("bottom") == 2
    bottoms = [i for i, p in zip(dec.retained, dec.provenance) if p == "bottom"]
    assert all(scores[b] == 1.0 for b in bottoms)


def test_decide_pruning_tie_break_lower_index():
    dec = decide_pruning(np.ones(8), 0.5, 0.0)
    assert dec.retained.tolist() == [0, 1, 2, 3]


def test_decide_pruning_infeasible():
    with pytest.raises(AllocationError):
        decide_pruning(np.ones(3), 0.1, 0.0)
    with pytest.raises(ValueError):
        decide_pruning(np.ones(3), 0.5, 0.9)


@settings(max_examples=200, deadline=None)
@given(
    d_m=st.integers(min_value=1, max_value=64),
    keep=st.floats(min_value=0.05, max_value=1.0),
    retain_least=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
    tie_prob=st.floats(min_value=0.0, max_value=0.9),
)
def test_decide_pruning_matches_sort_oracle(d_m, keep, retain_least, seed, tie_prob):
    if retain_least >= keep:
        retain_least = keep / 2.0
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=d_m)
    scores[rng.uniform(size=d_m) < tie_prob] = 0.5  # force ties
    try:
        dec = decide_pruning(scores, keep, retain_least)
    except AllocationError:
        assert int(np.floor(keep * d_m + 0.5)) < 1
        return
    retained, top, bottom = sort_oracle(scores, keep, retain_least)
    assert dec.retained.tolist() == retained
    assert {int(i) for i, p in zip(dec.retained, dec.provenance) if p == "top"} == top
    assert {int(i) for i, p in zip(dec.retained, dec.provenance) if p == "bottom"} == bottom


def test_decide_pruning_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d_m = int(rng.integers(2, 64))
        scores = rng.uniform(size=d_m)
        keep = float(rng.uniform(0.3, 1.0))
        dec = decide_pruning(scores, keep, 0.01)
        retained_set = set(dec.retained.tolist())
        pruned = [i for i in range(d_m) if i not in retained_set]
        tops = [i for i, p in zip(dec.retained, dec.provenance) if p == "top"]
        bots = [i for i, p in zip(dec.retained, dec.provenance) if p == "bottom"]
        assert not (set(tops) & set(bots))
        if pruned:
            assert all(scores[t] >= max(scores[p] for p in pruned) - 1e-12 for t in tops)
            assert all(scores[b] <= min(scores[p] for p in pruned) + 1e-12 for b in bots)


def _ffn_forward(up, gate, down, x):
    return (silu(x @ gate.T) * (x @ up.T)) @ down.T


def test_apply_pruning_retain_all_unchanged():
    rng = np.random.default_rng(6)
    up, gate = rng.normal(size=(2, 6, 4))
    down = rng.normal(size=(4, 6))
    dec = decide_pruning(np.arange(6.0), 1.0, 0.0)
    u, g, d = apply_pruning(up, gate, down, dec)
    assert np.array_equal(u, up) and np.array_equal(g, gate) and np.array_equal(d, down)


def test_apply_pruning_matches_masked_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, d_m, n = 8, 12, 5
        up, gate = rng.normal(size=(2, d_m, d))
        down = rng.normal(size=(d, d_m))
        x = rng.normal(size=(n, d))
        scores = rng.uniform(size=d_m)
        dec = decide_pruning(scores, float(rng.uniform(0.2, 1.0)), 0.01)
        u, g, dn = apply_pruning(up, gate, down, dec)
        pruned_out = _ffn_forward(u, g, dn, x)
        inter = silu(x @ gate.T) * (x @ up.T)
        mask = np.zeros(d_m)
        mask[dec.retained] = 1.0
        oracle = (inter * mask[None, :]) @ down.T
        assert np.max(np.abs(pruned_out - oracle)) < 1e-6


def test_apply_pruning_single_channel_shapes():
    rng = np.random.default_rng(8)
    up, gate = rng.normal(size=(2, 5, 3))
    down = rng.normal(size=(3, 5))
    dec = decide_pruning(np.arange(5.0), 0.2, 0.0)
    u, g, d = apply_pruning(up, gate, down, dec)
    assert u.shape == (1, 3) and g.shape == (1, 3) and d.shape == (3, 1)


def test_apply_pruning_index_out_of_range():
    from rankprune.pruning import PruneDecision

    bad = PruneDecision(retained=np.array([5]), provenance=("top",))
    with pytest.raises(IndexError):
        apply_pruning(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 3)), bad)


# ---------------------------------------------------------------------------
# Mask diagnostics


def test_wanda_mask_zero_sparsity_keeps_all():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(5, 5))
    mask, _ = wanda_mask(w, np.ones(5), 0.0)
    assert mask.all()


def test_wanda_mask_half_sparsity_keeps_largest():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(4, 4))
    x = rng.uniform(0.5, 2.0, size=4)
    mask, _ = wanda_mask(w, x, 0.5)
    imp = np.abs(w) * x[None, :]
    assert mask.sum() == 8
    kept = sorted(imp[mask].tolist())
    dropped = sorted(imp[~mask].tolist())
    assert min(kept) >= max(dropped)


def test_wanda_mask_uniform_ties_deterministic():
    w = np.ones((4, 4))
    mask, _ = wanda_mask(w, np.ones(4), 0.5)
    assert mask.sum() == 8
    # lower row-major positions win ties
    assert mask.ravel()[:8].all() and not mask.ravel()[8:].any()


def test_pgm_bytes():
    mask = np.array([[True, False], [False, True], [True, True]])
    pgm = mask_to_pgm(mask)
    assert pgm.startswith(b"P5\n2 3\n255\n")
    assert pgm[len(b"P5\n2 3\n255\n") :] == bytes([255, 0, 0, 255, 255, 255])


# ---------------------------------------------------------------------------
# Spectral diagnostics


def test_energy_rank_ratio_diag_hand_case():
    v = energy_rank_ratio(np.diag([3.0, 2.0, 1.0]), 0.5)
    assert v == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert round(v, 2) == 33.33


def test_energy_rank_ratio_identity_flat_spectrum():
    for n in (4, 5, 10):
        v = energy_rank_ratio(np.eye(n), 0.8)
        assert v == pytest.approx(100.0 * np.ceil(0.8 * n) / n, abs=1e-9)


def test_energy_rank_ratio_rank_one():
    rng = np.random.default_rng(11)
    w = np.outer(rng.normal(size=6), rng.normal(size=4))
    assert energy_rank_ratio(w, 0.9) == pytest.approx(100.0 / 4.0, abs=1e-9)


def test_energy_rank_ratio_zero_matrix():
    assert energy_rank_ratio(np.zeros((3, 3)), 0.5) == 0.0


def test_energy_rank_ratio_sigma_flag():
    # sigma mass needs more values than sigma^2 mass on a decaying spectrum
    w = np.diag([10.0, 1.0, 0.5, 0.1])
    assert energy_rank_ratio(w, 0.9, use_singular_values=True) >= energy_rank_ratio(w, 0.9)


def test_energy_rank_ratio_keeps_the_svd_fallbacks(monkeypatch):
    import scipy.linalg

    from rankprune.errors import DecompositionError

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    w = np.diag([3.0, 2.0, 1.0])
    monkeypatch.setattr(np.linalg, "svd", boom)
    assert energy_rank_ratio(w, 0.5) == pytest.approx(100.0 / 3.0, abs=1e-9)
    monkeypatch.setattr(scipy.linalg, "svd", boom)
    with pytest.raises(DecompositionError):
        energy_rank_ratio(w, 0.5)


# ---------------------------------------------------------------------------
# Head pruning diagnostic


def test_head_scores_locality():
    d, n_heads, d_h = 8, 2, 4
    q = np.zeros((d, d))
    k = np.zeros((d, d))
    v = np.zeros((d, d))
    o = np.zeros((d, d))
    q[5, :] = 3.0  # row 5 belongs to head 1
    scores = head_scores(q, k, v, o, np.ones(d), np.ones(d), n_heads, d_h)
    assert scores[1] > 0.0 and scores[0] == 0.0


def test_decide_head_pruning_top_heads():
    kept = decide_head_pruning(np.array([1.0, 5.0, 3.0, 5.0]), 0.5)
    assert kept == (1, 3)  # tie at 5.0 resolves to the lower index first
    assert decide_head_pruning(np.array([1.0, 2.0]), 0.1) == (1,)


def test_apply_head_pruning_matches_zeroed_value_oracle(random_model):
    from helpers import random_token_stream
    from rankprune.transformer import Dense, TransformerLayer, forward

    cfg = random_model.config
    layer = random_model.layers[0]
    kept = (0, 2, 3)
    q, k, v, o = apply_head_pruning(layer.q.w, layer.k.w, layer.v.w, layer.o.w, kept, cfg.head_dim)
    assert q.shape == (len(kept) * cfg.head_dim, cfg.dim)
    assert o.shape == (cfg.dim, len(kept) * cfg.head_dim)

    pruned_layer = TransformerLayer(
        attn_norm=layer.attn_norm, q=Dense(q), k=Dense(k), v=Dense(v), o=Dense(o),
        ffn_norm=layer.ffn_norm, gate=layer.gate, up=layer.up, down=layer.down,
        kept_heads=kept,
    )
    pruned_model = random_model.replace_layer(0, pruned_layer)

    # oracle: zero the dropped head's value rows; its context then
    # contributes nothing through o
    v_zeroed = layer.v.w.copy()
    v_zeroed[1 * cfg.head_dim : 2 * cfg.head_dim, :] = 0.0
    oracle_model = random_model.replace_layer(0, TransformerLayer(
        attn_norm=layer.attn_norm, q=layer.q, k=layer.k, v=Dense(v_zeroed), o=layer.o,
        ffn_norm=layer.ffn_norm, gate=layer.gate, up=layer.up, down=layer.down,
    ))
    toks = random_token_stream(12, 14)
    lp = forward(pruned_model, toks)
    lo = forward(oracle_model, toks)
    assert np.max(np.abs(lp - lo)) < 1e-10


def _ffn(dtype, d=12, d_m=20, seed=31):
    rng = np.random.default_rng(seed)
    up, gate, down = rng.normal(size=(d_m, d)), rng.normal(size=(d_m, d)), rng.normal(size=(d, d_m))
    return [a.astype(dtype) for a in (up, gate, down)], rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d_m)


@pytest.mark.parametrize("agg", ["l1", "l2", "linf"])
def test_float32_ffn_scores_and_slices_are_the_bits_of_its_float64_copy(agg):
    # Widening float32 is exact, so scoring and slicing need not widen first.
    (up, gate, down), x_in, x_mid = _ffn(np.float32)
    wide = [a.astype(np.float64) for a in (up, gate, down)]
    scores = group_scores(up, gate, down, x_in, x_mid, agg)
    assert scores.tobytes() == group_scores(*wide, x_in, x_mid, agg).tobytes()
    decision = decide_pruning(scores, 0.5)
    sliced = apply_pruning(up, gate, down, decision)
    assert [a.dtype for a in sliced] == [np.float32] * 3
    for got, want in zip(sliced, apply_pruning(*wide, decision)):
        assert got.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda up: np.where(np.arange(up.size).reshape(up.shape) == 7, np.inf, up).astype(up.dtype),
         "up: contains non-finite entries"),
        (lambda up: up[0], "up: expected a 2-D array, got ndim=1"),
        (lambda up: np.zeros((4, 0), up.dtype), r"up: empty dimension in shape \(4, 0\)"),
    ],
)
def test_ffn_scoring_and_slicing_reject_a_malformed_matrix(dtype, bad, message):
    (up, gate, down), x_in, x_mid = _ffn(dtype)
    with pytest.raises(ValueError, match=message):
        group_scores(bad(up), gate, down, x_in, x_mid)
    decision = decide_pruning(group_scores(up, gate, down, x_in, x_mid), 0.5)
    with pytest.raises(ValueError, match=message):
        apply_pruning(bad(up), gate, down, decision)
