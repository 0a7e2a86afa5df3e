"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import sys
import time

import numpy as np
import pytest

from rankprune import pipeline, store, synth
from rankprune.linalg import svd, truncate, weighted_frobenius_error
from rankprune.lowrank import allocate_mha, awsvd_factor
from rankprune.pruning import (
    apply_pruning,
    decide_pruning,
    energy_rank_ratio,
    wanda_mask,
)
from rankprune.transformer import perplexity, silu


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status}  {detail}".rstrip(), file=sys.stderr, flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _als_weighted_error(w, d, rank, iters, rng):
    l = rng.normal(size=(w.shape[0], rank))
    d2 = d * d
    r = None
    for _ in range(iters):
        r = np.linalg.pinv(l) @ w
        rd2 = r * d2[None, :]
        l = (w @ rd2.T) @ np.linalg.pinv(r @ rd2.T)
    return weighted_frobenius_error(w, l, r, d)


def test_criterion_1_weighted_svd_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_gap = -np.inf
    for _ in range(200):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        rank = int(rng.integers(1, min(m, n) + 1))
        w = rng.normal(size=(m, n))
        x = rng.uniform(0.01, 10.0, size=n)
        pair = awsvd_factor(w, x, rank)
        d = np.maximum(x, 1e-8)
        als = _als_weighted_error(w, d, rank, iters=60, rng=rng)
        assert pair.weighted_error <= als + 1e-6, (m, n, rank)
        worst_gap = max(worst_gap, pair.weighted_error - als)
        for _ in range(100):
            cl = rng.normal(size=(m, rank))
            cr = rng.normal(size=(rank, n))
            cand = weighted_frobenius_error(w, cl, cr, d)
            assert pair.weighted_error <= cand + 1e-9
    elapsed = time.monotonic() - start
    _report(
        1,
        "weighted-SVD optimality",
        elapsed < 60.0,
        f"200 matrices, worst (awsvd - ALS) gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_unweighted_reduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        rank = int(rng.integers(1, min(m, n) + 1))
        w = rng.normal(size=(m, n))
        pair = awsvd_factor(w, np.ones(n), rank)
        l, r = truncate(svd(w), rank)
        worst = max(worst, float(np.max(np.abs(pair.l @ pair.r - l @ r))))
    _report(2, "unit-weight reduction to plain SVD", worst <= 1e-8, f"max abs dev {worst:.2e}")


def _sort_oracle(scores, keep_ratio, retain_least):
    d_m = len(scores)
    n_retained = int(np.floor(keep_ratio * d_m + 0.5))
    n_bottom = min(max(1, int(np.floor(retain_least * d_m))) if retain_least > 0 else 0, n_retained)
    n_top = n_retained - n_bottom
    top = sorted(range(d_m), key=lambda i: (-scores[i], i))[:n_top]
    bottom = [i for i in sorted(range(d_m), key=lambda i: (scores[i], i)) if i not in set(top)][:n_bottom]
    return sorted(top + bottom)


def test_criterion_3_pruning_oracle_equivalence():
    rng = np.random.default_rng(1003)
    checked = 0
    for d_m in range(1, 65):
        for _ in range(8):
            scores = rng.uniform(size=d_m)
            if rng.uniform() < 0.3:  # inject ties
                scores[rng.uniform(size=d_m) < 0.5] = 0.25
            keep = float(rng.uniform(0.05, 1.0))
            retain_least = float(rng.uniform(0.0, keep * 0.9))
            if int(np.floor(keep * d_m + 0.5)) < 1:
                continue
            n_keep = store.retained_count(d_m, keep)
            dec = decide_pruning(scores, n_keep, store.bottom_quota(d_m, n_keep, retain_least))
            assert dec.retained.tolist() == _sort_oracle(scores, keep, retain_least), (d_m, keep, retain_least)
            checked += 1
    assert checked >= 500

    worst = 0.0
    for _ in range(50):
        d, d_m = 8, int(rng.integers(4, 24))
        up, gate = rng.normal(size=(2, d_m, d))
        down = rng.normal(size=(d, d_m))
        x = rng.normal(size=(6, d))
        scores, keep = rng.uniform(size=d_m), float(rng.uniform(0.3, 1.0))
        n_keep = store.retained_count(d_m, keep)
        dec = decide_pruning(scores, n_keep, store.bottom_quota(d_m, n_keep, 0.01))
        u, g, dn = apply_pruning({"up": up, "gate": gate}, {"down": down}, dec.retained).values()
        pruned_out = (silu(x @ g.T) * (x @ u.T)) @ dn.T
        inter = silu(x @ gate.T) * (x @ up.T)
        mask = np.zeros(d_m)
        mask[dec.retained] = 1.0
        oracle = (inter * mask[None, :]) @ down.T
        worst = max(worst, float(np.max(np.abs(pruned_out - oracle))))
    _report(
        3,
        "pruning oracle equivalence",
        worst <= 1e-6,
        f"{checked} score vectors exact, masked-forward max dev {worst:.2e}",
    )


def test_criterion_4_ratio_arithmetic():
    config = store.LLAMA_SHAPES["7b"]
    published = [0.104, 0.208, 0.312, 0.416, 0.520, 0.624, 0.728, 0.832]
    worst = 0.0
    for ratio_s, expected in zip(np.arange(1, 9) / 10.0, published):
        got = store.plan_ratio(config, float(ratio_s))
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-3, (ratio_s, got, expected)
    # nominal 20% compression on the square-MHA toy shape: v/o dense,
    # q/k budget at 60% of their dense size
    alloc = allocate_mha({m: (64, 64) for m in ("q_proj", "k_proj", "v_proj", "o_proj")}, 0.8, (1.0, 3.0))
    assert alloc["schemes"]["v_proj"]["kind"] == "dense" and alloc["schemes"]["o_proj"]["kind"] == "dense"
    qk_frac = alloc["qk_budget"] / (2 * 64 * 64)
    assert abs(qk_frac - 0.60) <= 1e-3
    _report(
        4,
        "ratio arithmetic",
        True,
        f"7B table worst dev {worst:.4f}, special-case q/k share {100 * qk_frac:.3f}%",
    )


def test_criterion_5_end_to_end_accounting(tmp_path):
    cfg = synth.toy_config()
    model = synth.make_planted_model(cfg, seed=0)
    calib = synth.sample_from_model(model, 4096, seed=100, window=64)
    evalset = synth.sample_from_model(model, 2048, seed=200, window=64)
    details = []
    for keep in (0.8, 0.5):
        plan = pipeline.CompressionPlan(keep_ratio=keep, calib_samples=16, calib_tokens=32, seed=7)
        outs = []
        for tag in ("a", "b"):
            compressed, manifest, report = pipeline.compress_model(model, plan, calib, calib_sha256="fixed")
            d = tmp_path / f"{keep}-{tag}"
            pipeline.write_outputs(d, compressed, manifest, report)
            outs.append(d)
        for name in ("model.safetensors", "manifest.json", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        target = keep * report["layer_params_before"]
        rel = abs(report["layer_params_after"] - target) / target
        assert rel < 0.005, (keep, rel)
        ppl = perplexity(compressed, evalset, 64)
        assert np.isfinite(ppl)
        details.append(f"keep={keep}: params dev {100 * rel:.3f}%, ppl {ppl:.2f}")
    _report(5, "end-to-end accounting and determinism", True, "; ".join(details))


@pytest.fixture(scope="module")
def ordering_harness():
    """Five seeded fixture instances, each compressed by the three method
    combinations at keep 0.5, plus keep 0.8 and the retain-least ablation."""
    start = time.monotonic()
    cfg = synth.toy_config()
    results = {key: [] for key in ("mixed", "svd_all", "prune_all", "keep08", "retain0")}
    for seed in range(5):
        model = synth.make_planted_model(cfg, seed)
        calib = synth.sample_from_model(model, 4096, seed + 100, window=64)
        evalset = synth.sample_from_model(model, 4096, seed + 200, window=64)

        def run(keep, mha, ffn, retain_least=0.01):
            plan = pipeline.CompressionPlan(
                keep_ratio=keep, calib_samples=32, calib_tokens=64, seed=seed,
                mha_method=mha, ffn_method=ffn, retain_least=retain_least,
            )
            compressed, _, _ = pipeline.compress_model(model, plan, calib)
            return perplexity(compressed, evalset, 64)

        results["mixed"].append(run(0.5, "awsvd", "prune"))
        results["svd_all"].append(run(0.5, "svd", "svd"))
        results["prune_all"].append(run(0.5, "head_prune", "prune"))
        results["keep08"].append(run(0.8, "awsvd", "prune"))
        results["retain0"].append(run(0.5, "awsvd", "prune", retain_least=0.0))
    medians = {k: float(np.median(v)) for k, v in results.items()}
    return medians, results, time.monotonic() - start


def test_criterion_6_method_ordering(ordering_harness):
    medians, _, elapsed = ordering_harness
    ok = (
        medians["mixed"] <= medians["svd_all"]
        and medians["mixed"] <= medians["prune_all"]
        and elapsed < 300.0
    )
    _report(
        6,
        "method ordering on planted fixture",
        ok,
        f"median ppl: mixed {medians['mixed']:.2f} <= svd-everywhere {medians['svd_all']:.2f}, "
        f"<= prune-everywhere {medians['prune_all']:.2f} ({elapsed:.0f}s)",
    )


def test_criterion_7_retention_ablation(ordering_harness):
    medians, results, _ = ordering_harness
    # both configurations ran and produced finite medians; the direction
    # (retention helping) is reported but not hard-gated on synthetic weights
    ok = np.isfinite(medians["retain0"]) and np.isfinite(medians["mixed"]) and len(results["retain0"]) == 5
    direction = "replicates" if medians["mixed"] <= medians["retain0"] else "does not replicate"
    _report(
        7,
        "least-important retention ablation",
        ok,
        f"median ppl retain_least=0.01: {medians['mixed']:.3f}, retain_least=0: {medians['retain0']:.3f} "
        f"(direction {direction} on synthetic weights)",
    )


def test_keep_ratio_monotone_trend(ordering_harness):
    # not one of the numbered criteria: the pipeline's stated median-trend
    # property at keep 0.8 vs 0.5
    medians, _, _ = ordering_harness
    assert medians["keep08"] <= medians["mixed"], medians


def test_criterion_8_diagnostics():
    v = energy_rank_ratio(np.diag([3.0, 2.0, 1.0]), 0.5)
    ok_energy = round(v, 2) == 33.33
    rng = np.random.default_rng(1008)
    w = rng.normal(size=(6, 6))
    x = rng.uniform(0.5, 2.0, size=6)
    mask, _pgm = wanda_mask(w, x, 0.5)
    ok_mask = int(mask.sum()) == 18
    _report(8, "diagnostics", ok_energy and ok_mask, f"energy {v:.2f}%, kept {int(mask.sum())}/36")
