import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import PINNED_CORES, json_leaves, kernel_note, leaf_edits, openblas_core, run_fresh, set_leaf
from rankprune import pipeline, synth
from rankprune.cli import main
from rankprune.pruning import energy_rank_ratio


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixture")
    synth.write_fixture(d, seed=0, calib_tokens=4096, eval_tokens=2048)
    return d


def _compress_args(fixture_dir, out, extra=()):
    return [
        "compress",
        "--model", str(fixture_dir / "model.safetensors"),
        "--config", str(fixture_dir / "config.json"),
        "--data", str(fixture_dir / "calib.bin"),
        "--ratio", "0.5",
        "--alloc", "1:3",
        "--agg", "l2",
        "--retain-least", "0.01",
        "--seed", "7",
        "--samples", "16",
        "--seqlen", "32",
        "--out", str(out),
        *extra,
    ]


def test_compress_end_to_end(fixture_dir, tmp_path, capsys):
    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    assert (out / "model.safetensors").exists()
    assert (out / "manifest.json").exists()
    assert (out / "report.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["global"]["seed"] == 7
    report = json.loads((out / "report.json").read_text())
    assert report["params_after"] < report["params_before"]


def test_compress_determinism_at_cli_level(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_compress_args(fixture_dir, out1)) == 0
    assert main(_compress_args(fixture_dir, out2)) == 0
    for name in ("model.safetensors", "manifest.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of the outputs for the fixture above.  manifest.json holds on
# every OpenBLAS core tried, so it has one pin per method pair.
# model.safetensors, report.json and the calibrate stats hold float results,
# whose last bits depend on the core's summation order, so they are pinned
# per core, each measured on its own core (OPENBLAS_CORETYPE set for the
# test process only).  A core without pins fails the test, naming itself.
#
# History of the SkylakeX pins.  model.safetensors and manifest.json are
# pinned from the pipeline that re-forwarded the compressed prefix for every
# layer: carrying hidden states must reproduce their bytes exactly.
# report.json and the calibrate stats were re-pinned once, when attention
# moved from einsum to per-head matmul normalised after the value product:
# that reorders float sums, which moves the last ulps of the weighted_error
# floats and of the x_din norms, while every factor and index written to
# disk stays the same.  report.json was re-pinned a second time when the
# factors came from the Gram eigendecomposition instead of the full SVD:
# five weighted_error floats moved by at most 7e-16 relative, and
# model.safetensors and manifest.json kept their bytes.  report.json and the
# calibrate stats were re-pinned a third time when SiLU moved from
# scipy.special.expit to x / (1 + exp(-x)) and rotary embedding to one
# complex multiply: two weighted_error floats moved by at most 7.3e-16
# relative and eleven x_din vectors by at most 6.5e-16 relative, while
# model.safetensors and manifest.json kept their bytes (the masked softmax
# of the same change alone moved no hash).  model.safetensors, report.json
# and the calibrate stats were re-pinned a fourth time when a loaded model
# began to compute in float32 (float64 only for the reductions): every x_din
# vector moved by at most 3.7e-7 relative, so the awsvd factors moved - each
# factored product L @ R by at most 2.5e-7 relative in Frobenius norm, single
# factor entries by up to 1.5e-3 relative where near-equal singular values
# let the basis rotate - and eight of nine weighted_error floats by at most
# 2.0e-8 relative; manifest.json kept its bytes.  Every report.json was
# re-pinned a fifth time, with the Haswell and Sandybridge pins, when a
# per-layer report entry came to hold measurements only ({"layer": i, proj:
# {"weighted_error": e}} for each factored projection, format_version 2):
# every model.safetensors and manifest.json, every top-level report value
# and every attention weighted_error kept its bytes.  Every manifest.json
# was re-pinned once when the manifest moved to format_version 2, which
# records the plan once, as global.plan, and per layer only the kept heads,
# retained channels and provenance the calibration data decided; every
# model.safetensors and report.json kept its bytes on every core.  Re-pin
# only with a recorded reason.
GOLDEN_MANIFESTS = {
    ("awsvd", "prune"): "6190db415000752865d1f1f279212910aeeb199d80bce203772d1149e31d012f",
    ("awsvd", "svd"): "418c0dd001f0217e1b50e6baafccfe8432221ffa616892c7d6d4f41b267b1ef3",
    ("svd", "prune"): "4939ca39d62afd0a43746d830e66f05e0cba9ff0f2c3d4b7ae32fed92f35897d",
    ("svd", "svd"): "4151b50167c1a15a4a9529233abf59fd9c208b5edef55cbad41112ac7517a9d3",
    ("head_prune", "prune"): "70e364317f5d202f27f23f2c0cd726ddb4aaff24583271cd7f6ffa6f9196ec99",
    ("head_prune", "svd"): "03d9e788df71a9e304fe059bc9c97127c44513a086ddbddfbd901d019062a600",
}
GOLDEN_COMPRESS = {
    "SkylakeX": {
        "model.safetensors": "2be9b3915ae6d9fec8251e9fedcf40fbeece57e27b99851869ec3ccde6d4b249",
        "report.json": "d2cb071b74e26952caef01d40850167be147c0d835c2c27375117b65fcececb4",
    },
    "Haswell": {
        "model.safetensors": "e46533e424f1676dc43e4db3c575008d44f324aa351c6c640469c3a001efaa2a",
        "report.json": "f919b8a51f359f1cdf79e1332466f965bfd9b4bbef5e3a4f8b4a86aa7a79cf50",
    },
    "Sandybridge": {
        "model.safetensors": "71b8e86e41cd102f5938321ff095137117ee618c6e9fefe3f0325960058f05b4",
        "report.json": "26a9749009c680d648ecf093c5165d0083ad073dda108618807861f317155ceb",
    },
}
GOLDEN_CALIBRATE = {
    "SkylakeX": "c6c51d54357ae682fa3860590b96dbf1f4cb747c2d9f0d885e67d347b9917d38",
    "Haswell": "e78d142cde5809c633966daa6ed5e2358075f1e59fa9ff4197f047f0db779654",
    "Sandybridge": "4dd860fa7648757f9b3aade54015b8321b33c80417585f303664688914ddf327",
}
# The baseline methods on the same fixture and flags, pinned from the code
# before serialization, loading and validation moved onto the projection
# table: head-pruned attention and a factored FFN must keep their bytes.
# On SkylakeX, the svd-svd, awsvd-svd and svd-prune model and report hashes
# were re-pinned once when the factors came from the Gram eigendecomposition
# instead of the full SVD: one float32 entry of one o_proj factor moved by
# one ulp (at most 8.8e-8 relative) and the weighted_error floats by at most
# 1.3e-15 relative.  The other pairs were pinned from the code that still
# wrote each layer's manifest and report entries by hand in every method
# function.  awsvd-svd's model and report were re-pinned with the SiLU and
# rotary change above (one float32 entry of layer 1's o_proj.L moved by one
# ulp, three weighted_error floats by at most 7.4e-16 relative) and again
# with the float32 layer step (each factored product moved by at most
# 3.1e-7 relative, eight of nine weighted_error floats by at most 1.2e-8).
# The methods that read no x_din in their factors (svd, head_prune) kept
# every byte through it.  Every report.json re-pinned with GOLDEN_COMPRESS's
# fifth re-pin.  head_prune-prune factors nothing, so its report holds no
# float that a core could move.
GOLDEN_COMPRESS_BASELINES = {
    "SkylakeX": {
        ("awsvd", "svd"): {
            "model.safetensors": "7a57f1b484e3d8298850a10712dbfb77acf3225be4caccf56052f8bf01341dfa",
            "report.json": "cb5af5321fde25c7366a6ba51c8facf92f92696e0f3fff00711b04a673591d0b",
        },
        ("svd", "prune"): {
            "model.safetensors": "d8a01ff233d399eeaa6e0c341c4f99d538714efb6f428c80a5db1a93f414338f",
            "report.json": "109379a899b8c51bc203aa479525725514540e2e51eab0879d245ec5a1fc6d93",
        },
        ("svd", "svd"): {
            "model.safetensors": "72be2f3e93b3633431c2ee8c253866050ca4d4eefbb4ccd351ad28bf107f8521",
            "report.json": "7af79a796fdb1faaa6956ee87c2c85464e34c7910ef62b0683d32ef0b46a2ffe",
        },
        ("head_prune", "prune"): {
            "model.safetensors": "ce1b6051a43b1cd07f74c4744e5043b3f889ac42820bef1a077162e46c88fe87",
            "report.json": "2bc424ce73b4362ba02cf7df8a0ad26741ec60aab44e74e870be8f68987cd50b",
        },
        ("head_prune", "svd"): {
            "model.safetensors": "26ebc6e0c5fbe11dabc90133048a5c2554c1acf9ffb20125b671db8987e796f4",
            "report.json": "6febf0e8be483a6fcbee345b1f28f9ab1930b7b259b631a7b7864faed93863d0",
        },
    },
    "Haswell": {
        ("awsvd", "svd"): {
            "model.safetensors": "2fa8ac0e492eced0f1b9b4e519b7da73de5ae7b808bae526f50136616c7532ab",
            "report.json": "fa42e35bce18625361d193df7c6c9768f45b6580a3a9ffb24b5be6484d0ec5e6",
        },
        ("svd", "prune"): {
            "model.safetensors": "a59107690900103059904f57e1a00e18247f97f4209367ecaf6ce266f1ab74ce",
            "report.json": "3c1ebd3e26fd8fa6c7be87f614dd880fe7d69f7220dfe3e5d74bdcc54cf8c678",
        },
        ("svd", "svd"): {
            "model.safetensors": "72c2db980d399de29885456dbb02571d9dfa8adf6216ddd85a522cc094c93529",
            "report.json": "c1c76c7cc532390f9d69681879a2c3db9866bfb0e9a7e28097a1104ccacb6267",
        },
        ("head_prune", "prune"): {
            "model.safetensors": "ce1b6051a43b1cd07f74c4744e5043b3f889ac42820bef1a077162e46c88fe87",
            "report.json": "2bc424ce73b4362ba02cf7df8a0ad26741ec60aab44e74e870be8f68987cd50b",
        },
        ("head_prune", "svd"): {
            "model.safetensors": "26ebc6e0c5fbe11dabc90133048a5c2554c1acf9ffb20125b671db8987e796f4",
            "report.json": "7de2bc85a3ee2c4db1f8b998412b946c19c8f6c2e239d0e8a73143d5994e1bcb",
        },
    },
    "Sandybridge": {
        ("awsvd", "svd"): {
            "model.safetensors": "f81bffd0c668688b6ba2404b3d5fe2e21c3341c24bc42a29cb2f3de8ee12e01a",
            "report.json": "d521d1788fce6e223ffcee262ffd885f4a3369dfba18f816f9ccdddb6f8aa245",
        },
        ("svd", "prune"): {
            "model.safetensors": "7ac5ae5c73bae64f5f1700b97b7cb32402150b2acfcbd9f325be4b664265b4bf",
            "report.json": "d7ba523307f4952b51a2285950f31c156346c942210d99ccc6d571f87f3a2690",
        },
        ("svd", "svd"): {
            "model.safetensors": "954395beb7a8d1711d5357b41f3f19c3f7b1ca8c9689c8196096bc736fba1906",
            "report.json": "edeb232f01c4ece5db5a5f90f5495949b2b3e934f6a1715ebb075d999a87f7f1",
        },
        ("head_prune", "prune"): {
            "model.safetensors": "ce1b6051a43b1cd07f74c4744e5043b3f889ac42820bef1a077162e46c88fe87",
            "report.json": "2bc424ce73b4362ba02cf7df8a0ad26741ec60aab44e74e870be8f68987cd50b",
        },
        ("head_prune", "svd"): {
            "model.safetensors": "26ebc6e0c5fbe11dabc90133048a5c2554c1acf9ffb20125b671db8987e796f4",
            "report.json": "8dc97f6622d4069ef1e6c7398a88c95b5fa2a1c0b7be47c003ea587789f56722",
        },
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of every fixture file.  The token files were pinned from the
# sampler that kept its own copy of the layer math, before it decoded
# through transformer._layer_forward; the model and config were pinned
# while make_planted_model still took its structure as keyword arguments.
# Every golden hash above and every benchmark ppl rests on these bytes.
GOLDEN_FIXTURE = {
    "model.safetensors": "7767338b1d543a515d4d612b21289d5a2afd8323959ef52545457687dc79323d",
    "config.json": "5d27606ab047083dc9885d5af94972dd37dbce7966d31a0bd7d37ff2f7148f20",
    "calib.bin": "f21e1f4c89eba9ca4283c5e2480f8b40daf3733757be52821db77d0ac5c8475c",
    "eval.bin": "b4319fface6b1407efe4d278e37bb8f74fef184d88fb57a5af86452f808ee060",
}


def test_fixture_matches_golden_hashes(fixture_dir):
    assert {name: _sha256(fixture_dir / name) for name in GOLDEN_FIXTURE} == GOLDEN_FIXTURE, kernel_note()


def _core_pins(pins_by_core):
    """The pins measured on the OpenBLAS core this process runs; a core without pins fails."""
    core = openblas_core()
    assert core in pins_by_core, kernel_note()
    return pins_by_core[core]


def test_compress_outputs_match_golden_hashes(fixture_dir, tmp_path):
    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    want = {"manifest.json": GOLDEN_MANIFESTS[("awsvd", "prune")], **_core_pins(GOLDEN_COMPRESS)}
    assert {name: _sha256(out / name) for name in want} == want, kernel_note()


@pytest.mark.parametrize("mha, ffn", sorted(set(GOLDEN_MANIFESTS) - {("awsvd", "prune")}))
def test_baseline_methods_match_golden_hashes(fixture_dir, tmp_path, mha, ffn):
    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out, ("--mha-method", mha, "--ffn-method", ffn))) == 0
    want = {"manifest.json": GOLDEN_MANIFESTS[(mha, ffn)], **_core_pins(GOLDEN_COMPRESS_BASELINES)[(mha, ffn)]}
    assert {name: _sha256(out / name) for name in want} == want, kernel_note()


def test_calibrate_stats_match_golden_hash(fixture_dir, tmp_path):
    stats = tmp_path / "stats.json"
    code = main(
        ["calibrate", "--model", str(fixture_dir / "model.safetensors"),
         "--config", str(fixture_dir / "config.json"),
         "--data", str(fixture_dir / "calib.bin"),
         "--samples", "8", "--seqlen", "32", "--seed", "1", "--out", str(stats)]
    )
    assert code == 0
    assert _sha256(stats) == _core_pins(GOLDEN_CALIBRATE), kernel_note()


def test_eval_prints_ppl_line(fixture_dir, tmp_path, capsys):
    out = tmp_path / "z"
    main(_compress_args(fixture_dir, out))
    capsys.readouterr()
    code = main(
        ["eval", "--model", str(out), "--data", str(fixture_dir / "eval.bin"), "--seqlen", "128"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    m = re.search(r"^ppl=([0-9.]+(e[+-]?\d+)?)$", stdout, re.MULTILINE)
    assert m, stdout
    assert float(m.group(1)) > 0


def test_the_cli_runs_without_loading_scipy(fixture_dir, tmp_path):
    # Importing scipy.linalg costs a process about 24 MB and 0.2 s; only the
    # gesvd retry of linalg.svd, when numpy's SVD fails, may load it.
    out = tmp_path / "z"
    evaluate = ["eval", "--model", str(out), "--data", str(fixture_dir / "eval.bin"), "--seqlen", "128"]
    run = run_fresh(f"""
        import sys
        import rankprune
        from rankprune.cli import main
        codes = main({_compress_args(fixture_dir, out)!r}), main({evaluate!r})
        print(codes, "scipy" in sys.modules)
    """)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "(0, 0) False", run.stdout


# ppl printed by `eval --seqlen 128` on the fixture above, per OpenBLAS
# core.  The SkylakeX values come from the einsum attention that preceded
# the matmul rewrite; a later forward may change bytes, but not perplexity
# beyond float rounding.  Re-pinned once when a loaded model began to
# compute in float32: dense moved 3.8e-8 relative (94.71811808796319
# before) and compressed 3.3e-8 (97.17226053104797).
PINNED_EVAL_PPL = {
    "SkylakeX": {"compressed": 97.17226376370763, "dense": 94.71812164572084},
    "Haswell": {"compressed": 97.17225979555842, "dense": 94.7181250649398},
    "Sandybridge": {"compressed": 97.17225173619951, "dense": 94.71812294342955},
}


def _eval_ppl(capsys, *model_args):
    capsys.readouterr()
    assert main(["eval", *model_args, "--seqlen", "128"]) == 0
    m = re.search(r"^ppl=(\S+)$", capsys.readouterr().out, re.MULTILINE)
    assert m
    return float(m.group(1))


def test_eval_ppl_matches_pinned_values(fixture_dir, tmp_path, capsys):
    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    data = ["--data", str(fixture_dir / "eval.bin")]
    dense = _eval_ppl(
        capsys, "--model", str(fixture_dir / "model.safetensors"),
        "--config", str(fixture_dir / "config.json"), *data,
    )
    compressed = _eval_ppl(capsys, "--model", str(out), *data)
    pinned = _core_pins(PINNED_EVAL_PPL)
    assert dense == pytest.approx(pinned["dense"], rel=1e-9), kernel_note()
    assert compressed == pytest.approx(pinned["compressed"], rel=1e-9), kernel_note()



# The tests above whose pins depend on the OpenBLAS core, and the core they
# are re-run on: Sandybridge is the oldest pinned AVX core, so any newer x86
# host can run its kernels.  A change whose bits hold on one core only then
# fails on the host's own core or on this one.
CORE_PINNED_TESTS = (
    "test_compress_outputs_match_golden_hashes",
    "test_baseline_methods_match_golden_hashes",
    "test_calibrate_stats_match_golden_hash",
    "test_eval_ppl_matches_pinned_values",
)
SECOND_CORE = "Sandybridge"


def test_core_pinned_tests_hold_on_a_second_core():
    core = openblas_core()
    if core == SECOND_CORE:
        pytest.skip(f"the host's own OpenBLAS core is {SECOND_CORE}: the pinned tests ran on it already")
    if core not in PINNED_CORES:
        pytest.skip(f"the host's OpenBLAS core {core} has no pins: the pinned tests fail on it already")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{__file__}::{name}" for name in CORE_PINNED_TESTS)],
        cwd=Path(__file__).parents[1], env={**os.environ, "OPENBLAS_CORETYPE": SECOND_CORE},
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, f"under OPENBLAS_CORETYPE={SECOND_CORE}:\n{run.stdout[-4000:]}{run.stderr[-2000:]}"
    assert f"{len(GOLDEN_MANIFESTS) + 2} passed" in run.stdout, run.stdout  # every compress pin, calibrate, ppl


def _edited_checkpoint(fixture_dir, path, edit):
    from rankprune.container import read_container, write_container

    tensors, _ = read_container(fixture_dir / "model.safetensors")
    edit(tensors)
    write_container(path, tensors)
    return ["--model", str(path), "--config", str(fixture_dir / "config.json")]


def _large_embedding_feature(tensors):
    tensors["model.embed_tokens.weight"][:, 0] = 1e20


def _huge_query_key_weights(tensors):
    for proj in ("q_proj", "k_proj"):
        tensors[f"model.layers.0.self_attn.{proj}.weight"] *= np.float32(1e20)


# ppl of the fixture with embedding feature 0 set to 1e20, as the float64
# layer step printed it.  Its squares overflow float32, so a mean square
# reduced in float32 gives an RMS scale of 0 and the uniform ppl=256.
LARGE_FEATURE_PPL = 5591.634904687047


def test_float32_states_with_a_large_feature_keep_their_ppl(fixture_dir, tmp_path, capsys):
    model = _edited_checkpoint(fixture_dir, tmp_path / "large.safetensors", _large_embedding_feature)
    ppl = _eval_ppl(capsys, *model, "--data", str(fixture_dir / "eval.bin"))
    assert ppl == pytest.approx(LARGE_FEATURE_PPL, rel=1e-6)


@pytest.mark.parametrize("command, message", [
    ("eval", "window 0: non-finite log-probabilities"),
    ("compress", "layer 0: attn_o_input activations are not finite"),
    ("calibrate", "layer 0: attn_o_input activations are not finite"),
])
def test_attention_scores_past_float32_range_exit_2(fixture_dir, tmp_path, capsys, command, message):
    # q and k scaled by 1e20 overflow the float32 attention scores: eval must
    # not print ppl=nan, and calibration must not hand NaN x_din on.
    model = _edited_checkpoint(fixture_dir, tmp_path / "huge.safetensors", _huge_query_key_weights)
    calib = ["--data", str(fixture_dir / "calib.bin"), "--samples", "4", "--seqlen", "32", "--out", str(tmp_path / "out")]
    args = {
        "eval": ["eval", *model, "--data", str(fixture_dir / "eval.bin"), "--seqlen", "128"],
        "compress": ["compress", *model, "--ratio", "0.5", *calib],
        "calibrate": ["calibrate", *model, *calib],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "ppl=" not in captured.out
    assert message in captured.err


def test_eval_update_report(fixture_dir, tmp_path, capsys):
    out = tmp_path / "z"
    main(_compress_args(fixture_dir, out))
    code = main(
        ["eval", "--model", str(out), "--data", str(fixture_dir / "eval.bin"),
         "--seqlen", "64", "--update-report"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "eval.bin" in report["evaluations"]


@pytest.mark.parametrize("report", [[], "x", {"evaluations": []}, {"timing": 3}], ids=["list", "str", "evaluations", "timing"])
def test_eval_update_report_rejects_a_malformed_report(fixture_dir, compressed_out, tmp_path, capsys, report):
    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    raw = json.dumps(report).encode()
    (out / "report.json").write_bytes(raw)
    code = main(
        ["eval", "--model", str(out), "--data", str(fixture_dir / "eval.bin"),
         "--seqlen", "64", "--update-report"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "report.json" in captured.err
    assert captured.out == ""  # refused before any scoring
    assert (out / "report.json").read_bytes() == raw


def test_eval_dense_checkpoint_needs_config(fixture_dir, capsys):
    code = main(
        ["eval", "--model", str(fixture_dir / "model.safetensors"),
         "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"]
    )
    assert code == 1  # usage error: bare checkpoint without --config
    code = main(
        ["eval", "--model", str(fixture_dir / "model.safetensors"),
         "--config", str(fixture_dir / "config.json"),
         "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"]
    )
    assert code == 0


def test_analyze_matches_library_call(fixture_dir, tmp_path, capsys):
    out_json = tmp_path / "analyze.json"
    code = main(
        ["analyze", "--model", str(fixture_dir / "model.safetensors"),
         "--energy", "0.8", "--out", str(out_json)]
    )
    assert code == 0
    rows = json.loads(out_json.read_text())["rows"]
    assert len(rows) == 14  # 2 layers x 7 matrices
    from rankprune.container import read_container

    raw, _meta = read_container(fixture_dir / "model.safetensors")
    by_name = {r["matrix"]: r["rank_pct"] for r in rows}
    name = "model.layers.0.self_attn.q_proj.weight"
    direct = energy_rank_ratio(raw[name].astype(np.float64), 0.8)
    assert by_name[name] == pytest.approx(direct, abs=1e-9)


def test_calibrate_then_weighted_analyze_and_mask(fixture_dir, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code = main(
        ["calibrate", "--model", str(fixture_dir / "model.safetensors"),
         "--config", str(fixture_dir / "config.json"),
         "--data", str(fixture_dir / "calib.bin"),
         "--samples", "8", "--seqlen", "32", "--seed", "1", "--out", str(stats)]
    )
    assert code == 0
    payload = json.loads(stats.read_text())
    assert len(payload["x_din"]) == 14
    assert all(len(v) > 0 for v in payload["x_din"].values())

    out_json = tmp_path / "weighted.json"
    code = main(
        ["analyze", "--model", str(fixture_dir / "model.safetensors"),
         "--energy", "0.8", "--stats", str(stats), "--out", str(out_json)]
    )
    assert code == 0
    rows = json.loads(out_json.read_text())["rows"]
    assert all("rank_pct_weighted" in r for r in rows)

    pgm = tmp_path / "mask.pgm"
    code = main(
        ["mask", "--model", str(fixture_dir / "model.safetensors"),
         "--matrix", "model.layers.0.self_attn.q_proj.weight",
         "--sparsity", "0.5", "--stats", str(stats), "--out", str(pgm)]
    )
    assert code == 0
    data = pgm.read_bytes()
    assert data.startswith(b"P5\n64 64\n255\n")
    body = data.split(b"\n", 3)[3]
    assert body.count(255) == 2048  # exactly half kept


def test_analyze_compressed_directory(fixture_dir, tmp_path, capsys):
    out = tmp_path / "z"
    main(_compress_args(fixture_dir, out))
    capsys.readouterr()
    code = main(["analyze", "--model", str(out), "--energy", "0.8"])
    assert code == 0
    stdout = capsys.readouterr().out
    # factored matrices are reconstructed for analysis, so all 14 rows appear
    assert stdout.count("%") == 14


def test_analyze_holds_the_checkpoint_and_two_float64_copies_of_one_matrix(tmp_path, heap_peak):
    # Each projection is widened to float64 when its row is computed, so beside
    # the float32 checkpoint analyze holds one matrix and the spectrum's copy of it.
    from rankprune import store
    from rankprune.config import ModelConfig
    from rankprune.container import write_container

    config = ModelConfig(dim=512, n_heads=8, head_dim=64, n_layers=1, ffn_dim=1376, vocab_size=256)
    rng = np.random.default_rng(45)
    tensors = {name: rng.normal(size=shape).astype(np.float32) for name, shape in store.expected_shapes(config).items()}
    write_container(tmp_path / "model.safetensors", tensors)
    checkpoint = sum(arr.nbytes for arr in tensors.values())
    largest = max(arr.size for name, arr in tensors.items() if store.split_projection_name(name))
    del tensors
    code, peak = heap_peak(main, ["analyze", "--model", str(tmp_path / "model.safetensors")])
    assert code == 0
    assert peak < checkpoint + 2 * 8 * largest


def test_stats_command(fixture_dir, tmp_path, capsys):
    out = tmp_path / "stats_out.json"
    code = main(
        ["stats", "--model", str(fixture_dir / "model.safetensors"),
         "--config", str(fixture_dir / "config.json"), "--seqlen", "16", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^params=\d+$", stdout, re.MULTILINE)
    assert re.search(r"^macs=\d+ ", stdout, re.MULTILINE)
    payload = json.loads(out.read_text())
    assert payload["params"] > 0 and payload["macs"] > 0


def test_target_ratio_flag(fixture_dir, tmp_path):
    out = tmp_path / "tr"
    args = _compress_args(fixture_dir, out)
    i = args.index("--ratio")
    args[i : i + 2] = ["--target-ratio", "0.2"]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["global"]["target_ratio_s"] == 0.2
    assert manifest["global"]["layer_keep_ratio"] < 0.8  # layers absorb more than 20%


def test_usage_errors_exit_1(fixture_dir, tmp_path, capsys):
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main(["compress", "--nonsense"]) == 1  # unknown flag
    assert main(["eval", "--model", "x"]) == 1  # missing required --data
    assert main(["compress", "--model", "m", "--config", "c", "--data", "d", "--out", "o"]) == 1  # no ratio
    model = ["--model", str(fixture_dir / "model.safetensors"), "--config", str(fixture_dir / "config.json")]
    calibrate = ["calibrate", *model, "--data", str(fixture_dir / "calib.bin"), "--out", str(tmp_path / "s.json")]
    compress = _compress_args(fixture_dir, tmp_path / "z")
    for command in (calibrate, compress):
        for flag in ("--samples", "--seqlen"):
            for value in ("0", "-1"):
                capsys.readouterr()
                assert main([*command, flag, value]) == 1, (command[0], flag, value)
                assert "usage error" in capsys.readouterr().err
    assert main([*compress, "--seed", "-5"]) == 1  # the plan refuses it, before calibration
    assert "usage error: seed must be a non-negative integer, got -5" in capsys.readouterr().err
    for value in ("0", "-5"):  # a window without positions has no MACs to count
        assert main(["stats", *model, "--seqlen", value]) == 1
        assert "seq_len must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "z").exists()


@pytest.mark.parametrize("ratio", ["nan:1", "1:nan", "inf:1", "1:inf"])
def test_non_finite_allocation_ratio_exits_1_and_writes_nothing(fixture_dir, tmp_path, capsys, ratio):
    argv = _compress_args(fixture_dir, tmp_path / "z")
    argv[argv.index("--alloc") + 1] = ratio
    assert main(argv) == 1
    assert f"usage error: allocation ratio parts must be finite and positive, got {ratio!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, missing",
    [("mask", "--out"), ("calibrate", "--out"), ("compress", "--out"), ("compress", "--config")],
)
def test_missing_required_argument_exits_1_and_writes_nothing(fixture_dir, tmp_path, monkeypatch, capsys, command, missing):
    model = str(fixture_dir / "model.safetensors")
    data = ["--data", str(fixture_dir / "calib.bin")]
    argv = {
        "mask": ["mask", "--model", model, "--matrix", "model.layers.0.self_attn.q_proj.weight",
                 "--out", str(tmp_path / "m.pgm")],
        "calibrate": ["calibrate", "--model", model, "--config", str(fixture_dir / "config.json"), *data,
                      "--samples", "2", "--seqlen", "8", "--out", str(tmp_path / "s.json")],
        "compress": _compress_args(fixture_dir, tmp_path / "z"),
    }[command]
    i = argv.index(missing)
    del argv[i : i + 2]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--model", "m", "--data", "d"],
        ["stats", "--model", "m"],
        ["analyze", "--model", "m"],
        ["mask", "--model", "m", "--matrix", "w", "--out", "o"],
    ],
)
def test_seed_only_on_commands_that_sample(args, capsys):
    # Only calibrate and compress draw calibration windows; the others have no --seed.
    assert main([*args, "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_data_errors_exit_2(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(b"junk")
    code = main(
        ["stats", "--model", str(bad), "--config", str(fixture_dir / "config.json")]
    )
    assert code == 2
    # calibration shortfall is a data error too
    tiny = tmp_path / "tiny.bin"
    tiny.write_bytes(b"ab")
    out = tmp_path / "never"
    args = _compress_args(fixture_dir, out)
    i = args.index("--data")
    args[i + 1] = str(tiny)
    assert main(args) == 2
    # as is a missing input file
    args[i + 1] = str(tmp_path / "missing.bin")
    assert main(args) == 2
    # and a dense checkpoint holding a NaN weight, which would score ppl=nan
    from rankprune.container import read_container, write_container

    tensors, _ = read_container(fixture_dir / "model.safetensors")
    tensors["model.layers.1.mlp.up_proj.weight"][0, 0] = np.nan
    write_container(tmp_path / "nan.safetensors", tensors)
    code = main(
        ["eval", "--model", str(tmp_path / "nan.safetensors"), "--config", str(fixture_dir / "config.json"),
         "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"]
    )
    assert code == 2


@pytest.fixture(scope="module")
def stats_file(fixture_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("stats") / "stats.json"
    assert main(
        ["calibrate", "--model", str(fixture_dir / "model.safetensors"),
         "--config", str(fixture_dir / "config.json"), "--data", str(fixture_dir / "calib.bin"),
         "--samples", "8", "--seqlen", "32", "--seed", "1", "--out", str(path)]
    ) == 0
    return path


@pytest.mark.parametrize("command", ["analyze", "mask"])
@pytest.mark.parametrize("bad_input", ["weight", "x_din"])
def test_non_finite_analysis_inputs_exit_2(fixture_dir, stats_file, tmp_path, capsys, command, bad_input):
    from rankprune.container import read_container, write_container

    name = "model.layers.0.self_attn.q_proj.weight"
    model, stats = fixture_dir / "model.safetensors", stats_file
    if bad_input == "weight":
        tensors, _ = read_container(model)
        tensors[name][1, 2] = np.nan
        model = tmp_path / "nan.safetensors"
        write_container(model, tensors)
    else:
        payload = json.loads(stats.read_text())
        payload["x_din"][name][3] = float("nan")
        stats = tmp_path / "nan_stats.json"
        stats.write_text(json.dumps(payload))
    args = [command, "--model", str(model), "--stats", str(stats)]
    if command == "mask":
        args += ["--matrix", name, "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "mask"])
def test_analysis_of_corrupt_manifest_exits_2(fixture_dir, tmp_path, capsys, command):
    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["layers"][0]["provenance"][0] = "bogus"
    (out / "manifest.json").write_text(json.dumps(manifest))
    args = [command, "--model", str(out)]
    if command == "mask":
        args += ["--matrix", "model.layers.0.mlp.up_proj.weight", "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    assert "provenance" in capsys.readouterr().err


Q_PROJ = "model.layers.0.self_attn.q_proj.weight"
Q_L, Q_R = "model.layers.0.self_attn.q_proj.L", "model.layers.0.self_attn.q_proj.R"


def _one_dimensional(tensors):
    tensors[Q_PROJ] = tensors[Q_PROJ][0].copy()
    return Q_PROJ


def _no_columns(tensors):
    tensors[Q_PROJ] = np.zeros((4, 0), dtype=np.float32)
    return Q_PROJ


def _factor_without_partner(tensors):
    del tensors[Q_PROJ]
    tensors[Q_L] = np.ones((64, 8), dtype=np.float32)
    return Q_L


def _right_factor_without_partner(tensors):
    del tensors[Q_PROJ]
    tensors[Q_R] = np.ones((8, 64), dtype=np.float32)
    return Q_R


def _factors_of_different_inner_widths(tensors):
    del tensors[Q_PROJ]
    tensors[Q_L], tensors[Q_R] = np.ones((64, 8), dtype=np.float32), np.ones((4, 64), dtype=np.float32)
    return Q_L


# A bare checkpoint is read without a config, so analyze and mask check each
# projection tensor themselves: a matrix with rows and columns, or an L/R pair
# that multiplies.
@pytest.mark.parametrize("command", ["analyze", "mask"])
@pytest.mark.parametrize(
    "corrupt",
    [_one_dimensional, _no_columns, _factor_without_partner, _right_factor_without_partner,
     _factors_of_different_inner_widths],
)
def test_malformed_projection_in_a_bare_checkpoint_exits_2(fixture_dir, tmp_path, capsys, command, corrupt):
    from rankprune.container import read_container, write_container

    tensors, _ = read_container(fixture_dir / "model.safetensors")
    name = corrupt(tensors)
    write_container(tmp_path / "bad.safetensors", tensors)
    args = [command, "--model", str(tmp_path / "bad.safetensors")]
    if command == "mask":
        args += ["--matrix", "model.layers.1.mlp.up_proj.weight", "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "mask"])
def test_weight_beside_its_factor_pair_in_a_bare_checkpoint_exits_2(fixture_dir, tmp_path, capsys, command):
    # One projection held twice, dense and factored: analyze would print two rows
    # for it and mask would keep whichever form came last.
    from rankprune.container import read_container, write_container

    tensors, _ = read_container(fixture_dir / "model.safetensors")
    tensors[Q_L], tensors[Q_R] = np.ones((64, 8), dtype=np.float32), np.ones((8, 64), dtype=np.float32)
    write_container(tmp_path / "twice.safetensors", tensors)
    args = [command, "--model", str(tmp_path / "twice.safetensors")]
    if command == "mask":
        args += ["--matrix", Q_PROJ, "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert Q_PROJ in err and Q_L in err
    assert not (tmp_path / "mask.pgm").exists()


@pytest.mark.parametrize("command", ["analyze", "mask", "eval", "stats"])
def test_a_directory_without_a_manifest_exits_2(fixture_dir, tmp_path, capsys, command):
    # An interrupted compress leaves its container without the manifest.  Every
    # command reads a directory as a compressed output, so none takes the
    # container for a bare checkpoint.
    out = tmp_path / "interrupted"
    out.mkdir()
    shutil.copy(fixture_dir / "model.safetensors", out / "model.safetensors")
    config = ["--config", str(fixture_dir / "config.json")]
    args = {
        "analyze": [],
        "mask": ["--matrix", Q_PROJ, "--out", str(tmp_path / "mask.pgm")],
        "eval": [*config, "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"],
        "stats": config,
    }[command]
    assert main([command, "--model", str(out), *args]) == 2
    assert "no manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "mask.pgm").exists()


@pytest.mark.parametrize("command", ["analyze", "mask", "calibrate", "compress", "eval", "stats"])
def test_a_checkpoint_with_an_integer_weight_exits_2(fixture_dir, tmp_path, capsys, command):
    # Every command that reads a dense checkpoint requires float weights, as a
    # compressed output's are.
    from rankprune.container import read_container, write_container

    tensors, _ = read_container(fixture_dir / "model.safetensors")
    tensors[Q_PROJ] = np.round(tensors[Q_PROJ] * 100).astype(np.int32)
    model = tmp_path / "model.safetensors"
    write_container(model, tensors)
    config, data = ["--config", str(fixture_dir / "config.json")], ["--data", str(fixture_dir / "calib.bin")]
    args = {
        "analyze": [],
        "mask": ["--matrix", Q_PROJ, "--out", str(tmp_path / "mask.pgm")],
        "calibrate": [*config, *data, "--samples", "2", "--seqlen", "16", "--out", str(tmp_path / "stats.json")],
        "compress": _compress_args(fixture_dir, tmp_path / "z")[3:],
        "eval": [*config, *data, "--seqlen", "64"],
        "stats": config,
    }[command]
    assert main([command, "--model", str(model), *args]) == 2
    captured = capsys.readouterr()
    assert f"tensor {Q_PROJ!r} has dtype int32; weights are float" in captured.err
    assert captured.out == ""
    assert not any(p.name != "model.safetensors" for p in tmp_path.iterdir())


def test_eval_update_report_of_a_bare_checkpoint_exits_2(fixture_dir, capsys):
    args = ["eval", "--model", str(fixture_dir / "model.safetensors"), "--config", str(fixture_dir / "config.json"),
            "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64", "--update-report"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "is a bare checkpoint, which has no run report" in captured.err
    assert captured.out == ""  # refused before any scoring


def test_eval_update_report_of_an_output_without_its_report_exits_2(fixture_dir, compressed_out, tmp_path, capsys):
    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    (out / "report.json").unlink()
    args = ["eval", "--model", str(out), "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64", "--update-report"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "no report.json" in captured.err
    assert captured.out == ""  # refused before any scoring
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["analyze", "mask"])
@pytest.mark.parametrize("x_din", [None, ["not", "a", "map"], {"model.layers.0.self_attn.q_proj.weight": ["a", "b"]}])
def test_malformed_stats_file_exits_2(fixture_dir, tmp_path, capsys, command, x_din):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"format_version": 1} if x_din is None else {"x_din": x_din}))
    args = [command, "--model", str(fixture_dir / "model.safetensors"), "--stats", str(stats)]
    if command == "mask":
        args += ["--matrix", "model.layers.0.self_attn.q_proj.weight", "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    assert "x_din" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "mask"])
@pytest.mark.parametrize(
    "entry, message",
    [(True, "not a vector of numbers"), ("1.5", "not a vector of numbers"), (-1.5, "negative"),
     (10**400, "NaN or infinite")],
    ids=["bool", "string", "negative", "int-beyond-float"],
)
def test_stats_entries_must_be_non_negative_numbers(fixture_dir, stats_file, tmp_path, capsys, command, entry, message):
    # All-negative weights would make `mask` keep the least important weights.
    name = "model.layers.0.self_attn.q_proj.weight"
    payload = json.loads(stats_file.read_text())
    payload["x_din"][name] = [entry] * len(payload["x_din"][name])
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(payload))
    args = [command, "--model", str(fixture_dir / "model.safetensors"), "--stats", str(stats)]
    if command == "mask":
        args += ["--matrix", name, "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert name in err and message in err


# The fields of a stats file beside its format_version and x_din vectors.
# analyze reads only those two, so every edit to these loads; each is asserted to load.
STATS_FIELDS_ANALYZE_IGNORES = {"sample_count", "tokens_per_sample", "seed", "source_sha256"}


def test_every_stats_leaf_edit_under_analyze(fixture_dir, stats_file, tmp_path, capsys):
    written = json.loads(stats_file.read_text())
    assert set(written) == STATS_FIELDS_ANALYZE_IGNORES | {"format_version", "x_din"}
    # Every leaf (the first and last entry of each vector), then each vector whole.
    edits = [(path, label, edit) for path, value in json_leaves(written) for label, edit in leaf_edits(value).items()]
    for name, vec in written["x_din"].items():
        whole = {**leaf_edits(vec), "bogus": "bogus", "nested": [vec], "empty": [], "short": vec[:-1], "long": [*vec, 1.0]}
        edits += [(("x_din", name), label, edit) for label, edit in whole.items()]
    stats = tmp_path / "stats.json"
    results = {}
    for path, label, edit in edits:
        payload = json.loads(json.dumps(written))
        set_leaf(payload, path, edit)
        stats.write_text(json.dumps(payload))
        code = main(["analyze", "--model", str(fixture_dir / "model.safetensors"), "--stats", str(stats)])
        results[f"{'.'.join(map(str, path))} {label}"] = code
        if path == ("format_version",):  # the message names the version it found
            assert f"format_version {edit!r}; this release reads 1" in capsys.readouterr().err
    capsys.readouterr()
    assert len(results) > 14 * 8
    checked = ("x_din.", "format_version ")
    assert {name: code for name, code in results.items() if code != (2 if name.startswith(checked) else 0)} == {}


def test_every_report_leaf_edit_under_eval_update_report(fixture_dir, compressed_out, tmp_path, capsys):
    # eval --update-report reads a report's evaluations and timing objects and
    # writes the rest back as it found it, so only an edit that makes either of
    # them something other than an object exits 2, and leaves the file as it is.
    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    data = tmp_path / "eval.bin"
    data.write_bytes((fixture_dir / "eval.bin").read_bytes()[:257])
    args = ["eval", "--model", str(out), "--data", str(data), "--seqlen", "64", "--update-report"]
    assert main(args) == 0  # evaluations and timing now hold an entry each
    written = json.loads((out / "report.json").read_text())
    containers = {key: leaf_edits(written[key]) for key in ("evaluations", "timing")}
    edits = [(path, label, edit) for path, value in json_leaves(written) for label, edit in leaf_edits(value).items()]
    edits += [((key,), label, edit) for key, flips in containers.items() for label, edit in flips.items()]
    results = {}
    for path, label, edit in edits:
        report = json.loads(json.dumps(written))
        set_leaf(report, path, edit)
        raw = json.dumps(report).encode()
        (out / "report.json").write_bytes(raw)
        code = main(args)
        results[f"{'.'.join(map(str, path))} {label}"] = code
        if code != 0:
            assert (out / "report.json").read_bytes() == raw
    capsys.readouterr()
    assert set(results.values()) == {0, 2}
    assert {name for name, code in results.items() if code == 2} == {
        f"{key} {label}" for key, flips in containers.items() for label in flips
    }


def test_main_calls_share_one_parser(tmp_path, monkeypatch, capsys):
    from rankprune import cli

    parsers = []
    parse = cli._Parser.parse_args

    def recording_parse(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording_parse)
    for _ in range(2):
        assert main(["stats", "--model", str(tmp_path / "missing.safetensors")]) == 1
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_analyze_rejects_stats_of_another_shape(fixture_dir, stats_file, tmp_path, capsys):
    name = "model.layers.0.self_attn.q_proj.weight"
    payload = json.loads(stats_file.read_text())
    payload["x_din"][name] = [1.0, 2.0, 3.0]
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(payload))
    assert main(["analyze", "--model", str(fixture_dir / "model.safetensors"), "--stats", str(stats)]) == 2
    err = capsys.readouterr().err
    assert name in err and "3 entries" in err and "64 inputs" in err


@pytest.fixture(scope="module")
def compressed_out(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("compressed") / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    return out


def _drop(tensors, name):
    del tensors[name]


def _narrow_columns(tensors, name):
    tensors[name] = np.ascontiguousarray(tensors[name][:, :32])


def _cut_rows(tensors, name):
    tensors[name] = tensors[name][:200].copy()


def _add(tensors, name):
    tensors[name] = np.zeros(3, dtype=np.float32)


# The tensors outside the compressed projections: a compressed output must
# hold them at the shapes its config implies, and nothing else.
@pytest.mark.parametrize(
    "corrupt, name",
    [
        (_drop, "model.norm.weight"),
        (_drop, "model.layers.1.post_attention_layernorm.weight"),
        (_drop, "model.layers.0.input_layernorm.weight"),
        (_narrow_columns, "model.embed_tokens.weight"),
        (_cut_rows, "lm_head.weight"),
        (_add, "foo"),
    ],
)
def test_corrupt_non_layer_tensors_exit_2(fixture_dir, compressed_out, tmp_path, capsys, corrupt, name):
    import shutil

    from rankprune.container import read_container, write_container

    out = tmp_path / "corrupt"
    shutil.copytree(compressed_out, out)
    tensors, meta = read_container(out / "model.safetensors")
    corrupt(tensors, name)
    write_container(out / "model.safetensors", tensors, metadata=meta)
    for args in (["stats"], ["eval", "--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"]):
        assert main([*args, "--model", str(out)]) == 2
        assert name in capsys.readouterr().err


def _as_format_1(manifest):
    """An awsvd/prune manifest as format 1 wrote it: no global.plan, and every
    layer record the plan with its data filled in."""
    glob = manifest["global"]
    plan = glob.pop("plan")
    mha = {**plan["mha"], "kept_heads": None, "alloc_ratio": glob["alloc_ratio"]}
    del mha["kept_head_count"]
    manifest["layers"] = [
        {"layer": rec["layer"], "keep_ratio": glob["layer_keep_ratio"], "mha": mha,
         "ffn": {"kind": "pruned", **plan["ffn"], "retained_channels": rec["retained_channels"],
                 "provenance": rec["provenance"]}}
        for rec in manifest["layers"]
    ]
    manifest["format_version"] = 1
    return manifest


# The format 1 manifest of the awsvd/prune fixture run, pinned before
# format 2: _as_format_1 rebuilds it byte for byte, so format 2 dropped no fact.
FORMAT_1_MANIFEST = "562e9bf04a2baecb9b7dec6abc1450cfefbc74e471015fc229b834c4a4320ba0"


@pytest.mark.parametrize("command", ["stats", "eval", "analyze", "mask"])
def test_format_1_manifest_exits_2_naming_its_version(fixture_dir, compressed_out, tmp_path, capsys, command):
    from rankprune.util import canonical_json

    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    manifest = canonical_json(_as_format_1(json.loads((out / "manifest.json").read_text())))
    assert hashlib.sha256(manifest.encode()).hexdigest() == FORMAT_1_MANIFEST
    (out / "manifest.json").write_text(manifest)
    args = [command, "--model", str(out)]
    if command == "eval":
        args += ["--data", str(fixture_dir / "eval.bin"), "--seqlen", "64"]
    if command == "mask":
        args += ["--matrix", "model.layers.0.mlp.up_proj.weight", "--out", str(tmp_path / "mask.pgm")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "unsupported manifest format_version 1" in err and "re-run compress" in err


@pytest.mark.parametrize("config", ["absent", "no_dim", "not_an_object"])
def test_manifest_without_usable_config_exits_2(fixture_dir, tmp_path, capsys, config):
    from rankprune import store
    from rankprune.errors import ManifestError

    out = tmp_path / "z"
    assert main(_compress_args(fixture_dir, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if config == "absent":
        manifest = {}
    elif config == "no_dim":
        del manifest["config"]["dim"]
    else:
        manifest["config"] = [4, 2]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError):
        store.load_compressed(out)
    capsys.readouterr()
    assert main(["stats", "--model", str(out)]) == 2
    assert "config" in capsys.readouterr().err


# A bool is not a count (true ran one layer and dropped the rest as extras), an
# infinite eps or theta is not a value the layer step can use, and a config
# that is not an object used to end in a TypeError traceback.
@pytest.mark.parametrize(
    "field, value",
    [
        ("n_layers", True),
        ("norm_eps", float("inf")),
        ("rope_theta", float("inf")),
        ("norm_eps", "x"),
        (None, None),
        (None, 5),
        (None, "dim"),
    ],
)
def test_bad_config_values_exit_1_as_a_file_and_2_in_a_manifest(
    fixture_dir, compressed_out, tmp_path, capsys, field, value
):
    from rankprune.config import ModelConfig

    good = json.loads((fixture_dir / "config.json").read_text())
    bad = value if field is None else {**good, field: value}
    with pytest.raises(ValueError, match="config"):
        ModelConfig.from_dict(bad)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    eval_args = ["--data", str(fixture_dir / "eval.bin"), "--seqlen", "128"]
    assert main(["eval", "--model", str(fixture_dir / "model.safetensors"), "--config", str(config), *eval_args]) == 1
    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"] = bad
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["stats", "--model", str(out)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compress", "calibrate"])
def test_calibration_token_outside_vocab_exits_2(fixture_dir, tmp_path, capsys, command):
    data = tmp_path / "calib.u32"
    data.write_bytes(np.full(4096, 256, dtype="<u4").tobytes())  # vocab is 256
    if command == "compress":
        args = _compress_args(fixture_dir, tmp_path / "never")
        args[args.index("--data") + 1] = str(data)
    else:
        args = ["calibrate", "--model", str(fixture_dir / "model.safetensors"),
                "--config", str(fixture_dir / "config.json"), "--data", str(data),
                "--samples", "8", "--seqlen", "32", "--out", str(tmp_path / "stats.json")]
    assert main([*args, "--data-format", "u32"]) == 2
    assert "token id 256 outside vocabulary" in capsys.readouterr().err


def test_eval_u32_byte_sweep(fixture_dir, tmp_path, capsys):
    # 19 tokens at seqlen 8: two windows score targets 1..16, and tokens 17
    # and 18 are a tail no window reads.  Every id is checked, so a byte set
    # to 0xFF exits 2 wherever it puts an id outside the vocabulary (256):
    # everywhere but an id's low byte, which makes it 255.
    raw = np.frombuffer((fixture_dir / "eval.bin").read_bytes()[:19], dtype=np.uint8).astype("<u4").tobytes()
    data = tmp_path / "eval.u32"
    model = ["--model", str(fixture_dir / "model.safetensors"), "--config", str(fixture_dir / "config.json")]

    def run(payload):
        data.write_bytes(payload)
        return main(["eval", *model, "--data", str(data), "--data-format", "u32", "--seqlen", "8"])

    codes = [run(raw[:i] + b"\xff" + raw[i + 1 :]) for i in range(len(raw))]
    assert codes == [0 if i % 4 == 0 else 2 for i in range(len(raw))]
    assert [run(raw[:-cut]) for cut in (1, 2, 3)] == [2, 2, 2]
    err = capsys.readouterr().err
    assert err.count("outside vocabulary [0, 256)") == 3 * 19 and err.count("is not a multiple of 4") == 3


@pytest.mark.parametrize("command", ["compress", "calibrate"])
def test_calibration_token_outside_vocab_in_an_unsampled_block_exits_2(fixture_dir, tmp_path, capsys, command):
    stream = np.frombuffer((fixture_dir / "calib.bin").read_bytes(), dtype=np.uint8).astype("<u4")
    samples, seed = (16, 7) if command == "compress" else (8, 1)
    _, starts = pipeline.sample_calibration_windows(stream, samples, 32, seed)
    stream[next(b * 32 for b in range(stream.size // 32) if b * 32 not in starts)] = 261
    data = tmp_path / "calib.u32"
    data.write_bytes(stream.tobytes())
    if command == "compress":
        args = _compress_args(fixture_dir, tmp_path / "never")
        args[args.index("--data") + 1] = str(data)
    else:
        args = ["calibrate", "--model", str(fixture_dir / "model.safetensors"),
                "--config", str(fixture_dir / "config.json"), "--data", str(data),
                "--samples", "8", "--seqlen", "32", "--seed", "1", "--out", str(tmp_path / "stats.json")]
    assert main([*args, "--data-format", "u32"]) == 2
    assert "token id 261 outside vocabulary [0, 256)" in capsys.readouterr().err
    assert not (tmp_path / "never").exists() and not (tmp_path / "stats.json").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["compress", "--help"]) == 0


# UnicodeDecodeError is a ValueError; a file that is not UTF-8 is a data
# fault like invalid JSON, not a usage error.
@pytest.mark.parametrize(
    "command, bad_file",
    [("stats", "manifest.json"), ("analyze", "manifest.json"), ("mask", "manifest.json"),
     ("analyze", "stats.json"), ("mask", "stats.json"), ("eval", "report.json")],
)
def test_file_that_is_not_utf8_exits_2(fixture_dir, compressed_out, tmp_path, capsys, command, bad_file):
    out = tmp_path / "z"
    shutil.copytree(compressed_out, out)
    (out / bad_file).write_bytes(b"{\"x_din\": \"\xff\xfe\"}")
    if bad_file == "stats.json":
        args = [command, "--model", str(fixture_dir / "model.safetensors"), "--stats", str(out / bad_file)]
    else:
        args = [command, "--model", str(out)]
    if command == "mask":
        args += ["--matrix", "model.layers.0.mlp.up_proj.weight", "--out", str(tmp_path / "mask.pgm")]
    if command == "eval":
        args += ["--data", str(fixture_dir / "eval.bin"), "--seqlen", "64", "--update-report"]
    assert main(args) == 2
    assert "usage error" not in capsys.readouterr().err
