#!/usr/bin/env python3
"""rankprune benchmark: compress and eval on planted fixtures, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's fixture (planted checkpoint, config, calibration and
eval token files) from the seed, then runs `rankprune compress` and
`rankprune eval` through `rankprune.cli.main`, the way a user calls the
CLI, until S seconds have passed, checking every output.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  A report with the samples and
the environment is written to .bench_out/ at the repository root.
perfbench/README.md explains the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

KEEP_RATIO = 0.5
KEEP_TOLERANCE = 0.005  # realized layer keep within +-0.5% of the plan
PLAN_ARGS = ["--ratio", str(KEEP_RATIO), "--alloc", "1:3", "--agg", "l2", "--retain-least", "0.01"]
SETUP_REPEATS = 3
MIN_OP_SECONDS = 1.0  # an untraced cycle repeats a shorter operation up to this
# The checkpoint and the eval stream are part of a workload, like a model and
# its held-out test split; --seed draws the calibration stream.
MODEL_SEED = 0
EVAL_SEED = 1
SAMPLE_WINDOW = 128  # tokens per independently sampled window of a token stream
OUTPUT_FILES = ("model.safetensors", "manifest.json", "report.json")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n_heads: int
    n_layers: int
    ffn_dim: int
    calib_samples: int
    calib_seqlen: int
    eval_tokens: int
    eval_seqlen: int
    eval_dense: bool = False  # eval reads the dense checkpoint, not the compressed output


WORKLOADS = {
    w.name: w
    for w in (
        # Calibration re-forwards the compressed prefix: quadratic in depth.
        Workload("deep-calib", dim=64, n_heads=4, n_layers=8, ffn_dim=172,
                 calib_samples=32, calib_seqlen=128, eval_tokens=2048, eval_seqlen=128),
        # Two wide layers: SVD, pruning and serialization, almost no prefix.
        Workload("wide-factor", dim=512, n_heads=8, n_layers=2, ffn_dim=1376,
                 calib_samples=8, calib_seqlen=64, eval_tokens=1024, eval_seqlen=128),
        # Long-window dense eval: O(T^2) attention; compress is one-window minimal.
        Workload("eval-long", dim=64, n_heads=4, n_layers=4, ffn_dim=172,
                 calib_samples=1, calib_seqlen=128, eval_tokens=2048, eval_seqlen=512,
                 eval_dense=True),
    )
}

# (name, unit, better, bound)
END_TO_END = [
    ("compress_s", "s", "lower", 0.25),
    ("eval_tok_s", "tok/s", "higher", 0.25),
    ("ppl", "ppl", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Traced functions, as (module, attr); each is reported as module.attr.
TRACED = [
    ("pipeline", "compress_model"),
    ("pipeline", "write_outputs"),
    ("pipeline", "load_any_model"),
    ("transformer", "forward"),
    ("transformer", "collect_stats"),
    ("transformer", "perplexity"),
    ("transformer", "load_dense_model"),
    ("lowrank", "compress_mha"),
    ("linalg", "svd"),
    ("pruning", "group_scores"),
    ("pruning", "decide_pruning"),
    ("pruning", "apply_pruning"),
    ("store", "load_model"),
    ("store", "write_compressed"),
    ("store", "load_compressed"),
    ("container", "read_container"),
    ("container", "write_container"),
    ("synth", "make_planted_model"),
    ("synth", "sample_from_model"),
]
CLI_SPANS = ("cli.compress", "cli.eval")
# The root spans under which each name is counted.  Forward calls made by
# eval are counted by transformer.perplexity, so transformer.forward covers
# the calibration forwards of compress alone; synth runs during set-up.
SCOPE = {"cli.compress": ("cli.compress",), "cli.eval": ("cli.eval",)}
SCOPE.update({f"{m}.{a}": CLI_SPANS for m, a in TRACED})
SCOPE.update({"transformer.forward": ("cli.compress",),
              "synth.make_planted_model": ("setup",), "synth.sample_from_model": ("setup",)})
COUNTS = [
    ("transformer.forward.tokens", "count", "lower"),
    ("transformer.forward.layer_passes", "count", "lower"),
    ("transformer.perplexity.tokens", "count", "higher"),
    ("transformer.perplexity.layer_passes", "count", "lower"),
    ("transformer.perplexity.macs", "MAC_computed", "lower"),
    ("store.write_compressed.bytes", "B", "lower"),
    ("store.load_compressed.bytes", "B", "lower"),
    ("synth.sample_from_model.tokens", "count", "higher"),
]
BASE_STATS = [("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count")]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{n}.{stat}", unit, "lower") for n in SCOPE for stat, unit in BASE_STATS]
    return out + COUNTS + [("trace.overhead_s", "s", "lower")]


# ---------------------------------------------------------------------------
# Count hooks: computed from a traced call's arguments and result.


def _count_forward(a: dict, _result) -> dict:
    n_layers = len(a["model"].layers)
    stop = a["stop_after_layer"]
    return {"tokens": len(a["tokens"]), "layer_passes": n_layers if stop is None else min(stop + 1, n_layers)}


def _count_perplexity(a: dict, _result) -> dict:
    from rankprune import transformer

    windows = (len(a["stream"]) - 1) // a["seq_len"]
    _, macs = transformer.count_params_macs(a["model"], a["seq_len"])
    return {"tokens": windows * a["seq_len"], "layer_passes": windows * len(a["model"].layers), "macs": windows * macs}


def _dir_bytes(path) -> int:
    path = Path(path)
    directory = path if path.is_dir() else path.parent
    return sum((directory / n).stat().st_size for n in ("model.safetensors", "manifest.json"))


COUNT_HOOKS = {
    "transformer.forward": _count_forward,
    "transformer.perplexity": _count_perplexity,
    "store.write_compressed": lambda a, result: {"bytes": _dir_bytes(result)},
    "store.load_compressed": lambda a, _result: {"bytes": _dir_bytes(a["path"])},
    "synth.sample_from_model": lambda _a, result: {"tokens": len(result)},
}


def trace_targets():
    import importlib

    from calltrace import Target

    out = []
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        mod = importlib.import_module(f"rankprune.{module}")
        out.append(Target(module=mod, attr=attr, name=name, count=COUNT_HOOKS.get(name)))
    return out


# ---------------------------------------------------------------------------
# Fixture and operations


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_fixture(wl: Workload, seed: int, out_dir: Path) -> dict[str, str]:
    """Write model.safetensors, config.json, calib.bin and eval.bin; return their digests."""
    from rankprune import container, synth, transformer
    from rankprune.config import ModelConfig
    from rankprune.util import canonical_json

    config = ModelConfig(dim=wl.dim, n_heads=wl.n_heads, head_dim=wl.dim // wl.n_heads,
                         n_layers=wl.n_layers, ffn_dim=wl.ffn_dim, vocab_size=256)
    model = synth.make_planted_model(config, MODEL_SEED)
    calib = synth.sample_from_model(model, wl.calib_samples * wl.calib_seqlen, seed + 2, window=SAMPLE_WINDOW)
    evalset = synth.sample_from_model(model, wl.eval_tokens + 1, EVAL_SEED, window=SAMPLE_WINDOW)
    out_dir.mkdir(parents=True, exist_ok=True)
    container.write_container(out_dir / "model.safetensors", transformer.model_to_tensors(model))
    (out_dir / "config.json").write_text(canonical_json(config.to_dict()), encoding="utf-8")
    (out_dir / "calib.bin").write_bytes(transformer.detokenize_bytes(calib))
    (out_dir / "eval.bin").write_bytes(transformer.detokenize_bytes(evalset))
    return {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}


@dataclass
class Op:
    kind: str          # "compress" or "eval"
    cycle: int
    traced: bool
    wall_s: float
    ok: bool
    problems: list[str]
    tokens: int = 0
    ppl: float | None = None


class Bench:
    """One workload's fixture, operations and output checks."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.fixture = work / "fixture"
        self.ops: list[Op] = []
        self.setup_s: list[float] = []
        self.setup_problems: list[str] = []
        self.spans = []               # every traced span, for the spans file
        self.layer_samples: list[dict] = []   # aggregated per traced cycle
        self.setup_layers: dict = {}
        self._fixture_digest = None
        self._output_digest = None
        self._ppl = None

    # -- setup --------------------------------------------------------------

    def setup(self, recorder=None) -> None:
        if self.fixture.exists():
            shutil.rmtree(self.fixture)
        t0 = time.perf_counter()
        if recorder is None:
            digest = build_fixture(self.wl, self.seed, self.fixture)
        else:
            from calltrace import traced

            with traced(recorder, trace_targets()), recorder.span("setup"):
                digest = build_fixture(self.wl, self.seed, self.fixture)
        self.setup_s.append(time.perf_counter() - t0)
        if self._fixture_digest is None:
            self._fixture_digest = digest
        elif digest != self._fixture_digest:
            self.setup_problems.append(f"setup {len(self.setup_s)} wrote a different fixture for the same seed")

    # -- operations ---------------------------------------------------------

    def _call(self, argv: list[str], recorder, span_name: str):
        """Run cli.main(argv); returns (exit code or None, stdout, stderr, wall seconds)."""
        from rankprune import cli

        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is None:
                    rc = cli.main(argv)
                else:
                    from calltrace import traced

                    with traced(recorder, trace_targets()), recorder.span(span_name) as span:
                        rc = cli.main(argv)
                        span.error = rc != 0
        except Exception:  # an operation that raises counts as failed; the run goes on
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def compress(self, cycle: int, recorder=None) -> Op:
        wl, fx = self.wl, self.fixture
        out_dir = self.work / f"out-{cycle}"
        argv = ["compress", "--model", str(fx / "model.safetensors"), "--config", str(fx / "config.json"),
                "--data", str(fx / "calib.bin"), *PLAN_ARGS, "--samples", str(wl.calib_samples),
                "--seqlen", str(wl.calib_seqlen), "--seed", str(self.seed), "--out", str(out_dir)]
        rc, _stdout, stderr, wall = self._call(argv, recorder, "cli.compress")
        problems = [] if rc == 0 else [f"compress exited {rc}: {stderr.strip()[-500:]}"]
        if not problems:
            problems = self.check_compressed(out_dir)
        op = Op("compress", cycle, recorder is not None, wall, not problems, problems)
        self.ops.append(op)
        return op

    def check_compressed(self, out_dir: Path) -> list[str]:
        from rankprune import store
        from rankprune.errors import CompressionError

        problems = []
        try:
            store.load_compressed(out_dir)
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            target = KEEP_RATIO * report["layer_params_before"]
            rel = abs(report["layer_params_after"] - target) / target
            if rel > KEEP_TOLERANCE:
                problems.append(f"realized layer keep is {100 * rel:.3f}% off the plan")
            digest = {name: _sha256(out_dir / name) for name in OUTPUT_FILES}
        except (CompressionError, OSError, ValueError, KeyError) as exc:
            return problems + [f"output does not reload: {exc!r}"]
        if self._output_digest is None:
            self._output_digest = digest
        elif digest != self._output_digest:
            changed = [n for n in OUTPUT_FILES if digest[n] != self._output_digest[n]]
            problems.append(f"repeated compress changed {', '.join(changed)}")
        return problems

    def eval(self, cycle: int, recorder=None) -> Op:
        wl, fx = self.wl, self.fixture
        if wl.eval_dense:
            model_args = ["--model", str(fx / "model.safetensors"), "--config", str(fx / "config.json")]
        else:
            model_args = ["--model", str(self.work / f"out-{cycle}")]
        argv = ["eval", *model_args, "--data", str(fx / "eval.bin"), "--seqlen", str(wl.eval_seqlen)]
        rc, stdout, stderr, wall = self._call(argv, recorder, "cli.eval")
        problems, ppl = [], None
        if rc != 0:
            problems.append(f"eval exited {rc}: {stderr.strip()[-500:]}")
        else:
            m = re.search(r"^ppl=(\S+)$", stdout, re.MULTILINE)
            ppl = float(m.group(1)) if m else None
            if ppl is None or not math.isfinite(ppl):
                problems.append(f"eval printed no finite ppl: {stdout.strip()[-200:]!r}")
            elif self._ppl is None:
                self._ppl = ppl
            elif ppl != self._ppl:
                problems.append(f"repeated eval gave ppl={ppl!r}, first gave {self._ppl!r}")
        tokens = wl.eval_tokens // wl.eval_seqlen * wl.eval_seqlen
        op = Op("eval", cycle, recorder is not None, wall, not problems, problems, tokens=tokens, ppl=ppl)
        self.ops.append(op)
        return op

    def cycle(self, k: int, trace: bool) -> None:
        """compress, then eval of its output.

        An untraced cycle repeats each operation until it has run for
        MIN_OP_SECONDS, so short operations give several samples.  A traced
        cycle runs each once and aggregates its spans per operation pair.
        """
        from calltrace import Recorder, aggregate

        recorder = Recorder() if trace else None
        for op in (self.compress, self.eval):
            spent = 0.0
            while True:
                done = op(k, recorder)
                spent += done.wall_s
                if not done.ok or trace or spent >= MIN_OP_SECONDS:
                    break
            if not done.ok:
                break
        stale = self.work / f"out-{k - 1}"
        if stale.exists():
            shutil.rmtree(stale)
        if recorder is not None:
            self.spans.append([asdict(s) for s in recorder.spans])
            self.layer_samples.append(aggregate(recorder.spans, SCOPE))


# ---------------------------------------------------------------------------
# Reporting


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v) if v else None, "samples": values}
    if n >= 11:
        out.update({"tail_pct": round(100.0 * (n - 10) / n, 2), "tail_value": v[n - 11]})
    return out


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # numpy's wheel bundles OpenBLAS under numpy.libs; ask it for its thread count.
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def summarize(bench: Bench, trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, detail for the report file)."""
    compress = [o.wall_s for o in bench.ops if o.kind == "compress" and o.ok and not o.traced]
    evals = [o for o in bench.ops if o.kind == "eval" and o.ok and not o.traced]
    detail = {
        "setup_s": bench.setup_s,
        "compress_s": tail(compress),
        "eval_s": tail([o.wall_s for o in evals]),
        "eval_tok_s": tail([o.tokens / o.wall_s for o in evals]),
    }
    if trace:
        traced_compress = [o.wall_s for o in bench.ops if o.kind == "compress" and o.ok and o.traced]
        detail["compress_s_traced"] = tail(traced_compress)
        samples = [{**s, **bench.setup_layers} for s in bench.layer_samples]
        values = {name: statistics.median(s.get(name, 0) for s in samples) for name, _, _ in per_layer_metrics()}
        if compress and traced_compress:
            values["trace.overhead_s"] = statistics.median(traced_compress) - statistics.median(compress)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
        return metrics, detail
    values = {
        "compress_s": detail["compress_s"]["median"],
        "eval_tok_s": detail["eval_tok_s"]["median"],
        "ppl": next((o.ppl for o in evals), None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(bench.setup_s),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    return metrics, detail


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from calltrace import Recorder, aggregate

    work = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    bench = Bench(wl, seed, work)
    try:
        for i in range(SETUP_REPEATS):
            # A traced run traces its last set-up, for the synth spans.
            recorder = Recorder() if trace and i == SETUP_REPEATS - 1 else None
            bench.setup(recorder)
            if recorder is not None:
                bench.spans.append([asdict(s) for s in recorder.spans])
                agg = aggregate(recorder.spans, SCOPE)
                bench.setup_layers = {k: v for k, v in agg.items() if k.startswith("synth.")}
        # Traced runs alternate untraced and traced cycles, so the overhead
        # is measured against untraced cycles of the same run.
        # A cycle is not started if it would, at the length of the last one,
        # end more than half a cycle past the deadline.
        min_cycles = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        k, last = 0, 0.0
        while k < min_cycles or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            bench.cycle(k, trace and k % 2 == 1)
            last = time.perf_counter() - t0
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, detail = summarize(bench, trace)
    attempted = len(bench.ops)
    failed = sum(not o.ok for o in bench.ops)
    correct = failed == 0 and not bench.setup_problems and all(
        m["value"] is not None for m in metrics.values()
    )
    return {
        "workload": asdict(wl),
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "detail": detail,
        "problems": bench.setup_problems + [p for o in bench.ops for p in o.problems],
        "spans": bench.spans,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative; draws the calibration data")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "rankprune" / "__init__.py").is_file():
        print(f"perfbench: no rankprune sources under {SRC}", file=sys.stderr)
        return 2
    # One process with one BLAS thread, never more than nproc, so the numbers
    # do not depend on the machine's core count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = report.pop("spans")
    if spans:
        (OUT / f"spans_{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    result = report["result"]
    env = report["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, d in report["detail"].items():
        print(f"{name} {d}")
    for problem in report["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(f"fail_frac {result['failed']}/{result['attempted']} = {result['failed'] / max(result['attempted'], 1):.4f}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
