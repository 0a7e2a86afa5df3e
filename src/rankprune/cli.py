"""Command-line surface.

Subcommands: analyze, mask, calibrate, compress, eval, stats.
Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline, pruning, store
from .config import ModelConfig
from .errors import CompressionError, DataError
from .lowrank import parse_alloc_ratio
from .transformer import check_tokens, collect_stats, count_params_macs, load_dense_model, read_token_file
from .util import canonical_json, sha256_file


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: _Parser) -> None:
    p.add_argument("--out", default=None, help="output file or directory")


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="token file")
    p.add_argument(
        "--data-format",
        choices=("bytes", "u32"),
        default="bytes",
        help="raw text for the byte tokenizer, or little-endian u32 ids",
    )


@functools.cache  # one parser per process: main is called in-process, many times over
def build_parser() -> _Parser:
    parser = _Parser(prog="rankprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="spectral energy table over all weight matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--energy", type=float, default=0.8)
    p.add_argument("--stats", default=None, help="calibration stats JSON; adds the weighted row")
    p.add_argument("--sigma", action="store_true", help="use plain singular values as mass instead of their squares")
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("mask", help="export an importance keep/prune mask as a PGM image")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", required=True, help="qualified tensor name")
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--stats", default=None, help="calibration stats JSON (unit norms when omitted)")
    p.add_argument("--out", required=True, help="PGM image file")
    p.set_defaults(handler=cmd_mask)

    p = sub.add_parser("calibrate", help="collect per-matrix input-norm statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    _add_data_args(p)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--seqlen", type=int, default=128)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for drawing the calibration windows")
    p.add_argument("--out", required=True, help="stats JSON file")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("compress", help="run the full compression pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True, help="model config JSON of the source checkpoint")
    _add_data_args(p)
    ratio = p.add_mutually_exclusive_group(required=True)
    ratio.add_argument("--ratio", type=float, default=None, help="per-layer retained fraction in (0, 1]")
    ratio.add_argument(
        "--target-ratio", type=float, default=None,
        help="whole-model removal fraction; converted to the layer level",
    )
    p.add_argument("--alloc", default="1:3", help="qk:vo parameter allocation, e.g. 1:3")
    p.add_argument("--agg", choices=pruning.AGGREGATIONS, default="l2")
    p.add_argument("--retain-least", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=128, help="calibration samples")
    p.add_argument("--seqlen", type=int, default=128, help="tokens per calibration sample")
    p.add_argument("--mha-method", choices=store.MHA_METHODS, default="awsvd")
    p.add_argument("--ffn-method", choices=store.FFN_METHODS, default="prune")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for drawing the calibration windows")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_compress)

    p = sub.add_parser("eval", help="perplexity over non-overlapping windows")
    p.add_argument("--model", required=True, help="compressed output directory or bare checkpoint")
    p.add_argument("--config", default=None)
    _add_data_args(p)
    p.add_argument("--seqlen", type=int, default=128)
    p.add_argument("--update-report", action="store_true", help="record the result in the run report")
    _add_common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("stats", help="parameter and MAC counts")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seqlen", type=int, default=128)
    _add_common(p)
    p.set_defaults(handler=cmd_stats)

    return parser


def _load_model(path: str, config_path: str | None):
    config = ModelConfig.from_json(config_path) if config_path else None
    return pipeline.load_any_model(path, config)


def _load_stats_file(path: str) -> dict[str, np.ndarray]:
    """The x_din vectors of a `calibrate` stats file: lists of finite, non-negative
    JSON numbers (not booleans or strings); anything else in it is a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    vectors = payload.get("x_din") if isinstance(payload, dict) else None
    if not isinstance(vectors, dict):
        raise DataError(f"{path}: stats file has no x_din object mapping matrix names to vectors")
    x_din = {}
    for name, vec in vectors.items():
        if type(vec) is not list or not all(type(v) in (int, float) for v in vec):
            raise DataError(f"{path}: x_din of {name!r} is not a vector of numbers")
        try:
            x_din[name] = np.asarray(vec, dtype=np.float64)
        except OverflowError as exc:  # an integer beyond the float range
            raise DataError(f"{path}: x_din of {name!r} holds NaN or infinite values") from exc
        if not np.isfinite(x_din[name]).all():
            raise DataError(f"{path}: x_din of {name!r} holds NaN or infinite values")
        if (x_din[name] < 0).any():
            raise DataError(f"{path}: x_din of {name!r} holds negative values; input norms are non-negative")
    return x_din


def _projection_matrices(model_path: str) -> list[tuple[str, np.ndarray]]:
    """All projection matrices from a checkpoint or compressed directory,
    reconstructing L @ R for factored entries; no model config needed.  A
    projection tensor that is not a matrix with rows and columns, a factor
    without its partner or of another inner width, or a weight stored beside
    a factor of the same projection, is a DataError."""
    from .container import read_container

    p = Path(model_path)
    path = p / "model.safetensors" if p.is_dir() else p
    if (path.parent / "manifest.json").exists():  # a compressed output, validated like `eval` loads it
        tensors = store.load_compressed(path)[1]
    else:
        tensors, _ = read_container(path)
    projections = {name: store.split_projection_name(name) for name in tensors}
    for name, arr in tensors.items():
        store.require_finite(path, name, arr)
        if projections[name] is not None and (arr.ndim != 2 or 0 in arr.shape):
            raise DataError(f"{path}: projection tensor {name!r} has shape {arr.shape}; expected a non-empty matrix")
    out = []
    for name, parsed in projections.items():
        if parsed is None:
            continue
        layer, proj, suffix = parsed
        wname = store.weight_name(layer, proj.name)
        lname, rname = store.factor_names(wname)
        if suffix != "weight" and not (lname in tensors and rname in tensors):
            raise DataError(f"{path}: factor {name!r} has no partner; {lname!r} and {rname!r} come as a pair")
        if suffix == "weight" and (lname in tensors or rname in tensors):
            factor = lname if lname in tensors else rname
            raise DataError(f"{path}: {name!r} and {factor!r} both hold projection {wname!r}; keep one form")
        if suffix == "R":
            continue
        w = tensors[name].astype(np.float64)
        if suffix == "L":
            r = tensors[rname]
            if r.shape[0] != w.shape[1]:
                raise DataError(f"{path}: factors {name!r} {w.shape} and {rname!r} {r.shape} differ in inner width")
            w = w @ r.astype(np.float64)
        out.append((layer, store.PROJECTIONS.index(proj), wname, w))
    out.sort(key=lambda entry: entry[:2])
    return [(name, w) for _, _, name, w in out]


def cmd_analyze(args) -> int:
    matrices = _projection_matrices(args.model)
    if not matrices:
        raise CompressionError(f"no projection matrices found in {args.model}")
    x_din = _load_stats_file(args.stats) if args.stats else None
    rows = []
    for name, w in matrices:
        row = {
            "matrix": name,
            "rank_pct": pruning.energy_rank_ratio(w, args.energy, use_singular_values=args.sigma),
        }
        if x_din is not None and name in x_din:
            if len(x_din[name]) != w.shape[1]:
                raise DataError(
                    f"x_din of {name!r} has {len(x_din[name])} entries, the matrix has {w.shape[1]} inputs; "
                    "stats must come from a model with the same shapes"
                )
            row["rank_pct_weighted"] = pruning.energy_rank_ratio(
                w, args.energy, x_din=x_din[name], use_singular_values=args.sigma
            )
        rows.append(row)
    for row in rows:
        line = f"{row['matrix']}: {row['rank_pct']:.2f}%"
        if "rank_pct_weighted" in row:
            line += f" (weighted {row['rank_pct_weighted']:.2f}%)"
        print(line)
    if args.out:
        Path(args.out).write_text(canonical_json({"energy": args.energy, "rows": rows}), encoding="utf-8")
    return 0


def cmd_mask(args) -> int:
    by_name = dict(_projection_matrices(args.model))
    if args.matrix not in by_name:
        raise CompressionError(f"matrix {args.matrix!r} not found in the model")
    w = by_name[args.matrix]
    if args.stats:
        x_din = _load_stats_file(args.stats).get(args.matrix)
        if x_din is None or len(x_din) != w.shape[1]:
            raise CompressionError(f"stats file has no usable x_din for {args.matrix!r}")
    else:
        x_din = np.ones(w.shape[1])
    mask, pgm = pruning.wanda_mask(w, x_din, args.sparsity)
    Path(args.out).write_bytes(pgm)
    print(f"kept {int(mask.sum())} of {mask.size} weights -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    model, _ = _load_model(args.model, args.config)
    stream = read_token_file(args.data, args.data_format)
    calib, _starts = pipeline.sample_calibration_windows(stream, args.samples, args.seqlen, args.seed)
    check_tokens(model, stream)  # the whole stream, as compress checks it
    # Matrices fed from the same site get the same vector.
    x_din = {
        store.weight_name(i, p.name): [float(v) for v in by_site[p.site]]
        for i, by_site in enumerate(collect_stats(model, calib))
        for p in store.PROJECTIONS
    }
    payload = {
        "format_version": 1,
        "sample_count": args.samples,
        "tokens_per_sample": args.seqlen,
        "seed": args.seed,
        "source_sha256": sha256_file(args.data),
        "x_din": x_din,
    }
    Path(args.out).write_text(canonical_json(payload), encoding="utf-8")
    print(f"stats for {len(x_din)} matrices -> {args.out}")
    return 0


def cmd_compress(args) -> int:
    config = ModelConfig.from_json(args.config)
    stream = read_token_file(args.data, args.data_format)
    knobs = dict(
        alloc_ratio=parse_alloc_ratio(args.alloc),
        aggregation=args.agg,
        retain_least=args.retain_least,
        seed=args.seed,
        calib_samples=args.samples,
        calib_tokens=args.seqlen,
        mha_method=args.mha_method,
        ffn_method=args.ffn_method,
    )
    if args.ratio is not None:
        plan = pipeline.CompressionPlan(keep_ratio=args.ratio, **knobs)
    else:
        plan = pipeline.plan_from_ratio_s(config, args.target_ratio, **knobs)
    # Unbound here, so compress_model holds the only reference and frees each dense layer.
    compressed, manifest, report = pipeline.compress_model(
        load_dense_model(args.model, config), plan, stream, calib_sha256=sha256_file(args.data)
    )
    model_path = pipeline.write_outputs(args.out, compressed, manifest, report)
    print(
        f"params {report['params_before']} -> {report['params_after']}, "
        f"MACs {report['macs_before']} -> {report['macs_after']} -> {model_path.parent}"
    )
    return 0


def cmd_eval(args) -> int:
    model, _manifest = _load_model(args.model, args.config)
    stream = read_token_file(args.data, args.data_format)
    ppl, wall = pipeline.timed_perplexity(model, stream, args.seqlen)
    print(f"ppl={ppl}")
    print(f"eval_wall_time_s={wall:.3f}", file=sys.stderr)
    if args.update_report:
        report_path = Path(args.model) / "report.json" if Path(args.model).is_dir() else Path(args.model).parent / "report.json"
        if not report_path.exists():
            raise CompressionError(f"--update-report: no report.json at {report_path}")
        pipeline.record_evaluation(report_path, Path(args.data).name, ppl, wall)
    if args.out:
        Path(args.out).write_text(
            canonical_json({"ppl": ppl, "seq_len": args.seqlen, "data": Path(args.data).name,
                            "eval_wall_time_s": wall}),
            encoding="utf-8",
        )
    return 0


def cmd_stats(args) -> int:
    model, _ = _load_model(args.model, args.config)
    params, macs = count_params_macs(model, args.seqlen)
    print(f"params={params}")
    print(f"macs={macs} (seq_len={args.seqlen})")
    if args.out:
        Path(args.out).write_text(
            canonical_json({"params": params, "macs": macs, "seq_len": args.seqlen}), encoding="utf-8"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 1)
    try:
        return args.handler(args)
    except (CompressionError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"rankprune: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"rankprune: usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
