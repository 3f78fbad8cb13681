"""Command-line front end: the full pipeline as subcommands.

Logs go to stderr (set the level with the CATBERT_LOG environment variable);
data goes to files or stdout. A run that writes files also writes a manifest
of the resolved config, the seed, input/output checksums, the environment
(Python, numpy, BLAS and its run-time kernel, thread-count variables, CPU
count) and timing: in
``--out-dir`` as ``run_manifest.json`` when the subcommand takes one, else
beside the first file written as ``<file>.manifest.json``. A run that writes
only to stdout writes none. Every file, checkpoints and datasets included,
goes through a temporary file that replaces the target once it is on disk
(``atomic.replacing``), so a crash leaves the old file or the new one.
Re-running with the same inputs and seed reproduces every artifact byte for
byte; only the manifest's ``timing`` block differs.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .atomic import json_text, read_json_object, replacing
from .attacks import KINDS, AttackSpec, accuracy_under_attack, check_threshold, synonym_table
from .checkpoint import BLOB, MANIFEST, VOCAB, load_checkpoint, read_manifest, save_checkpoint
from .explain import MIN_SAMPLES, explain_record
from .mail import CONTEXT_DIM, load_dataset, load_dataset_with_report, save_dataset
from .metrics import DEFAULT_FPRS, group_metrics, roc_curve, summary, time_inference
from .model import (TRANSFORMER, ConfigError, ModelConfig, check_keep, config_keys,
                    count_params, init_random, millions, row_width, surgery_from_donor)
from .pipeline import encode_records, make_model_scorer, score_dataset
from .tokenizer import DEFAULT_MAX_LEN, Vocabulary, load_vocab, save_vocab
from .train import TrainConfig, check_fractions, split_by_time, train

log = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for runtime errors
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _setup_logging() -> None:
    name = os.environ.get("CATBERT_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


# ------------------------------------------------------------- artifacts


def _digest(path: str) -> dict:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return {"sha256": h.hexdigest(), "bytes": os.path.getsize(path)}


def _file_entry(path: str) -> dict:
    if os.path.isdir(path):  # a checkpoint: the three files its format names
        return {"path": path, "files": {name: _digest(os.path.join(path, name))
                                        for name in (MANIFEST, BLOB, VOCAB)}}
    return {"path": path, **_digest(path)}


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to ``path`` (stdout when None) through a temporary file
    that replaces ``path`` only once the text is on disk."""
    if not path:
        sys.stdout.write(text)
        return
    with replacing(path) as f:
        f.write(text)


def _environment() -> dict:
    """What scores may depend on besides inputs and seed (not the BLAS thread
    count): the Python, numpy and BLAS builds, and the kernel OpenBLAS picks
    at run time (None unless numpy bundles scipy-openblas), which may differ
    from the build target its configuration names. Fixed on one machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = {}
    core, libs = None, os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "run_time_core": core},
            "threads": {var: os.environ.get(var) for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def _write_manifest(args, started: float, config: dict, seed, inputs: dict,
                    outputs: dict) -> None:
    """Write the run manifest in ``--out-dir`` if the subcommand has one, else
    beside the first file written (``outputs`` is in the order written); a run
    that wrote only to stdout gets none. Only ``timing`` is not reproducible;
    ``environment`` is fixed on one machine."""
    if getattr(args, "out_dir", None):
        path = os.path.join(args.out_dir, MANIFEST_NAME)
    else:
        first = next((p for p in outputs.values() if p), None)
        if first is None:
            return
        path = first + ".manifest.json"
    manifest = {
        "tool": "catbert",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": seed,
        "config": config,
        "inputs": {k: _file_entry(v) for k, v in inputs.items() if v},
        "outputs": {k: _file_entry(v) for k, v in outputs.items() if v},
        "environment": _environment(),
        "timing": {"started_unix": started, "duration_s": time.time() - started},
    }
    _write_text(json_text(manifest), path)


# ------------------------------------------------------- config plumbing


def _load_json(path: str | None, what: str = "config file") -> dict:
    try:
        return read_json_object(path) if path else {}
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")
    except ValueError as e:
        raise UsageError(f"{what} {path} {e}")


def _bad_config(path: str | None, e: Exception | str) -> UsageError:
    return UsageError(f"bad config: {e}, in {path}" if path else f"bad config: {e}")


def _configured(build, file_cfg: dict, section: str, path: str | None, seed=None):
    """``build`` of the config file's ``section`` (absent: {}), with ``seed``
    in place of its own when given; a refused value is a usage error that
    names the file."""
    try:
        cfg = config_keys(file_cfg.get(section, {}), section)
        return build(cfg if seed is None else {**cfg, "seed": seed})
    except (TypeError, ValueError) as e:  # ConfigError is one
        raise _bad_config(path, e)


def _list_arg(kind, n: int | None = None, lo=float("-inf"), hi=float("inf")):
    """An argparse ``type`` for ``n`` (any number when None) comma-separated
    ``kind`` values, each in [lo, hi]; any other value is a usage error."""
    want = (f"one {kind.__name__}" if n == 1 else
            f"{n or 'any number of'} comma-separated {kind.__name__} values") + f" in [{lo}, {hi}]"
    def parse(text: str) -> list:
        try:
            values = [kind(part) for part in text.split(",")]
        except ValueError:
            values = []
        if not values or n not in (None, len(values)) or not all(lo <= v <= hi for v in values):
            raise argparse.ArgumentTypeError(f"wants {want}, got {text!r}")
        return values
    return parse


def _number_arg(kind, lo=float("-inf"), hi=float("inf")):
    """An argparse ``type`` for one ``kind`` value in [lo, hi]: the bound the
    library enforces, checked before any work."""
    parse = _list_arg(kind, n=1, lo=lo, hi=hi)
    return lambda text: parse(text)[0]


def _fractions_arg(text: str) -> list[float]:
    """``--fractions``: three values in [0, 1] that sum to 1."""
    values = _list_arg(float, n=3, lo=0.0, hi=1.0)(text)
    try:
        check_fractions(values)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return values


def _model_io_args(parser: _Parser) -> None:
    parser.add_argument("--model", required=True,
                        help=f"checkpoint directory, its {VOCAB} included")
    parser.add_argument("--in", dest="inp", required=True, help="JSONL dataset")


# ------------------------------------------------------------ subcommands


def _cmd_ingest(args) -> dict:
    records, errors = load_dataset_with_report(args.inp, strict=args.strict)
    for msg in errors:
        log.warning("%s: skipped %s", args.inp, msg)
    save_dataset(records, args.out)
    print(f"ingested {len(records)} records, skipped {len(errors)}", file=sys.stderr)
    return dict(config={"strict": args.strict, "skipped": errors}, seed=None,
                inputs={"dataset": args.inp}, outputs={"dataset": args.out})


def _cmd_split(args) -> dict:
    records = load_dataset(args.inp)
    parts = split_by_time(records, fractions=args.fractions)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = {}
    for name, part in zip(("train", "val", "test"), parts):
        path = os.path.join(args.out_dir, f"{name}.jsonl")
        save_dataset(part, path)
        outputs[name] = path
        print(f"{name}: {len(part)} records", file=sys.stderr)
    return dict(config={"fractions": args.fractions}, seed=None,
                inputs={"dataset": args.inp}, outputs=outputs)


def _model_config(args, file_cfg: dict, seed: int | None = None) -> ModelConfig:
    """The model of the config file's ``model`` section (absent: the
    paper-scale defaults), with ``seed`` in place of its own when given. A
    ``model.seed`` that disagrees with a run seed that ``--seed`` did not set
    is refused. The file's top level holds only ``model``, ``train`` and the
    retired keys of older run manifests, at their one value. Every refusal
    reads ``bad config: <reason>, in <path>``."""
    def build(cfg: dict) -> ModelConfig:
        if seed is not None and args.seed is None and cfg.get("seed", seed) != seed:
            raise ConfigError(f"model.seed {cfg['seed']} disagrees with the run seed {seed} "
                              f"(train.seed, default 0); set one seed or pass --seed")
        model_cfg = ModelConfig.from_dict(cfg if seed is None else {**cfg, "seed": seed})
        max_len = row_width(model_cfg)
        config_keys(file_cfg, "config", ("model", "train"), {
            "truncate": ("head", "every row keeps the head of its email"),
            "max_len": (max_len, f"rows are {max_len} tokens wide: the model's "
                                 f"max_positions, at most {DEFAULT_MAX_LEN}")})
        return model_cfg

    return _configured(build, file_cfg, "model", args.config)


def _sized_to(model_cfg: ModelConfig, vocab: Vocabulary, vocab_name: str, file_cfg: dict,
              path: str | None) -> ModelConfig:
    """``model_cfg`` with ``vocab``'s token count as its ``vocab_size``; a
    ``model.vocab_size`` in the config file that disagrees is refused."""
    if "vocab_size" in file_cfg.get("model", {}) and model_cfg.vocab_size != len(vocab):
        raise _bad_config(path, f"model.vocab_size {model_cfg.vocab_size} disagrees "
                                f"with the {len(vocab)} tokens of {vocab_name}")
    return replace(model_cfg, vocab_size=len(vocab))


def _checkpoint_vocab(ckpt_dir: str, config: ModelConfig) -> Vocabulary:
    """The vocabulary a checkpoint carries: a usage error that names the
    file when it is missing or its token count is not ``vocab_size``."""
    path = os.path.join(ckpt_dir, VOCAB)
    try:
        vocab = load_vocab(path)
    except FileNotFoundError:
        raise UsageError(f"checkpoint {ckpt_dir} has no {VOCAB}: copy the vocabulary it "
                         f"was trained with to {path}") from None
    if len(vocab) != config.vocab_size:
        raise UsageError(f"vocabulary {path} has {len(vocab)} tokens, but the "
                         f"checkpoint's vocab_size is {config.vocab_size}")
    return vocab


def _cmd_train(args) -> dict:
    file_cfg = _load_json(args.config)
    train_cfg = _configured(TrainConfig.from_dict, file_cfg, "train", args.config,
                            seed=args.seed)
    model_cfg = _model_config(args, file_cfg, train_cfg.seed)
    vocab = load_vocab(args.vocab)
    model_cfg = _sized_to(model_cfg, vocab, args.vocab, file_cfg, args.config)
    max_len = row_width(model_cfg)

    train_records = load_dataset(args.train)
    train_set = encode_records(train_records, vocab, max_len=max_len)
    val_set = None
    if args.val:
        val_records = load_dataset(args.val)
        val_set = encode_records(val_records, vocab, max_len=max_len)

    model = init_random(model_cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    history = train(model, train_set, train_cfg, val_set=val_set, out_dir=args.out_dir)
    best = os.path.join(args.out_dir, "best")
    save_vocab(vocab.tokens, os.path.join(best, VOCAB))

    history_path = os.path.join(args.out_dir, "history.json")
    _write_text(json_text(asdict(history)), history_path)
    last = history.epochs[-1]
    print(json.dumps({"final": last, "best_epoch": history.best_epoch,
                      "best_val_auc": history.best_val_auc}), file=sys.stderr)
    resolved = {"model": model_cfg.to_dict(), "train": asdict(train_cfg)}
    return dict(config=resolved, seed=train_cfg.seed,
                inputs={"train": args.train, "val": args.val, "vocab": args.vocab},
                outputs={"checkpoint": best, "history": history_path})


def _cmd_surgery(args) -> dict:
    _, donor_config = read_manifest(args.donor)  # the donor's depth, before its blob is read
    try:
        check_keep(donor_config, args.keep)
    except ValueError as e:
        raise UsageError(f"--keep: {e}") from None
    vocab = _checkpoint_vocab(args.donor, donor_config)
    donor = load_checkpoint(args.donor)
    model = surgery_from_donor(donor, keep=args.keep, context_dim=args.context_dim,
                               seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    save_checkpoint(model, args.out_dir)
    save_vocab(vocab.tokens, os.path.join(args.out_dir, VOCAB))
    copied = sum(1 for v in model.provenance.values() if v.startswith("copied"))
    print(f"kept blocks {args.keep or 'every other'}: {copied} tensors copied, "
          f"{len(model.provenance) - copied} fresh", file=sys.stderr)
    return dict(config={"keep": args.keep, "context_dim": args.context_dim,
                        "model": model.config.to_dict()},
                seed=args.seed, inputs={"donor": args.donor},
                outputs={"checkpoint": args.out_dir})


def _cmd_params(args) -> dict:
    cfg = _model_config(args, _load_json(args.config))
    report = count_params(cfg)
    payload = {
        "config": cfg.to_dict(),
        "exact": {**asdict(report), "non_embedding": report.non_embedding},
        "millions": {
            "embedding": millions(report.embedding),
            "non_embedding": millions(report.non_embedding),
            "total": millions(report.total),
        },
    }
    _write_text(json_text(payload), args.out)
    return dict(config={"model": cfg.to_dict()}, seed=None, inputs={"config": args.config},
                outputs={"report": args.out})


def _load_model_inputs(args):
    """The checkpoint's vocabulary, the checkpoint and the records a scoring
    subcommand reads, and the model's row width; the row width and the
    vocabulary are checked before the records are read."""
    model = load_checkpoint(args.model)
    try:
        max_len = row_width(model.config)
    except ConfigError as e:
        raise UsageError(f"checkpoint {args.model}: {e}") from None
    vocab = _checkpoint_vocab(args.model, model.config)
    return vocab, model, load_dataset(args.inp), max_len


def _score_input(args):
    vocab, model, records, max_len = _load_model_inputs(args)
    ds = encode_records(records, vocab, max_len=max_len)
    return ds, score_dataset(model, ds), max_len


def _scoring_run(args, max_len: int, outputs: dict, seed=None, **config) -> dict:
    """The manifest fields of a scoring subcommand: its own ``config`` and
    the row width it scored at, and the files it read (the checkpoint's
    vocabulary among the checkpoint's files)."""
    config.update(max_len=max_len)
    inputs = {"dataset": args.inp, "model": args.model,
              "synonyms": getattr(args, "synonyms", None)}
    return dict(config=config, seed=seed, inputs=inputs, outputs=outputs)


def _cmd_eval(args) -> dict:
    fprs = args.fprs or list(DEFAULT_FPRS)
    ds, scores, max_len = _score_input(args)
    payload = {"n": len(ds), **summary(scores, ds.labels, fprs)}
    if args.groups:
        payload["groups"] = group_metrics(scores, ds.labels, ds.groups, fprs=fprs)
    _write_text(json_text(payload), args.out)
    if args.roc:
        _write_text("fpr,tpr,threshold\n" + "".join(
            f"{fpr!r},{tpr!r},{thr!r}\n" for fpr, tpr, thr in roc_curve(scores, ds.labels)),
            args.roc)
    return _scoring_run(args, max_len, {"metrics": args.out, "roc": args.roc}, fprs=fprs)


def _cmd_predict(args) -> dict:
    ds, scores, max_len = _score_input(args)
    lines = [json.dumps({"index": i, "prob": float(p), "label": int(l)})
             for i, (p, l) in enumerate(zip(scores, ds.labels))]
    _write_text("\n".join(lines) + "\n", args.out)
    return _scoring_run(args, max_len, {"predictions": args.out})


def _cmd_attack(args) -> dict:
    try:
        synonyms = synonym_table(_load_json(args.synonyms, "synonyms file"))
    except ValueError as e:
        raise UsageError(f"{e}, in {args.synonyms}") from None
    try:  # the attack's own checks, before the checkpoint and records are read
        spec = AttackSpec(kind=args.kind, rate=args.rate, seed=args.seed, synonyms=synonyms)
        check_threshold(args.threshold)
    except ValueError as e:
        raise UsageError(str(e)) from None
    vocab, model, records, max_len = _load_model_inputs(args)
    scorer = make_model_scorer(model, vocab)
    report = accuracy_under_attack(scorer, records, spec, threshold=args.threshold)
    _write_text(json_text(report), args.out)
    return _scoring_run(args, max_len, {"report": args.out}, seed=args.seed,
                        kind=args.kind, rate=args.rate, threshold=args.threshold)


def _cmd_explain(args) -> dict:
    vocab, model, records, max_len = _load_model_inputs(args)
    if args.index >= len(records):
        raise UsageError(f"--index {args.index} out of range for {len(records)} records")
    try:  # the surrogate's own refusals, raised before any variant is scored
        attribution = explain_record(model, vocab, records[args.index], n_samples=args.n_samples,
                                     seed=args.seed)
    except ValueError as e:
        raise UsageError(str(e)) from None
    _write_text(json_text(asdict(attribution)), args.out)
    return _scoring_run(args, max_len, {"attribution": args.out}, seed=args.seed,
                        index=args.index, n_samples=args.n_samples)


def _cmd_bench(args) -> dict:
    """Time the full-depth donor, the config's model with every block a
    transformer, against the config's compressed model."""
    compressed = _model_config(args, _load_json(args.config), args.seed)
    donor = replace(compressed, block_plan=(TRANSFORMER,) * len(compressed.block_plan))
    donor_t, compressed_t = (time_inference(init_random(c), args.batch, args.repetitions,
                                            compressed.seed) for c in (donor, compressed))
    payload = {"model": compressed.to_dict(), "batch": args.batch,
               "seq_len": row_width(compressed), "donor": donor_t, "compressed": compressed_t,
               "speedup_p50": donor_t["p50_ms"] / compressed_t["p50_ms"],
               "speedup_mean": donor_t["mean_ms"] / compressed_t["mean_ms"]}
    _write_text(json_text(payload), args.out)
    return dict(config={"model": compressed.to_dict(), "batch": args.batch,
                        "repetitions": args.repetitions},
                seed=compressed.seed, inputs={"config": args.config},
                outputs={"report": args.out})


# --------------------------------------------------------------- parsing


def build_parser() -> _Parser:
    parser = _Parser(prog="catbert",
                     description="Train, compress, evaluate, attack, and explain "
                                 "a transformer+adapter phishing email detector.")
    parser.add_argument("--version", action="version", version=f"catbert {__version__}")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate and normalize a JSONL dataset")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help="fail on the first bad line")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="time-ordered train/val/test split")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fractions", type=_fractions_arg,
                   default="0.7,0.15,0.15")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a model on a JSONL dataset")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--val", help="validation JSONL (best-epoch tracking)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON config: {model: {...}, train: {...}}; "
                                     "absent, the paper-scale defaults")
    p.add_argument("--vocab", required=True,
                   help=f"vocabulary file, one token per line; best/ carries it as {VOCAB}")
    p.add_argument("--seed", type=_number_arg(int, lo=0), help="run seed, over train.seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("surgery", help="compress a donor checkpoint into T+A form")
    p.add_argument("--donor", required=True, help="donor checkpoint directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--keep", type=_list_arg(int, lo=0),
                   help="donor transformer indices to keep, e.g. 0,2,4")
    p.add_argument("--context-dim", type=int, choices=(0, CONTEXT_DIM), default=CONTEXT_DIM)
    p.add_argument("--seed", type=_number_arg(int, lo=0), default=0)
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("params", help="parameter count report for a config")
    p.add_argument("--config", required=True, help="JSON with model config fields")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("eval", help="AUC / TPR-at-FPR metrics on a dataset")
    _model_io_args(p)
    p.add_argument("--out", help="metrics JSON (stdout if omitted)")
    p.add_argument("--roc", help="also write the full ROC curve as CSV")
    p.add_argument("--fprs", type=_list_arg(float, lo=0.0, hi=1.0),
                   help="comma-separated FPR targets")
    p.add_argument("--groups", action="store_true", help="per-group breakdown")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="score records, one JSON line each")
    _model_io_args(p)
    p.add_argument("--out", help="predictions JSONL (stdout if omitted)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("attack", help="accuracy drop under text perturbation")
    _model_io_args(p)
    p.add_argument("--kind", required=True, choices=tuple(KINDS))
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=_number_arg(int, lo=0), default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--synonyms", help="JSON file: word -> replacement list")
    p.add_argument("--out", help="report JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("explain", help="per-word attribution for one record")
    _model_io_args(p)
    p.add_argument("--index", type=_number_arg(int, lo=0), default=0,
                   help="record index to explain")
    p.add_argument("--n-samples", type=_number_arg(int, lo=MIN_SAMPLES), default=1000)
    p.add_argument("--seed", type=_number_arg(int, lo=0), default=0)
    p.add_argument("--out", help="attribution JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("bench", help="donor vs compressed inference latency")
    p.add_argument("--config", help="JSON config whose model section is the compressed "
                                     "model; absent, the paper-scale defaults")
    p.add_argument("--batch", type=_number_arg(int, lo=1), default=1)
    p.add_argument("--repetitions", type=_number_arg(int, lo=1), default=30)
    p.add_argument("--seed", type=_number_arg(int, lo=0), help="model seed, over model.seed")
    p.add_argument("--out", help="timing JSON (stdout if omitted)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            print(parser.format_help(), file=sys.stderr)
            return 1
        for dest, value in vars(args).items():  # an empty path is no path: refuse it
            if value == "":
                flag = "--in" if dest == "inp" else "--" + dest.replace("_", "-")
                raise UsageError(f"argument {flag}: wants a non-empty value")
        for folder in (os.path.dirname(getattr(args, k, None) or "") for k in ("out", "roc")):
            if folder and not os.path.isdir(folder):
                raise UsageError(f"output directory {folder} does not exist")
        started = time.time()
        _write_manifest(args, started, **args.func(args))
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime errors -> exit 2, message on stderr
        log.debug("unhandled error", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
