"""Command-line interface: ingest, gen-toy, train, eval, predict.

Every command that produces artifacts also writes a manifest holding the
fully resolved configuration, input digests, and toolkit version, so a
run can be reproduced bit-for-bit from the manifest alone. Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidConfigError, KgeError
from .evaluator import (
    EvalConfig,
    candidate_set,
    evaluate,
    model_label,
    render_report_table,
    summarize_reports,
)
from .ingest import drop_literals, parse_ntriples, parse_tsv, write_tsv
from .models import DIRECTIONS, ModelConfig, score_candidates
from .store import load, save
from .toy import ToySpec, generate_toy
from .trainer import TrainConfig, train
from .vocab import (
    TripleIndex,
    build_vocabulary,
    dataset_stats,
    dump_vocabulary,
    intern,
    unknown_terms,
)

DEFAULT_DIM = {"transe": 200, "transh": 200, "complex": 100}
DEFAULT_LR = {"transe": 0.001, "transh": 0.001, "complex": 0.01}


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _fraction(value: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {x}")
    return x


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _worker_count(n_jobs: int) -> int:
    """KGEU_THREADS, unset or empty for all cores, capped at the job count."""
    value = os.environ.get("KGEU_THREADS", "")
    if not value:
        return min(os.cpu_count() or 1, n_jobs)
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidConfigError(f"KGEU_THREADS must be a positive integer, got {value!r}")
    return min(workers, n_jobs)


def _load_raw(paths: list[Path], fmt: str, keep_literals: bool):
    raws = []
    dropped = 0
    parse = parse_ntriples if fmt == "nt" else parse_tsv
    for path in paths:
        with open(path, encoding="utf-8", newline="\n") as f:  # lines end at \n only, as in parse_tsv
            try:
                parsed = parse(f)
            except KgeError as e:
                raise KgeError(f"{path}: {e}") from None
        if not keep_literals:
            parsed, n = drop_literals(parsed)
            dropped += n
        raws.extend(parsed)
    return raws, dropped


def _write_manifest(path: Path, command: str, config: dict, inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    raws, dropped = _load_raw(args.inputs, args.format, args.keep_literals)
    vocab = build_vocabulary(raws, unify=args.unify)
    result = intern(raws, vocab)
    stats = dataset_stats(vocab, result.triples)
    print(stats.summary())
    if result.duplicates:
        print(f"duplicates={result.duplicates}")
    if dropped:
        print(f"literals-dropped={dropped}")
    if args.dump:
        args.dump.write_text(dump_vocabulary(vocab), encoding="utf-8")
        print(f"vocabulary written to {args.dump}")
    return 0


def _train_config(args) -> TrainConfig:
    model_cfg = ModelConfig(
        model=args.model,
        dim=args.dim if args.dim is not None else DEFAULT_DIM[args.model],
        norm=args.norm,
        margin=args.margin,
        complex_reg=args.complex_reg,
    )
    return TrainConfig(
        model=model_cfg,
        learning_rate=args.lr if args.lr is not None else DEFAULT_LR[args.model],
        epochs=args.epochs,
        batch_size=args.batch,
        negatives=args.negatives,
        share=args.share,
        seed=args.seed,
    )


def _run_one_seed(payload) -> tuple[int, str, int]:
    """Train one seed; top-level so a process pool can pickle it."""
    raws, unify, config, out_path, log_path = payload
    vocab = build_vocabulary(raws, unify=unify)
    triples = intern(raws, vocab).triples
    result = train(triples, vocab, config)
    save(result.table, vocab, config, out_path)
    if log_path:
        Path(log_path).write_text(result.log_text(), encoding="utf-8")
    return config.seed, str(out_path), result.rejection_cap_hits


def cmd_train(args) -> int:
    raws, dropped = _load_raw([args.train], args.format, args.keep_literals)
    if dropped:
        print(f"literals-dropped={dropped}", file=sys.stderr)
    base = _train_config(args)

    out = Path(args.out)
    seeds = list(range(args.seed, args.seed + args.seeds))
    jobs = []
    for seed in seeds:
        archive = out.with_name(f"{out.name}.s{seed}") if args.seeds > 1 else out
        log_path = str(archive) + ".log" if args.log else None
        jobs.append((raws, args.unify, replace(base, seed=seed), str(archive), log_path))

    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one_seed, jobs))
    else:
        results = [_run_one_seed(job) for job in jobs]

    outputs = []
    for seed, archive, cap_hits in results:
        outputs.append(Path(archive))
        line = f"seed={seed} archive={archive}"
        if cap_hits:
            line += f" negative-sampling-cap-hits={cap_hits}"
        print(line)

    manifest_cfg = dict(asdict(base), seeds=seeds, unify=args.unify)
    del manifest_cfg["seed"]
    manifest_path = Path(args.manifest) if args.manifest else Path(str(out) + ".manifest.json")
    _write_manifest(manifest_path, "train", manifest_cfg, [args.train], outputs)
    return 0


def _interned_test(raws, vocab):
    missing = unknown_terms(raws, vocab)
    if missing:
        raise KgeError("test terms absent from the training vocabulary: " + ", ".join(missing))
    return intern(raws, vocab).triples


def cmd_eval(args) -> int:
    test_raws, _ = _load_raw([args.test], args.format, keep_literals=False)
    config = EvalConfig(candidate_policy=args.candidates, hits_k=args.hits_k)

    train_raws = _load_raw([args.train], args.format, keep_literals=False)[0] if args.train else []

    rows = []
    reports = []
    for archive in args.archives:
        table, vocab, train_cfg = load(archive)
        test_triples = _interned_test(test_raws, vocab)
        known = test_triples + intern(train_raws, vocab).triples
        index = TripleIndex(known)
        report = evaluate(table, test_triples, vocab, index, config)
        label = model_label(train_cfg.model.model, vocab.unify)
        reports.append(report)
        rows.append((label, report))

    if len(reports) > 1:
        avg, best = summarize_reports(reports, args.hits_k)
        rows.append((rows[0][0] + ":Avg", avg))
        rows.append((rows[0][0] + ":Best", best))

    text = render_report_table(rows, args.hits_k)
    print(text, end="")
    if args.out_text:
        Path(args.out_text).write_text(text, encoding="utf-8")
    if args.out_json:
        payload = [dict(r.to_dict(), model=label) for label, r in rows]
        Path(args.out_json).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    table, vocab, _ = load(args.archive)
    slot = DIRECTIONS.index(args.direction)
    terms = ((vocab.entity_id, args.subject), (vocab.property_id, args.predicate),
             (vocab.entity_id, args.object))
    query = [lookup(term) for k, (lookup, term) in enumerate(terms) if k != slot]
    # 'relation' is exploratory ranking over the property ids
    candidates = vocab.property_ids if slot == 1 else candidate_set(vocab, args.candidates)
    scores = score_candidates(table, [query], args.direction, candidates)[0]

    known_raws, _ = _load_raw(args.known, args.format, keep_literals=False)  # none: an empty index
    index = TripleIndex(intern(known_raws, vocab).triples)
    keep = ~index.contains(np.insert(np.tile(query, (len(candidates), 1)), slot, candidates, axis=1))

    order = np.argsort(-scores[keep], kind="stable")
    kept_ids = candidates[keep][order][: args.k]
    kept_scores = scores[keep][order][: args.k]
    for id_, sc in zip(kept_ids, kept_scores):
        print(f"{vocab.term(int(id_))}\t{sc:.6f}")
    return 0


def cmd_gen_toy(args) -> int:
    spec = ToySpec(
        n_facts=args.facts,
        n_entities=args.entities,
        n_relations=args.relations,
        translation_fraction=args.translation_fraction,
        holdout_fraction=args.holdout_fraction,
        entity_links=not args.no_entity_links,
        seed=args.seed,
    )
    train_triples, test_triples = generate_toy(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / "train.tsv"
    test_path = out / "test.tsv"
    train_path.write_text(write_tsv(train_triples), encoding="utf-8")
    test_path.write_text(write_tsv(test_triples), encoding="utf-8")
    _write_manifest(out / "manifest.json", "gen-toy", dict(vars(spec)), [], [train_path, test_path])
    print(f"train={train_path} ({len(train_triples)} triples) test={test_path} ({len(test_triples)} triples)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("tsv", "nt"), default="tsv", help="input triple format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgeu", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kgeu {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse triples, build a vocabulary, print dataset stats")
    _add_format(p)
    p.add_argument("--unify", action=argparse.BooleanOptionalAction, default=True,
                   help="share one id between a term's entity and property roles")
    p.add_argument("--keep-literals", action="store_true", help="intern literal objects as opaque terms")
    p.add_argument("--dump", type=Path, help="write the vocabulary dump here")
    p.add_argument("inputs", nargs="+", type=Path)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model and write a model archive")
    _add_format(p)
    p.add_argument("--model", choices=("transe", "transh", "complex"), required=True)
    p.add_argument("--unify", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--share", choices=("always", "init-only"), default="always")
    p.add_argument("--dim", type=_positive_int, help="vector size (complex: complex components per row)")
    p.add_argument("--norm", choices=("l1", "l2"), default="l2")
    p.add_argument("--lr", type=float, help="learning rate (default per model)")
    p.add_argument("--epochs", type=_positive_int, default=1000)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--complex-reg", type=float, default=1e-3)
    p.add_argument("--batch", type=_positive_int, help="batch size (default: 512, full batch on small sets)")
    p.add_argument("--negatives", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="train this many consecutive seeds, one archive each")
    p.add_argument("--keep-literals", action="store_true")
    p.add_argument("--log", action="store_true", help="write per-epoch training logs next to archives")
    p.add_argument("--manifest", type=Path, help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--out", type=Path, required=True, help="model archive path")
    p.add_argument("train", type=Path)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test triples against one or more archives")
    _add_format(p)
    p.add_argument("--hits-k", type=_positive_int, default=10)
    p.add_argument("--candidates", choices=("entities-only", "entities-plus-shared-properties"),
                   default="entities-only")
    p.add_argument("--train", type=Path, help="training triples to include in the filter index")
    p.add_argument("--out-text", type=Path)
    p.add_argument("--out-json", type=Path)
    p.add_argument("archives", nargs="+", type=Path)
    p.add_argument("test", type=Path)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="top-k completions for a partial triple")
    _add_format(p)
    p.add_argument("--direction", choices=("tail", "head", "relation"), default="tail",
                   help="position to complete; 'relation' ranks property ids (exploratory)")
    p.add_argument("--subject", help="subject term (tail/relation prediction)")
    p.add_argument("--predicate", help="predicate term (tail/head prediction)")
    p.add_argument("--object", help="object term (head/relation prediction)")
    p.add_argument("-k", type=_positive_int, default=10)
    p.add_argument("--candidates", choices=("entities-only", "entities-plus-shared-properties"),
                   default="entities-only")
    p.add_argument("--known", action="append", type=Path, default=[],
                   help="triple file whose known completions are filtered out (repeatable)")
    p.add_argument("archive", type=Path)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gen-toy", help="generate the bilingual toy dataset")
    p.add_argument("--facts", type=_positive_int, default=120)
    p.add_argument("--entities", type=_positive_int, default=40)
    p.add_argument("--relations", type=_positive_int, default=4)
    p.add_argument("--translation-fraction", type=_fraction, default=1.0)
    p.add_argument("--holdout-fraction", type=_fraction, default=0.5)
    p.add_argument("--no-entity-links", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_gen_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "predict":
        for k, field in enumerate(("subject", "predicate", "object")):
            if k != DIRECTIONS.index(args.direction) and getattr(args, field) is None:
                parser.error(f"{args.direction} prediction requires --{field}")
    try:
        return args.func(args)
    except (KgeError, OSError, UnicodeDecodeError) as e:
        print(f"kgeu: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
