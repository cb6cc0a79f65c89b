"""Byte-for-byte comparison of kgeu's command-line outputs between two trees.

    python3 tools/equivalence.py [--base REV]

Extracts the committed tree of REV (default HEAD) with `git archive`, then
runs one matrix of `kgeu` commands with that tree's `src/` and again with
the `src/` of this checkout, each tree in its own output directory, and
compares the bytes of everything the two runs produced. For each of two
generated graphs (the default `gen-toy` graph and a wider one with more
candidates and more test triples than one evaluation chunk holds):

* `gen-toy` data files and `ingest --dump` vocabularies (unified and not),
* `ingest` of the training file given twice, whose every triple is then a
  duplicate (the `duplicates=` count),
* 12 archives: TransE, TransH and ComplEx x `--unify`/`--no-unify` x L1/L2,
  and a 3-seed run,
* `eval` of every archive under both candidate policies (stdout and
  `--out-json`) and one multi-archive `eval` of the 3-seed run,
* `predict` on every archive in all three directions, with and without
  `--known`,

and, for two hand-written inputs, `ingest --dump`, one `train` and one
`eval`: a TSV file with CRLF ends, blank and whitespace-only lines, a term
holding U+0085 and no final newline (which takes `parse_tsv`'s per-line
checks), and an N-Triples file with literals, under the default (literals
dropped) and `--keep-literals`. Every command's stdout, stderr and exit
code are compared too. Commands run with relative paths, so the outputs
hold no tree-specific path.

A third run repeats only the matrix's `eval` and `predict` commands with
this checkout's `src/`, on a copy of REV's outputs, so on REV's own data
and archives, and compares them with REV's. A change that alters trained
archives on purpose (a new sampling stream, say) can so still show that
evaluation and prediction of a given archive are unchanged, while the
first comparison shows that ingest is. It prints each output that differs
in either comparison and exits 1 if any does.

This is a same-machine comparison, not a stored digest: ComplEx's
`exp`/`logaddexp` can differ in the last bit across CPUs, so only two runs
on one machine are expected to agree byte for byte.
"""

import argparse
import difflib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = {
    "toy": [],
    "wide": ["--facts", "3000", "--entities", "600", "--relations", "20"],
}
TRAIN = ["--dim", "8", "--epochs", "15", "--batch", "16"]
SEED = "3"  # of the generated graphs and of training
HAND = {  # file name -> text, written byte for byte
    "hand.tsv": ("ex:a\tex:p\tex:b\r\n\r\n \t \t \r\nex:b\tex:p\tex:c\u0085d\r\n\nex:c\u0085d\tex:q\tex:p\r\n"
                 "ex:a\tex:p\tex:b\r\nex:p\tex:q\tex:a\r\nex:b\tex:q\tex:a"),
    "hand.nt": ('# literals and IRIs\n<ex:a> <ex:p> <ex:b> .\n<ex:a> <ex:label> "an a" .\n<ex:b> <ex:p> <ex:c> .\n'
                '<ex:c> <ex:label> "the c" .\r\n<ex:p> <ex:q> <ex:a> .\n<ex:c> <ex:q> <ex:p> .\n'),
}


def extract(rev: str, dest: Path) -> None:
    """Write the committed tree of `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(dest, filter="data")


def first_test_triple(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n", 1)[0].split("\t")


def matrix(out: Path, kgeu) -> None:
    """Run every command of the comparison in `out` through `kgeu(*args)`."""
    for graph, spec in GRAPHS.items():
        data = f"{graph}/data"
        train, test = f"{data}/train.tsv", f"{data}/test.tsv"
        kgeu("gen-toy", *spec, "--seed", SEED, "--out", data)
        for unify in ("--unify", "--no-unify"):
            kgeu("ingest", unify, "--dump", f"{graph}/vocab{unify}.txt", train, test)
        kgeu("ingest", train, train)
        archives = []
        for model in ("transe", "transh", "complex"):
            for unify in ("--unify", "--no-unify"):
                for norm in ("l1", "l2"):
                    archive = f"{graph}/{model}{unify}-{norm}.kgeu"
                    kgeu("train", "--model", model, unify, "--norm", norm, *TRAIN, "--seed", SEED,
                         "--out", archive, train)
                    archives.append(archive)
        kgeu("train", "--model", "transe", *TRAIN, "--seed", SEED, "--seeds", "3",
             "--out", f"{graph}/seeds.kgeu", train)
        seeds = sorted(str(p.relative_to(out)) for p in (out / graph).glob("seeds.kgeu.s*"))
        kgeu("eval", "--train", train, *seeds, test)
        s, p, o = first_test_triple(out / test)
        queries = {"head": ["--predicate", p, "--object", o], "tail": ["--subject", s, "--predicate", p],
                   "relation": ["--subject", s, "--object", o]}
        for archive in archives:
            for policy in ("entities-only", "entities-plus-shared-properties"):
                kgeu("eval", "--train", train, "--candidates", policy,
                     "--out-json", f"{archive}.{policy}.json", archive, test)
            for direction, query in queries.items():
                for known in ([], ["--known", train]):
                    kgeu("predict", "--direction", direction, *query, *known, archive)
    (out / "hand").mkdir(exist_ok=True)
    for name, text in HAND.items():
        (out / "hand" / name).write_bytes(text.encode("utf-8"))
    for fmt, data, literals in (("tsv", "hand/hand.tsv", [[]]), ("nt", "hand/hand.nt", [[], ["--keep-literals"]])):
        for keep in literals:
            name = f"hand/{fmt}{''.join(keep)}"
            kgeu("ingest", "--format", fmt, *keep, "--dump", f"{name}.vocab.txt", data)
            kgeu("train", "--format", fmt, *keep, "--model", "transe", *TRAIN, "--seed", SEED,
                 "--out", f"{name}.kgeu", data)
            kgeu("eval", "--format", fmt, "--train", data, "--out-json", f"{name}.json", f"{name}.kgeu", data)


def run_tree(src: Path, out: Path, reads_only: bool = False) -> tuple[int, list[str]]:
    """Run the matrix with the kgeu sources in `src`, writing into `out`;
    each command's stdout, stderr and exit code go to out/log/<n>.txt, n
    its place in the matrix. With reads_only, only the `eval` and
    `predict` commands run, on the files already in `out`. Returns the
    number of commands run and those that exited non-zero."""
    env = dict(os.environ, PYTHONPATH=str(src))
    (out / "log").mkdir(parents=True, exist_ok=reads_only)
    commands, ran, failed = [], [], []

    def kgeu(*args: str) -> None:
        commands.append(f"kgeu {' '.join(args)}")
        if reads_only and args[0] not in ("eval", "predict"):
            return
        if "--out-json" in args:  # never compare a stale copy
            (out / args[args.index("--out-json") + 1]).unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "kgeu.cli", *args], cwd=out, env=env,
                              capture_output=True, text=True)
        ran.append(commands[-1])
        if proc.returncode:
            failed.append(commands[-1])
        (out / "log" / f"{len(commands):04d}.txt").write_text(
            f"$ {commands[-1]}\nexit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}",
            encoding="utf-8")

    matrix(out, kgeu)
    return len(ran), failed


def compare(a: Path, b: Path) -> list[str]:
    """Relative paths that differ between the trees `a` and `b`, each with
    a short diff when both sides are text."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = []
    for rel in sorted(files):
        x = (a / rel).read_bytes() if (a / rel).is_file() else None
        y = (b / rel).read_bytes() if (b / rel).is_file() else None
        if x == y:
            continue
        problems.append(f"differs: {rel}" if x is not None and y is not None else f"only on one side: {rel}")
        try:
            lines = difflib.unified_diff(x.decode().splitlines(), y.decode().splitlines(), "base", "change",
                                         lineterm="")
            problems += ["    " + line for line in list(lines)[:12]]
        except (AttributeError, UnicodeDecodeError):  # missing or binary
            pass
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare this checkout against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="kgeu-equivalence-") as tmp:
        tmp = Path(tmp)
        extract(args.base, tmp / "base-tree")
        run_tree(tmp / "base-tree" / "src", tmp / "base")
        _, failed = run_tree(ROOT / "src", tmp / "change")
        shutil.copytree(tmp / "base", tmp / "reads")
        reads, reads_failed = run_tree(ROOT / "src", tmp / "reads", reads_only=True)
        outputs = sum(1 for p in (tmp / "change").rglob("*") if p.is_file())
        problems = compare(tmp / "base", tmp / "change")
        read_problems = compare(tmp / "base", tmp / "reads")
    for command in failed + reads_failed:  # the same failure on both sides is still a matrix to fix
        print(f"exited non-zero: {command}")
    differ = sum(not line.startswith("    ") for line in problems)
    print("\n".join(problems + [f"{differ} of {outputs} outputs differ from {args.base}"]) if problems else
          f"{outputs} outputs byte-identical to {args.base}")
    reads_on = f"{reads} eval and predict commands on {args.base}'s archives"
    print("\n".join([f"{reads_on}:"] + read_problems) if read_problems else f"{reads_on} byte-identical")
    return 1 if problems or read_problems or failed or reads_failed else 0


if __name__ == "__main__":
    sys.exit(main())
