#!/usr/bin/env python3
"""Run every CLI stage over the curated spec documents.

For each JSON document under --specs this drives classify, group, maps,
verify, and emit through the same entry point the installed console script
uses, collecting per-stage exit codes and writing CSV artifacts under
--out/<document-stem>/.  Exits nonzero if any stage fails anywhere.

With --digest PATH it also writes a JSON of sha256 digests: one per
(document, stage) of the stage's stdout and one per CSV artifact.  Timing
lines are not part of any digest, and the --out directory is written as
"<out>" in stdout, so the digest files of two checkouts can be compared
with cmp.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import time

from innerinv.cli import run

STAGES = ("classify", "group", "maps", "verify", "emit")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--specs",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "specs",
        help="directory of spec documents (JSON)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("golden_out"),
        help="directory for CSV artifacts, one subdirectory per document",
    )
    parser.add_argument("--samples", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--stages",
        nargs="+",
        choices=STAGES,
        default=list(STAGES),
        help="subset of stages to run",
    )
    parser.add_argument(
        "--digest",
        type=pathlib.Path,
        default=None,
        help="write sha256 digests of every stage's stdout and every CSV here",
    )
    args = parser.parse_args()

    docs = sorted(args.specs.glob("*.json"))
    if not docs:
        print(f"no documents found under {args.specs}", file=sys.stderr)
        return 2

    failures = []
    digests = {}
    for doc in docs:
        print(f"=== {doc.name} " + "=" * max(0, 58 - len(doc.name)))
        out_dir = args.out / doc.stem
        out_dir.mkdir(parents=True, exist_ok=True)
        for stage in args.stages:
            argv = [
                stage,
                str(doc),
                "--out",
                str(out_dir),
                "--samples",
                str(args.samples),
                "--seed",
                str(args.seed),
            ]
            captured = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                code = run(argv)
            dt = time.perf_counter() - t0
            text = captured.getvalue()
            sys.stdout.write(text)
            print(f"--- {stage}: exit {code} ({dt:.2f}s)")
            digests[f"{doc.stem}/{stage}"] = {
                "exit": code,
                "stdout": _sha256(text.replace(str(args.out), "<out>").encode()),
            }
            if code != 0:
                failures.append((doc.name, stage, code))
        for csv_path in sorted(out_dir.glob("*.csv")):
            digests[f"{doc.stem}/{csv_path.name}"] = _sha256(csv_path.read_bytes())
        print()

    if args.digest is not None:
        args.digest.parent.mkdir(parents=True, exist_ok=True)
        args.digest.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    print("=" * 70)
    if failures:
        for name, stage, code in failures:
            print(f"FAIL {name} {stage}: exit {code}")
        return 1
    print(f"all stages passed on {len(docs)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
