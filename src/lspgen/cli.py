"""Command line interface.

    lspgen generate --rate 5 -k 3 --count
    lspgen generate --rate 1-6 --format deco --sorted
    lspgen apply --op ambo --seed cube > cuboctahedron.pc
    lspgen verify --rate 6 -k 2

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from typing import Optional

from .catalog import OPERATION_NAMES, SEED_NAMES, lookup, seed
from .chambers import apply_decoration
from .decorations import (decoration_identity, read_deco, type1_subgraph,
                          write_deco)
from .maps import canonical_code, read_planar_code, write_planar_code
from .oracle import cross_check
from .pipeline import run_pipeline
from .predecorations import normalized_for_export


def _parse_rate(text: str) -> tuple[int, int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return int(lo), int(hi)
    r = int(text)
    return r, r


def cmd_generate(args) -> int:
    rmin, rmax = args.rate
    if args.count:
        result = run_pipeline(rmin, rmax, args.k)
        source = (result.predecorations if args.predecorations
                  else result.decorations)
        for r in range(rmin, rmax + 1):
            print(f"{r} {args.k} {source[r]}")
        return 0
    if args.predecorations:
        seen = {}

        def keep(d) -> None:
            p, _ = type1_subgraph(d)
            seen.setdefault(canonical_code(p.g, "oriented"), (d.rate(), p))

        run_pipeline(rmin, rmax, args.k, on_decoration=keep)
        records = sorted(seen.items()) if args.sorted else list(seen.items())
        graphs = [normalized_for_export(p) for _, (_, p) in records]
        sys.stdout.buffer.write(write_planar_code(graphs))
        return 0
    # records are written as they arrive unless they must be sorted first
    sink = []
    sidecar = args.sidecar if args.format == "pc" else None
    with (open(sidecar, "w", encoding="ascii") if sidecar
          else contextlib.nullcontext()) as side:
        if args.format == "pc":
            sys.stdout.buffer.write(write_planar_code([]))   # the header
        index = itertools.count()

        def write(d) -> None:
            if args.format == "deco":
                sys.stdout.write(write_deco(d) + "\n")
                return
            sys.stdout.buffer.write(write_planar_code([d.g], header=False))
            if side:
                vt = " ".join(str(t) for t in d.vt)
                v0, v1, v2 = (c + 1 for c in d.corners)
                side.write(f"{next(index)} corners {v0} {v1} {v2} "
                           f"types {vt}\n")

        run_pipeline(rmin, rmax, args.k,
                     on_decoration=sink.append if args.sorted else write)
        sink.sort(key=lambda d: (d.rate(), decoration_identity(d)))
        for d in sink:
            write(d)
    return 0


def _load_seed(args):
    if args.seed:
        return seed(args.seed)
    with open(args.seed_file, "rb") as fh:
        graphs = read_planar_code(fh.read())
    if len(graphs) != 1:
        raise ValueError(f"{args.seed_file} holds {len(graphs)} graphs")
    return graphs[0]


def _load_op(args):
    if args.op:
        return lookup(args.op)
    with open(args.op_file, "r", encoding="ascii") as fh:
        return read_deco(fh.read())


def cmd_apply(args) -> int:
    g = _load_seed(args)
    d = _load_op(args)
    result = apply_decoration(g, d)
    sys.stdout.buffer.write(write_planar_code([result]))
    return 0


def cmd_verify(args) -> int:
    rmin, rmax = args.rate
    if rmax > 8:
        print("verify supports rates up to 8", file=sys.stderr)
        return 2
    ok = True
    for r in range(rmin, rmax + 1):
        report = cross_check(r, args.k)
        status = "ok" if report["equal"] else "MISMATCH"
        print(f"rate {r} k {args.k}: main={report['main']} "
              f"brute={report['brute']} {status}")
        for side in ("only_main", "only_brute"):
            for d in report[side]:
                print(f"{side}\n\n{write_deco(d)}")
        ok &= report["equal"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lspgen",
        description="Generate and apply local symmetry-preserving "
                    "operations on embedded graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="enumerate decorations")
    g.add_argument("--rate", type=_parse_rate, required=True,
                   metavar="N|A-B")
    g.add_argument("-k", type=int, default=1, choices=(1, 2, 3))
    g.add_argument("--count", action="store_true",
                   help="print 'rate k count' lines instead of records")
    g.add_argument("--predecorations", action="store_true",
                   help="count or emit type-1 skeletons instead")
    g.add_argument("--sorted", action="store_true",
                   help="canonical, byte-stable output order")
    g.add_argument("--format", choices=("deco", "pc"), default="deco")
    g.add_argument("--sidecar", metavar="FILE",
                   help="with --format pc: write types and corners here")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("apply", help="apply an operation to a seed graph")
    src = a.add_mutually_exclusive_group(required=True)
    src.add_argument("--op", choices=OPERATION_NAMES)
    src.add_argument("--op-file", metavar="FILE.deco")
    tgt = a.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--seed", choices=SEED_NAMES)
    tgt.add_argument("--seed-file", metavar="FILE.pc")
    a.set_defaults(func=cmd_apply)

    v = sub.add_parser("verify",
                       help="cross-check the generator against brute force")
    v.add_argument("--rate", type=_parse_rate, required=True,
                   metavar="N|A-B")
    v.add_argument("-k", type=int, default=1, choices=(1, 2, 3))
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
