"""Command line explorer for the partition/crystal toolkit.

Subcommands emit JSON by default (stable key order, deterministic bytes) or
plain text with --plain.  Exit status: 0 on success, 1 when a verification
subcommand finds failures or stdout closes before the output is written
(as in `| head -1`; no traceback), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .partitions import Partition, check_ell, is_regular, size, transpose
from .rimhooks import ell_core
from .jm import (
    count_jm,
    decompose_jm,
    enumerate_jm,
    fayers_witness,
    is_ell_partition,
    is_generalized_ell_partition,
    is_jm,
    star_condition,
)
from .regular import (
    NotRegularError,
    deregularize,
    is_L_partition,
    is_ladder_node,
    is_weak_ell_partition,
    mullineux,
    reg_class,
    regularize,
)
from .graph import build_crystal, export_dot, theorem_suite, verify_isomorphism
from .strings import format_partition, parse_partition


def _emit(payload, plain_lines: list[str], plain: bool) -> None:
    if plain:
        for line in plain_lines:
            print(line)
    else:
        import json  # only JSON output needs it, so --plain never loads it

        print(json.dumps(payload, indent=2))


def _cmd_info(args) -> int:
    lam = parse_partition(args.partition)
    ell = args.ell
    core, weight = ell_core(lam, ell)
    try:
        weak = is_weak_ell_partition(lam, ell)
        weak_note = None
    except NotRegularError:
        weak = False
        weak_note = f"not {ell}-regular"
    payload = {
        "partition": format_partition(lam),
        "ell": ell,
        "size": size(lam),
        "length": len(lam),
        "transpose": format_partition(transpose(lam)),
        "regular": is_regular(lam, ell),
        "core": format_partition(core),
        "weight": weight,
        "star": star_condition(lam, ell),
        "ell_partition": is_ell_partition(lam, ell),
        "jm": is_jm(lam, ell),
        "L_partition": is_L_partition(lam, ell),
        "weak": weak,
        "ladder_node": is_ladder_node(lam, ell),
    }
    if weak_note:
        payload["weak_note"] = weak_note
    _emit(payload, [f"{k}: {v}" for k, v in payload.items()], args.plain)
    return 0


def _cmd_core(args) -> int:
    lam = parse_partition(args.partition)
    core, weight = ell_core(lam, args.ell)
    payload = {
        "partition": format_partition(lam),
        "ell": args.ell,
        "core": format_partition(core),
        "weight": weight,
        "is_core": weight == 0,
    }
    _emit(payload, [f"{format_partition(core)} {weight}"], args.plain)
    return 0


def _cmd_jm_check(args) -> int:
    lam = parse_partition(args.partition)
    witness = fayers_witness(lam, args.ell)
    payload = {
        "partition": format_partition(lam),
        "ell": args.ell,
        "is_jm": witness is None,
        "generalized": is_generalized_ell_partition(lam, args.ell),
        "witness": None
        if witness is None
        else {
            "base": list(witness.base),
            "row_mate": list(witness.row_mate),
            "col_mate": list(witness.col_mate),
        },
    }
    _emit(payload, ["true" if witness is None else "false"], args.plain)
    return 0


def _cmd_jm_count(args) -> int:
    core = parse_partition(args.core)
    n = count_jm(core, args.weight, args.ell)
    _emit(n, [str(n)], args.plain)
    return 0


def _cmd_jm_enumerate(args) -> int:
    core = parse_partition(args.core)
    found = enumerate_jm(core, args.weight, args.ell)
    names = [format_partition(lam) for lam in found]
    _emit(names, names, args.plain)
    return 0


def _cores(ell: int, max_size: int) -> list[Partition]:
    """The ell-cores of size <= max_size, smallest first, then reverse-lex.

    Adding all addable i-boxes of a core (the affine s_i action) gives a core,
    every core is reached so from (), and sizes only grow, so the walk stops
    at max_size.  Only the residues of a core's addable corners can grow it,
    so a core costs O(len(core)) per corner, whatever ell.
    """
    check_ell(ell)
    found, todo = {()}, [()]
    while todo:
        rows = todo.pop() + (0,)
        corners = [r for r, part in enumerate(rows) if r == 0 or rows[r - 1] > part]  # rows with an addable box
        for i in {(rows[r] - r) % ell for r in corners}:
            grown = list(rows)
            for r in corners:
                if (rows[r] - r) % ell == i:
                    grown[r] += 1
            grown = tuple(filter(None, grown))
            if sum(grown) <= max_size and grown not in found:
                found.add(grown)
                todo.append(grown)
    return sorted(found, key=lambda core: (-sum(core), core), reverse=True)


def _cmd_jm_census(args) -> int:
    check_ell(args.ell, minimum=3)
    if args.max_core < 0 or args.max_weight < 0:
        raise ValueError("--max-core and --max-weight must be non-negative")
    weights = range(1, args.max_weight + 1)
    cores = []
    plain = []
    total = 0
    for core in _cores(args.ell, args.max_core):
        name = format_partition(core)
        counts = [count_jm(core, w, args.ell) for w in weights]
        total += sum(counts)
        entry = {"core": name, "counts": counts}
        row = " ".join(f"w={w}:{c}" for w, c in zip(weights, counts))
        plain.append(f"core {name:<12} {row}".rstrip())  # no weights, no blanks after the name
        if args.list:
            found = [[format_partition(lam) for lam in enumerate_jm(core, w, args.ell)] for w in weights]
            entry["partitions"] = found
            plain += [f"    w={w}: {', '.join(names) or '-'}" for w, names in zip(weights, found)]
        cores.append(entry)
    plain.append(f"total JM partitions counted: {total}")
    payload = {"ell": args.ell, "weights": list(weights), "cores": cores, "total": total}
    _emit(payload, plain, args.plain)
    return 0


def _cmd_jm_decompose(args) -> int:
    lam = parse_partition(args.partition)
    dec = decompose_jm(lam, args.ell)
    payload = {
        "partition": format_partition(lam),
        "ell": args.ell,
        "mu": format_partition(dec.mu),
        "r": dec.r,
        "s": dec.s,
        "rho": format_partition(dec.rho),
        "sigma": format_partition(dec.sigma),
    }
    plain = [f"mu={payload['mu']} r={dec.r} s={dec.s} rho={payload['rho']} sigma={payload['sigma']}"]
    _emit(payload, plain, args.plain)
    return 0


def _cmd_crystal_build(args) -> int:
    graph = build_crystal(args.ell, args.depth, args.model)
    name = {lam: format_partition(lam) for level in graph.levels for lam in level}
    levels = [[name[lam] for lam in level] for level in graph.levels]
    payload = {
        "model": graph.model,
        "ell": graph.ell,
        "depth": graph.depth,
        "level_sizes": [len(level) for level in graph.levels],
        "levels": levels,
        "edges": [[name[src], name[dst], i] for src, dst, i in graph.edges],
    }
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as out:
                out.write(export_dot(graph))
        except OSError as exc:
            raise ValueError(f"cannot write the DOT file: {exc}") from exc
    plain = [f"level {n}: " + " ".join(texts) for n, texts in enumerate(levels)]
    _emit(payload, plain, args.plain)
    return 0


def _report_exit(report, plain: bool) -> int:
    payload = report.to_dict()
    plain_lines = [
        f"suite {report.suite} ell={report.ell} checks={report.checks} failures={len(report.failures)}"
    ]
    plain_lines += [
        f"FAIL input={f['input']} residue={f['residue']} expected={f['expected']} actual={f['actual']}"
        for f in report.failures
    ]
    _emit(payload, plain_lines, plain)
    return 0 if report.passed else 1


def _cmd_crystal_verify(args) -> int:
    return _report_exit(verify_isomorphism(args.ell, args.depth), args.plain)


def _cmd_suite(args) -> int:
    return _report_exit(theorem_suite(args.ell, args.nmax), args.plain)


def _partition_map(fn):
    """A subcommand that prints fn(partition, ell) as one partition string."""

    def run(args) -> int:
        name = format_partition(fn(parse_partition(args.partition), args.ell))
        _emit(name, [name], args.plain)
        return 0

    return run


def _cmd_regclass(args) -> int:
    lam = parse_partition(args.partition)
    cls = reg_class(lam, args.ell)
    payload = {
        "partition": format_partition(lam),
        "ell": args.ell,
        "representative": format_partition(cls.representative),
        "members": [format_partition(mu) for mu in cls.members],
    }
    _emit(payload, [format_partition(mu) for mu in cls.members], args.plain)
    return 0


def _command(sub, name: str, help: str, func, options: dict | None = None, partition: bool = False, **kw):
    """Add a leaf subcommand: --ell, then *options*, then --plain.

    *options* maps each further flag to its add_argument keywords.  With
    *partition* the command also takes a partition as its positional
    argument.  Further keywords go to add_parser.
    """
    parser = sub.add_parser(name, help=help, **kw)
    if partition:
        parser.add_argument("partition", help='partition like "3,2^2,1^5", or "empty"')
    parser.add_argument("--ell", type=int, required=True, help="modulus (>= 2; JM needs >= 3)")
    for flag, settings in (options or {}).items():
        parser.add_argument(flag, **settings)
    parser.add_argument("--plain", action="store_true", help="plain text instead of JSON")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="laddercrystal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "info", "summary of one partition", _cmd_info, partition=True)
    _command(sub, "core", "ell-core and weight", _cmd_core, partition=True)

    jm = sub.add_parser("jm", help="JM partition tools").add_subparsers(dest="jm_command", required=True)
    _command(jm, "check", "test the (ell,0)-JM property", _cmd_jm_check, partition=True)
    core_weight = {
        "--core": {"required": True, "help": "an ell-core partition"},
        "--weight": {"type": int, "required": True, "help": "ell-weight (number of ell-rim hooks)"},
    }
    _command(jm, "count", "count JM partitions for a core and weight", _cmd_jm_count, core_weight)
    _command(jm, "enumerate", "list JM partitions for a core and weight", _cmd_jm_enumerate, core_weight)
    census = {
        "--max-core": {"type": int, "default": 6, "help": "largest core size"},
        "--max-weight": {"type": int, "default": 4, "help": "count weights 1..this"},
        "--list": {"action": "store_true", "help": "list the partitions too"},
    }
    _command(
        jm,
        "census",
        "JM partition counts for every ell-core up to a size, by weight",
        _cmd_jm_census,
        census,
        description="For each ell-core of size <= --max-core, count the JM partitions of "
        "each weight 1..--max-weight (counts[w-1] is weight w); --list adds the partitions.",
    )
    _command(jm, "decompose", "core frame and hook multiplicities", _cmd_jm_decompose, partition=True)

    crystal = sub.add_parser("crystal", help="crystal graph tools")
    crystal = crystal.add_subparsers(dest="crystal_command", required=True)
    depth = {"--depth": {"type": int, "default": 10, "help": "largest partition size (levels 0..depth)"}}
    build = {
        **depth,
        "--model": {"choices": ["classical", "ladder"], "default": "classical", "help": "which crystal operators"},
        "--dot": {"help": "write a DOT rendering to this path"},
    }
    _command(crystal, "build", "breadth-first crystal graph from empty", _cmd_crystal_build, build)
    _command(crystal, "verify", "check the regularization isomorphism", _cmd_crystal_verify, depth)

    for name, help, func in (
        ("regularize", "slide boxes to the tops of their ladders", _partition_map(regularize)),
        ("deregularize", "slide unlocked boxes down their ladders", _partition_map(deregularize)),
        ("regclass", "all partitions with the same regularization", _cmd_regclass),
        ("mullineux", "Mullineux image of a regular partition", _partition_map(mullineux)),
    ):
        _command(sub, name, help, func, partition=True)
    nmax = {"--nmax": {"type": int, "default": 12, "help": "largest partition size checked"}}
    _command(sub, "suite", "run the theorem checks up to a size bound", _cmd_suite, nmax)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()  # here, so that a reader who left early is caught below
    except BrokenPipeError:
        # stdout's reader closed it (say, `| head -1`): point stdout at devnull, so
        # that the flush at exit cannot fail too, as the signal module's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a modulus, part or weight too large to index or to allocate
        text = str(exc) or "not enough memory for this input"
        numbers = [value for value in vars(args).values() if type(value) is int]  # --ell and the other options
        for given in (getattr(args, "partition", ""), getattr(args, "core", "")):  # parts and exponents as written
            numbers += [int(token) for token in given.replace("^", ",").split(",") if token.strip().isdecimal()]
        if args.ell == max(numbers):  # the kernels keep one slot per runner, so the modulus is to blame
            text = f"the modulus --ell {args.ell} is too large ({text})"
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
