"""Command-line front end.

Exit codes: 0 success / property verified, 1 verification failure (not a
matroid, not isomorphic, unrepresentable, gallery mismatch), 2 usage or
input errors.  Matrix arguments are file paths; the prefix ``data:``
resolves a packaged example (e.g. ``data:non_matroid``).

Each command imports what it calls, inside its ``cmd_*`` function, so it
compiles only the modules it uses: ``oracle`` only under ``--oracle``,
``gallery`` only for ``verify-gallery``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BadValueError, ChainmatError, MatrixParseError, NotContractibleError
from .rings import _decimal

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _load_matrix(path: str):
    from .linalg import parse_matrix, parse_matrix_file, read_data

    if path.startswith("data:"):
        name = path[len("data:"):]
        if not name.endswith(".mat"):
            name += ".mat"
        return parse_matrix(read_data(name))
    return parse_matrix_file(path)


def _integer(token: str) -> int:
    """An integer option in ASCII decimal digits, the rule matrix files and
    ring specs use (``int`` would also read ``1_0`` and ``٣``)."""
    try:
        return _decimal(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {token!r}") from None


def _subset(arg: str) -> list:
    return [s for s in arg.split(",") if s] if arg else []


def _print_system(m, as_json: bool):
    from .indepsys import check_matroid, system_to_json

    report = check_matroid(m)
    if as_json:
        print(system_to_json(m, report))
    else:
        print("ground:", " ".join(m.labels))
        print("independent sets:", [sorted(s) for s in m.independent_sets()])
        print("rank:", report.rank)
        print("matroid:", report.is_matroid)
        if not report.is_matroid:
            i1, i2 = report.violations[0]
            print(f"augmentation violation: I1={sorted(i1)} I2={sorted(i2)}")
    return report


def _build_system(args):
    mat = _load_matrix(args.matrix)
    if args.oracle:
        from .oracle import system_by_closure

        return mat, system_by_closure(mat)
    from .indepsys import build_from_matrix

    return mat, build_from_matrix(mat)


def cmd_indep(args):
    mat, system = _build_system(args)
    if args.subset is not None:
        labels = _subset(args.subset)
        verdict = system.is_independent(labels)
        print(f"{sorted(labels)} independent: {verdict}")
        return EXIT_OK
    _print_system(system, args.json)
    return EXIT_OK


def cmd_circuits(args):
    import json

    mat = _load_matrix(args.matrix)
    if args.oracle:
        from .oracle import circuits_by_subset_scan

        clutter = circuits_by_subset_scan(mat)
    else:
        from .indepsys import build_from_matrix

        clutter = build_from_matrix(mat).circuits()
    body = sorted(sorted(c) for c in clutter.members)
    if args.json:
        print(json.dumps({"ground": list(clutter.labels), "circuits": body}))
    else:
        print("circuits:", body)
    return EXIT_OK


def cmd_rank(args):
    mat, system = _build_system(args)
    labels = _subset(args.subset) if args.subset is not None else list(system.labels)
    print(system.rank(labels))
    return EXIT_OK


def cmd_check_matroid(args):
    mat, system = _build_system(args)
    report = _print_system(system, args.json)
    return EXIT_OK if report.is_matroid else EXIT_VERIFY_FAIL


def cmd_dual_code(args):
    from .codes import Code, dual_code, word_generators
    from .linalg import format_matrix

    mat = _load_matrix(args.matrix)
    code = Code.from_matrix(mat)
    if args.oracle:
        from .oracle import dual_by_enumeration

        # its generator is already the greedy over the sorted codewords
        shown = dual_by_enumeration(code).generator
    else:
        # one printed form for both paths: the oracle's greedy, not the rows
        # that dual_code keeps
        shown = word_generators(dual_code(code))
    print(format_matrix(shown), end="")
    return EXIT_OK


def cmd_dual_system(args):
    mat, system = _build_system(args)
    _print_system(system.dual(), args.json)
    return EXIT_OK


def cmd_puncture(args):
    from .codes import Code, puncture
    from .linalg import format_matrix

    mat = _load_matrix(args.matrix)
    code = puncture(Code.from_matrix(mat), _subset(args.subset))
    print(format_matrix(code.generator), end="")
    return EXIT_OK


def cmd_shorten(args):
    from .codes import Code, shorten
    from .linalg import format_matrix

    mat = _load_matrix(args.matrix)
    code = shorten(Code.from_matrix(mat), _subset(args.subset))
    print(format_matrix(code.generator), end="")
    return EXIT_OK


def cmd_contractible(args):
    from .codes import Code, is_contractible

    mat = _load_matrix(args.matrix)
    code = Code.from_matrix(mat)
    witness = is_contractible(code, args.element)
    if witness is None:
        print("no")
        return EXIT_VERIFY_FAIL
    print(f"yes: codeword {witness.codeword} (valuation {witness.valuation})")
    return EXIT_OK


def cmd_contract(args):
    from .codes import Code, contract_code
    from .linalg import format_matrix

    mat = _load_matrix(args.matrix)
    code = Code.from_matrix(mat)
    try:
        out, ordering = contract_code(code, _subset(args.subset))
    except NotContractibleError as exc:
        print(f"not contractible: {exc}")
        return EXIT_VERIFY_FAIL
    print(f"# contraction order: {' '.join(ordering) if ordering else '(empty)'}")
    print(format_matrix(out.generator), end="")
    return EXIT_OK


def cmd_minor(args):
    from .indepsys import system_to_json

    mat, system = _build_system(args)
    clutter = system.circuits()
    if args.delete:
        clutter = clutter.delete(_subset(args.delete))
    if args.contract:
        clutter = clutter.contract(_subset(args.contract))
    minor_system = clutter.to_system()
    if args.json:
        print(system_to_json(minor_system))
    else:
        print("ground:", " ".join(clutter.labels))
        print("circuits:", sorted(sorted(c) for c in clutter.members))
    return EXIT_OK


def cmd_snf(args):
    from .linalg import smith_normal_form

    mat = _load_matrix(args.matrix)
    res = smith_normal_form(mat)
    ring = mat.ring

    def fmt(rows):
        return [" ".join(ring.element_name(a) for a in row) for row in rows]

    print("exponents:", list(res.exponents))
    print("D:")
    print("\n".join(fmt(res.diagonal)))
    print("P:")
    print("\n".join(fmt(res.left)))
    print("Q:")
    print("\n".join(fmt(res.right)))
    return EXIT_OK


def cmd_systematic(args):
    from .linalg import format_matrix, systematic_form

    mat = _load_matrix(args.matrix)
    sf = systematic_form(mat)
    if sf is None:
        print("not free")
        return EXIT_VERIFY_FAIL
    print("# column order:", " ".join(sf.perm))
    print(format_matrix(sf.mat), end="")
    return EXIT_OK


def cmd_uniform(args):
    from .enumgeo import uniform_rank2_representation
    from .indepsys import build_from_matrix, is_isomorphic, uniform_system
    from .linalg import format_matrix
    from .rings import make_ring

    ring = make_ring(args.ring)
    mat = uniform_rank2_representation(ring, args.n)
    if mat is None:
        bound = ring.size + len(ring.maximal_ideal)
        print(f"unrepresentable: n > {bound}")
        return EXIT_VERIFY_FAIL
    if is_isomorphic(build_from_matrix(mat), uniform_system(2, args.n)) is None:
        print(f"not isomorphic to U(2,{args.n})")
        return EXIT_VERIFY_FAIL
    print(format_matrix(mat), end="")
    return EXIT_OK


def cmd_bound(args):
    from .enumgeo import cyc_antichain_bound, simple_size_bound
    from .rings import make_ring

    ring = make_ring(args.ring)
    print("simple-size bound:", simple_size_bound(ring, args.k))
    if args.antichain:
        print("cyclic antichain width:", cyc_antichain_bound(ring, args.k))
    return EXIT_OK


def cmd_counting(args):
    from .enumgeo import ModuleShape, count_cyclic_submodules
    from .rings import make_ring

    ring = make_ring(args.ring)
    try:
        multiplicities = tuple(_decimal(x.strip()) for x in args.shape.split(","))
    except ValueError:
        raise BadValueError(f"shape {args.shape!r} is not a comma-separated list of decimal integers") from None
    shape = ModuleShape(multiplicities)
    print(count_cyclic_submodules(shape, ring, args.s))
    return EXIT_OK


def cmd_verify_gallery(args):
    from . import gallery

    # an unknown name is a usage error, raised before any entry is verified
    names = gallery.entry_names() if args.all or not args.name else [gallery.get_entry(args.name)["name"]]
    failed = False
    for name in names:
        try:
            rep = gallery.verify_entry(name)
            print(rep.line())
        except ChainmatError as exc:
            failed = True
            print(f"{name}: FAIL ({exc})")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_iso(args):
    import json

    from .indepsys import build_from_matrix, is_isomorphic

    m1 = build_from_matrix(_load_matrix(args.matrix_a))
    m2 = build_from_matrix(_load_matrix(args.matrix_b))
    bij = is_isomorphic(m1, m2)
    if bij is None:
        print("not isomorphic")
        return EXIT_VERIFY_FAIL
    if args.json:
        print(json.dumps(bij))
    else:
        print("isomorphic:", " ".join(f"{a}->{b}" for a, b in sorted(bij.items())))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other input error: one line, exit 2
    (``main`` prints it; the subparsers inherit the class)."""

    def error(self, message):
        raise BadValueError(f"{self.prog}: {message}")


_MATRIX = (("matrix",), {"help": "matrix file path (or data:<name> for packaged examples)"})
_SUBSET = (("-X", "--subset"), {"required": True})
_RING = (("--ring",), {"required": True})

# Each subcommand as (name, help, handler, its arguments as (names, keywords)
# of ``add_argument``), in the order the full parser lists them.
_COMMANDS = (
    ("indep", "independent family, or test one subset", cmd_indep,
     (_MATRIX, (("-X", "--subset"), {"help": "comma-separated labels"}))),
    ("circuits", "minimal dependent sets", cmd_circuits, (_MATRIX,)),
    ("rank", "rank of a subset (default: whole ground set)", cmd_rank, (_MATRIX, (("-X", "--subset"), {}))),
    ("check-matroid", "exchange-axiom certification (exit 1 on failure)", cmd_check_matroid, (_MATRIX,)),
    ("dual-code", "generator matrix of the dual code", cmd_dual_code, (_MATRIX,)),
    ("dual-system", "dual independence system", cmd_dual_system, (_MATRIX,)),
    ("puncture", "delete coordinates from the code", cmd_puncture, (_MATRIX, _SUBSET)),
    ("shorten", "restrict to codewords vanishing on X", cmd_shorten, (_MATRIX, _SUBSET)),
    ("contractible", "contractibility witness at a coordinate", cmd_contractible,
     (_MATRIX, (("-e", "--element"), {"required": True}))),
    ("contract", "shorten with a contractibility certificate", cmd_contract, (_MATRIX, _SUBSET)),
    ("minor", "clutter deletion/contraction of the circuits", cmd_minor,
     (_MATRIX, (("--delete",), {"default": ""}), (("--contract",), {"default": ""}))),
    ("snf", "Smith normal form over a chain ring", cmd_snf, (_MATRIX,)),
    ("systematic", "[I_k | A] form, or report not free", cmd_systematic, (_MATRIX,)),
    ("uniform", "rank-2 uniform representation over a ring", cmd_uniform,
     (_RING, (("-n",), {"type": _integer, "required": True}))),
    ("bound", "simple-matroid size bound for free rank-k codes", cmd_bound,
     (_RING, (("-k",), {"type": _integer, "required": True}),
      (("--antichain",), {"action": "store_true", "help": "also compute the poset width"}))),
    ("counting", "cyclic submodule count for a module shape", cmd_counting,
     (_RING, (("--shape",), {"required": True, "help": "comma-separated multiplicities k0,k1,..."}),
      (("-s",), {"type": _integer, "required": True}))),
    ("verify-gallery", "verify catalog entries", cmd_verify_gallery,
     ((("name",), {"nargs": "?", "help": "entry name; omit with --all for everything"}),
      (("--all",), {"action": "store_true"}))),
    ("iso", "matroid isomorphism between two matrices", cmd_iso, ((("matrix_a",), {}), (("matrix_b",), {}))),
)
_COMMAND = {spec[0]: spec for spec in _COMMANDS}


def _parser(commands) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of ``commands``."""
    top = _Parser(prog="chainmat", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit JSON where supported")
    top.add_argument("--oracle", action="store_true", help="force brute-force oracle code paths")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for names, keywords in arguments:
            p.add_argument(*names, **keywords)
        p.set_defaults(fn=fn)
    return top


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def _parser_for(argv: list) -> argparse.ArgumentParser:
    """A parser that reads ``argv`` as ``build_parser()`` does.  When argv
    names a subcommand after nothing but ``--json`` and ``--oracle``,
    argparse hands that name and all that follows to its subparser, so one
    built with that subparser alone gives the same namespace, messages,
    help and exit; the choice list it lacks shows only in the top-level
    help and in the unknown-command error, which take the full parser."""
    for token in argv:
        if token not in ("--json", "--oracle"):
            spec = _COMMAND.get(token)
            if spec is not None:
                return _parser((spec,))
            break
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser_for(argv).parse_args(argv)
        return args.fn(args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing or unreadable file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChainmatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
