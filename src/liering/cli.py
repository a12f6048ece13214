"""Command-line front end.

Exit codes: 0 success, 1 a certificate that should verify does not,
2 usage or input errors.  JSON goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _encode

from . import dims, kernels
from .algebra import InconsistencyError, check_weight, normalize, parse_expr
from .families import FAMILY_BUILDERS, i2_certificate, i33_certificate
from .kernels import (
    certificate_from_dict,
    certificate_latex,
    certificate_to_dict,
    certificate_vector,
    element_pairs,
    kernel_certificates,
    kernel_lattice,
    pair_matrix,
    verify_certificate,
)
from .oracle import oracle_check
from .words import bracket_string, lyndon_bracket, lyndon_words
from .zlinalg import KernelLattice, lattice_equal

# The largest slice a command takes on.  ``basis`` enumerates the words of
# its bidegree to find the Lyndon ones; ``theta`` also prints the dense pair
# matrix, whose entries outgrow the words: below the weight limit, a slice
# within MAX_PAIR_ENTRIES has at most 437989 words, at (136, 3).  (9, 9) has
# 48620 words and 2700 x 2860 = 7722000 entries.  ``kernel`` keeps the pair
# matrix sparse, but takes the same limit until it is priced from closed forms.
MAX_WORDS = 10**6
MAX_PAIR_ENTRIES = 10**7


def check_word_count(k: int, l: int) -> None:
    """Refuse a bidegree of more than MAX_WORDS words, before any is built."""
    words = dims.binom(k + l, k)
    if words > MAX_WORDS:
        raise ValueError(f"bidegree ({k}, {l}) has {words} words, more than the limit of {MAX_WORDS}")


def check_pair_entries(k: int, l: int) -> None:
    """Refuse a pair matrix of more than MAX_PAIR_ENTRIES, before any word is built."""
    rows = dims.lie_dim_bigraded(k, l)
    cols = dims.kernel_dim_bigraded(k, l) + rows
    if rows * cols > MAX_PAIR_ENTRIES:
        raise ValueError(f"the pair matrix of bidegree ({k}, {l}) has {rows}x{cols} entries, "
                         f"more than the limit of {MAX_PAIR_ENTRIES}")


def _json_text(data, indent: str = "\n") -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for JSON values with string keys."""
    if not isinstance(data, (dict, list, tuple)):
        return json.dumps(data)
    brackets = "{}" if isinstance(data, dict) else "[]"
    if not data:
        return brackets
    inner = indent + "  "
    if isinstance(data, dict):
        items = (f"{_encode(key)}: {_json_text(value, inner)}" for key, value in data.items())
    elif all(isinstance(item, str) for item in data):
        items = map(_encode, data)
    elif (all(isinstance(item, (list, tuple)) and item for item in data)
          and all(isinstance(x, str) for item in data for x in item)):
        # Certificate pairs and basis vectors: one join per inner list of strings.
        deeper = inner + "  "
        sep = "," + deeper
        items = (f"[{deeper}{sep.join(map(_encode, item))}{inner}]" for item in data)
    else:
        items = (_json_text(item, inner) for item in data)
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit_json(data, out=None) -> None:
    """Print ``json.dumps(data, indent=2)``, or write it to the file ``out``.

    With ``indent``, ``json.dumps`` runs the pure-Python encoder, so
    ``_json_text`` writes the same bytes: one ``join`` per container, the C
    ``encode_basestring_ascii`` for lists of strings, one ``join`` per inner
    list for lists of non-empty string lists, ``json.dumps`` for scalars.
    """
    text = _json_text(data)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_dims(args) -> int:
    check_weight(args.max_weight, 0)
    if args.format == "json":
        data = {
            "total": [
                {"n": n, "dim_L": lie, "dim_kernel": ker}
                for n, lie, ker in dims.total_records(args.max_weight)
            ]
        }
        if args.bigraded:
            data["bigraded"] = [
                {"n": n, "k": k, "l": l, "dim_L": lie, "dim_kernel": ker}
                for n, k, l, lie, ker in dims.bigraded_records(args.max_weight)
            ]
        _emit_json(data)
    else:
        print(dims.format_tables(args.max_weight, bigraded=args.bigraded))
    return 0


def _cmd_basis(args) -> int:
    if args.format == "latex":
        check_weight(args.k, args.l)
    check_word_count(args.k, args.l)
    words = lyndon_words(args.k, args.l)
    if args.format == "json":
        _emit_json({"k": args.k, "l": args.l, "dim": len(words), "words": list(words)})
    elif args.format == "latex":
        for word in words:
            print(bracket_string(lyndon_bracket(word)))
    else:
        for word in words:
            print(word)
    return 0


def _cmd_theta(args) -> int:
    check_weight(args.k, args.l)
    check_pair_entries(args.k, args.l)
    pm = pair_matrix(args.k, args.l)
    data = {
        "k": pm.k,
        "l": pm.l,
        "domain": [[word, letter] for word, letter in pm.domain],
        "codomain": list(pm.codomain),
        "matrix": pm.matrix.to_record(),
    }
    _emit_json(data, out=args.out)
    return 0


def _family_comparison(k: int, l: int):
    if k == 2 and l >= 2 and l % 2 == 0:
        name, cert = "i2", i2_certificate(l)
    elif k == 3 and l in (3, 6):
        name, cert = "i33", i33_certificate(l // 3)
    else:
        return None
    lattice = kernel_lattice(k, l)
    family = KernelLattice(lattice.ambient, (certificate_vector(cert),))
    return {"family": name, "lattice_equal": lattice_equal(lattice, family)}


def _cmd_kernel(args) -> int:
    check_weight(args.k, args.l)
    check_pair_entries(args.k, args.l)
    lattice = kernel_lattice(args.k, args.l)
    data = {
        "k": args.k,
        "l": args.l,
        "ambient": lattice.ambient,
        "rank": lattice.rank,
        "basis": [[str(v) for v in vector] for vector in lattice.basis],
    }
    if args.certify:
        data["certificates"] = [certificate_to_dict(c) for c in kernel_certificates(args.k, args.l)]
        data["family_comparison"] = _family_comparison(args.k, args.l)
    _emit_json(data)
    return 0


def _cmd_family(args) -> int:
    option = "m" if args.name == "i2" else "n"
    size = getattr(args, option)
    if size is None:
        raise ValueError(f"family {args.name} needs --{option}")
    cert = FAMILY_BUILDERS[args.name](size)
    if args.format == "latex":
        print(certificate_latex(cert))
    else:
        _emit_json(certificate_to_dict(cert))
    return 0


def _cmd_verify(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            # An integer literal past the interpreter's digit limit is refused as a string is.
            data = json.load(handle, parse_int=lambda text: kernels._integer(text, "integer"))
        except RecursionError:
            raise ValueError(f"{args.file} nests its JSON too deeply to read") from None
    cert = certificate_from_dict(data)
    verified = verify_certificate(cert)
    report = {"certificate": certificate_to_dict(cert), "verified": verified}
    if args.oracle:
        oracle = oracle_check(cert, trials=args.trials, dim=args.dim,
                              seed=args.seed, modulus=args.modulus)
        report["oracle"] = oracle.to_dict()
        if verified and not oracle.passed:
            verified = False
    _emit_json(report)
    return 0 if verified else 1


def _cmd_normalize(args) -> int:
    element = normalize(parse_expr(args.expr))
    _emit_json({
        "bidegree": list(element.bidegree) if element.bidegree else None,
        "terms": element_pairs(element),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liering",
        description="Exact computations in the free Lie ring on two letters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="rank tables by weight and bidegree")
    p.add_argument("--max-weight", type=int, default=13)
    p.add_argument("--bigraded", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("basis", help="Lyndon basis words of a bidegree")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("theta", help="matrix of (A,B) -> [A,a]+[B,b] on a bidegree")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("kernel", help="kernel lattice of a bidegree")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("family", help="closed-form identity certificates")
    p.add_argument("name", choices=sorted(FAMILY_BUILDERS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="re-verify a certificate JSON file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="Lyndon-basis form of a bracket expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read an expression's leading sign as an option: put it after "--".
    expr = argv[1] if argv[:1] == ["normalize"] and len(argv) > 1 else ""
    if expr.startswith("-") and expr != "-h" and not "--help".startswith(expr):
        argv.insert(1, "--")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InconsistencyError) else 2


if __name__ == "__main__":
    sys.exit(main())
