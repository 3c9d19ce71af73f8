"""Command-line pipeline with deterministic, scriptable output.

Subcommands: build, localize, tensor, hocolim, simplify, verify, hom,
plumb, ginzburg, equiv, normalize, functor.  All artifacts are JSON (or
plain text via --emit text) with stable field order, so identical inputs
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring as _quote
from pathlib import Path

from .algebra import Ring, render_poly
from .analysis import functor_rank_compat, truncated_cohomology
from .constructions import PushoutSpan, hocolim, localize, tensor
from .dgcat import (
    BadArgument,
    DgFunctor,
    InputError,
    _field,
    _known,
    from_json,
    to_json,
    validate_functor,
)
from .fukaya import ModelId, build

# plumbing and reduce are imported by the subcommands that use them, so
# build, verify, hom and tensor do not compile them at start-up.


def _dump(doc) -> str:
    """json.dumps(doc, indent=2, ensure_ascii=False) + "\n".

    json encodes in C only without indent, so the values the program emits
    (str keys; str, int, bool, None, list, tuple and dict values) are
    indented here.  Any other value (a float, say) raises TypeError.
    """
    return _indented(doc, "\n") + "\n"


def _indented(value, newline: str) -> str:
    """value as json.dumps(indent=2) writes it after the line break and
    indent newline.  String and int members are written in place, which
    saves a call for most of the values the program emits."""
    cls = value.__class__
    if cls is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []
        for k, v in value.items():
            if k.__class__ is not str:
                raise TypeError(f"key {k!r} is not a string")
            vc = v.__class__
            parts.append(_quote(k) + ": " + (
                _quote(v) if vc is str else
                int.__repr__(v) if vc is int else _indented(v, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        parts = [_quote(v) if v.__class__ is str else _indented(v, inner)
                 for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{cls.__name__} is not written by _dump")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def render_text(cat) -> str:
    lines = [f"coefficients: {cat.ring.render()}",
             "objects: " + ", ".join(cat.objects),
             "generators:"]
    for g in cat.generators:
        lines.append(f"  {g.name}: {g.source} -> {g.target}  deg {g.degree}")
        lines.append(f"    d {g.name} = "
                     f"{render_poly(cat.differentials[g.name])}")
    if cat.rules:
        lines.append("relations:")
        for lhs, rhs in cat.rules:
            lines.append("  " + "*".join(g.name for g in lhs)
                         + " = " + render_poly(rhs))
    return "\n".join(lines) + "\n"


def _emit_cat(cat, args):
    if getattr(args, "emit", "json") == "text":
        _emit(render_text(cat), args.out)
    else:
        _emit(_dump(to_json(cat)), args.out)


def _load_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_cat(path: str):
    return from_json(_load_json(path))


def functor_from_json(doc: dict, source, target, where: str = "") -> DgFunctor:
    """The functor source -> target that doc (at the JSON path where)
    gives: an "objects" map and "generators" images (absent ones are 0).
    A malformed entry is an InputError at its path."""
    objects = _field(doc, "objects", dict, where)
    images = _field(doc, "generators", dict, where)
    path = f"{where}." if where else ""
    for obj in source.objects:
        _field(objects, obj, str, f"{path}objects")
    _known(images, source.gen_map(), "generator named", f"{path}generators")
    gm = {}
    for g in source.generators:
        text = _field(images, g.name, str, f"{path}generators", "0")
        try:
            gm[g.name] = target.poly(text, objects[g.source],
                                     objects[g.target])
        except ValueError as err:
            raise InputError(f"{path}generators.{g.name}", str(err)) from None
    return DgFunctor(source, target, dict(objects), gm)


def _load_part(doc: dict, key: str):
    """The presentation doc[key]; an error in it is an InputError that names
    key, and a schema error its path from doc, such as
    source.generators[0].deg."""
    part = _field(doc, key, dict, "")
    try:
        return from_json(part)
    except InputError as err:
        raise err.within(key) from None


def load_functor(doc: dict) -> DgFunctor:
    """A functor document: its "source" and "target" presentations and the
    functor between them."""
    source = _load_part(doc, "source")
    target = _load_part(doc, "target")
    return functor_from_json(doc, source, target)


def load_span(doc: dict) -> PushoutSpan:
    """A span document: its presentations "a", "c" and "b" and the functors
    "alpha": c -> a and "beta": c -> b."""
    a, c, b = (_load_part(doc, key) for key in ("a", "c", "b"))
    alpha = functor_from_json(_field(doc, "alpha", dict, ""), c, a, "alpha")
    beta = functor_from_json(_field(doc, "beta", dict, ""), c, b, "beta")
    return PushoutSpan(a, c, b, alpha, beta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the argument a computation refuses (BadArgument.argument) -> the option
# that gives it
_OPTIONS = {"gens": "--gens", "source": "--src", "target": "--tgt",
            "window": "--window", "bound": "--bound", "field": "--field",
            "n": "--n", "flip_set": "--flip-set"}


def _run(compute, *args):
    """compute(*args); an argument it refuses is an InputError at the
    option that gives it."""
    try:
        return compute(*args)
    except BadArgument as err:
        raise InputError(_OPTIONS[err.argument], str(err)) from None


def _ring(args, option: str):
    """The ring that the option --coeff or --field (option "coeff" or
    "field") gives, or None when it is not given; a text that names no
    ring is an InputError at the option."""
    text = getattr(args, option)
    try:
        return None if text is None else Ring.parse(text)
    except ValueError as err:
        raise InputError(f"--{option}", str(err)) from None


def cmd_build(args):
    ring = _ring(args, "coeff")
    try:
        model = ModelId.parse(args.model)
    except ValueError as err:
        raise InputError("--model", str(err)) from None
    try:
        options = json.loads(args.options) if args.options else None
    except ValueError as err:
        raise InputError("--options", f"not JSON: {err}") from None
    try:
        cat = build(model, ring, options)
    except InputError as err:  # only the options checks raise it
        raise err.within("--options") from None
    _emit_cat(cat, args)
    return 0


def cmd_localize(args):
    cat = _load_cat(args.file)
    names = _known(args.gens.split(","), cat.gen_map(), "generator named",
                   "--gens")
    _emit_cat(_run(localize, cat, names), args)
    return 0


def cmd_tensor(args):
    a = _load_cat(args.a)
    b = _load_cat(args.b)
    _emit_cat(tensor(a, b), args)
    return 0


def cmd_hocolim(args):
    cat = hocolim(load_span(_load_json(args.file)))
    if args.strictify:
        from .reduce import strictify_t
        cat = strictify_t(cat)
    _emit_cat(cat, args)
    return 0


def cmd_simplify(args):
    from .reduce import greedy_simplify, replay
    cat = _load_cat(args.file)
    if args.script:
        cat = replay(cat, _load_json(args.script))
    if args.greedy:
        cat, _ = greedy_simplify(cat)
    _emit_cat(cat, args)
    return 0


def cmd_verify(args):
    failures = []
    files = []
    for path in args.paths:
        p = Path(path)
        if p.is_dir():
            files += sorted(p.glob("**/*.json"))
        else:
            files.append(p)
    for path in files:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if isinstance(doc, dict) and doc.get("type") == "functor":
                validate_functor(load_functor(doc))
            else:
                from_json(doc)  # loading runs the d^2 audit
            sys.stdout.write(f"ok {path}\n")
        except Exception as err:  # audit failures and parse errors alike
            failures.append(path)
            sys.stdout.write(f"FAIL {path}: {err}\n")
    return 1 if failures else 0


def _window(text: str) -> tuple:
    """The --window option LO:HI of hom and functor --ranks."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InputError("--window", f"expected LO:HI with integers, got "
                                     f"{text!r}") from None


def cmd_hom(args):
    cat = _load_cat(args.file)
    table = _run(truncated_cohomology, cat, args.src, args.tgt,
                 _window(args.window), args.bound, _ring(args, "field"))
    if args.emit == "md":
        _emit(table.markdown() + "\n", args.out)
    else:
        _emit(_dump(table.to_json()), args.out)
    return 0


def cmd_plumb(args):
    from .plumbing import (build_wrapped, placement_from_json,
                           plumbing_from_json)
    try:
        data = plumbing_from_json(_load_json(args.file), _ring(args, "coeff"),
                                  args.n)
    except InputError as err:
        if args.n is None or err.path != "n":
            raise
        raise InputError("--n", err.message) from None
    placement = (placement_from_json(_load_json(args.reorder), data)
                 if args.reorder else None)
    cat = build_wrapped(data, placement)
    _emit_cat(cat, args)
    return 0


def cmd_ginzburg(args):
    from .plumbing import (build_ginzburg, ginzburg_witness, plumbing_to_json,
                           quiver_from_json)
    gq = quiver_from_json(_load_json(args.file))
    ring = _ring(args, "coeff")
    if args.witness:
        data, functor, report = _run(ginzburg_witness, gq, args.n, ring)
        doc = {
            "equal": report["equal"],
            "mismatches": report["mismatches"],
            "plumbing": plumbing_to_json(data),
            "relabel": {name: render_poly(poly)
                        for name, poly in sorted(functor.generator_map.items())},
        }
        _emit(_dump(doc), args.out)
        return 0 if report["equal"] else 1
    cat = build_ginzburg(gq, args.n, ring)
    _emit_cat(cat, args)
    return 0


def cmd_equiv(args):
    from .plumbing import (edge_flip_witness, plumbing_from_json,
                           plumbing_to_json, sign_gauge_witness)
    data = plumbing_from_json(_load_json(args.file), _ring(args, "coeff"))
    if args.mode == "flip":
        if args.arrow is None:
            raise InputError("--arrow", "required by equiv flip")
        _known((args.arrow,), {a.id for a in data.arrows}, "arrow", "--arrow")
        witness = edge_flip_witness(data, args.arrow)
        doc = {
            "mode": "flip",
            "arrow": args.arrow,
            "flipped": plumbing_to_json(witness.flipped),
            "forward_valid": witness.certificates[0]["valid"],
            "backward_valid": witness.certificates[1]["valid"],
        }
    else:
        if args.flip_set is None:
            raise InputError("--flip-set", "required by equiv gauge")
        flip_set = _known(args.flip_set.split(","), dict(data.vertices),
                          "vertex", "--flip-set")
        witness = _run(sign_gauge_witness, data, flip_set)
        doc = {
            "mode": "gauge",
            "flip_set": sorted(flip_set),
            "regauged": plumbing_to_json(witness.regauged),
            "valid": witness.certificate["valid"],
            "vertex_signs": {k: v for k, v in sorted(
                witness.vertex_signs.items())},
        }
    _emit(_dump(doc), args.out)
    return 0


def cmd_normalize(args):
    from .plumbing import normalize, plumbing_from_json, plumbing_to_json
    data = plumbing_from_json(_load_json(args.file))
    _emit(_dump(plumbing_to_json(normalize(data))), args.out)
    return 0


def cmd_functor_check(args):
    functor = load_functor(_load_json(args.file))
    cert = validate_functor(functor)
    if args.ranks:
        cert = {"functor": cert,
                "ranks": _run(functor_rank_compat, functor,
                              _window(args.window), args.bound,
                              _ring(args, "field"))}
    _emit(_dump(cert), args.out)
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="semifree",
        description="exact engine for semifree dg categories and plumbings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write to a file instead of stdout")
        p.add_argument("--emit", choices=["json", "text"], default="json")

    p = sub.add_parser("build", help="emit a named model category")
    p.add_argument("--model", required=True,
                   help="A1 | A2 | C:n | S:n,m+[,m-] | M:g,m | D12:n | "
                        "B01:n | D01:n")
    p.add_argument("--coeff", default="Z")
    p.add_argument("--options", help="JSON options, e.g. gradings")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("localize", help="invert closed degree-0 generators")
    p.add_argument("file")
    p.add_argument("--gens", required=True)
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("tensor", help="tensor product of two presentations")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("hocolim", help="homotopy colimit of a span file")
    p.add_argument("file")
    p.add_argument("--strictify", action="store_true")
    common(p)
    p.set_defaults(func=cmd_hocolim)

    p = sub.add_parser("simplify", help="replay a reduction script")
    p.add_argument("file")
    p.add_argument("--script")
    p.add_argument("--greedy", action="store_true")
    common(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("verify", help="re-audit presentations and functors")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hom", help="truncated cohomology ranks")
    p.add_argument("file")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--window", required=True, help="lo:hi")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--field", default="Q")
    p.add_argument("--out")
    p.add_argument("--emit", choices=["json", "md"], default="json")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("plumb", help="plumbing data to presentation")
    p.add_argument("file")
    p.add_argument("--n", type=int)
    p.add_argument("--coeff")
    p.add_argument("--reorder", help="placement JSON for the n=2 products")
    common(p)
    p.set_defaults(func=cmd_plumb)

    p = sub.add_parser("ginzburg", help="Ginzburg category of a graded quiver")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeff", default="Z")
    p.add_argument("--witness", action="store_true",
                   help="compare against the sphere plumbing presentation")
    common(p)
    p.set_defaults(func=cmd_ginzburg)

    p = sub.add_parser("equiv", help="equivalence witnesses")
    p.add_argument("mode", choices=["flip", "gauge"])
    p.add_argument("file")
    p.add_argument("--arrow")
    p.add_argument("--flip-set", dest="flip_set")
    p.add_argument("--coeff")
    p.add_argument("--out")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("normalize", help="canonical form of plumbing data")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("functor", help="validate a functor file")
    p.add_argument("file")
    p.add_argument("--ranks", action="store_true")
    p.add_argument("--window", default="-3:1")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--field", default="Q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_functor_check)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
