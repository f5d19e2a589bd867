"""A reader of the serialized kernel document, kept as a test oracle.

``treefem`` writes the document and never reads it back. This module reads
exactly what ``codegen.serialize_ir`` and ``expr.to_sexpr`` write, so that
the tests can compare the kernel read back with the one written. It
validates nothing: malformed text fails however it fails.
"""

from treefem import expr as ex
from treefem.forms import GROUPS, BasisSel, Contribution, KernelIR, TimeScheme


def from_sexpr(text):
    """The tree that ``to_sexpr`` printed as ``text``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    return _read(tokens, 0)[0]


def _read(tokens, i):
    if tokens[i] != "(":
        return _atom(tokens[i]), i + 1
    head, i = tokens[i + 1], i + 2
    args = []
    while tokens[i] != ")":
        node, i = _read(tokens, i)
        args.append(node)
    if head == "neg":
        return ex.Neg(*args), i + 1
    if head == "call":
        return ex.Call(args[0].id, tuple(args[1:])), i + 1
    return ex.Bin(head, *args), i + 1


def _atom(token):
    # a number starts with a digit, a sign or a dot; inf, x² and κ are names
    if token in ("true", "false"):
        return ex.Bool(token == "true")
    if token[0].isdigit() or token[0] in "+-.":
        return ex.Num(float(token))
    return ex.Name(token)


def _sel(token):
    if token == "-":
        return None
    return BasisSel("N") if token == "N" else BasisSel("dN", int(token[3:]))


def parse_ir(text):
    """The ``KernelIR`` that ``serialize_ir`` wrote as ``text``."""
    fields, prelude = {}, []
    groups = {field: [] for field, _, _ in GROUPS}
    for line in text.splitlines()[1:]:
        head, _, rest = line.partition(" ")
        if head == "prelude":
            var, back = rest.split()
            prelude.append((var, int(back)))
        elif head == "group":
            group = groups[rest]
        elif head == "term":
            test, trial, scalar = rest.split(" ", 2)
            group.append(Contribution(_sel(test), _sel(trial),
                                      from_sexpr(scalar)))
        else:
            fields[head] = rest
    scheme = fields["scheme"]
    return KernelIR(
        dimension=int(fields["dimension"]), steady=fields["steady"] == "true",
        scheme=None if scheme == "none" else TimeScheme(scheme),
        unknown=fields["unknown"], prelude=tuple(prelude),
        **{field: tuple(rows) for field, rows in groups.items()})
