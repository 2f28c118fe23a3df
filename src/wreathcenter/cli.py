"""Command-line surface and the persistent coefficient cache.

Commands: classes, multiply, universal, poly, chartable, verify.  Each
takes --k and --json plus only the flags it acts on.  multiply, universal
and poly share one product path, the only one that opens the cache: the
product comes from its cache record, product-checked, or is computed and
appended (multiply's as group rows, universal's and poly's as the pair's
poly rows), then its rows are filtered by --gamma and sorted.
Every command gives a head and rows, and one emitter prints them: each
row as a record, the head fields and then the row's values joined by "; ",
or with --json, for every command, one JSON array of the rows as objects.
A process loads only what its command runs: the product path imports
center, chartable characters, verify both, and classes neither.
Exit codes: 1 for usage/parse errors and unusable cache paths, 2 when a
budget is exceeded, 3 when an internal invariant check fails.

The top-level help shows the two paragraphs above; the rest is about how
the module works.  The commands and their flags are declared once, in
_COMMANDS and _FLAGS.  _read_plain reads a plain command line from that
table into the namespace argparse would give it; every other line, help
and usage errors included, goes to the argparse parser that _build_parser
builds from the same table, which alone imports argparse.  A cache hit
imports only `answers`, the answer types and their checks; a miss imports
`center`, the counting routes, too.  Writing to a pipe its reader has
closed ends the command with exit code 1 and no traceback.
"""

import os
import sys
from types import SimpleNamespace

from . import partitions as pt
from .errors import DEFAULT_BUDGET, BudgetExceeded, InvariantViolation, WreathError
from .families import (
    PartitionFamily,
    class_size,
    families_with_size,
    format_family,
    parse_family,
)

CACHE_ENV = "WREATH_CACHE"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INVARIANT = 3


class UsageError(Exception):
    pass


def split_fields(line: str) -> list[str]:
    """Split a record on top-level semicolons; families contain nested ones."""
    fields, pending, depth = [], [], 0
    for piece in line.split(";"):
        pending.append(piece)
        depth += piece.count("{") - piece.count("}")
        if depth == 0:
            fields.append(";".join(pending).strip())
            pending = []
    if pending:
        fields.append(";".join(pending).strip())
    return fields


def _digest(text: str) -> str:
    # imported on first use, and from CPython's own sha256 module where there
    # is one (_sha256 up to 3.11, _sha2 from 3.12): hashlib loads OpenSSL,
    # about 5 ms of every cache lookup's process
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256

    return sha256(text.encode("utf-8")).hexdigest()


def _integer(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


class Cache:
    """Append-only record store for group-product and polynomial rows.

    Group rows: `k; n; left; right; gamma; coeff`.
    Polynomial rows: `k; left; right; gamma; r; coeff`.
    Polynomial rows hold a universal product's terms, each as a proper
    target and its number of extra 1-parts.  Each product is one record,
    appended by a single write on a line of its own, so a torn last line
    (a crash, a full disk) spoils only its own record.  Its first line
    starts with a header field `#<rows>:<sha256>` holding the number of rows
    and the sha256 of the row lines (each with its newline, header field
    left out).  A lookup reads
    only its key's records, and raises InvariantViolation at the first one
    whose rows lack a header, whose count or digest is wrong, which repeats
    a target or which disagrees with an earlier record, whatever other keys
    hold.  Identical records collapse; only keys written before are served,
    so replays are identical.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.group: dict = {}
        self.poly: dict = {}

    def _read(self, handle, table, key):
        record = None  # [header, row lines with newlines, rows] of an open record of key
        for line in handle:
            if record is None and not (key[-2] in line and key[-1] in line):  # not a row of key
                continue
            line = line.strip()
            header = ""
            if line.startswith("#"):
                header, _, line = line.partition("; ")
            parsed = self._parse(line)
            if parsed is None:
                continue
            row_key, target, coeff = parsed
            if header or row_key != key:
                self._close(table, key, record)
                record = [header, [], {}] if row_key == key else None
            if row_key == key:
                if record is None:
                    raise InvariantViolation(f"cache record {key} has rows without a record header")
                record[1].append(line + "\n")
                record[2][target] = coeff
        self._close(table, key, record)

    def _parse(self, line: str):
        """(key, target, coeff) of one row, or None if it is not a row.

        A numeric field that is not an integer reads as None: such a key
        matches no lookup, and a record with such a target or coefficient
        is rejected.
        """
        fields = split_fields(line)
        if len(fields) != 6:
            return None
        if fields[1].startswith("{"):
            k, left, right, gamma, r, coeff = fields
            r = _integer(r)
            coeff = None if r is None else _integer(coeff)
            return (_integer(k), left, right), (gamma, r), coeff
        k, n, left, right, gamma, coeff = fields
        return (_integer(k), _integer(n), left, right), gamma, _integer(coeff)

    def _close(self, table, key, record):
        if record is None:
            return
        header, lines, rows = record
        if header != f"#{len(lines)}:{_digest(''.join(lines))}":
            reason = "does not match its record header"
        elif None in rows.values():
            reason = "has a row whose numeric fields are not integers"
        elif len(rows) != len(lines):
            reason = "repeats a target"
        elif table.setdefault(key, rows) != rows:
            reason = "has records that disagree"
        else:
            return
        raise InvariantViolation(f"cache record {key} {reason}")

    def _get(self, table, key):
        if key not in table and self.path and os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self._read(handle, table, key)
        return table.get(key)

    def _append(self, lines):
        lines = list(lines)
        if not self.path or not lines:
            return
        text = "".join(line + "\n" for line in lines)
        record = f"#{len(lines)}:{_digest(text)}; {text}".encode()
        with open(self.path, "ab+") as handle:
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    record = b"\n" + record
            handle.write(record)

    def get_group(self, k, n, left, right):
        return self._get(self.group, (k, n, left, right))

    def put_group(self, k, n, left, right, rows: dict):
        self.group[(k, n, left, right)] = rows
        self._append(
            f"{k}; {n}; {left}; {right}; {gamma}; {coeff}"
            for gamma, coeff in sorted(rows.items())
        )

    def get_poly(self, k, left, right):
        return self._get(self.poly, (k, left, right))

    def put_poly(self, k, left, right, rows: dict):
        self.poly[(k, left, right)] = rows
        self._append(
            f"{k}; {left}; {right}; {gamma}; {r}; {coeff}"
            for (gamma, r), coeff in sorted(rows.items())
        )


# each flag: its type (bool for a switch that stores True), whether it is
# required, and its default
_FLAGS = {
    "--k": (int, True, None),
    "--n": (int, True, None),
    "--left": (str, True, None),
    "--right": (str, True, None),
    "--json": (bool, False, False),
    "--max-group-size": (int, False, DEFAULT_BUDGET),
    "--cache": (str, False, None),
    "--verify-representative": (bool, False, False),
    "--gamma": (str, False, None),
}
_PAIR_PRODUCT = ("--left", "--right", "--json", "--max-group-size", "--cache", "--verify-representative", "--gamma")
# each command: its help line, the name of its handler (read when a line is
# read, so a patched handler is the one run) and its flags, in help order
_COMMANDS = {
    "classes": ("list conjugacy classes with sizes", "_cmd_classes", ("--k", "--n", "--json")),
    "multiply": ("product of two class sums in the group", "_cmd_product", ("--k", "--n", *_PAIR_PRODUCT)),
    "universal": ("product of two orbit sums in the universal algebra", "_cmd_product", ("--k", *_PAIR_PRODUCT)),
    "poly": ("binomial-basis rows of a product of proper families", "_cmd_product", ("--k", *_PAIR_PRODUCT)),
    "chartable": ("character table records", "_cmd_chartable", ("--k", "--n", "--json")),
    "verify": (
        "pointwise multiplicativity of the transport map",
        "_cmd_verify",
        ("--k", "--left", "--right", "--json", "--max-group-size"),
    ),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _read_plain(argv: list) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line, or None to leave the line to argparse.

    A plain line is a command, then only that command's own flags written
    out in full, each valued one followed by a value that does not start
    with "-" (an int flag's passing int()), with every required flag given;
    a repeated flag keeps its last value.  Help, abbreviated or "="-joined
    flags, negative numbers and every usage error are argparse's to read,
    so their text is argparse's own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": globals()[handler]}
    args.update((_dest(flag), _FLAGS[flag][2]) for flag in flags if not _FLAGS[flag][1])
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags:
            return None
        kind = _FLAGS[flag][0]
        if kind is bool:
            args[_dest(flag)] = True
            continue
        value = next(tokens, "-")  # a flag without a value is argparse's to report
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        args[_dest(flag)] = value
    if any(_dest(flag) not in args for flag in flags):
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of the commands in _COMMANDS, which raises UsageError on a bad line."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="wreathcenter", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=globals()[handler])
        for flag in flags:
            kind, required, default = _FLAGS[flag]
            if kind is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, required=required, default=default)
    return parser


def _emit(args, head, rows):
    """Print each row as `head; values` (booleans as true/false), or all rows as one JSON array.

    The lines are joined and written at once: a table of thousands of rows
    costs one write, not one print per row.
    """
    if args.json:
        # imported only here: about 3 ms that plain-text output need not pay
        import json

        print(json.dumps(rows, indent=2))
    else:
        lines = []
        for row in rows:
            values = (str(v).lower() if isinstance(v, bool) else v for v in row.values())
            lines.append("; ".join(map(str, [*head, *values])) + "\n")
        sys.stdout.write("".join(lines))


def _parse_pair(args):
    return parse_family(args.left, args.k), parse_family(args.right, args.k)


def _cmd_classes(args):
    return [args.k, args.n], [
        {"family": format_family(fam), "size": class_size(fam, args.n)}
        for fam in families_with_size(args.k, args.n)
    ]


def _cmd_product(args):
    """multiply, universal, poly: rows keyed (gamma,) or (gamma, r), filtered and sorted."""
    from .answers import PolynomialStructure

    left, right = _parse_pair(args)
    wanted = parse_family(args.gamma, args.k) if args.gamma else None
    given = [fam for fam in (left, right, wanted) if fam is not None]
    if args.command == "multiply" and any(fam.size != args.n for fam in given):
        raise UsageError("multiply requires families of size exactly n")
    if args.command == "poly" and not all(fam.is_proper() for fam in given):
        raise UsageError("poly requires proper families (no 1-parts in the all-ones component)")
    options = {"budget": args.max_group_size, "verify_representative": args.verify_representative}
    path = args.cache or os.environ.get(CACHE_ENV)
    try:
        vector = _cached_vector(args, Cache(path), left, right, options)
    except OSError as exc:
        raise UsageError(f"unusable cache: {exc}") from exc
    if args.command == "poly":
        rows = PolynomialStructure._of(left, right, vector).rows
    else:
        rows = {(gamma,): coeff for gamma, coeff in vector.items()}

    def order(item):
        (gamma, *r), _ = item
        return (gamma.size if args.command == "universal" else 0, gamma.sort_key(), *r)

    items = sorted(rows.items(), key=order)
    if wanted is not None:
        items = [item for item in items if item[0][0] == wanted]
    lt, rt = format_family(left), format_family(right)
    head = [args.k, args.n, lt, rt] if args.command == "multiply" else [args.k, lt, rt]
    return head, [
        {"gamma": format_family(gamma), **dict(zip(["r"], r)), "coeff": coeff}
        for (gamma, *r), coeff in items
    ]


def _cached_vector(args, cache, left, right, options):
    """The checked product: the group vector for multiply, the universal vector for
    universal and poly, which share the pair's poly record.

    A miss is computed, appended to the cache and returned as computed; only
    a miss loads the counting routes of `center`.  A hit is parsed once; a
    row that is not a target of the product, or a zero or repeated row,
    raises InvariantViolation naming the record, and the vector passes
    check_mass.
    """
    from .answers import ClassSumVector, PolynomialStructure, check_mass

    group = args.command == "multiply"
    lt, rt = format_family(left), format_family(right)
    key = (args.k, args.n, lt, rt) if group else (args.k, lt, rt)
    cached = cache.get_group(*key) if group else cache.get_poly(*key)
    if cached is None:
        from . import center as ct

        if group:
            vector = ct.multiply_group(left, right, args.n, **options)
            cache.put_group(*key, {format_family(g): c for g, c in vector.items()})
        else:
            vector = ct.multiply_universal(left, right, **options)
            rows = PolynomialStructure._of(left, right, vector).rows
            cache.put_poly(*key, {(format_family(g), r): c for (g, r), c in rows.items()})
        return vector
    try:
        if group:
            terms = {parse_family(g, args.k): c for g, c in cached.items()}
            vector = ClassSumVector(args.k, terms, n=args.n)
        else:
            rows = {(parse_family(g, args.k), r): c for (g, r), c in cached.items()}
            vector = PolynomialStructure(args.k, left, right, rows).vector
        if len(vector.terms) != len(cached):
            raise ValueError("a row has coefficient 0 or repeats a target")
    except (ValueError, WreathError) as exc:
        raise InvariantViolation(f"cache record {key} is not a product's rows: {exc}") from exc
    check_mass(vector, left, right)
    return vector


def _cmd_chartable(args):
    """Every character value, irreducible by class, both labelled as in character_table.

    k = 1 labels are bare partitions and k = 2 labels come in
    bipartitions_of order; k >= 3 labels are families in
    families_with_size order.
    """
    from . import characters as ch

    k, n = args.k, args.n
    if k == 1:
        labels = [(pt.format_partition(p), PartitionFamily(1, {(1,): p})) for p in pt.partitions_of(n)]
    else:
        if k == 2:
            fams = [PartitionFamily.from_components(2, pair) for pair in ch.bipartitions_of(n)]
        else:
            fams = families_with_size(k, n)
        labels = [(format_family(fam), fam) for fam in fams]
    _, _, columns = ch.character_table(k, n)
    # irreducibles are listed in the order of the classes
    position = {fam: i for i, fam in enumerate(columns)}
    return [n], [
        {"rho": rho_text, "delta": delta_text, "value": columns[delta][position[rho]]}
        for rho_text, rho in labels
        for delta_text, delta in labels
    ]


def _cmd_verify(args):
    from . import characters as ch

    left, right = _parse_pair(args)
    ok = ch.verify_iso(args.k, left, right, budget=args.max_group_size)
    return [args.k, format_family(left), format_family(right)], [{"verified": ok}]


def run(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _read_plain(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        if min(getattr(args, "n", 0), getattr(args, "max_group_size", 0)) < 0:
            raise UsageError("--n and --max-group-size must be nonnegative integers")
        head, rows = args.handler(args)
        _emit(args, head, rows)
        return EXIT_INVARIANT if args.command == "verify" and not rows[0]["verified"] else EXIT_OK
    except BudgetExceeded as exc:
        print(
            f"error: budget-exceeded; needed={exc.needed}; budget={exc.budget}; what={exc.what}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"error: invariant-violation; {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (UsageError, ValueError, WreathError) as exc:
        print(f"error: usage; {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    """Run the command line of this process and exit with its code.

    A reader that closes the pipe early (`| head`) ends the command with
    exit code 1 and no traceback: stdout is pointed at os.devnull, so the
    interpreter's last flush cannot raise again.
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
