"""Command-line surface and the persistent coefficient cache.

Commands: classes, multiply, universal, poly, chartable, verify.  Each
takes --k and --json plus only the flags it acts on.  multiply, universal
and poly share one product path, the only one that opens the cache: rows
come from the asked product's cache records, product-checked, or are
computed and appended, then are filtered by --gamma, sorted and printed.
Output is line-oriented records by default, a JSON array with --json.
Exit codes: 1 for usage/parse errors and unusable cache paths, 2 when a
budget is exceeded, 3 when an internal invariant check fails.
"""

import argparse
import os
import sys

from . import center as ct
from . import characters as ch
from . import partitions as pt
from .blockperm import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvariantViolation, NotProper, WreathError
from .families import (
    PartitionFamily,
    class_size,
    families_with_size,
    format_family,
    pad_family,
    parse_family,
)

CACHE_ENV = "WREATH_CACHE"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    Each product is one record, appended by a single write.  Its first line
    starts with a header field `#<rows>:<sha256>` holding the number of
    rows and the sha256 of the row lines (each with its newline, header
    field left out).  A lookup reads only its key's records.  A key whose
    rows lack a header, whose record has a wrong count or digest or repeats
    a target, or whose records disagree is rejected whatever other keys
    hold: looking it up raises InvariantViolation.  Identical records
    collapse; only keys written before are served, so replays are identical.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.group: dict = {}
        self.poly: dict = {}
        self.rejected: dict = {}

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
            if row_key == key and record is None:
                self.rejected[key] = "has rows without a record header"
            elif row_key == key:
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
            self.rejected[key] = "does not match its record header"
        elif None in rows.values():
            self.rejected[key] = "has a row whose numeric fields are not integers"
        elif len(rows) != len(lines):
            self.rejected[key] = "repeats a target"
        elif table.setdefault(key, rows) != rows:
            self.rejected[key] = "has records that disagree"

    def _get(self, table, key):
        if key not in table and self.path and os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self._read(handle, table, key)
        if key in self.rejected:
            raise InvariantViolation(f"cache record {key} {self.rejected[key]}")
        return table.get(key)

    def _append(self, lines):
        lines = list(lines)
        if not self.path or not lines:
            return
        text = "".join(line + "\n" for line in lines)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"#{len(lines)}:{_digest(text)}; {text}")

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


def _build_parser() -> _Parser:
    parser = _Parser(prog="wreathcenter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    pair_product = {"pair", "budget", "product"}
    # every command takes --k and --json, and only the other flags it acts on
    for name, help_text, flags in (
        ("classes", "list conjugacy classes with sizes", {"n"}),
        ("multiply", "product of two class sums in the group", {"n"} | pair_product),
        ("universal", "product of two orbit sums in the universal algebra", pair_product),
        ("poly", "binomial-basis rows of a product of proper families", pair_product),
        ("chartable", "character table records", {"n"}),
        ("verify", "pointwise multiplicativity of the transport map", {"pair", "budget"}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--k", type=int, required=True)
        if "n" in flags:
            p.add_argument("--n", type=int, required=True)
        if "pair" in flags:
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
        p.add_argument("--json", action="store_true")
        if "budget" in flags:
            p.add_argument("--max-group-size", type=int, default=DEFAULT_BUDGET)
        if "product" in flags:
            p.add_argument("--cache", default=None)
            p.add_argument("--verify-representative", action="store_true")
            p.add_argument("--gamma", default=None)
    return parser


def _emit(args, records, json_records):
    if args.json:
        # imported only here: about 3 ms that plain-text output need not pay
        import json

        print(json.dumps(json_records, indent=2))
    else:
        for record in records:
            print(record)


def _parse_pair(args):
    left = parse_family(args.left, args.k)
    right = parse_family(args.right, args.k)
    return left, right


def _cmd_classes(args):
    rows = [
        (format_family(fam), class_size(fam, args.n))
        for fam in families_with_size(args.k, args.n)
    ]
    records = [f"{args.k}; {args.n}; {fam}; {size}" for fam, size in rows]
    return records, [{"family": fam, "size": size} for fam, size in rows]


def _cmd_product(args):
    """multiply, universal, poly: rows keyed (gamma,) or (gamma, r), filtered, sorted, printed."""
    left, right = _parse_pair(args)
    wanted = parse_family(args.gamma, args.k) if args.gamma else None
    given = [fam for fam in (left, right, wanted) if fam is not None]
    if args.command == "multiply" and any(fam.size != args.n for fam in given):
        raise UsageError("multiply requires families of size exactly n")
    if args.command == "poly" and not all(fam.is_proper() for fam in given):
        raise UsageError("poly requires proper families (no 1-parts in the all-ones component)")
    lt, rt = format_family(left), format_family(right)
    options = {"budget": args.max_group_size, "verify_representative": args.verify_representative}
    if args.command == "universal" and not (left.is_proper() and right.is_proper()):
        vector = ct.multiply_universal(left, right, **options)
        rows = {(gamma,): coeff for gamma, coeff in vector.terms.items()}
    else:
        path = args.cache or os.environ.get(CACHE_ENV)
        try:
            rows = _cached_rows(args, Cache(path), left, right, lt, rt, options)
        except OSError as exc:
            raise UsageError(f"unusable cache: {exc}") from exc
        if args.command == "universal":
            rows = {(gamma,): coeff for gamma, coeff in _poly_terms(rows).items()}

    def order(item):
        (gamma, *r), _ = item
        return (gamma.size if args.command == "universal" else 0, gamma.sort_key(), *r)

    items = sorted(rows.items(), key=order)
    if wanted is not None:
        items = [item for item in items if item[0][0] == wanted]
    head = [args.k, args.n, lt, rt] if args.command == "multiply" else [args.k, lt, rt]
    records, json_records = [], []
    for (gamma, *r), coeff in items:
        fields = {"gamma": format_family(gamma), **dict(zip(["r"], r)), "coeff": coeff}
        records.append("; ".join(map(str, head + list(fields.values()))))
        json_records.append(fields)
    return records, json_records


def _cached_rows(args, cache, left, right, lt, rt, options):
    """Group rows {(gamma,): coeff} for multiply, polynomial rows {(gamma, r): coeff} otherwise.

    A miss is computed, appended to the cache and returned as computed.  A
    hit is parsed once; a row that is not a target of the product raises
    InvariantViolation naming the record, and the rows pass check_mass.
    """
    group = args.command == "multiply"
    key = (args.k, args.n, lt, rt) if group else (args.k, lt, rt)
    cached = cache.get_group(*key) if group else cache.get_poly(*key)
    if cached is None and group:
        terms = ct.multiply_group(left, right, args.n, **options).terms
        cache.put_group(*key, {format_family(g): c for g, c in terms.items()})
        return {(gamma,): coeff for gamma, coeff in terms.items()}
    if cached is None:
        rows = ct.polynomial_structure(left, right, **options).rows
        cache.put_poly(*key, {(format_family(g), r): c for (g, r), c in rows.items()})
        return rows
    try:
        if group:
            rows = {(parse_family(g, args.k),): c for g, c in cached.items()}
            vector = ct.ClassSumVector(args.k, {g: c for (g,), c in rows.items()}, n=args.n)
        else:
            rows = {(parse_family(g, args.k), r): c for (g, r), c in cached.items()}
            if not all(g.is_proper() for g, _ in rows):
                raise NotProper("a polynomial row's target is not proper")
            vector = ct.ClassSumVector(args.k, _poly_terms(rows))
        if len(vector.terms) != len(cached):
            raise ValueError("a row has coefficient 0 or repeats a target")
    except (ValueError, WreathError) as exc:
        raise InvariantViolation(f"cache record {key} is not a product's rows: {exc}") from exc
    ct.check_mass(vector, left, right)
    return rows


def _poly_terms(rows: dict) -> dict:
    """Universal terms from polynomial rows: r extra 1-parts go back into the all-ones component."""
    return {pad_family(gamma, gamma.size + r): coeff for (gamma, r), coeff in rows.items()}


def _cmd_chartable(args):
    """Every character value, irreducible by class, both labelled as in character_table.

    k = 1 labels are bare partitions and k = 2 labels come in
    bipartitions_of order; k >= 3 labels are families in
    families_with_size order.
    """
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
    records, json_records = [], []
    for rho_text, rho in labels:
        i = position[rho]
        for delta_text, delta in labels:
            val = columns[delta][i]
            records.append(f"{n}; {rho_text}; {delta_text}; {val}")
            json_records.append({"rho": rho_text, "delta": delta_text, "value": val})
    return records, json_records


def _cmd_verify(args):
    left, right = _parse_pair(args)
    ok = ch.verify_iso(args.k, left, right, budget=args.max_group_size)
    lt, rt = format_family(left), format_family(right)
    return [f"{args.k}; {lt}; {rt}; {'true' if ok else 'false'}"], {"verified": ok}


COMMANDS = {"classes": _cmd_classes, "chartable": _cmd_chartable, "verify": _cmd_verify}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if min(getattr(args, "n", 0), getattr(args, "max_group_size", 0)) < 0:
            raise UsageError("--n and --max-group-size must be nonnegative integers")
        records, json_records = COMMANDS.get(args.command, _cmd_product)(args)
        _emit(args, records, json_records)
        if args.command == "verify" and not json_records["verified"]:
            return EXIT_INVARIANT
        return EXIT_OK
    except (UsageError, ValueError) as exc:
        print(f"error: usage; {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(
            f"error: budget-exceeded; needed={exc.needed}; budget={exc.budget}; what={exc.what}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"error: invariant-violation; {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except WreathError as exc:
        print(f"error: usage; {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
