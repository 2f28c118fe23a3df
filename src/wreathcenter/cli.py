"""Command-line surface and the persistent coefficient cache.

Commands: classes, multiply, universal, poly, chartable, verify.  Output
is line-oriented records by default, a JSON array with --json.  Exit
codes: 1 for usage/parse errors, 2 when a budget is exceeded, 3 when an
internal invariant check fails.
"""

import argparse
import json
import os
import sys

from . import center as ct
from . import characters as ch
from . import partitions as pt
from .blockperm import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvariantViolation, WreathError
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
    # imported on first use: hashlib loads OpenSSL, a few milliseconds of
    # start-up that commands which never touch a cache need not pay
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Cache:
    """Append-only record store for group-product and polynomial rows.

    Group rows: `k; n; left; right; gamma; coeff`.
    Polynomial rows: `k; left; right; gamma; r; coeff`.
    Each product is one record, appended by a single write.  Its first line
    starts with a header field `#<rows>:<sha256>` holding the number of
    rows and the sha256 of the row lines (each with its newline, header
    field left out).  A key whose rows come without a header, in a record
    whose count or digest does not match, or in records that disagree is
    rejected: looking it up raises InvariantViolation.  Identical records
    are collapsed on load; a key is served from the cache only if it was
    written before, so replays are byte-identical.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.group: dict = {}
        self.poly: dict = {}
        self.rejected: dict = {}
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self._load(handle)

    def _load(self, handle):
        record = None  # [header, table, key, row lines with newlines, rows]
        for line in handle:
            line = line.strip()
            header = ""
            if line.startswith("#"):
                header, _, line = line.partition("; ")
            parsed = self._parse(line)
            if parsed is None:
                continue
            table, key, target, coeff = parsed
            if header:
                self._close(record)
                record = [header, table, key, [], {}]
            elif record is None or record[2] != key:
                self._close(record)
                record = None
                self.rejected[key] = "has rows without a record header"
                continue
            record[3].append(line + "\n")
            record[4][target] = coeff
        self._close(record)

    def _parse(self, line: str):
        """(table, key, target, coeff) of one row, or None if it is not a row."""
        fields = split_fields(line)
        if len(fields) != 6:
            return None
        if fields[1].startswith("{"):
            k, left, right, gamma, r, coeff = fields
            return self.poly, (int(k), left, right), (gamma, int(r)), int(coeff)
        k, n, left, right, gamma, coeff = fields
        return self.group, (int(k), int(n), left, right), gamma, int(coeff)

    def _close(self, record):
        if record is None:
            return
        header, table, key, lines, rows = record
        if header != f"#{len(lines)}:{_digest(''.join(lines))}":
            self.rejected[key] = "does not match its record header"
        elif table.setdefault(key, rows) != rows:
            self.rejected[key] = "has records that disagree"

    def _get(self, table, key):
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

    def common(p, need_n=False, need_pair=False):
        p.add_argument("--k", type=int, required=True)
        if need_n:
            p.add_argument("--n", type=int, required=True)
        if need_pair:
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--cache", default=None)
        p.add_argument("--max-group-size", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--verify-representative", action="store_true")

    common(sub.add_parser("classes", help="list conjugacy classes with sizes"), need_n=True)
    mult = sub.add_parser("multiply", help="product of two class sums in the group")
    common(mult, need_n=True, need_pair=True)
    mult.add_argument("--gamma", default=None)
    univ = sub.add_parser("universal", help="product of two orbit sums in the universal algebra")
    common(univ, need_pair=True)
    univ.add_argument("--gamma", default=None)
    poly = sub.add_parser("poly", help="binomial-basis rows of a product of proper families")
    common(poly, need_pair=True)
    poly.add_argument("--gamma", default=None)
    chartable = sub.add_parser("chartable", help="character table records")
    common(chartable, need_n=True)
    verify = sub.add_parser("verify", help="pointwise multiplicativity of the transport map")
    common(verify, need_pair=True)
    return parser


def _emit(args, records, json_records):
    if args.json:
        print(json.dumps(json_records, indent=2))
    else:
        for record in records:
            print(record)


def _parse_pair(args):
    left = parse_family(args.left, args.k)
    right = parse_family(args.right, args.k)
    return left, right


def _check_n(args):
    if args.n < 0:
        raise UsageError("n must be a nonnegative integer")


def _cmd_classes(args, cache):
    _check_n(args)
    rows = [
        (format_family(fam), class_size(fam, args.n))
        for fam in families_with_size(args.k, args.n)
    ]
    records = [f"{args.k}; {args.n}; {fam}; {size}" for fam, size in rows]
    return records, [{"family": fam, "size": size} for fam, size in rows]


def _group_rows(args, cache, left, right):
    lt, rt = format_family(left), format_family(right)
    cached = cache.get_group(args.k, args.n, lt, rt)
    if cached is not None:
        terms = {parse_family(gamma, args.k): coeff for gamma, coeff in cached.items()}
        ct.check_mass(ct.ClassSumVector(args.k, terms, n=args.n), left, right)
        return cached
    vector = ct.multiply_group(
        left,
        right,
        args.n,
        budget=args.max_group_size,
        verify_representative=args.verify_representative,
    )
    rows = {format_family(fam): coeff for fam, coeff in vector.terms.items()}
    cache.put_group(args.k, args.n, lt, rt, rows)
    return rows


def _sorted_by_family(rows: dict, k: int):
    return sorted(rows.items(), key=lambda item: parse_family(item[0], k).sort_key())


def _cmd_multiply(args, cache):
    _check_n(args)
    left, right = _parse_pair(args)
    if left.size != args.n or right.size != args.n:
        raise UsageError("multiply requires families of size exactly n")
    rows = _group_rows(args, cache, left, right)
    items = _sorted_by_family(rows, args.k)
    if args.gamma:
        wanted = format_family(parse_family(args.gamma, args.k))
        items = [(g, c) for g, c in items if g == wanted]
    lt, rt = format_family(left), format_family(right)
    records = [f"{args.k}; {args.n}; {lt}; {rt}; {g}; {c}" for g, c in items]
    return records, [{"gamma": g, "coeff": c} for g, c in items]


def _poly_rows(args, cache, left, right):
    lt, rt = format_family(left), format_family(right)
    cached = cache.get_poly(args.k, lt, rt)
    if cached is not None:
        ct.check_mass(ct.ClassSumVector(args.k, _poly_terms(cached, args.k)), left, right)
        return cached
    structure = ct.polynomial_structure(left, right, budget=args.max_group_size)
    rows = {
        (format_family(gamma), r): coeff
        for (gamma, r), coeff in structure.rows.items()
    }
    cache.put_poly(args.k, lt, rt, rows)
    return rows


def _cmd_poly(args, cache):
    left, right = _parse_pair(args)
    if not (left.is_proper() and right.is_proper()):
        raise UsageError("poly requires proper families (no 1-parts in the all-ones component)")
    rows = _poly_rows(args, cache, left, right)
    items = sorted(
        rows.items(), key=lambda item: (parse_family(item[0][0], args.k).sort_key(), item[0][1])
    )
    if args.gamma:
        wanted = format_family(parse_family(args.gamma, args.k))
        items = [((g, r), c) for (g, r), c in items if g == wanted]
    lt, rt = format_family(left), format_family(right)
    records = [f"{args.k}; {lt}; {rt}; {g}; {r}; {c}" for (g, r), c in items]
    return records, [{"gamma": g, "r": r, "coeff": c} for (g, r), c in items]


def _poly_terms(rows: dict, k: int) -> dict:
    """Universal terms from polynomial rows: r extra 1-parts go back into the all-ones component."""
    terms = {}
    ones = (1,) * k
    for (gamma_text, r), coeff in rows.items():
        gamma = parse_family(gamma_text, k)
        terms[gamma.replace(ones, gamma.ones_component + (1,) * r)] = coeff
    return terms


def _universal_terms(args, cache, left, right):
    if left.is_proper() and right.is_proper():
        return _poly_terms(_poly_rows(args, cache, left, right), args.k)
    vector = ct.multiply_universal(
        left,
        right,
        budget=args.max_group_size,
        verify_representative=args.verify_representative,
    )
    return vector.terms


def _cmd_universal(args, cache):
    left, right = _parse_pair(args)
    terms = _universal_terms(args, cache, left, right)
    items = sorted(terms.items(), key=lambda item: (item[0].size, item[0].sort_key()))
    if args.gamma:
        wanted = parse_family(args.gamma, args.k)
        items = [(g, c) for g, c in items if g == wanted]
    lt, rt = format_family(left), format_family(right)
    records = [f"{args.k}; {lt}; {rt}; {format_family(g)}; {c}" for g, c in items]
    return records, [{"gamma": format_family(g), "coeff": c} for g, c in items]


def _cmd_chartable(args, cache):
    _check_n(args)
    n = args.n
    if args.k == 1:
        labels = [(pt.format_partition(p), p) for p in pt.partitions_of(n)]
        value = lambda rho, delta: ch.sym_character(rho, delta)
    elif args.k == 2:
        labels = [
            (format_family(PartitionFamily.from_components(2, pair)), pair)
            for pair in ch.bipartitions_of(n)
        ]
        value = lambda rho, delta: ch.hyperoct_character(rho, delta)
    else:
        raise UsageError("chartable supports k = 1 and k = 2 only")
    records, json_records = [], []
    for rho_text, rho in labels:
        for delta_text, delta in labels:
            val = value(rho, delta)
            records.append(f"{n}; {rho_text}; {delta_text}; {val}")
            json_records.append({"rho": rho_text, "delta": delta_text, "value": val})
    return records, json_records


def _cmd_verify(args, cache):
    if args.k not in (1, 2):
        raise UsageError("verify supports k = 1 and k = 2 only")
    left, right = _parse_pair(args)
    ok = ch.verify_iso(args.k, left, right, budget=args.max_group_size)
    lt, rt = format_family(left), format_family(right)
    records = [f"{args.k}; {lt}; {rt}; {'true' if ok else 'false'}"]
    return records, {"verified": ok}, ok


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cache = Cache(args.cache or os.environ.get(CACHE_ENV))
        if args.command == "classes":
            records, json_records = _cmd_classes(args, cache)
        elif args.command == "multiply":
            records, json_records = _cmd_multiply(args, cache)
        elif args.command == "universal":
            records, json_records = _cmd_universal(args, cache)
        elif args.command == "poly":
            records, json_records = _cmd_poly(args, cache)
        elif args.command == "chartable":
            records, json_records = _cmd_chartable(args, cache)
        else:
            records, json_records, ok = _cmd_verify(args, cache)
            _emit(args, records, json_records)
            return EXIT_OK if ok else EXIT_INVARIANT
        _emit(args, records, json_records)
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
