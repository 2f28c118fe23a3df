"""The benchmark's workloads: seeded op lists, running one op, checking it.

An op is one library call (`multiply_group`, `multiply_universal`,
`polynomial_structure`) or one `wreathcenter` CLI process.  Each workload
builds its op list from the seed alone; the program only sees the
generated inputs.

Draws are cost-matched: the seed chooses *which* pair is multiplied at a
fixed amount of work (type extractions for group products, enumerated
pairs for universal products), never how much work a pass holds.  So
different seeds exercise different classes while the end-to-end figures
stay comparable from seed to seed.
"""

import hashlib
import importlib
import math
import os
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_SEED = 1
MODULES = ("partitions", "families", "blockperm", "kpartial", "center", "characters", "cli", "errors")

# group: (k, n) levels, the per-pair cap on type extractions
# (smaller class size x number of target classes), the spacing of the
# work levels and the pairs drawn at each level
GROUP_SIZES = ((1, 7), (1, 8), (2, 5), (2, 6), (3, 4))
GROUP_WORK_CAP = 25_000
GROUP_LEVEL_RATIO = 1.41
GROUP_PICKS = 1
# group ops whose proper parts multiply in at most this many universal
# pairs are also checked against project(multiply_universal(...))
UNIVERSAL_CHECK_PAIRS = 5_000

# universal-sweep: every product with k <= 3 and |L| + |R| <= 4
SWEEP_KS = (1, 2, 3)
SWEEP_MAX_SIZE = 4

# poly-rows: (k, allowed |L| + |R|) for proper non-empty pairs, the cap on
# enumerated pairs, level spacing and pairs drawn at each level of each
# (k, |L| + |R|); levels of big products get one pair, so that the pass
# stays short while the ranks of op_p50_ms and op_tail_ms fall inside
# clusters of similar ops rather than on a gap between two
POLY_SIZES = ((1, (6, 7, 8)), (2, (5, 6)))
POLY_PAIR_CAP = 200_000
POLY_LEVEL_RATIO = 2
POLY_PICKS = 3
POLY_SINGLE_ABOVE = 15_000

# cli: what the pre-populated cache file holds
CACHE_GROUP = ((1, 4), (2, 2))  # multiply_group, all pairs
CACHE_PAIRS = ((1, 6, 24), (2, 4, 14), (3, 3, 10))  # proper pairs: (k, max |L|+|R|, max n)
# cli: the mix of one pass.  No record of how the CLI is used exists, so
# these counts are an assumption, not a measurement (the reasons are in
# predictions.json).  The three cached commands are weighted equally; each
# miss is asked again later, so a pass holds 36 hits and 12 misses and both
# cache p50s rest on at least ten samples.
CLI_HITS_PER_COMMAND = 8
CLI_MISSES_PER_COMMAND = 4
MISS_GROUP_SIZES = ((1, 6), (1, 7), (2, 4), (3, 3))
MISS_GROUP_WORK = 400
MISS_POLY_SIZES = ((1, 7), (2, 5), (3, 4))
MISS_POLY_PAIRS = 3_000
CLI_VERIFY = ((1, 5, 4), (2, 3, 4))  # (k, |L| + |R|, calls)
CLI_CHARTABLE = ((1, (7, 8, 9, 10)), (2, (3, 4, 5, 6)))
CLI_TIMEOUT_S = 120

CLI_MAIN = "import sys; from wreathcenter.cli import main; sys.exit(main())"


class Library:
    """One fresh import of the wreathcenter package from `src`."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "wreathcenter" or m.startswith("wreathcenter.")]:
            del sys.modules[name]
        self.package = importlib.import_module("wreathcenter")
        location = Path(self.package.__file__).resolve()
        if Path(src).resolve() not in location.parents:
            raise ImportError(f"wreathcenter was imported from {location}, not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"wreathcenter.{name}"))

    def all_modules(self):
        return [self.package] + [getattr(self, name) for name in MODULES]


class Op:
    """One operation of a pass."""

    __slots__ = ("key", "fn", "args", "stratum", "anchor", "kind", "argv", "expected", "ref", "check_universal")

    def __init__(self, key, fn, args=(), stratum=None, anchor=None, kind=None, argv=None):
        self.key = key
        self.fn = fn
        self.args = args
        self.stratum = stratum
        self.anchor = anchor
        self.kind = kind
        self.argv = argv
        self.expected = None
        self.ref = None
        self.check_universal = False


# -- helpers ----------------------------------------------------------------


def strip_ones(fam):
    """The proper part of a family: its all-ones component without 1-parts."""
    ones = (1,) * fam.k
    return fam.replace(ones, tuple(p for p in fam.ones_component if p != 1))


def with_ones(fam, r):
    """A proper family with r extra 1-parts in its all-ones component."""
    return fam.replace((1,) * fam.k, fam.ones_component + (1,) * r)


def work_levels(works, start, ratio, cap):
    """The distinct work values nearest to start * ratio**i, for i = 0, 1, ... up to cap."""
    distinct = sorted(set(works))
    levels = []
    target = start
    while target <= cap:
        best = min(distinct, key=lambda w: abs(math.log(w / target)))
        if best not in levels:
            levels.append(best)
        target *= ratio
    return levels


def draw(rng, candidates, picks):
    """`picks` candidates, distinct while there are enough of them."""
    chosen = rng.sample(candidates, min(picks, len(candidates)))
    while len(chosen) < picks:
        chosen.append(rng.choice(candidates))
    return chosen


def pair_key(lib, fn, L, R, n=None):
    fmt = lib.families.format_family
    where = f"k={L.k}" if n is None else f"k={L.k} n={n}"
    return f"{fn} {where} {fmt(L)} x {fmt(R)}"


def stage_pairs(lib, L, R):
    stage = L.size + R.size
    pcs = lib.kpartial.partial_class_size
    return pcs(L, stage) * pcs(R, stage)


def proper_families(lib, k, max_size):
    fws = lib.families.families_with_size
    return [f for s in range(1, max_size + 1) for f in fws(k, s, proper_only=True)]


# -- library workloads --------------------------------------------------------


def group_ops(lib, rng):
    fams_of, class_size = lib.families.families_with_size, lib.families.class_size
    anchor = lib.families.PartitionFamily(1, {(1,): (3, 3, 1, 1)})
    ops = [Op(pair_key(lib, "multiply_group", anchor, anchor, 8), "multiply_group",
              (anchor, anchor, 8), stratum=(1, 8), anchor="group_k1n8_3311sq")]
    for k, n in GROUP_SIZES:
        fams = fams_of(k, n)
        sizes = {f: class_size(f, n) for f in fams}
        by_work = defaultdict(list)
        for L in fams:
            for R in fams:
                work = min(sizes[L], sizes[R]) * len(fams)
                if work <= GROUP_WORK_CAP:
                    by_work[work].append((L, R))
        for level in work_levels(by_work, len(fams), GROUP_LEVEL_RATIO, GROUP_WORK_CAP):
            for L, R in draw(rng, by_work[level], GROUP_PICKS):
                ops.append(Op(pair_key(lib, "multiply_group", L, R, n), "multiply_group",
                              (L, R, n), stratum=(k, n)))
    for op in ops:
        L, R, n = op.args
        op.check_universal = stage_pairs(lib, strip_ones(L), strip_ones(R)) <= UNIVERSAL_CHECK_PAIRS
    rng.shuffle(ops)
    return ops


def sweep_ops(lib, rng):
    fams_of = lib.families.families_with_size
    ops = []
    for k in SWEEP_KS:
        fams = [f for s in range(SWEEP_MAX_SIZE + 1) for f in fams_of(k, s)]
        for L in fams:
            for R in fams:
                if L.size + R.size <= SWEEP_MAX_SIZE:
                    ops.append(Op(pair_key(lib, "multiply_universal", L, R), "multiply_universal",
                                  (L, R), stratum=k))
    rng.shuffle(ops)
    return ops


def poly_ops(lib, rng):
    PF = lib.families.PartitionFamily
    anchor = (PF(1, {(1,): (3, 2)}), PF(1, {(1,): (2,)}))
    ops = [Op(pair_key(lib, "polynomial_structure", *anchor), "polynomial_structure", anchor,
              stratum=(1, 7), anchor="poly_k1_32x2")]
    for k, totals in POLY_SIZES:
        fams = proper_families(lib, k, max(totals))
        for total in totals:
            by_pairs = defaultdict(list)
            for L in fams:
                for R in fams:
                    if L.size + R.size == total:
                        pairs = stage_pairs(lib, L, R)
                        if pairs <= POLY_PAIR_CAP:
                            by_pairs[pairs].append((L, R))
            levels = work_levels(by_pairs, min(by_pairs), POLY_LEVEL_RATIO, POLY_PAIR_CAP)
            for level in levels:
                picks = POLY_PICKS if level < POLY_SINGLE_ABOVE else 1
                for L, R in draw(rng, by_pairs[level], picks):
                    ops.append(Op(pair_key(lib, "polynomial_structure", L, R), "polynomial_structure",
                                  (L, R), stratum=(k, total)))
    rng.shuffle(ops)
    return ops


class LibraryPlan:
    """A library workload: ops are calls into wreathcenter.center."""

    cli = False

    def __init__(self, lib, ops):
        self.lib = lib
        self.ops = ops

    def begin_pass(self):
        pass

    def execute(self, op, index):
        return getattr(self.lib.center, op.fn)(*op.args)

    def warm_up(self):
        """Run one op of every stratum, so lazy tables are built before timing."""
        first = {}
        for op in self.ops:
            first.setdefault(op.stratum, op)
        for op in first.values():
            self.execute(op, None)

    def canonical(self, op, out):
        if op.fn == "polynomial_structure":
            fmt = self.lib.families.format_family
            return ";".join(f"{fmt(g)}/{r}={c}" for (g, r), c in out.rows_sorted())
        return repr(out)

    def check(self, op, out, outputs=None):
        """Problems found in one output; an empty list means it passed."""
        return getattr(self, f"_check_{op.fn}")(op, out)

    def _check_multiply_group(self, op, vector):
        lib, (L, R, n) = self.lib, op.args
        class_size = lib.families.class_size
        problems = []
        if vector.n != n or vector.k != L.k:
            problems.append(f"vector over k={vector.k} n={vector.n}")
        if any(c <= 0 for c in vector.terms.values()):
            problems.append("non-positive coefficient")
        mass = sum(c * class_size(g, n) for g, c in vector.terms.items())
        if mass != class_size(L, n) * class_size(R, n):
            problems.append(f"mass {mass} != |C_L||C_R|")
        if op.check_universal:
            universal = lib.center.multiply_universal(strip_ones(L), strip_ones(R))
            if lib.center.project(universal, n).terms != vector.terms:
                problems.append("differs from project(multiply_universal(...))")
        return problems

    def _universal_mass_problems(self, L, R, terms):
        lib = self.lib
        stage = L.size + R.size
        pcs = lib.kpartial.partial_class_size
        mass = sum(c * pcs(g, stage) for g, c in terms.items())
        if mass != stage_pairs(lib, L, R):
            return [f"mass {mass} != |C_L||C_R| at stage {stage}"]
        return []

    def _check_multiply_universal(self, op, vector):
        L, R = op.args
        problems = self._universal_mass_problems(L, R, vector.terms)
        if vector.n is not None or any(c <= 0 for c in vector.terms.values()):
            problems.append("not a positive universal vector")
        for g in vector.terms:
            if not max(L.size, R.size) <= g.size <= L.size + R.size:
                problems.append(f"target of size {g.size} outside [max, sum] of the inputs")
            if g.size + g.m1 > L.size + L.m1 + R.size + R.m1:
                problems.append("second filtration degree not subadditive")
        return problems

    def _check_polynomial_structure(self, op, structure):
        lib, (L, R) = self.lib, op.args
        terms = {with_ones(g, r): c for (g, r), c in structure.rows.items()}
        problems = self._universal_mass_problems(L, R, terms)
        n = max(L.size, R.size)
        pad = lib.families.pad_family
        group = lib.center.multiply_group(pad(L, n), pad(R, n), n)
        targets = set(structure.targets())
        for g in targets:
            if g.size <= n and structure.evaluate(g, n) != group.coefficient(pad(g, n)):
                problems.append(f"evaluate at n={n} differs from multiply_group")
        if any(strip_ones(g) not in targets for g in group.terms):
            problems.append(f"multiply_group at n={n} has a target without a row")
        return problems


# -- cli workload -------------------------------------------------------------


def multiply_text(lib, k, n, L, R, terms):
    fmt = lib.families.format_family
    return "".join(
        f"{k}; {n}; {fmt(L)}; {fmt(R)}; {fmt(g)}; {c}\n"
        for g, c in sorted(terms.items(), key=lambda item: item[0].sort_key())
    )


def poly_text(lib, k, L, R, rows):
    fmt = lib.families.format_family
    return "".join(
        f"{k}; {fmt(L)}; {fmt(R)}; {fmt(g)}; {r}; {c}\n"
        for (g, r), c in sorted(rows.items(), key=lambda item: (item[0][0].sort_key(), item[0][1]))
    )


def universal_text(lib, k, L, R, terms):
    fmt = lib.families.format_family
    return "".join(
        f"{k}; {fmt(L)}; {fmt(R)}; {fmt(g)}; {c}\n"
        for g, c in sorted(terms.items(), key=lambda item: (item[0].size, item[0].sort_key()))
    )


def chartable_text(lib, k, n):
    ch, pt = lib.characters, lib.partitions
    if k == 1:
        labels = [(pt.format_partition(p), p) for p in pt.partitions_of(n)]
        value = ch.sym_character
    else:
        PF = lib.families.PartitionFamily
        labels = [(lib.families.format_family(PF.from_components(2, pair)), pair)
                  for pair in ch.bipartitions_of(n)]
        value = ch.hyperoct_character
    return "".join(
        f"{n}; {rt}; {dt}; {value(rho, delta)}\n" for rt, rho in labels for dt, delta in labels
    )


class CliPlan:
    """The cli workload: every op is one `wreathcenter` process."""

    cli = True

    def __init__(self, lib, rng, workdir: Path, src: Path, child: Path):
        self.lib = lib
        self.workdir = workdir
        self.src = src
        self.child = child
        self.pristine = workdir / "cache.pristine"
        self.cache_path = workdir / "cache.txt"
        self.tracer_dir = None  # set for a traced pass: children write their spans here
        self.fault = False
        hit_keys = self._build_cache()
        self.ops = self._make_ops(rng, hit_keys)

    # the pre-populated cache file, written with the program's own Cache

    def _build_cache(self):
        lib = self.lib
        fmt, fams_of = lib.families.format_family, lib.families.families_with_size
        center, pad = lib.center, lib.families.pad_family
        if self.pristine.exists():
            self.pristine.unlink()
        cache = lib.cli.Cache(str(self.pristine))
        group, poly = {}, {}

        def put_group(k, n, L, R, terms):
            for a, b in ((L, R), (R, L)):
                key = (k, n, fmt(a), fmt(b))
                if key not in group:
                    group[key] = (a, b, terms)
                    cache.put_group(k, n, fmt(a), fmt(b), {fmt(g): c for g, c in terms.items()})

        for k, n in CACHE_GROUP:
            fams = fams_of(k, n)
            for i, L in enumerate(fams):
                for R in fams[i:]:
                    put_group(k, n, L, R, center.multiply_group(L, R, n).terms)
        # one polynomial structure per proper pair gives its poly rows and,
        # through the universal product they encode, group rows at every n
        for k, max_total, max_n in CACHE_PAIRS:
            fams = proper_families(lib, k, max_total)
            for i, L in enumerate(fams):
                for R in fams[i:]:
                    if L.size + R.size > max_total:
                        continue
                    rows = center.polynomial_structure(L, R).rows
                    for a, b in ((L, R), (R, L)):
                        if (k, fmt(a), fmt(b)) not in poly:
                            poly[(k, fmt(a), fmt(b))] = (a, b, rows)
                            cache.put_poly(k, fmt(a), fmt(b), {(fmt(g), r): c for (g, r), c in rows.items()})
                    universal = center.ClassSumVector(k, {with_ones(g, r): c for (g, r), c in rows.items()})
                    for n in range(max(L.size, R.size), max_n + 1):
                        put_group(k, n, pad(L, n), pad(R, n), center.project(universal, n).terms)
        return group, poly

    def _make_ops(self, rng, hit_keys):
        lib = self.lib
        fmt = lib.families.format_family
        group, poly = hit_keys
        ops = []

        def pair_op(command, kind, k, L, R, n=None):
            argv = [command, "--k", str(k)] + ([] if n is None else ["--n", str(n)])
            argv += ["--left", fmt(L), "--right", fmt(R), "--cache", str(self.cache_path)]
            op = Op(f"{kind} {pair_key(lib, command, L, R, n)}", command, (k, n, L, R), kind=kind, argv=argv)
            ops.append(op)
            return op

        # hits: keys of the pre-populated file, with their expected output
        for key in rng.sample(sorted(group), CLI_HITS_PER_COMMAND):
            k, n, _, _ = key
            L, R, terms = group[key]
            pair_op("multiply", "hit", k, L, R, n).expected = multiply_text(lib, k, n, L, R, terms)
        poly_keys = rng.sample(sorted(poly), 2 * CLI_HITS_PER_COMMAND)
        for i, key in enumerate(poly_keys):
            k = key[0]
            L, R, rows = poly[key]
            if i < CLI_HITS_PER_COMMAND:
                pair_op("poly", "hit", k, L, R).expected = poly_text(lib, k, L, R, rows)
            else:
                terms = {with_ones(g, r): c for (g, r), c in rows.items()}
                pair_op("universal", "hit", k, L, R).expected = universal_text(lib, k, L, R, terms)

        # misses: fresh keys that compute and append, each asked again later
        misses = []
        fams_of, class_size = lib.families.families_with_size, lib.families.class_size
        group_pool = []
        for k, n in MISS_GROUP_SIZES:
            fams = fams_of(k, n)
            for L in fams:
                for R in fams:
                    cheap = min(class_size(L, n), class_size(R, n)) * len(fams) <= MISS_GROUP_WORK
                    if cheap and (k, n, fmt(L), fmt(R)) not in group:
                        group_pool.append((k, n, L, R))
        for k, n, L, R in rng.sample(group_pool, CLI_MISSES_PER_COMMAND):
            misses.append(pair_op("multiply", "miss", k, L, R, n))
        poly_pool = []
        for k, total in MISS_POLY_SIZES:
            for L in proper_families(lib, k, total - 1):
                for R in proper_families(lib, k, total - 1):
                    fresh = (k, fmt(L), fmt(R)) not in poly
                    if fresh and L.size + R.size == total and stage_pairs(lib, L, R) <= MISS_POLY_PAIRS:
                        poly_pool.append((k, L, R))
        chosen = rng.sample(poly_pool, 2 * CLI_MISSES_PER_COMMAND)
        for i, (k, L, R) in enumerate(chosen):
            command = "poly" if i < CLI_MISSES_PER_COMMAND else "universal"
            misses.append(pair_op(command, "miss", k, L, R))
        for miss in misses:
            rehit = Op(miss.key.replace("miss ", "rehit ", 1), miss.fn, miss.args, kind="rehit", argv=miss.argv)
            ops.append(rehit)

        # cold character work in every process
        for k, total, calls in CLI_VERIFY:
            pool = [(L, R) for s in range(1, total) for L in fams_of(k, s) for R in fams_of(k, total - s)]
            for L, R in rng.sample(pool, calls):
                argv = ["verify", "--k", str(k), "--left", fmt(L), "--right", fmt(R)]
                op = Op(f"verify {pair_key(lib, 'verify', L, R)}", "verify", (k, None, L, R),
                        kind="verify", argv=argv)
                op.expected = f"{k}; {fmt(L)}; {fmt(R)}; true\n"
                ops.append(op)
        for k, ns in CLI_CHARTABLE:
            for n in ns:
                argv = ["chartable", "--k", str(k), "--n", str(n)]
                ops.append(Op(f"chartable k={k} n={n}", "chartable", (k, n), kind="chartable", argv=argv))

        rng.shuffle(ops)
        # a re-hit must come after the miss that writes its key
        for i, op in enumerate(ops):
            if op.kind == "rehit":
                j = next(j for j, m in enumerate(ops) if m.kind == "miss" and m.argv == op.argv)
                if j > i:
                    ops[i], ops[j] = ops[j], ops[i]
        for op in ops:
            if op.kind == "rehit":
                op.ref = next(j for j, m in enumerate(ops) if m.kind == "miss" and m.argv == op.argv)
        return ops

    # running

    def environment(self):
        env = {k: v for k, v in os.environ.items() if k != "WREATH_CACHE"}
        env["PYTHONPATH"] = str(self.src)
        return env

    def begin_pass(self):
        shutil.copyfile(self.pristine, self.cache_path)

    def execute(self, op, index):
        if self.tracer_dir is None and not self.fault:
            command = [sys.executable, "-c", CLI_MAIN] + op.argv
        else:
            stats = (self.tracer_dir or self.workdir) / f"op{index}.json"
            command = [sys.executable, str(self.child), str(stats), str(index)]
            command += (["--fault"] if self.fault else []) + ["--"] + op.argv
        proc = subprocess.run(command, env=self.environment(), capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        """Nothing: every CLI call pays its own cold start, as users do."""

    def canonical(self, op, out):
        code, stdout, _ = out
        return f"exit={code} sha256={hashlib.sha256(stdout).hexdigest()}"

    def expected(self, op):
        lib = self.lib
        if op.expected is None:
            center = lib.center
            if op.fn == "chartable":
                op.expected = chartable_text(lib, *op.args)
            else:
                k, n, L, R = op.args
                if op.fn == "multiply":
                    op.expected = multiply_text(lib, k, n, L, R, center.multiply_group(L, R, n).terms)
                elif op.fn == "poly":
                    op.expected = poly_text(lib, k, L, R, center.polynomial_structure(L, R).rows)
                else:
                    op.expected = universal_text(lib, k, L, R, center.multiply_universal(L, R).terms)
        return op.expected

    def check(self, op, out, outputs=None):
        code, stdout, stderr = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if stderr:
            problems.append("stderr: " + stderr.decode(errors="replace").strip()[-200:])
        if stdout != self.expected(op).encode():
            problems.append("stdout differs from the library result")
        if op.kind == "rehit" and outputs is not None and outputs[op.ref] is not None:
            if stdout != outputs[op.ref][1]:
                problems.append("cache hit differs from the miss that wrote it")
        return problems


def inject_fault(lib):
    """Add 1 to the first coefficient of every group and universal product.

    polynomial_structure calls multiply_universal, so its rows go wrong too.
    Used by the self-tests to show that wrong answers count as failures.
    """
    center = lib.center

    def bumped(fn):
        def wrong(*args, **kwargs):
            vector = fn(*args, **kwargs)
            terms = dict(vector.terms)
            first = vector.items_sorted()[0][0]
            terms[first] += 1
            return center.ClassSumVector(vector.k, terms, n=vector.n)

        return wrong

    for name in ("multiply_group", "multiply_universal"):
        setattr(center, name, bumped(getattr(center, name)))


WORKLOADS = ("group", "universal-sweep", "poly-rows", "cli")


def make_plan(workload, lib, seed, workdir, src, child):
    """Generate the op list of `workload` for `seed`, with everything it needs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "group":
        return LibraryPlan(lib, group_ops(lib, rng))
    if workload == "universal-sweep":
        return LibraryPlan(lib, sweep_ops(lib, rng))
    if workload == "poly-rows":
        return LibraryPlan(lib, poly_ops(lib, rng))
    if workload == "cli":
        return CliPlan(lib, rng, workdir, src, child)
    raise ValueError(f"unknown workload {workload!r}")
