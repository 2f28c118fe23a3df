"""Span tracer for the traced run.

The tracer replaces public functions of the wreathcenter modules with thin
wrappers.  Every call into a wrapped function opens a span; on exit the
span's duration, its self time (duration minus the time covered by child
spans) and its call count are added to per-name totals.  Spans of the
coarse names (products, targets, cache loads, CLI runs) are also kept one
by one, with start, end, parent span and operation id, and written out at
the end of the run.  Hot leaves (type extraction, partition normalisation,
pair products) keep totals only, because storing millions of spans would
cost more memory than the workload itself.

Generators are traced per resumption: each `next()` is a span, and the
number of values produced is counted as the name's `items`.

State is kept per thread, so the CLI's target thread pool does not mix up
stacks or lose counts; `totals()` merges the threads.
"""

import itertools
import threading
from time import perf_counter

# (module, attribute path, span name, kind, recorded one by one)
LIBRARY_SPECS = (
    ("partitions", "as_partition", "partitions.as_partition", "fn", False),
    ("partitions", "union", "partitions.union", "fn", False),
    ("partitions", "subtract", "partitions.subtract", "fn", False),
    ("partitions", "pad_to", "partitions.pad_to", "fn", False),
    ("partitions", "z_of", "partitions.z_of", "fn", False),
    ("partitions", "partitions_of", "partitions.partitions_of", "fn", False),
    ("families", "families_with_size", "families.families_with_size", "fn", True),
    ("families", "class_size", "families.class_size", "fn", False),
    ("blockperm", "BlockPermutation.type_of", "blockperm.type_of", "fn", False),
    ("blockperm", "BlockPermutation.__mul__", "blockperm.mul", "fn", False),
    ("blockperm", "enumerate_class", "blockperm.enumerate_class", "gen", False),
    ("blockperm", "class_mappings_on_blocks", "blockperm.class_mappings_on_blocks", "gen", False),
    ("blockperm", "class_representative", "blockperm.class_representative", "fn", True),
    ("kpartial", "product", "kpartial.product", "fn", False),
    ("kpartial", "universal_class_members", "kpartial.universal_class_members", "gen", False),
    ("kpartial", "partial_class_representative", "kpartial.partial_class_representative", "fn", True),
    ("center", "multiply_group", "center.multiply_group", "fn", True),
    ("center", "multiply_universal", "center.multiply_universal", "fn", True),
    ("center", "polynomial_structure", "center.polynomial_structure", "fn", True),
    ("center", "project", "center.project", "fn", True),
    ("characters", "verify_iso", "characters.verify_iso", "fn", True),
    ("characters", "transport_value", "characters.transport_value", "fn", False),
    ("characters", "sym_character", "characters.sym_character", "fn", False),
    ("characters", "hyperoct_character", "characters.hyperoct_character", "fn", False),
    ("cli", "run", "cli.run", "fn", True),
    ("cli", "Cache.__init__", "cli.Cache.load", "fn", True),
    ("cli", "Cache._append", "cli.Cache.append", "fn", True),
    ("cli", "Cache.get_group", "cli.Cache.get", "fn", False),
    ("cli", "Cache.get_poly", "cli.Cache.get", "fn", False),
)

# memoised functions whose cache_info() gives the per-layer hit ratios
MEMOISED = (
    ("characters", "sym_character", "characters.sym_character"),
    ("characters", "hyperoct_character", "characters.hyperoct_character"),
)


class Tracer:
    """Spans and per-name totals for one traced pass."""

    def __init__(self):
        self.op = None
        self.spans = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []
        self._memo_start = {}

    # -- per-thread state: [stack, totals, counters, muted] ----------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = [[], {}, {}, False]
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, key, amount=1):
        """Add to a named counter recorded at a layer boundary."""
        counters = self._state()[2]
        counters[key] = counters.get(key, 0) + amount

    def _push(self, state, recorded):
        stack = state[0]
        parent = stack[-1][3] if stack else None
        span_id = next(self._ids) if recorded else None
        frame = [perf_counter(), 0.0, span_id, span_id if recorded else parent, parent]
        stack.append(frame)
        return frame

    def _pop(self, state, name, frame, items=0):
        end = perf_counter()
        stack, totals = state[0], state[1]
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0.0, 0.0, 0]  # calls, total s, self s, items
        entry[1] += duration
        entry[2] += duration - frame[1]
        entry[3] += items
        if frame[2] is not None:
            self.spans.append((frame[2], name, frame[0], end, frame[4], self.op))
        return entry

    def span(self, name, fn, *args):
        """Call fn inside a recorded span named `name`."""
        state = self._state()
        frame = self._push(state, True)
        try:
            return fn(*args)
        finally:
            self._pop(state, name, frame)[0] += 1

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, recorded=False, after=None):
        """A wrapper of fn that opens a span per call.

        `after(result, *args)` runs outside the span with tracing switched
        off, so the counters it reads cost no spans or counts of their own.
        """
        state_of, push, pop = self._state, self._push, self._pop

        def traced(*args, **kwargs):
            state = state_of()
            if state[3]:
                return fn(*args, **kwargs)
            frame = push(state, recorded)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(state, name, frame)[0] += 1
            if after is not None:
                state[3] = True
                try:
                    after(result, *args, **kwargs)
                finally:
                    state[3] = False
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """A wrapper of a generator function that opens a span per resumption."""
        state_of, push, pop = self._state, self._push, self._pop

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            state = state_of()
            if state[3]:
                yield from inner
                return
            state[1].setdefault(name, [0, 0.0, 0.0, 0])[0] += 1
            try:
                while True:
                    frame = push(state, False)
                    try:
                        value = next(inner)
                    except StopIteration:
                        pop(state, name, frame)
                        return
                    except BaseException:
                        pop(state, name, frame)
                        raise
                    pop(state, name, frame, 1)
                    yield value
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def install(self, lib, after_hooks=None):
        """Wrap every LIBRARY_SPECS entry in the modules of `lib`.

        Functions are replaced in every wreathcenter module that binds
        them, so calls made through `from .x import f` names are traced too.
        """
        after_hooks = after_hooks or {}
        modules = lib.all_modules()
        for module_name, attr, name in MEMOISED:
            cached = getattr(getattr(lib, module_name), attr)
            info = cached.cache_info()
            self._memo_start[name] = (cached, info.hits, info.misses)
        for module_name, path, name, kind, recorded in LIBRARY_SPECS:
            owner = getattr(lib, module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            if kind == "gen":
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, recorded, after_hooks.get(name))
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def memo_stats(self):
        """{name: [hits, misses]} of the memoised functions since install()."""
        out = {}
        for name, (cached, hits, misses) in self._memo_start.items():
            info = cached.cache_info()
            out[name] = [info.hits - hits, info.misses - misses]
        return out

    def totals(self):
        """Merged {name: [calls, total s, self s, items]} and {counter: value}."""
        totals, counters = {}, {}
        for _, thread_totals, thread_counters, _ in self._threads:
            for name, entry in thread_totals.items():
                merged = totals.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    merged[i] += entry[i]
            for key, value in thread_counters.items():
                counters[key] = counters.get(key, 0) + value
        return totals, counters

    def export(self):
        """Everything a parent process needs to merge this tracer's results."""
        totals, counters = self.totals()
        return {
            "totals": totals,
            "counters": counters,
            "memo": self.memo_stats(),
            "spans": self.spans,
        }


def layer_hooks(lib, tracer):
    """Counters read at the layer boundaries, keyed by span name.

    The hooks call library functions to size the work a product faced
    (targets probed, pairs enumerated); they run with tracing switched off.
    """
    families_with_size = lib.families.families_with_size
    partial_class_size = lib.kpartial.partial_class_size
    count = tracer.count

    def multiply_group(result, left, right, n, *args, **kwargs):
        count("center.multiply_group.targets", len(families_with_size(left.k, n)))
        count("center.multiply_group.coefficients", sum(result.terms.values()))

    def multiply_universal(result, left, right, *args, **kwargs):
        stage = left.size + right.size
        count(
            "center.multiply_universal.pairs",
            partial_class_size(left, stage) * partial_class_size(right, stage),
        )
        count("center.multiply_universal.useful", sum(result.terms.values()))
        count(
            "center.multiply_universal.targets_probed",
            sum(len(families_with_size(left.k, s)) for s in range(stage + 1)),
        )
        count("center.multiply_universal.targets_hit", len(result.terms))

    def cache_load(result, cache, *args, **kwargs):
        rows = sum(map(len, cache.group.values())) + sum(map(len, cache.poly.values()))
        count("cli.Cache.records_loaded", rows)

    def cache_get(result, *args, **kwargs):
        count("cli.Cache.lookups")
        count("cli.Cache.hits", result is not None)

    return {
        "center.multiply_group": multiply_group,
        "center.multiply_universal": multiply_universal,
        "cli.Cache.load": cache_load,
        "cli.Cache.get": cache_get,
    }


def merge(exports):
    """Sum several export() results (one per CLI child) into one."""
    totals, counters, memo, spans = {}, {}, {}, []
    for export in exports:
        for name, entry in export["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                merged[i] += entry[i]
        for key, value in export["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for name, (hits, misses) in export["memo"].items():
            merged = memo.setdefault(name, [0, 0])
            merged[0] += hits
            merged[1] += misses
        spans.extend(export["spans"])
    return {"totals": totals, "counters": counters, "memo": memo, "spans": spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(export):
    """The per-layer metrics of one traced pass, as {name: value}.

    Times are seconds summed over the pass; `calls`, `elements` and
    `mappings` are counts that repeat exactly for a given op list.
    """
    totals, counters, memo = export["totals"], export["counters"], export["memo"]

    def field(name, i):
        return totals.get(name, (0, 0.0, 0.0, 0))[i]

    def calls(name):
        return field(name, 0)

    def inclusive_s(name):
        return field(name, 1)

    def self_s(name):
        return field(name, 2)

    def items(name):
        return field(name, 3)

    def hit_ratio(name):
        hits, misses = memo.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    pairs = counters.get("center.multiply_universal.pairs", 0)
    return {
        "partitions.as_partition.calls": calls("partitions.as_partition"),
        "partitions.self_s": sum(e[2] for n, e in totals.items() if n.startswith("partitions.")),
        "families.families_with_size.calls": calls("families.families_with_size"),
        "families.families_with_size.self_s": self_s("families.families_with_size"),
        "families.class_size.calls": calls("families.class_size"),
        "families.class_size.self_s": self_s("families.class_size"),
        "blockperm.type_of.calls": calls("blockperm.type_of"),
        "blockperm.type_of.self_s": self_s("blockperm.type_of"),
        "blockperm.type_of.per_s": _ratio(calls("blockperm.type_of"), inclusive_s("blockperm.type_of")),
        "blockperm.mul.calls": calls("blockperm.mul"),
        "blockperm.mul.self_s": self_s("blockperm.mul"),
        "blockperm.enumerate_class.elements": items("blockperm.enumerate_class"),
        "blockperm.enumerate_class.self_s": self_s("blockperm.enumerate_class"),
        "blockperm.class_mappings_on_blocks.mappings": items("blockperm.class_mappings_on_blocks"),
        "blockperm.class_mappings_on_blocks.self_s": self_s("blockperm.class_mappings_on_blocks"),
        "kpartial.product.calls": calls("kpartial.product"),
        "kpartial.product.self_s": self_s("kpartial.product"),
        "kpartial.universal_class_members.elements": items("kpartial.universal_class_members"),
        "kpartial.universal_class_members.self_s": self_s("kpartial.universal_class_members"),
        "kpartial.partial_class_representative.calls": calls("kpartial.partial_class_representative"),
        "kpartial.partial_class_representative.self_s": self_s("kpartial.partial_class_representative"),
        "center.multiply_group.self_s": self_s("center.multiply_group"),
        "center.multiply_group.targets": counters.get("center.multiply_group.targets", 0),
        "center.multiply_group.match_ratio": _ratio(
            counters.get("center.multiply_group.coefficients", 0), calls("blockperm.type_of")
        ),
        "center.multiply_universal.self_s": self_s("center.multiply_universal"),
        "center.multiply_universal.pairs_per_s": _ratio(pairs, inclusive_s("center.multiply_universal")),
        "center.multiply_universal.useful_ratio": _ratio(
            counters.get("center.multiply_universal.useful", 0), pairs
        ),
        "center.multiply_universal.target_hit_ratio": _ratio(
            counters.get("center.multiply_universal.targets_hit", 0),
            counters.get("center.multiply_universal.targets_probed", 0),
        ),
        "center.polynomial_structure.self_s": self_s("center.polynomial_structure"),
        "characters.verify_iso.self_s": self_s("characters.verify_iso"),
        "characters.transport_value.calls": calls("characters.transport_value"),
        "characters.transport_value.self_s": self_s("characters.transport_value"),
        "characters.sym_character.calls": calls("characters.sym_character"),
        "characters.sym_character.hit_ratio": hit_ratio("characters.sym_character"),
        "characters.hyperoct_character.calls": calls("characters.hyperoct_character"),
        "characters.hyperoct_character.self_s": self_s("characters.hyperoct_character"),
        "characters.hyperoct_character.hit_ratio": hit_ratio("characters.hyperoct_character"),
        "cli.import_s": counters.get("cli.import_s", 0.0),
        "cli.Cache.load_s": inclusive_s("cli.Cache.load"),
        "cli.Cache.records_loaded": counters.get("cli.Cache.records_loaded", 0),
        "cli.Cache.append_s": inclusive_s("cli.Cache.append"),
        "cli.cache.hit_ratio": _ratio(
            counters.get("cli.Cache.hits", 0), counters.get("cli.Cache.lookups", 0)
        ),
        "cli.run.self_s": self_s("cli.run"),
        "cli.process_overhead_s": counters.get("cli.process_overhead_s", 0.0),
    }
