import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter import cli
from wreathcenter import partitions as pt
from wreathcenter.cli import run, split_fields
from wreathcenter.errors import InvariantViolation, SizeMismatch
from wreathcenter.families import parse_family


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_fields_respects_braces():
    line = "2; 5; {[1,1]:[1,1,1]; [2]:[2]}; {[1,1]:[3]}; 7"
    assert split_fields(line) == [
        "2",
        "5",
        "{[1,1]:[1,1,1]; [2]:[2]}",
        "{[1,1]:[3]}",
        "7",
    ]


def test_classes_command(capsys):
    code, out, _ = call(capsys, "classes", "--k", "2", "--n", "2")
    assert code == 0
    rows = [split_fields(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert sum(int(r[-1]) for r in rows) == 8


def test_universal_command(capsys):
    code, out, _ = call(
        capsys, "universal", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"
    )
    assert code == 0
    coeffs = {split_fields(line)[3]: int(split_fields(line)[4]) for line in out.strip().splitlines()}
    assert coeffs == {"{[1]:[1,1]}": 1, "{[1]:[3]}": 3, "{[1]:[2,2]}": 2}


def test_universal_command_improper_inputs(capsys):
    code, out, _ = call(
        capsys, "universal", "--k", "2", "--left", "{[1,1]:[1]}", "--right",
        "{[1,1]:[1]; [2]:[1]}",
    )
    assert code == 0
    coeffs = {split_fields(line)[3]: int(split_fields(line)[4]) for line in out.strip().splitlines()}
    assert coeffs == {"{[1,1]:[1]; [2]:[1]}": 2, "{[1,1]:[1,1]; [2]:[1]}": 2}


def test_poly_command(capsys):
    code, out, _ = call(
        capsys, "poly", "--k", "3", "--left", "{[2,1]:[1];[3]:[1]}", "--right", "{[3]:[1]}"
    )
    assert code == 0
    rows = {
        (f[3], int(f[4])): int(f[5])
        for f in map(split_fields, out.strip().splitlines())
    }
    assert rows[("{[2,1]:[1]}", 1)] == 2
    assert rows[("{[2,1]:[1]; [3]:[1]}", 0)] == 3
    assert rows[("{[2,1]:[1]; [3]:[1,1]}", 0)] == 2


def test_multiply_with_gamma_filter(capsys):
    code, out, _ = call(
        capsys,
        "multiply",
        "--k", "1", "--n", "4",
        "--left", "{[1]:[2,1,1]}",
        "--right", "{[1]:[2,1,1]}",
        "--gamma", "{[1]:[3,1]}",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert split_fields(lines[0])[-2:] == ["{[1]:[3,1]}", "3"]


def test_multiply_requires_matching_size(capsys):
    code, _, err = call(
        capsys, "multiply", "--k", "1", "--n", "4", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"
    )
    assert code == 1
    assert "usage" in err


def test_parse_error_exit_code(capsys):
    code, _, err = call(capsys, "universal", "--k", "2", "--left", "oops", "--right", "{}")
    assert code == 1
    code, _, _ = call(capsys, "poly", "--k", "1", "--left", "{[1]:[2,1]}", "--right", "{[1]:[2]}")
    assert code == 1
    for argv in (
        ("classes", "--k", "0", "--n", "2"),
        ("classes", "--k", "-1", "--n", "1"),
        ("verify", "--k", "0", "--left", "{}", "--right", "{}"),
        # a --gamma the product can never have: a size other than n, 1-parts in a poly target
        ("multiply", "--k", "1", "--n", "3", "--left", "{[1]:[3]}", "--right", "{[1]:[3]}",
         "--gamma", "{[1]:[2]}"),
        ("poly", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}", "--gamma", "{[1]:[3,1]}"),
        ("multiply", "--k", "1", "--n", "2", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}",
         "--max-group-size", "-1"),
        ("verify", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}", "--max-group-size", "-1"),
    ):
        code, out, _ = call(capsys, *argv)
        assert (code, out) == (1, "")


def test_budget_exit_code(capsys):
    code, _, err = call(
        capsys,
        "multiply",
        "--k", "2", "--n", "3",
        "--left", "{[2]:[1,1,1]}",
        "--right", "{[2]:[1,1,1]}",
        "--max-group-size", "0",
    )
    assert code == 2
    assert "budget-exceeded" in err


def test_group_product_over_budget_reports_its_class(capsys, monkeypatch):
    # |C_(2,1,1,1,1)| = 15 at n = 6, the S_6 table has 11 ** 2 entries, and
    # the projection from (2) * (3,3) counts 28 members at stage 8: no route
    # fits, and the smallest count, the class, is reported
    monkeypatch.delenv("WREATH_CACHE", raising=False)
    pair = ["--left", "{[1]:[2,1,1,1,1]}", "--right", "{[1]:[3,3]}"]
    code, out, err = call(capsys, "multiply", "--k", "1", "--n", "6", *pair, "--max-group-size", "10")
    assert (code, out) == (2, "")
    assert err == "error: budget-exceeded; needed=15; budget=10; what=class enumeration\n"


def test_chartable_k1(capsys):
    code, out, _ = call(capsys, "chartable", "--k", "1", "--n", "3")
    assert code == 0
    rows = [split_fields(line) for line in out.strip().splitlines()]
    assert len(rows) == 9
    table = {(r[1], r[2]): int(r[3]) for r in rows}
    for rho in pt.partitions_of(3):
        for delta in pt.partitions_of(3):
            key = (pt.format_partition(rho), pt.format_partition(delta))
            assert table[key] == ch.sym_character(rho, delta)


def test_chartable_k2(capsys):
    code, out, _ = call(capsys, "chartable", "--k", "2", "--n", "1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    values = {(r["rho"], r["delta"]): r["value"] for r in rows}
    assert values[("{[1,1]:[1]}", "{[2]:[1]}")] == 1
    assert values[("{[2]:[1]}", "{[2]:[1]}")] == -1


def test_chartable_k3(capsys):
    from wreathcenter.families import PartitionFamily, families_with_size, format_family

    code, out, _ = call(capsys, "chartable", "--k", "3", "--n", "2")
    assert code == 0
    rows = [split_fields(line) for line in out.strip().splitlines()]
    labels = [format_family(f) for f in families_with_size(3, 2)]
    assert [(r[0], r[1], r[2]) for r in rows] == [("2", a, b) for a in labels for b in labels]
    table = {(r[1], r[2]): int(r[3]) for r in rows}
    # the trivial character, and the degrees in the identity column
    assert all(table[("{[1,1,1]:[2]}", b)] == 1 for b in labels)
    identity = format_family(PartitionFamily.identity(3, 2))
    assert sum(table[(a, identity)] ** 2 for a in labels) == 6 ** 2 * 2


def test_verify_command(capsys):
    for k, left, right in (("1", "{[1]:[2]}", "{[1]:[3]}"), ("3", "{[2,1]:[2]}", "{[3]:[1]}")):
        code, out, _ = call(capsys, "verify", "--k", k, "--left", left, "--right", right)
        assert code == 0
        assert out.strip().endswith("true")


def test_verify_reports_a_product_the_transport_map_refutes(capsys, monkeypatch):
    # one coefficient too many in the expansion breaks multiplicativity at
    # some point: verify_iso is False and `verify` prints false with exit 3
    real = ct._by_enumeration

    def off_by_one(*args):
        vector = real(*args)
        gamma, coeff = vector.items_sorted()[0]
        return ct.ClassSumVector(vector.k, {**vector.terms, gamma: coeff + 1}, vector.n)

    monkeypatch.setattr(ct, "_by_enumeration", off_by_one)
    left, right = "{[1]:[2]}", "{[1]:[3]}"
    assert not ch.verify_iso(1, parse_family(left, 1), parse_family(right, 1))
    code, out, err = call(capsys, "verify", "--k", "1", "--left", left, "--right", right)
    assert (code, out, err) == (3, "1; {[1]:[2]}; {[1]:[3]}; false\n", "")
    code, out, err = call(capsys, "verify", "--k", "1", "--left", left, "--right", right, "--json")
    assert (code, json.loads(out), err) == (3, [{"verified": False}], "")


def test_verify_budget_bounds_transport_evaluations(capsys):
    # one evaluation per expansion term and one per input at every point
    pair = ["--left", "{[2,1]:[2]}", "--right", "{[3]:[1]}"]
    left, right = (parse_family(text, 3) for text in pair[1::2])
    terms = ct.multiply_universal(left, right).terms
    needed = len(ch.default_eval_points(3, 3)) * (len(terms) + 2)
    code, out, err = call(capsys, "verify", "--k", "3", *pair, "--max-group-size", str(needed - 1))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: budget-exceeded; needed={needed}; budget={needed - 1}; what=transport evaluations\n"
    )


def test_json_output_matches_records(capsys):
    _, out_text, _ = call(
        capsys, "universal", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"
    )
    _, out_json, _ = call(
        capsys, "universal", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}", "--json"
    )
    parsed = json.loads(out_json)
    text_rows = [split_fields(line) for line in out_text.strip().splitlines()]
    assert [(r["gamma"], r["coeff"]) for r in parsed] == [
        (r[3], int(r[4])) for r in text_rows
    ]
    # every command prints through the same emitter: --json prints an array
    # with one object per text record, holding the fields that end that
    # record, in the same order
    for argv, fields, count in (
        (["multiply", "--k", "1", "--n", "4", "--left", "{[1]:[2,1,1]}", "--right", "{[1]:[2,1,1]}"],
         ["gamma", "coeff"], 3),
        (["poly", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"],
         ["gamma", "r", "coeff"], 3),
        (["classes", "--k", "2", "--n", "2"], ["family", "size"], 5),
        (["chartable", "--k", "3", "--n", "1"], ["rho", "delta", "value"], 9),
        (["verify", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[3]}"], ["verified"], 1),
    ):
        _, out_text, _ = call(capsys, *argv)
        _, out_json, _ = call(capsys, *argv, "--json")
        parsed = json.loads(out_json)
        text_rows = [split_fields(line) for line in out_text.strip().splitlines()]
        assert isinstance(parsed, list)
        assert len(parsed) == len(text_rows) == count
        assert [list(r) for r in parsed] == [fields] * count
        # text records spell booleans as JSON does
        assert [[json.dumps(r[f]).strip('"') for f in fields] for r in parsed] == [
            r[-len(fields):] for r in text_rows
        ]
    assert json.loads(out_json) == [{"verified": True}]


def test_cache_replay_is_byte_identical(capsys, tmp_path):
    cache = str(tmp_path / "coeffs.cache")
    argv = [
        "multiply",
        "--k", "2", "--n", "5",
        "--left", "{[1,1]:[1,1,1]; [2]:[2]}",
        "--right", "{[1,1]:[1,1,1]; [2]:[2]}",
        "--cache", cache,
    ]
    code, cold, _ = call(capsys, *argv)
    assert code == 0
    code, warm, _ = call(capsys, *argv)
    assert code == 0
    assert cold == warm
    # the second run must have been served from the cache: the file did not grow
    with open(cache, encoding="utf-8") as handle:
        lines = handle.readlines()
    assert len(lines) == len(cold.strip().splitlines())


def test_cache_deduplicates_on_load(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    argv = [
        "poly",
        "--k", "1",
        "--left", "{[1]:[2]}",
        "--right", "{[1]:[2]}",
        "--cache", str(cache),
    ]
    code, first, _ = call(capsys, *argv)
    assert code == 0
    # duplicate every record, then replay
    content = cache.read_text(encoding="utf-8")
    cache.write_text(content + content, encoding="utf-8")
    code, again, _ = call(capsys, *argv)
    assert code == 0
    assert again == first


def test_output_is_stable_across_processes():
    # fresh interpreters get different hash seeds; sorted output must not care
    argv = [
        sys.executable, "-m", "wreathcenter.cli",
        "universal", "--k", "2", "--left", "{[2]:[2]}", "--right", "{[1,1]:[2]}",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_digest_is_sha256():
    import hashlib

    from wreathcenter.cli import _digest

    for text in ["1; 4; {[1]:[2,1,1]}; {[1]:[2,1,1]}; {[1]:[3,1]}; 3\n", "é ∑ 日本 \U0001d54a\n", ""]:
        assert _digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


# modules that cost milliseconds to load in a process that runs one command
ON_FIRST_USE = [
    "argparse",
    "decimal",
    "fractions",
    "hashlib",
    "json",
    "wreathcenter.answers",
    "wreathcenter.blockperm",
    "wreathcenter.center",
    "wreathcenter.characters",
    "wreathcenter.kpartial",
]


def loaded_on_first_use(statements):
    """The ON_FIRST_USE modules a fresh process has loaded after running `statements`."""
    import wreathcenter

    env = {**os.environ, "PYTHONPATH": str(Path(wreathcenter.__file__).parents[1])}
    probe = f"import sys\n{statements}\nprint([m for m in {ON_FIRST_USE!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, env=env)
    return out.stdout.decode().splitlines()[-1]


def test_import_loads_neither_hashlib_nor_json():
    # a cache lookup takes sha256 from CPython's own module and only --json
    # output needs json; only enumeration needs blockperm and kpartial, and
    # only a rational result needs fractions (which loads decimal).  The
    # product path loads answers, a miss center, the character commands
    # characters, and only a line the table reader leaves to it argparse
    assert loaded_on_first_use("import wreathcenter.cli") == "[]"


TRANSPOSITION_N7 = "{[1]:[2,1,1,1,1,1]}"
IDENTITY_N7 = "{[1]:[1,1,1,1,1,1,1]}"
SEVEN_CYCLE = "{[1]:[7]}"


def test_each_command_loads_the_enumeration_layers_only_when_it_enumerates(capsys, tmp_path):
    # a multiply cache hit is parsed and mass-checked without the routes of
    # center, and a poly miss the character route serves reads the tables:
    # neither loads what it does not run.  A cold S_7 product of the identity
    # is one multiplication by its representative (rule clause 2), which walks
    # blockperm and not kpartial; a cold S_7 transposition times a 7-cycle,
    # whose 21 members outnumber the 15 classes and whose proper parts do not
    # fit in 7, reads the table (clause 5).  center imports characters.
    # chartable runs no product and classes neither.  verify expands its
    # product by enumeration.  Only help and usage errors build the argparse
    # parser
    cache = tmp_path / "coeffs.cache"
    assert call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))[0] == 0
    hit = [*TRANSPOSITIONS_N4, "--cache", str(cache)]
    poly = ["poly", "--k", "2", "--left", "{[2]:[4]}", "--right", "{[1,1]:[4]}"]
    poly += ["--cache", str(tmp_path / "miss.cache")]
    enumerated = ["multiply", "--k", "1", "--n", "7", "--left", IDENTITY_N7, "--right", SEVEN_CYCLE]
    enumerated += ["--cache", str(tmp_path / "enumerated.cache")]
    frobenius = ["multiply", "--k", "1", "--n", "7", "--left", TRANSPOSITION_N7, "--right", SEVEN_CYCLE]
    frobenius += ["--cache", str(tmp_path / "frobenius.cache")]
    # a product with an empty input is the other input and reads no table
    empty = ["universal", "--k", "2", "--left", "{}", "--right", "{[2]:[4]}"]
    verify = ["verify", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[3]}"]
    answers, center, characters = "wreathcenter.answers", "wreathcenter.center", "wreathcenter.characters"
    for argv, code, loaded in [
        (hit, 0, [answers]),
        (poly, 0, [answers, center, characters]),
        (empty, 0, [answers, center, characters]),
        (enumerated, 0, [answers, "wreathcenter.blockperm", center, characters]),
        (frobenius, 0, [answers, center, characters]),
        (["chartable", "--k", "2", "--n", "3"], 0, [characters]),
        (["classes", "--k", "2", "--n", "3"], 0, []),
        (verify, 0, [answers, "wreathcenter.blockperm", center, characters, "wreathcenter.kpartial"]),
        (["multiply", "--help"], 0, ["argparse"]),
        (["classes", "--k", "2"], 1, ["argparse"]),
    ]:
        # help exits through SystemExit, which is caught before the list is printed
        statements = (
            "from wreathcenter import cli\n"
            f"try:\n    code = cli.run({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
            f"if code != {code}:\n    sys.exit(1)"
        )
        assert loaded_on_first_use(statements) == repr(loaded), argv


def test_a_table_built_before_the_first_product_counts_as_built():
    # center reads has_character_table off the characters module it imports,
    # so a table that characters built before center was imported counts as
    # built.  The S_7 identity times a 7-cycle is then read off the S_7 table
    # (rule clause 1), and loads no enumeration layer; a cold process
    # multiplies the identity's representative once (clause 2), and loads
    # blockperm, the layer it walks, and not kpartial
    product = (
        "from wreathcenter import center\n"
        "from wreathcenter.families import parse_family\n"
        f"e, c = parse_family({IDENTITY_N7!r}, 1), parse_family({SEVEN_CYCLE!r}, 1)\n"
        "if center.multiply_group(e, c, 7).terms != {c: 1}:\n    sys.exit(1)"
    )
    built = "from wreathcenter import characters\ncharacters.character_table(1, 7)\n"
    assert loaded_on_first_use(built + product) == repr(
        ["wreathcenter.answers", "wreathcenter.center", "wreathcenter.characters"]
    )
    assert loaded_on_first_use(product) == repr(
        ["wreathcenter.answers", "wreathcenter.blockperm", "wreathcenter.center", "wreathcenter.characters"]
    )


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("WREATH_CACHE", str(cache))
    code, out, _ = call(
        capsys, "poly", "--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"
    )
    assert code == 0
    assert cache.exists()


TRANSPOSITIONS_N4 = [
    "multiply",
    "--k", "1", "--n", "4",
    "--left", "{[1]:[2,1,1]}",
    "--right", "{[1]:[2,1,1]}",
]


def with_header(rows):
    """The lines of one record over the given row lines, with a valid header."""
    from wreathcenter.cli import _digest

    text = "".join(rows)
    return f"#{len(rows)}:{_digest(text)}; {text}"


def test_truncated_group_record_is_rejected(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    code, cold, _ = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 0
    assert len(cold.splitlines()) == 3
    cache.write_text(cache.read_text(encoding="utf-8").splitlines(True)[0], encoding="utf-8")
    code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert "error: invariant-violation" in err


def test_edited_group_coefficient_is_rejected(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    code, _, _ = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 0
    content = cache.read_text(encoding="utf-8")
    assert "{[1]:[1,1,1,1]}; 6\n" in content
    cache.write_text(content.replace("{[1]:[1,1,1,1]}; 6\n", "{[1]:[1,1,1,1]}; 7\n"), encoding="utf-8")
    code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert "error: invariant-violation" in err


def test_truncated_poly_record_is_rejected(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    argv = ["--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}", "--cache", str(cache)]
    code, _, _ = call(capsys, "poly", *argv)
    assert code == 0
    # the last record is the row {} with r = 2, i.e. the universal term {[1]:[1,1]}
    lines = cache.read_text(encoding="utf-8").splitlines(True)
    assert split_fields(lines[-1])[3:5] == ["{}", "2"]
    cache.write_text("".join(lines[:-1]), encoding="utf-8")
    code, out, err = call(capsys, "universal", *argv)
    assert code == 3
    assert out == ""
    assert "error: invariant-violation" in err


def test_mass_preserving_edit_is_rejected(capsys, tmp_path):
    # rows 6/2/3 edited to 3/3/3 keep the mass 3*1 + 3*3 + 3*8 = 36 = 6*6
    cache = tmp_path / "coeffs.cache"
    code, _, _ = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 0
    content = cache.read_text(encoding="utf-8")
    edited = content.replace("{[1]:[1,1,1,1]}; 6\n", "{[1]:[1,1,1,1]}; 3\n")
    edited = edited.replace("{[1]:[2,2]}; 2\n", "{[1]:[2,2]}; 3\n")
    assert edited.count("; 3\n") == 3
    cache.write_text(edited, encoding="utf-8")
    code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert "error: invariant-violation" in err


def test_rows_without_a_header_are_rejected(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    code, cold, _ = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 0
    # the records as the cache wrote them before it carried headers
    cache.write_text(cold, encoding="utf-8")
    code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert "error: invariant-violation" in err


def test_a_torn_last_line_spoils_only_its_own_record(capsys, tmp_path):
    # a crash or a full disk cuts the last record short; the next record
    # appended starts on a line of its own, so only the torn product is refused
    def square(part):
        fam = f"{{[1]:[{part}]}}"
        return ["multiply", "--k", "1", "--n", "3", "--left", fam, "--right", fam]

    alone = tmp_path / "alone.cache"
    assert call(capsys, *square("3"), "--cache", str(alone))[0] == 0
    cache = tmp_path / "coeffs.cache"
    assert call(capsys, *square("2,1"), "--cache", str(cache))[0] == 0
    torn = cache.read_bytes()[:-7]
    cache.write_bytes(torn)
    code, miss, _ = call(capsys, *square("3"), "--cache", str(cache))
    assert (code, len(miss.splitlines())) == (0, 2)
    assert cache.read_bytes() == torn + b"\n" + alone.read_bytes()
    assert call(capsys, *square("3"), "--cache", str(cache)) == (0, miss, "")
    code, out, err = call(capsys, *square("2,1"), "--cache", str(cache))
    assert (code, out) == (3, "")
    assert "does not match its record header" in err


def test_disagreeing_records_are_rejected(capsys, tmp_path):
    from wreathcenter.cli import Cache

    path = str(tmp_path / "coeffs.cache")
    Cache(path).put_group(1, 2, "{[1]:[2]}", "{[1]:[2]}", {"{[1]:[1,1]}": 1})
    Cache(path).put_group(1, 2, "{[1]:[2]}", "{[1]:[2]}", {"{[1]:[1,1]}": 2})
    code, out, err = call(
        capsys, "multiply", "--k", "1", "--n", "2",
        "--left", "{[1]:[2]}", "--right", "{[1]:[2]}", "--cache", path,
    )
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_malformed_row_rejects_only_its_record(capsys, tmp_path):
    from wreathcenter.cli import Cache

    path = tmp_path / "coeffs.cache"
    # a row whose k is not an integer, a valid record, and a record whose
    # coefficient is not an integer
    path.write_text("x; 1; {[1]:[2]}; {[1]:[2]}; {[1]:[1,1]}; 1\n", encoding="utf-8")
    Cache(str(path)).put_group(1, 2, "{[1]:[2]}", "{[1]:[2]}", {"{[1]:[1,1]}": 1})
    Cache(str(path)).put_group(1, 3, "{[1]:[3]}", "{[1]:[3]}", {"{[1]:[1,1,1]}": "2.0"})

    def square(n, fam):
        argv = ["multiply", "--k", "1", "--n", str(n), "--left", fam, "--right", fam]
        return call(capsys, *argv, "--cache", str(path))

    assert square(2, "{[1]:[2]}") == (0, "1; 2; {[1]:[2]}; {[1]:[2]}; {[1]:[1,1]}; 1\n", "")
    code, out, err = square(3, "{[1]:[3]}")
    assert (code, out) == (3, "")
    assert "not integers" in err


def test_cache_hits_pass_the_product_checks(capsys, tmp_path):
    # every record has a valid header, but rows that are not its product's
    from wreathcenter.cli import Cache

    two, three = "{[1]:[2]}", "{[1]:[2,1]}"
    rows = {("{[1]:[3]}", 0): 3, ("{[1]:[2,2]}", 0): 2}  # and ("{}", 2): 1
    records = [
        # a target of the wrong size, and one that does not parse
        ("put_group", (1, 2, two, two, {"{[1]:[1]}": 1})),
        ("put_group", (1, 2, two, two, {"garbage": 1})),
        # a zero row, which no computed product prints
        ("put_group", (1, 2, two, two, {"{[1]:[1,1]}": 1, "{[1]:[2]}": 0})),
        # rows 11 and -1 keep the mass 11 * 1 - 1 * 2 = 9 = 3 * 3
        ("put_group", (1, 3, three, three, {"{[1]:[1,1,1]}": 11, "{[1]:[3]}": -1})),
        # r = -1
        ("put_poly", (1, two, two, {("{[1]:[3]}", -1): 1})),
        # the row ({}, 2) written as ({[1]:[1]}, 1): same class, same mass
        ("put_poly", (1, two, two, {**rows, ("{[1]:[1]}", 1): 1})),
        # a target too large for the stage 2 + 2, which has no members there
        ("put_poly", (1, two, two, {**rows, ("{}", 2): 1, ("{[1]:[5]}", 0): 1})),
    ]
    for i, (put, record) in enumerate(records):
        path = str(tmp_path / f"{i}.cache")
        getattr(Cache(path), put)(*record)
        left = record[2] if put == "put_group" else record[1]
        command = ["multiply", "--n", str(record[1])] if put == "put_group" else ["poly"]
        argv = [*command, "--k", "1", "--left", left, "--right", left, "--cache", path]
        code, out, err = call(capsys, *argv)
        assert (code, out) == (3, ""), (record, err)
        assert err.startswith("error: invariant-violation"), err
    # a valid header over 4 rows with 3 targets: a wrong row, then the true rows
    code, true_rows, _ = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(tmp_path / "cold.cache"))
    assert (code, len(true_rows.splitlines())) == (0, 3)
    path = tmp_path / "repeat.cache"
    path.write_text(with_header(["1; 4; {[1]:[2,1,1]}; {[1]:[2,1,1]}; {[1]:[1,1,1,1]}; 99\n",
                                 *true_rows.splitlines(True)]), encoding="utf-8")
    code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(path))
    assert (code, out) == (3, "")
    assert "repeats a target" in err
    # control: the true rows are served
    path = str(tmp_path / "true.cache")
    Cache(path).put_poly(1, two, two, {**rows, ("{}", 2): 1})
    code, out, _ = call(capsys, "poly", "--k", "1", "--left", two, "--right", two, "--cache", path)
    assert (code, len(out.splitlines())) == (0, 3)


def test_records_of_other_keys_do_not_change_an_answer(capsys, tmp_path):
    # every malformed record kind above, each under its own key, in one file
    # with valid records and junk: each key is answered as in a file holding
    # only its own lines
    def square(n, part):
        fam = f"{{[1]:[{part}]}}"
        return ["multiply", "--k", "1", "--n", str(n), "--left", fam, "--right", fam]

    def pair(command, left, right):
        return [command, "--k", "1", "--left", left, "--right", right]

    def cold(argv):
        path = tmp_path / "cold.cache"
        path.unlink(missing_ok=True)
        assert call(capsys, *argv, "--cache", str(path))[0] == 0
        return path.read_text(encoding="utf-8").splitlines(True)

    def rows_of(record):
        return [record[0].partition("; ")[2], *record[1:]]

    def record(rows):
        return with_header(rows).splitlines(True)

    two, three, twotwo = "{[1]:[2]}", "{[1]:[3]}", "{[1]:[2,2]}"
    ones = "{[1]:[1,1,1,1,1]}"
    transpositions = cold(TRANSPOSITIONS_N4)
    edited = [line.replace("; 6\n", "; 3\n").replace("; 2\n", "; 3\n") for line in transpositions]
    coefficient = cold(square(4, "3,1"))
    coefficient[-1] = coefficient[-1].replace("\n", "1\n")
    two_two = rows_of(cold(pair("poly", two, two)))
    repeat = rows_of(cold(square(6, "2,1,1,1,1")))
    valid = cold(square(5, "3,2"))
    torn = cold(square(6, "3,3"))
    stray = "x; 1; {[1]:[2]}; {[1]:[2]}; {[1]:[1,1]}; 1\n"  # a row no lookup names
    cases = [  # (argv, records of its key in file order, exit code)
        (square(4, "4"), [cold(square(4, "4"))], 0),
        # rows without a header, right after a valid record of another key
        (square(4, "2,2"), [rows_of(cold(square(4, "2,2")))], 3),
        # truncated and edited records
        (square(5, "2,1,1,1"), [cold(square(5, "2,1,1,1"))[:1]], 3),
        (square(4, "3,1"), [coefficient], 3),
        (TRANSPOSITIONS_N4, [edited], 3),
        (pair("universal", three, three), [cold(pair("poly", three, three))[:-1]], 3),
        (pair("poly", two, three), [cold(pair("poly", two, three))], 0),
        # disagreeing records
        (square(5, "1,1,1,1,1"), [record([f"1; 5; {ones}; {ones}; {ones}; {c}\n"]) for c in (1, 2)], 3),
        # a junk line inside a record, and a duplicate record
        (square(5, "3,2"), [valid[:1] + ["junk\n"] + valid[1:], valid], 0),
        # valid headers over rows that are not the product's
        (square(3, "3"), [record(["1; 3; {[1]:[3]}; {[1]:[3]}; {[1]:[1,1,1]}; 2.0\n"])], 3),
        (square(2, "1,1"), [record(["1; 2; {[1]:[1,1]}; {[1]:[1,1]}; {[1]:[1]}; 1\n"])], 3),
        (square(3, "1,1,1"), [record(["1; 3; {[1]:[1,1,1]}; {[1]:[1,1,1]}; garbage; 1\n"])], 3),
        (square(2, "2"), [record(["1; 2; {[1]:[2]}; {[1]:[2]}; {[1]:[1,1]}; 1\n",
                                  "1; 2; {[1]:[2]}; {[1]:[2]}; {[1]:[2]}; 0\n"])], 3),
        (square(3, "2,1"), [record(["1; 3; {[1]:[2,1]}; {[1]:[2,1]}; {[1]:[1,1,1]}; 11\n",
                                    "1; 3; {[1]:[2,1]}; {[1]:[2,1]}; {[1]:[3]}; -1\n"])], 3),
        (pair("poly", twotwo, twotwo), [record([f"1; {twotwo}; {twotwo}; {{[1]:[3]}}; -1; 1\n"])], 3),
        (pair("poly", two, two), [record([line.replace("{}; 2", "{[1]:[1]}; 1") for line in two_two])], 3),
        (pair("poly", two, twotwo),
         [record([*rows_of(cold(pair("poly", two, twotwo))), f"1; {two}; {twotwo}; {{[1]:[7]}}; 0; 1\n"])], 3),
        (square(6, "2,1,1,1,1"), [record([repeat[0].replace("\n", "9\n"), *repeat])], 3),
        (square(5, "5"), [cold(square(5, "5"))], 0),
        # a row of another key inside a record ends it: the rest have no header
        (square(6, "3,3"), [torn[:1] + [stray] + torn[1:]], 3),
    ]
    junk = ["junk\n", "\n", "# a comment\n", "1; 2; 3\n", stray]
    combined = []
    for depth in range(2):
        for i, (_, records, _) in enumerate(cases):
            if depth < len(records):
                if i != 1:
                    combined.append(junk[i % len(junk)])
                combined += records[depth]
    combined = "".join(combined)
    mixed = tmp_path / "mixed.cache"
    mixed.write_text(combined, encoding="utf-8")
    for i, (argv, records, expected) in enumerate(cases):
        own = tmp_path / f"{i}.cache"
        own.write_text("".join(sum(records, [])), encoding="utf-8")
        alone = call(capsys, *argv, "--cache", str(own))
        assert alone == call(capsys, *argv, "--cache", str(mixed)), argv
        assert (alone[0], alone[1] == "") == (expected, expected == 3), (argv, alone)
    # every key was found, so nothing was appended
    assert mixed.read_text(encoding="utf-8") == combined


def test_a_lookup_reads_only_its_key(capsys, tmp_path, monkeypatch):
    from collections import Counter

    from wreathcenter import cli
    from wreathcenter.families import families_with_size, format_family

    path = tmp_path / "coeffs.cache"
    cache = cli.Cache(str(path))
    two, transposition = parse_family("{[1]:[2]}", 1), parse_family("{[1]:[2,1,1]}", 1)
    group = {format_family(g): c for g, c in ct.multiply_group(transposition, transposition, 4).terms.items()}
    poly = {(format_family(g), r): c for (g, r), c in ct.polynomial_structure(two, two).rows.items()}
    fams = [format_family(fam) for fam in families_with_size(2, 4)]
    pairs = [(left, right) for i, left in enumerate(fams) for right in fams[i:]]
    for i, (left, right) in enumerate(pairs):
        # the asked records, each twice, among records never asked for
        if i in (70, 140):
            cache.put_group(1, 4, "{[1]:[2,1,1]}", "{[1]:[2,1,1]}", group)
            cache.put_poly(1, "{[1]:[2]}", "{[1]:[2]}", poly)
        cache.put_group(2, 4, left, right, {left: 1, right: 2})
    text = path.read_text(encoding="utf-8")
    assert text.count("#") >= 200
    counts = Counter()
    digest, parse = cli._digest, cli.Cache._parse
    monkeypatch.setattr(cli, "_digest", lambda text: counts.update(["digest"]) or digest(text))
    monkeypatch.setattr(cli.Cache, "_parse", lambda self, line: counts.update(["parse"]) or parse(self, line))
    pair = ["--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"]
    for argv, rows in ((TRANSPOSITIONS_N4, len(group)), (["poly", *pair], len(poly))):
        counts.clear()
        code, out, _ = call(capsys, *argv, "--cache", str(path))
        assert (code, len(out.splitlines())) == (0, rows)
        assert counts["digest"] == 2 and counts["parse"] <= 2 * rows + 2, (argv, counts)
    assert path.read_text(encoding="utf-8") == text
    # a miss parses no line and digests only the record it appends
    counts.clear()
    code, _, _ = call(capsys, "multiply", "--k", "1", "--n", "4", "--left", "{[1]:[4]}", "--right",
                      "{[1]:[4]}", "--cache", str(path))
    assert (code, counts) == (0, {"digest": 1})


def mislabel_one_22_product(monkeypatch):
    """Make kp.kp_type call the first (2,2) product at k = 1 a (1,1) one.

    Every quotient stays integral and the mass is kept; only the check
    against the character route sees the error.
    """
    from wreathcenter import kpartial as kp
    from wreathcenter.families import PartitionFamily

    true_type = kp.kp_type
    wrong, right = PartitionFamily(1, {(1,): (2, 2)}), PartitionFamily(1, {(1,): (1, 1)})
    done = []

    def kp_type(p):
        gamma = true_type(p)
        if gamma == wrong and not done:
            done.append(p)
            return right
        return gamma

    monkeypatch.setattr(kp, "kp_type", kp_type)


def test_verify_representative_recounts_poly_and_universal(capsys, monkeypatch):
    monkeypatch.delenv("WREATH_CACHE", raising=False)
    pair = ["--k", "1", "--left", "{[1]:[2]}", "--right", "{[1]:[2]}"]
    for command in ("poly", "universal"):
        mislabel_one_22_product(monkeypatch)
        code, out, err = call(capsys, command, *pair, "--verify-representative")
        assert code == 3
        assert out == ""
        assert "error: invariant-violation" in err
    # control: without the flag every other check passes, so exit 3 above is the check;
    # a budget of 6 fits the 6 members of the smaller orbit at stage 4 and not the
    # 2 ** 2 + 3 ** 2 = 13 table entries, so it pins the product to the route that
    # extracts types
    mislabel_one_22_product(monkeypatch)
    code, out, _ = call(capsys, "universal", *pair, "--max-group-size", "6")
    assert code == 0
    assert "{[1]:[2,2]}" not in out


def test_unusable_cache_path_is_a_usage_error(capsys, tmp_path, monkeypatch):
    for path in (tmp_path, tmp_path / "missing" / "coeffs.cache"):
        code, out, err = call(capsys, *TRANSPOSITIONS_N4, "--cache", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: usage; ")
    # commands that never read the cache never open it
    monkeypatch.setenv("WREATH_CACHE", str(tmp_path))
    code, out, _ = call(capsys, "classes", "--k", "1", "--n", "2")
    assert code == 0
    assert out


def test_universal_with_one_parts_reads_and_writes_its_poly_record(capsys, tmp_path):
    cache = tmp_path / "coeffs.cache"
    argv = ["universal", "--k", "1", "--left", "{[1]:[2,1]}", "--right", "{[1]:[2]}"]
    code, cold, _ = call(capsys, *argv, "--cache", str(cache))
    assert code == 0
    # one record of 5 rows: each term as a proper target and its extra 1-parts
    lines = cache.read_text(encoding="utf-8").splitlines(True)
    assert len(lines) == 5
    assert lines[0].startswith("#5:")
    assert split_fields(lines[-1])[3:] == ["{}", "3", "3"]
    assert call(capsys, *argv, "--cache", str(cache)) == (0, cold, "")
    assert cache.read_text(encoding="utf-8") == "".join(lines)
    edited = "".join(lines).replace("{[1]:[3]}; 1; 3\n", "{[1]:[3]}; 1; 4\n")
    assert edited != "".join(lines)
    cache.write_text(edited, encoding="utf-8")
    code, out, err = call(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (3, "")
    assert "error: invariant-violation" in err
    code, out, err = call(capsys, *argv, "--cache", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: usage; unusable cache")


def test_a_lookup_reports_the_first_bad_record_of_its_key(tmp_path):
    from wreathcenter.cli import Cache

    path = tmp_path / "coeffs.cache"
    row = "1; 2; {[1]:[2]}; {[1]:[2]}; {[1]:[1,1]}; 1\n"
    # rows without a header, then a record whose digest does not match
    path.write_text(row + f"#1:{'0' * 64}; {row}", encoding="utf-8")
    with pytest.raises(InvariantViolation, match="without a record header"):
        Cache(str(path)).get_group(1, 2, "{[1]:[2]}", "{[1]:[2]}")


def test_each_command_takes_only_its_flags(capsys):
    pair = ["--left", "{[1]:[2]}", "--right", "{[1]:[3]}"]
    for argv in (
        ["classes", "--k", "1", "--n", "2", "--cache", "x"],
        ["chartable", "--k", "1", "--n", "2", "--max-group-size", "0"],
        ["verify", "--k", "1", *pair, "--verify-representative"],
    ):
        code, out, err = call(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: usage")


# each command's flags, in the order README lists them
PAIR_PRODUCT = ["--left", "--right", "--json", "--max-group-size", "--cache", "--verify-representative", "--gamma"]
FLAGS = {
    "classes": ["--k", "--n", "--json"],
    "multiply": ["--k", "--n", *PAIR_PRODUCT],
    "universal": ["--k", *PAIR_PRODUCT],
    "poly": ["--k", *PAIR_PRODUCT],
    "chartable": ["--k", "--n", "--json"],
    "verify": ["--k", "--left", "--right", "--json", "--max-group-size"],
}


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exit_:
        run(list(argv))
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_each_command_help_lists_exactly_its_flags(capsys):
    # each command's help text lists exactly its flags, in README's order
    for command, flags in FLAGS.items():
        for argv in ([command, "--help"], [command, "--k", "1", "-h"]):
            text = help_text(capsys, *argv)
            assert text.startswith(f"usage: wreathcenter {command} [-h]"), argv
            listed = dict.fromkeys(re.findall(r"--[a-z][a-z-]*", text))
            assert list(listed) == [*flags, "--help"], argv
    top = help_text(capsys, "--help")
    assert "{classes,multiply,universal,poly,chartable,verify}" in top
    for command in FLAGS:
        assert re.search(rf"^    {command} +\S", top, re.MULTILINE), command


REQUIRED = {"--k", "--n", "--left", "--right"}
SWITCHES = {"--json", "--verify-representative"}
INT_FLAGS = {"--k", "--n", "--max-group-size"}
INT_VALUES = ["0", "1", "2", "3", "7", "12"] * 12 + ["-1", "-2.5", "-x", "3_0", " 4", "x", "", "1.5", "07"]
TEXT_VALUES = ["{[1]:[2]}", "{}", "{[2]:[1]}"] * 20 + ["-x", "-1", "--json", "a b", ""]


def random_command_line(rng):
    """A plain command line, or one that is not plain in one or more ways."""
    command = rng.choice([*FLAGS] * 16 + ["nosuch", "mult", "", "--k", "-h", "--help"])
    own = FLAGS.get(command, FLAGS["multiply"])
    flags = [flag for flag in own if rng.random() < (0.95 if flag in REQUIRED else 0.3)]
    flags += rng.choices(own, k=rng.choice([0, 0, 1, 2]))
    rng.shuffle(flags)
    line = [command]
    for flag in flags:
        value = rng.choice(INT_VALUES if flag in INT_FLAGS else TEXT_VALUES)
        roll = rng.random()
        if roll < 0.03:
            flag = rng.choice([flag for flags in FLAGS.values() for flag in flags])
        elif roll < 0.06:
            flag = flag[: max(3, len(flag) - 3)]  # abbreviated, unless it is --k or --n
        roll = rng.random()
        if roll < 0.04:
            line.append(f"{flag}={value}")
        elif flag in SWITCHES or roll < 0.06:
            line.append(flag)
        else:
            line += [flag, value]
    if rng.random() < 0.05:
        line.insert(rng.randint(1, len(line)), rng.choice(["--bogus", "-h", "--help", "extra", "--verif", "--"]))
    return line


def test_the_table_reader_reads_a_line_as_argparse_does(capsys):
    # whenever the reader takes a line, its namespace is argparse's; whenever
    # argparse refuses a line or prints help, the reader leaves it to argparse
    rng = random.Random(0)
    parser = cli._build_parser()
    taken = left = 0
    for _ in range(20_000):
        line = random_command_line(rng)
        ours = cli._read_plain(line)
        try:
            theirs = parser.parse_args(line)
        except cli.UsageError:
            theirs = None
        except SystemExit as exc:
            assert exc.code == 0, line
            theirs = None
        if theirs is None:
            assert ours is None, line
            left += 1
        elif ours is not None:
            assert vars(ours) == vars(theirs), line
            taken += 1
    capsys.readouterr()
    assert taken > 5_000 and left > 5_000, (taken, left)


def test_a_closed_pipe_ends_the_command_with_exit_1_and_no_traceback():
    # the reader stops after a few bytes of a table far larger than a pipe
    # holds, as `| head -c 10` does.  The child's stdout is buffered, as it is
    # by default, or unbuffered, where a raw write to the pipe may be cut short
    import wreathcenter

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(wreathcenter.__file__).parents[1])
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for json_flag in (["--json"], []):
            argv = [sys.executable, "-m", "wreathcenter.cli", "chartable", "--k", "2", "--n", "6", *json_flag]
            child_env = {**env, **unbuffered}
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env) as child:
                assert child.stdout.read(10)
                child.stdout.close()
                err = child.stderr.read()
                assert child.wait(timeout=60) == 1, (unbuffered, json_flag)
            assert b"Traceback" not in err, (unbuffered, json_flag)


def test_split_fields_keeps_an_unclosed_family_as_the_last_field():
    assert split_fields("1; {[1]:[2]; [2]:[1]") == ["1", "{[1]:[2]; [2]:[1]"]


def test_package_errors_outside_the_named_kinds_are_usage_errors(capsys, monkeypatch):
    def refuse(args):
        raise SizeMismatch("sizes disagree")

    # the parser's command table reads the command functions when it is built
    monkeypatch.setattr(cli, "_cmd_classes", refuse)
    code, out, err = call(capsys, "classes", "--k", "1", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "error: usage; sizes disagree\n"
