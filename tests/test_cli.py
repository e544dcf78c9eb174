import argparse
import ast
import hashlib
import inspect
import itertools
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qkcomin
from qkcomin.cli import build_parser, main
from qkcomin.gkm import KModel, NotInSpanError
from qkcomin.laurent import EXPONENT_LIMIT, NotDivisibleError
from qkcomin.quantum import CHECKS, DEFAULT_CHECKS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool of ``qk table`` by one that expands every
    projected class in this process, so no process starts.  Each hook in the
    returned list is called with ``max_workers`` when the pool is made."""
    import concurrent.futures

    from qkcomin import cli

    on_start = []

    class InlineExecutor:
        def __init__(self, max_workers, initializer, initargs):
            for hook in on_start:
                hook(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # ``cmd_table`` imports the name at call time
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(cli, "_WORKER_ARGS", None)
    return on_start


@pytest.fixture
def private_cache(monkeypatch, tmp_path):
    """An empty cache directory of the test's own, for tests that need an
    empty memo of projected classes or that patch the engine, so that they
    neither read nor write the projected file of the session cache."""
    path = tmp_path / "cache"
    monkeypatch.setenv("QK_CACHE_DIR", str(path))
    return path


class TestProduct:
    def test_p1_point_product(self, capsys):
        rc, out, _ = run_cli(capsys, "product", "--space", "gr:1,2", "--u", "1", "--v", "")
        assert rc == 0
        doc = json.loads(out)
        assert doc["terms"] == [{"w": "", "d": 1, "N": "1"}]
        assert doc["sum_check"] == "1"
        assert list(doc) == ["space", "equivariant", "u", "v", "v_basis", "terms", "sum_check"]

    def test_unit_product_single_term(self, capsys):
        rc, out, _ = run_cli(
            capsys, "product", "--space", "gr:2,4", "--u", "", "--v", "1",
            "--v-basis", "opposite",
        )
        assert rc == 0
        assert json.loads(out)["terms"] == [{"w": "1", "d": 0, "N": "1"}]

    def test_box_violation_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "product", "--space", "gr:2,4", "--u", "3,1", "--v", "1")
        assert rc == 2
        assert not out and "box" in err

    def test_malformed_partition_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "product", "--space", "gr:2,4", "--u", "1,2", "--v", "")
        assert rc == 2
        assert not out and "error" in err

    def test_product_prints_its_table_line(self, capsys):
        """qk product --u U --v V prints the (U, V) line of qk table, and
        README's example is what it prints."""
        for flags in ([], ["--equivariant"]):
            for v_basis in ("plain", "opposite"):
                argv = ["--space", "gr:2,4", "--v-basis", v_basis, *flags]
                rc, out, _ = run_cli(capsys, "table", *argv, "--jobs", "1")
                assert rc == 0
                lines = out.splitlines()
                assert len(lines) == 36
                for line in lines:
                    doc = json.loads(line)
                    rc, product, _ = run_cli(
                        capsys, "product", *argv, "--u", doc["u"], "--v", doc["v"]
                    )
                    assert rc == 0 and product == line + "\n"
        example = README.read_text(encoding="utf-8").split("### Output formats", 1)[1]
        example = example.split("```json\n", 1)[1].split("```", 1)[0]
        rc, out, _ = run_cli(capsys, "product", "--space", "gr:1,2", "--u", "1", "--v", "")
        assert rc == 0 and out == example

    def test_equivariant_product(self, capsys):
        rc, out, _ = run_cli(
            capsys, "product", "--space", "gr:1,2", "--equivariant",
            "--u", "1", "--v", "1", "--v-basis", "opposite",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["equivariant"] is True
        assert doc["terms"] == [
            {"w": "1", "d": 0, "N": "-t1^-1*t2 + 1"},
            {"w": "", "d": 1, "N": "t1^-1*t2"},
        ]


class TestDistNeighborhood:
    def test_dist(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--space", "gr:2,4", "--u", "2,2", "--v", "")
        assert rc == 0 and json.loads(out) == {"dist": 2}

    def test_dist_contained_is_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "dist", "--space", "gr:2,4", "--u", "1", "--v", "2,1")
        assert rc == 0 and json.loads(out) == {"dist": 0}

    def test_neighborhood(self, capsys):
        rc, out, _ = run_cli(
            capsys, "neighborhood", "--space", "gr:2,4", "--w", "2,2", "--d", "1"
        )
        assert rc == 0 and json.loads(out) == {"w_minus_d": "1"}

    def test_negative_degree_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "neighborhood", "--space", "gr:2,4", "--w", "2,2", "--d", "-1"
        )
        assert rc == 2 and "error" in err


@pytest.fixture
def one_violation_check(monkeypatch):
    """Registers a check ``x`` that reports one violating pair, in row u = 1."""
    monkeypatch.setitem(
        CHECKS, "x", lambda space, u, products: ["u=1 v=1 got=0"] if u == (1,) else []
    )


class TestVerify:
    def test_small_equivariant_pass(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--space", "gr:2,4", "--equivariant",
            "--checks", "sum,hom,mindeg,graph",
        )
        assert rc == 0
        assert out.strip() == "PASS pairs=36"

    def test_checks_subset(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--space", "gr:1,3", "--checks", "sum,mindeg"
        )
        assert rc == 0 and out.strip() == "PASS pairs=9"

    def test_unknown_check_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--space", "gr:1,3", "--checks", "bogus")
        assert rc == 2 and "unknown checks" in err

    def test_empty_check_name_is_named(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--space", "gr:1,3", "--checks", "sum,")
        assert rc == 2 and "unknown checks: ''" in err

    def test_empty_check_list_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--space", "gr:1,3", "--checks", "")
        assert rc == 2 and out == ""
        assert "unknown checks: ''" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:2,4", "--out", str(path))
        assert rc == 0 and out == ""
        assert path.read_text() == "PASS pairs=36\n"

    def test_out_file_holds_violations(self, capsys, tmp_path, one_violation_check):
        path = tmp_path / "v.txt"
        rc, out, _ = run_cli(
            capsys, "verify", "--space", "gr:1,2", "--checks", "x", "--out", str(path)
        )
        assert rc == 1 and out == ""
        assert path.read_text() == "x: u=1 v=1 got=0\nFAIL pairs=4 violations=1\n"

    def test_repeated_check_runs_once(self, capsys, one_violation_check):
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,2", "--checks", "x,x")
        assert rc == 1
        assert out.split("\n") == ["x: u=1 v=1 got=0", "FAIL pairs=4 violations=1", ""]

    def test_default_checks_are_sum_hom_mindeg(self, capsys, monkeypatch):
        # the verify-z-cold benchmark runs this default set, once per row
        ran = []
        for name in CHECKS:
            monkeypatch.setitem(CHECKS, name, lambda *args, name=name: ran.append(name) or [])
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 0 and out == "PASS pairs=4\n"
        assert ran == ["sum", "hom", "mindeg"] * 2

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_registered_check_is_accepted(self, capsys, name):
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,3", "--checks", name)
        assert rc == 0 and out.strip() == "PASS pairs=9"

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_registered_check_takes_a_row(self, name):
        # verify_space calls every check alike, so none may add a parameter
        assert list(inspect.signature(CHECKS[name]).parameters) == ["space", "u", "products"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--space", "gr:1,3"],
            ["product", "--space", "gr:1,3", "--u", "", "--v", ""],
            ["dist", "--space", "gr:1,3", "--u", "", "--v", ""],
            ["neighborhood", "--space", "gr:1,3", "--w", "", "--d", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_jobs_is_a_table_option_only(self, argv):
        assert main(argv + ["--jobs", "2"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qk")

    def test_gr36_nonequivariant_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:3,6")
        assert rc == 0
        assert out.strip() == "PASS pairs=400"

    def test_failure_path_exits_1(self, capsys, monkeypatch):
        from qkcomin import cli

        def fake_verify(space, checks):
            return ["sum u=1 v=1 got=0"]

        monkeypatch.setattr(cli, "verify_space", fake_verify)
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 1
        lines = out.strip().split("\n")
        assert lines[0] == "sum u=1 v=1 got=0"
        assert lines[-1] == "FAIL pairs=4 violations=1"

    @pytest.mark.parametrize(
        "exc_type",
        [NotInSpanError, NotDivisibleError, AssertionError, ValueError, KeyError, TypeError],
        ids=lambda t: t.__name__,
    )
    def test_internal_error_exits_4(self, capsys, monkeypatch, private_cache, exc_type):
        """Any error of the engine is internal, whatever its type: not a
        usage error (2), not a verify failure (1), not a traceback."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        def broken(self, values):
            raise exc_type("forced\nfailure")

        # a fresh Space, so no memoized product hides the expansion
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        monkeypatch.setattr(KModel, "expand_values", broken)
        rc, out, err = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 4
        assert out == ""
        # str() of a KeyError is the repr of its key, which escapes the newline
        detail = repr("forced\nfailure") if exc_type is KeyError else "forced failure"
        assert err == f"internal error: {exc_type.__name__}: {detail}\n"

    def test_exponent_range_guard_exits_4(self, capsys, monkeypatch):
        from qkcomin import cli, gkm
        from qkcomin.laurent import EXPONENT_LIMIT
        from qkcomin.quantum import get_space

        root_exp = gkm.CharacterMap.root_exp

        def stretched(self, a, b):
            # each root character fits the packing; a product of two does not
            return tuple((EXPONENT_LIMIT // 2 + 1) * x for x in root_exp(self, a, b))

        monkeypatch.setattr(gkm.CharacterMap, "root_exp", stretched)
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        rc, out, err = run_cli(
            capsys, "verify", "--space", "gr:1,3", "--equivariant", "--no-cache"
        )
        assert rc == 4
        assert out == ""
        assert err.startswith("internal error: ExponentRangeError: ")
        assert err.count("\n") == 1

    def test_over_budget_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--space", "gr:9,20")
        assert rc == 2 and "ceiling" in err

    def test_equivariant_ceiling(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--space", "gr:2,7", "--equivariant")
        assert rc == 2 and "ceiling" in err

    def test_malformed_ceiling_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QK_CEILING_NONEQUIVARIANT", "abc")
        rc, out, err = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 2 and out == ""
        assert err == "error: invalid literal for int() with base 10: 'abc'\n"


class TestTable:
    def test_pair_count_and_order(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--space", "gr:2,5", "--jobs", "1")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 100
        docs = [json.loads(line) for line in lines]
        keys = [
            (sum(parse(d["u"])), parse(d["u"]), sum(parse(d["v"])), parse(d["v"]))
            for d in docs
        ]
        assert keys == sorted(keys)

    def test_deterministic_across_runs_and_cache_state(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path / "fresh"))
        from qkcomin.quantum import get_space

        def table_bytes():
            rc, out, _ = run_cli(capsys, "table", "--space", "gr:2,4", "--jobs", "1")
            assert rc == 0
            return out.encode()

        get_space.cache_clear()
        cold = table_bytes()
        warm = table_bytes()
        assert cold == warm
        get_space.cache_clear()
        assert table_bytes() == cold

    def test_equivariant_table(self, capsys):
        rc, out, _ = run_cli(
            capsys, "table", "--space", "gr:2,4", "--equivariant", "--jobs", "1"
        )
        assert rc == 0
        docs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(docs) == 36
        assert all(d["equivariant"] is True for d in docs)
        assert all(d["sum_check"] == "1" for d in docs)
        assert any("t1" in t["N"] for d in docs for t in d["terms"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        rc, out, _ = run_cli(
            capsys, "table", "--space", "gr:1,3", "--jobs", "1", "--out", str(path)
        )
        assert rc == 0 and not out
        assert len(path.read_text().strip().split("\n")) == 9

    def test_out_file_io_error_exits_3(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "table", "--space", "gr:1,3", "--jobs", "1",
            "--out", str(tmp_path / "no" / "dir" / "t.json"),
        )
        assert rc == 3 and "error" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        rc, out, err = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", jobs)
        assert rc == 2 and out == ""
        assert err == "error: --jobs must be at least 1\n"

    def test_pool_size_is_bounded_by_tasks(self, capsys, monkeypatch, inline_pool, private_cache):
        """--jobs 1000 on the 3 rows and 7 projected classes of a fresh
        Gr(1,3) asks for 7 workers: the pool expands classes, not rows."""
        from qkcomin import cli
        from qkcomin.quantum import Space

        space = Space(1, 3)
        monkeypatch.setattr(cli, "get_space", lambda *args: space)
        sizes = []
        inline_pool.append(sizes.append)
        rc, pooled, _ = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "1000")
        assert rc == 0 and sizes == [7]
        rc, serial, _ = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "1")
        assert rc == 0 and pooled == serial

    def test_pool_starts_with_every_table_loaded(
        self, capsys, monkeypatch, inline_pool, private_cache
    ):
        """Before the pool starts, the parent holds every table the workers
        read, the opposite table of X and of each Y_d, so the forked workers
        share them instead of each parsing the cache files again."""
        from qkcomin import cli
        from qkcomin.gkm import OPPOSITE
        from qkcomin.quantum import Space

        space = Space(2, 5)
        monkeypatch.setattr(cli, "get_space", lambda *args: space)
        loaded = []
        inline_pool.append(lambda _: loaded.append(
            {shape: set(model._tables) for shape, model in space.models.items()}
        ))
        rc, _, _ = run_cli(capsys, "table", "--space", "gr:2,5", "--jobs", "2")
        assert rc == 0 and len(loaded) == 1
        read = [shape for shape, model in space.models.items() if model._tables]
        assert len(read) == 3  # X = Y_0, Y_1 and Y_2
        assert all(loaded[0].get(shape) == {OPPOSITE} for shape in read)

    def test_full_memo_starts_no_pool(self, capsys, monkeypatch, inline_pool, private_cache):
        """A second --jobs 2 table on the same space finds every projected
        class in its memo, so it starts no pool and prints the same bytes."""
        from qkcomin import cli
        from qkcomin.quantum import Space

        space = Space(2, 4, True)
        monkeypatch.setattr(cli, "get_space", lambda *args: space)
        starts = []
        inline_pool.append(starts.append)
        argv = ("table", "--space", "gr:2,4", "--equivariant", "--jobs", "2")
        rc, first, _ = run_cli(capsys, *argv)
        assert rc == 0 and starts == [2]
        rc, second, _ = run_cli(capsys, *argv)
        assert rc == 0 and starts == [2] and second == first

    def test_complete_projected_file_starts_no_pool(
        self, capsys, monkeypatch, inline_pool, private_cache
    ):
        """A fresh space whose projected file holds every class the table
        reads loads it before it plans the pool, so it starts none, expands
        nothing and prints the same bytes."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        starts = []
        inline_pool.append(starts.append)
        argv = ("table", "--space", "gr:2,4", "--equivariant", "--v-basis", "opposite",
                "--jobs", "2")
        rc, first, _ = run_cli(capsys, *argv)
        assert rc == 0 and starts == [2]
        assert len(list(private_cache.glob("projected_*.json"))) == 1
        monkeypatch.setattr(KModel, "expand_product", None)
        rc, second, _ = run_cli(capsys, *argv)
        assert rc == 0 and starts == [2] and second == first

    def test_default_starts_no_pool(self, capsys, monkeypatch, inline_pool):
        """Without --jobs a fresh space's table runs in this process."""
        from qkcomin import cli
        from qkcomin.quantum import Space

        space = Space(2, 4)
        monkeypatch.setattr(cli, "get_space", lambda *args: space)
        starts = []
        inline_pool.append(starts.append)
        rc, out, _ = run_cli(capsys, "table", "--space", "gr:2,4")
        assert rc == 0 and len(out.splitlines()) == 36 and starts == []

    def test_no_cache_pool_writes_no_cache(self, capsys, monkeypatch, tmp_path):
        """--no-cache --jobs 2 on a fresh space prints the bytes of --jobs 1,
        and neither the parent nor a worker writes a cache file."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        outs = []
        for jobs in ("1", "2"):
            argv = ["table", "--space", "gr:2,4", "--no-cache", "--jobs", jobs]
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 36
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [[], ["--equivariant"]])
    def test_no_cache_verify_writes_no_cache(self, capsys, monkeypatch, tmp_path, flags):
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:2,4", "--no-cache", *flags)
        assert rc == 0 and out == "PASS pairs=36\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("space,flags", [("gr:2,5", ["--equivariant"]), ("gr:3,6", [])])
    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_first_round_shares_split_every_degree(
        self, capsys, monkeypatch, inline_pool, private_cache, space, flags, jobs
    ):
        """The classes of each degree d, expanded on Y_d, are dealt out
        evenly: per degree, the counts of the shares differ by at most 1."""
        from collections import Counter

        from qkcomin import cli
        from qkcomin.quantum import Space

        fresh = Space(*parse(space[3:]), bool(flags))
        monkeypatch.setattr(cli, "get_space", lambda *args: fresh)
        shares = []
        expand = cli._worker_expand

        def counted(tasks):
            shares.append(Counter(d for _key, d in tasks))
            return expand(tasks)

        monkeypatch.setattr(cli, "_worker_expand", counted)
        rc, _, _ = run_cli(capsys, "table", "--space", space, "--jobs", jobs, *flags)
        assert rc == 0 and len(shares) == int(jobs)
        degrees = set().union(*shares)
        assert len(degrees) == 3
        for d in degrees:
            counts = [share[d] for share in shares]
            assert max(counts) - min(counts) <= 1, (d, counts)

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the workers must inherit the patched module",
    )
    def test_worker_crash_exits_4(self, capsys, monkeypatch, private_cache):
        """A pool worker that dies is an internal error: two forked workers
        for the three rows of Gr(1,3), each exiting on its first projected
        class (on a fresh space, so the pool has work)."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        monkeypatch.setattr(KModel, "expand_product", lambda *args: os._exit(1))
        rc, out, err = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "2")
        assert rc == 4
        assert out == ""
        assert err.startswith("internal error: BrokenProcessPool: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the workers must inherit the patched method",
    )
    @pytest.mark.parametrize("space,equivariant", [("gr:2,4", True), ("gr:2,5", False)])
    @pytest.mark.parametrize("v_basis", ["plain", "opposite"])
    def test_each_projected_class_is_expanded_once(
        self, capsys, monkeypatch, tmp_path, space, equivariant, v_basis
    ):
        """Across the parent and its workers, --jobs 2 expands each projected
        class of a fresh space once, as many as --jobs 1 does."""
        from qkcomin import cli
        from qkcomin.quantum import Space, get_space, projected_tasks

        log = tmp_path / "expansions"
        expand_product = KModel.expand_product

        def logged(model, a, b):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{model.shape} {a} {b}\n")
            return expand_product(model, a, b)

        monkeypatch.setattr(KModel, "expand_product", logged)
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        flags = ["--v-basis", v_basis, *(["--equivariant"] if equivariant else [])]
        counts = {}
        for jobs in ("1", "2"):
            # each run from an empty cache, so no projected file is read
            monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path / f"cache{jobs}"))
            log.write_text("")
            rc, _, _ = run_cli(capsys, "table", "--space", space, "--jobs", jobs, *flags)
            assert rc == 0
            lines = log.read_text().splitlines()
            assert len(set(lines)) == len(lines)
            counts[jobs] = len(lines)
        assert counts["2"] == counts["1"]
        assert counts["1"] == len(projected_tasks(Space(*parse(space[3:]), equivariant)))

    @pytest.mark.parametrize("space,flags", [("gr:1,3", []), ("gr:2,4", ["--equivariant"])])
    @pytest.mark.parametrize("v_basis", ["plain", "opposite"])
    def test_lines_reparse_and_carry_their_sum(self, capsys, space, flags, v_basis):
        """Every line has the fixed key order, every N parses back into a
        scalar that prints as itself, the terms are sorted by (d, w), and
        sum_check prints the sum of the parsed Ns."""
        from qkcomin.laurent import LaurentElement

        nvars = parse(space[3:])[1] if flags else 0
        argv = ["table", "--space", space, "--v-basis", v_basis, "--jobs", "1", *flags]
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        for line in out.splitlines():
            doc = json.loads(line)
            assert list(doc) == ["space", "equivariant", "u", "v", "v_basis", "terms", "sum_check"]
            assert all(list(t) == ["w", "d", "N"] for t in doc["terms"])
            ns = [LaurentElement.parse(t["N"], nvars) for t in doc["terms"]]
            assert [str(c) for c in ns] == [t["N"] for t in doc["terms"]]
            keys = [(t["d"], parse(t["w"])) for t in doc["terms"]]
            assert keys == sorted(keys)
            assert doc["sum_check"] == str(sum(ns, LaurentElement.zero(nvars)))


# sha256 of the stdout of `qk table ... --jobs 1` (and `--jobs 2`), as produced
# when the scalars were still stored with exponent-tuple keys.  Any change of
# representation must keep them.
GOLDEN_TABLES = {
    ("gr:2,4", True, "plain"):
        "c63d4a08ce3f44be1401cc455a41f8b153e61c6a98d92b2462788da9bec69a1d",
    ("gr:2,4", True, "opposite"):
        "396134b764907f2fb279415a7c15c1d5b233b18d0e856a87a550b9e65c411e26",
    ("gr:2,5", False, "plain"):
        "e6d3c222c328ca283219ac72586bd863c1863a2224a54f4af291cf530549677f",
    ("gr:2,5", False, "opposite"):
        "6bf0c22ea60c060a525d4732408d6028cbf984e1c2e780b1c88a217b248cb3d9",
    # the bytes of the benchmark's table-eq workload
    ("gr:2,5", True, "opposite"):
        "96e4bf14d0f03198f622f5b6cae17355c016409cef52a2719a77abeecabd1ecb",
    # m > n - m: kernel and span clamp on the other side of the box
    ("gr:3,5", False, "plain"):
        "33c3c51b33b40f00b3e7da7f15b084d1be90cfac4300738dffb9e0cf24536064",
    # the change of basis of opposite v: equivariant with m > n - m, and
    # z mode at n = 6
    ("gr:3,5", True, "opposite"):
        "ad45385d6cd7c7b2aaf8bc6c4e7754d6c96a070134ab2f67ec1cedbf82b56ecb",
    ("gr:2,6", False, "opposite"):
        "92d3f3948e0b5089ccf9c33ecc8020df60ec074fbefea8de40703b0900a62f4c",
}
# the cache files below were recorded at the integer layout, qk-restrict/2 and
# qk-projected/2: both tables of X and the opposite table of Y_1
GOLDEN_GR24_EQUIVARIANT_CACHE = {
    "restrict_008f28f749b65e68b195e364.json":
        "f60002e275d1811cb6145fab0eac99d4d140f3ec676cf554ec6f0dc4c0714f4c",
    "restrict_9ed44eb15456dbcd21b7ffae.json":
        "aaa29eb99f0fa5274cb7dd6a777737448cbd5145645978c23798ec9074bca716",
    "restrict_da3e1a3618ab3f854c46fcd5.json":
        "2d18f834eeaf04c23a8f0ff3b30b9340f592352da897d7683a21c0936f4c07e7",
}

# every full-torus table file of a cold `qk table --space gr:2,5 --equivariant
# --jobs 1`, the benchmark's space: both tables of X and the opposite tables
# of Y_1 and Y_2; its Y_1 = Fl(1,3;5) is a two-step flag
GOLDEN_GR25_EQUIVARIANT_CACHE = {
    "restrict_49da8ad342101b2a0f3bd14a.json":
        "49257c2aa148e561d47fcaea119c15ccbf3473c25d9b345b8710ff5fefbb004f",
    "restrict_6bdab32c13f53f137dd75a40.json":
        "5d6e483f78a040a925eaa6a94eb445b8973909059be17bc836f2498f6c30ed55",
    "restrict_e5bd49c540a789285704f58c.json":
        "d86f75d786ca1899a57a640b7f1c8daa1f0b07801baeed103d8dbb284f01c40f",
    "restrict_ed039c10b3e3a1f61e3110a1.json":
        "42b409169cd7a97ed8fe85ba61e24bf4fb02d6efdbf05f4ac521db7af4234947",
}

# every z-mode table file of a cold `qk verify --space gr:2,5`: both tables of
# X and the opposite tables of Y_1 and Y_2
GOLDEN_GR25_Z_CACHE = {
    "restrict_048f261130bb1f586a4bf500.json":
        "dab9d0a5589e133e4ffabe999fe283c631725689b393ebeee719f1b74be4a196",
    "restrict_0ae42bf1731cc2a79947ec17.json":
        "4302dad2e8e73b9800ac32d659979806f9b39371c5c516e1f666ff8252ad1b2a",
    "restrict_c1b2a054d8473c748e17eb44.json":
        "f296559160913334645f7306adfa3253dd24ab243a90b81f9588f88c6250acd9",
    "restrict_f7ef6748211dd75114ba9ff3.json":
        "bd3ec96f5d0ff980b7f1687f196b375805594f300dd9a31cd1718caac1a7427f",
}


# the projected-class file of each of the two commands above: a cold
# `qk table --space gr:2,4 --equivariant --jobs 1` and a cold
# `qk verify --space gr:2,5`
GOLDEN_GR24_EQUIVARIANT_PROJECTED = {
    "projected_202159f63ec5267438eebadd.json":
        "e3dbedd3022f534d596cb141122a4f3350b8ce14f0ae5559acacf761b06358cd",
}
GOLDEN_GR25_Z_PROJECTED = {
    "projected_3f5dfc4284b5181ed4dabee0.json":
        "866521c7f08f4dbb740e4323eab7d08ae3c0a3f3a6642ffd1e533eecd3acdb71",
}


def cache_digests(path, prefix="restrict_") -> dict:
    """sha256 of every cache file of one kind in the directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in path.glob(f"{prefix}*.json")
    }


class TestOutputIdentity:
    """Pinned bytes of tables and cache files, computed from an empty cache."""

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        return tmp_path

    @pytest.mark.parametrize(
        "space,equivariant,v_basis,jobs",
        [
            pytest.param(*key, jobs, id="-".join(map(str, key)) + {"1": "", "2": "-jobs2"}[jobs])
            for jobs in ("1", "2")
            for key in GOLDEN_TABLES
        ],
    )
    def test_table_digest(self, capsys, monkeypatch, fresh, space, equivariant, v_basis, jobs):
        """Both the serial path and the process pool give the pinned bytes,
        from an empty cache and again, on a new space, from the projected
        file the first run wrote, with no class expanded."""
        argv = ["table", "--space", space, "--v-basis", v_basis, "--jobs", jobs]
        argv += ["--equivariant"] if equivariant else []
        for phase in ("cold", "warm"):
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0, phase
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == GOLDEN_TABLES[(space, equivariant, v_basis)], phase
            monkeypatch.setattr(KModel, "expand_product", None)

    def test_equivariant_cache_files(self, capsys, fresh):
        rc, _, _ = run_cli(capsys, "table", "--space", "gr:2,4", "--equivariant", "--jobs", "1")
        assert rc == 0
        assert cache_digests(fresh) == GOLDEN_GR24_EQUIVARIANT_CACHE
        assert cache_digests(fresh, "projected_") == GOLDEN_GR24_EQUIVARIANT_PROJECTED

    def test_equivariant_cache_files_of_gr25(self, capsys, fresh):
        rc, _, _ = run_cli(capsys, "table", "--space", "gr:2,5", "--equivariant", "--jobs", "1")
        assert rc == 0
        assert cache_digests(fresh) == GOLDEN_GR25_EQUIVARIANT_CACHE

    def test_zmode_cache_files(self, capsys, fresh):
        rc, _, _ = run_cli(capsys, "verify", "--space", "gr:2,5")
        assert rc == 0
        assert cache_digests(fresh) == GOLDEN_GR25_Z_CACHE
        assert cache_digests(fresh, "projected_") == GOLDEN_GR25_Z_PROJECTED


def parse(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def first_scalar(doc) -> list:
    """The first scalar of a cache document that is not zero."""
    return next(s for s in doc["scalars"] if s)


# damages of the payload of every table file of a product on Gr(2,4), z mode
# unless named in FULL_TORUS_MISFITS
TABLE_MISFITS = {
    "bad-entry": lambda doc: doc["rows"][0].__setitem__(0, len(doc["scalars"])),
    "short-rows": lambda doc: doc.update(rows=[row[:-1] for row in doc["rows"]]),
    "non-integer": lambda doc: first_scalar(doc).__setitem__(1, "1"),
    "odd-length": lambda doc: first_scalar(doc).append(0),
    "monomial-outside": lambda doc: first_scalar(doc).__setitem__(0, len(doc["monomials"])),
    "repeated-monomial": lambda doc: first_scalar(doc).extend(first_scalar(doc)[:2]),
    "wrong-width": lambda doc: doc["monomials"][0].append(0),
    "big-exponent": lambda doc: doc["monomials"][0].__setitem__(0, EXPONENT_LIMIT + 1),
    "zero-coefficient": lambda doc: first_scalar(doc).__setitem__(1, 0),
}
# z-mode scalars have one variable, whose exponents have no limit
FULL_TORUS_MISFITS = {"big-exponent"}


class TestCache:
    def test_path_stats_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        rc, out, _ = run_cli(capsys, "cache", "path")
        assert rc == 0 and out.strip() == str(tmp_path)
        rc, out, _ = run_cli(capsys, "cache", "stats")
        assert rc == 0 and json.loads(out)["files"] == 0
        rc, out, _ = run_cli(capsys, "cache", "clear")
        assert rc == 0 and json.loads(out) == {"removed": 0}

    def test_stats_io_error_exits_3(self, capsys, monkeypatch):
        from qkcomin import cache as diskcache

        def unreadable():
            raise PermissionError("cache directory unreadable")

        monkeypatch.setattr(diskcache, "stats", unreadable)
        rc, out, err = run_cli(capsys, "cache", "stats")
        assert rc == 3 and out == ""
        assert err == "error: cache directory unreadable\n"

    def test_non_object_files_are_recomputed(self, capsys, tmp_path, monkeypatch):
        """A cache file of valid JSON that is not a cache document is a miss:
        the product is recomputed, and the files rewritten, byte for byte."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        # O^(2) moves to no unit class of Y_1, so its degree-1 classes are
        # eliminated there; a product with a unit factor reads no table
        argv = ("product", "--space", "gr:2,4", "--u", "2", "--v", "1")
        rc, fresh, _ = run_cli(capsys, *argv)
        assert rc == 0
        files = sorted(tmp_path.glob("restrict_*.json"))
        assert len(files) == 3  # both tables of X, the opposite table of Y_1
        written = [p.read_bytes() for p in files]
        for p, text in zip(files, itertools.cycle(["null", "[]", '"x"', "7"])):
            p.write_text(text)
        assert run_cli(capsys, *argv) == (0, fresh, "")
        assert [p.read_bytes() for p in files] == written

    def test_deeply_nested_files_are_recomputed(self, capsys, tmp_path, monkeypatch):
        """A cache file of JSON nested too deep for the parser is a miss, not
        an internal error: verify rebuilds the tables and the projected
        classes and rewrites the files."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        argv = ("verify", "--space", "gr:1,3")
        assert run_cli(capsys, *argv) == (0, "PASS pairs=9\n", "")
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 4  # both tables of X, the opposite table of Y_1, the classes
        assert len(list(tmp_path.glob("projected_*.json"))) == 1
        written = [p.read_bytes() for p in files]
        for p in files:
            p.write_text("[" * 200000 + "]" * 200000)
        assert run_cli(capsys, *argv) == (0, "PASS pairs=9\n", "")
        assert [p.read_bytes() for p in files] == written

    @pytest.mark.parametrize("damage", TABLE_MISFITS)
    def test_misfit_rows_are_recomputed(self, capsys, tmp_path, monkeypatch, damage):
        """A table document with a valid checksum whose payload does not
        make a table of the model is a miss (see TABLE_MISFITS); on the
        full torus that includes an exponent past EXPONENT_LIMIT, an
        ExponentRangeError.  Each damaged file reaches the decoder, and the
        product is recomputed and the files rewritten byte for byte."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        argv = ("product", "--space", "gr:2,4", "--u", "1", "--v", "1")
        if damage in FULL_TORUS_MISFITS:
            argv += ("--equivariant",)
        rc, fresh, _ = run_cli(capsys, *argv)
        assert rc == 0
        files = sorted(tmp_path.glob("restrict_*.json"))
        written = [p.read_bytes() for p in files]
        damaged = [rewrite_document(p, TABLE_MISFITS[damage]) for p in files]
        decoded = spy_on_decode(monkeypatch)
        assert run_cli(capsys, *argv) == (0, fresh, "")
        assert all(doc["monomials"] in decoded["monomials"] for doc in damaged)
        assert all(doc["scalars"] in decoded["scalars"] for doc in damaged)
        assert [p.read_bytes() for p in files] == written


def rewrite_document(path, damage) -> dict:
    """Apply ``damage`` to the payload of the cache document at ``path``
    and write it back under a valid checksum; returns the damaged payload."""
    header, doc = map(json.loads, path.read_bytes().split(b"\n", 1))
    damage(doc)
    body = json.dumps(doc).encode()
    header["sha256"] = hashlib.sha256(body).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return doc


def spy_on_decode(monkeypatch) -> dict:
    """Record the monomials and the scalars that reach ``cache._decode``."""
    from qkcomin import cache as diskcache

    seen: dict = {"monomials": [], "scalars": []}
    decode = diskcache._decode

    def spy(monomials, scalars, nvars):
        seen["monomials"].append(monomials)
        seen["scalars"].append(scalars)
        return decode(monomials, scalars, nvars)

    monkeypatch.setattr(diskcache, "_decode", spy)
    return seen


# misfits of the projected file of Gr(2,4), z mode unless named in
# FULL_TORUS_MISFITS, each a path into the payload and the value put there.
# Its first entry is [[1, 3], 0, 1, [0, 0]], and its scalar 0 is 1:
# Y_1 = Fl(1,3;4) and X have 12 and 6 points
PROJECTED_MISFITS = {
    "unknown-dims": (("classes", 0, 0), [2, 3]),  # no Y_d of Gr(2,4)
    "a-above-b": (("classes", 0, slice(1, 3)), [1, 0]),
    "a-outside-y": (("classes", 0, 1), -1),
    "b-outside-y": (("classes", 0, 2), 12),
    "w-outside-x": (("classes", 0, 3), [6, 0]),
    "bad-n": (("classes", 0, 3), [0, 10**6]),  # an index of no scalar
    "zero-n": (("scalars", 0), []),
    "repeated-w": (("classes", 0, 3), [0, 0, 0, 0]),
    "non-integer-n": (("classes", 0, 3), [0, "0"]),
    "odd-length-n": (("classes", 0, 3), [0, 0, 1]),
    "empty-class": (("classes", 0, 3), []),
    "negative-z": (("monomials", 1, 0), -1),
    "big-exponent": (("monomials", 0, 0), EXPONENT_LIMIT + 1),  # an ExponentRangeError
}


def put(doc, path: tuple, value) -> None:
    """Set the item at ``path``, a tuple of keys and indices, of ``doc``."""
    *keys, last = path
    for k in keys:
        doc = doc[k]
    doc[last] = value


@pytest.mark.parametrize("damage", ["bad-checksum", "truncated", *PROJECTED_MISFITS])
def test_damaged_projected_file_is_recomputed(capsys, tmp_path, monkeypatch, damage):
    """A projected-class file with a bad checksum, truncated JSON, or
    entries that do not fit the space under a valid checksum is a miss:
    verify expands every class again and rewrites the file byte for byte.
    Each misfit reaches the decoder."""
    from qkcomin import cli
    from qkcomin.quantum import get_space

    monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
    argv = ("verify", "--space", "gr:2,4")
    if damage in FULL_TORUS_MISFITS:
        argv += ("--equivariant",)
    assert run_cli(capsys, *argv) == (0, "PASS pairs=36\n", "")
    (path,) = tmp_path.glob("projected_*.json")
    written = path.read_bytes()
    header, body = written.split(b"\n", 1)
    doc = json.loads(body)
    assert doc["classes"][0] == [[1, 3], 0, 1, [0, 0]]
    assert doc["monomials"][doc["scalars"][0][0]] == [0] * len(doc["monomials"][0])
    assert doc["scalars"][0][1] == 1
    decoded = spy_on_decode(monkeypatch)
    if damage == "truncated":
        path.write_bytes(written[: len(written) // 2])
    elif damage == "bad-checksum":
        bad = {**json.loads(header), "sha256": "0" * 64}
        path.write_bytes(json.dumps(bad).encode() + b"\n" + body)
    else:
        damaged = rewrite_document(path, lambda doc: put(doc, *PROJECTED_MISFITS[damage]))
    expanded = []
    expand_product = KModel.expand_product
    monkeypatch.setattr(
        KModel, "expand_product", lambda *args: expanded.append(args) or expand_product(*args)
    )
    assert run_cli(capsys, *argv) == (0, "PASS pairs=36\n", "")
    assert expanded
    if damage in PROJECTED_MISFITS:
        assert damaged["scalars"] in decoded["scalars"]
    assert path.read_bytes() == written


@pytest.mark.parametrize("command", ["verify", "table"])
def test_opposite_entry_below_origin_exits_4(capsys, tmp_path, monkeypatch, command):
    """The z-mode elimination packs every opposite entry at exponent origin
    0.  A table file whose entry (0, 1) gains a term z^-1 under a valid
    checksum loads, packs to a negative shift, and qk exits 4 printing
    nothing computed from it."""
    from qkcomin import cache as diskcache
    from qkcomin import cli
    from qkcomin.quantum import get_space

    monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
    argv = (command, "--space", "gr:2,5")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out
    for path in tmp_path.glob("projected_*.json"):
        path.unlink()  # so the run expands again
    path = diskcache._path_for("shape=2;5|chars=z5|orient=opposite")  # the opposite table of X

    def below_origin(doc):
        doc["monomials"].append([-1])
        row = doc["rows"][0]
        doc["scalars"].append(doc["scalars"][row[1]] + [len(doc["monomials"]) - 1, 1])
        row[1] = len(doc["scalars"]) - 1

    rewrite_document(path, below_origin)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (4, "")
    assert err.startswith("internal error: ValueError: ")


@pytest.mark.parametrize("space,flags", [("gr:2,4", ("--equivariant",)), ("gr:2,5", ())])
def test_warm_runs_parse_no_grammar(capsys, tmp_path, monkeypatch, space, flags):
    """The cache files hold integers, so a warm verify or table (either
    v basis) never calls LaurentElement.parse and prints the cold bytes."""
    from qkcomin import cli
    from qkcomin.laurent import LaurentElement
    from qkcomin.quantum import get_space

    def refuse(*args):
        raise AssertionError("LaurentElement.parse called")

    monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
    commands = [
        ("verify", "--space", space, *flags),
        ("table", "--space", space, "--v-basis", "plain", *flags),
        ("table", "--space", space, "--v-basis", "opposite", *flags),
    ]
    cold = [run_cli(capsys, *argv) for argv in commands]
    assert [rc for rc, _out, _err in cold] == [0, 0, 0]
    monkeypatch.setattr(LaurentElement, "parse", refuse)
    assert [run_cli(capsys, *argv) for argv in commands] == cold


def test_cache_stats_and_clear_count_projected_files(capsys, tmp_path, monkeypatch):
    from qkcomin import cli
    from qkcomin.quantum import get_space

    monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
    assert run_cli(capsys, "verify", "--space", "gr:2,4")[0] == 0
    (tmp_path / "projected_killed.tmp").write_text("{")
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 4  # 3 tables and the projected classes
    rc, out, _ = run_cli(capsys, "cache", "stats")
    assert rc == 0
    assert json.loads(out)["files"] == 4
    assert json.loads(out)["bytes"] == sum(p.stat().st_size for p in files)
    rc, out, _ = run_cli(capsys, "cache", "clear")
    assert rc == 0 and json.loads(out) == {"removed": 5}
    assert list(tmp_path.iterdir()) == []


def child_env(cache_dir):
    """Minimal environment for a ``python -m qkcomin`` child process.

    The child gets a private cache, no inherited ``QK_*`` overrides, and an
    absolute ``PYTHONPATH`` to the package under test, so it imports the same
    ``qkcomin`` whether or not the package is installed and whatever the
    working directory.  It writes no ``__pycache__`` into the source tree.
    """
    package_root = Path(qkcomin.__file__).resolve().parents[1]
    return {
        "QK_CACHE_DIR": str(cache_dir),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(package_root),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


class TestSubprocessEntryPoints:
    def test_cli_import_loads_no_dataclasses_or_inspect(self, tmp_path):
        """Start-up cost: importing the CLI loads none of these modules."""
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import qkcomin.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & added))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qkcomin", "dist", "--space", "gr:1,2",
             "--u", "1", "--v", ""],
            capture_output=True, text=True, env=child_env(tmp_path), cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"dist": 1}

    def test_parallel_jobs_deterministic(self, tmp_path):
        env = child_env(tmp_path)
        outs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "qkcomin", "table", "--space", "gr:2,4",
                 "--jobs", jobs],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].strip().split("\n")) == 36


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines():
    """The ``qk`` lines of README's CLI block, ``a|b`` expanded into a line each."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        words = shlex.split(line)
        if words[:1] == ["qk"]:
            choices = (word.split("|") for word in words[1:])
            yield from (list(argv) for argv in itertools.product(*choices))


def test_readme_cli_lines_parse():
    # a flag removed or renamed in the parser cannot leave README stale
    argvs = list(readme_cli_lines())
    assert {argv[0] for argv in argvs} == {
        "product", "dist", "neighborhood", "table", "verify", "cache"
    }
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: qk {shlex.join(argv)}")


def docstring_cli_literals():
    """The ``qk ...`` literals of the package's docstrings, split into words."""
    for path in sorted(Path(qkcomin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for literal in re.findall(r"``qk ([^`]+)``", ast.get_docstring(node) or ""):
                    yield path.name, shlex.split(literal)


def test_docstring_cli_literals_name_real_flags():
    # a flag removed or renamed in the parser cannot linger in a docstring
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    literals = list(docstring_cli_literals())
    assert literals
    for module, words in literals:
        where = f"{module}: ``qk {shlex.join(words)}``"
        assert words[0] in subparsers.choices, where
        options = subparsers.choices[words[0]]._option_string_actions
        for word, value in zip(words[1:], [*words[2:], None]):
            if not word.startswith("--"):
                continue
            assert word in options, where
            choices = options[word].choices
            if word == "--checks":
                choices = CHECKS
            if choices is not None:
                assert value is not None and set(value.split(",")) <= set(choices), where


def test_readme_names_every_memo_of_space():
    # the README's list of the state a Space owns cannot go stale: its
    # backticked names, other than classes, functions and properties, are
    # exactly the attributes a fresh Space fills itself, beyond its arguments
    from qkcomin import quantum
    from qkcomin.quantum import Space

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = (p for p in readme.split("\n\n") if "Each `Space` owns all state" in p)
    attributes = set(vars(Space(2, 4)))
    named = {
        name for name in re.findall(r"`(\w+)`", paragraph)
        if not hasattr(quantum, name) and (name in attributes or not hasattr(Space, name))
    }
    memos = attributes - set(inspect.signature(Space).parameters)
    assert memos == {"models", "diagrams", "projected", "products"}
    assert named == memos


def test_readme_names_every_check():
    # the README's count and list of the checks, its --checks sentence and
    # its defaults cannot go stale: each names exactly the registered checks
    readme = README.read_text(encoding="utf-8")
    text = " ".join(readme.split())
    words = "zero one two three four five six seven eight nine ten".split()
    assert f"and {words[len(CHECKS)]} exact checks, registered" in text
    (paragraph,) = (p for p in readme.split("\n\n") if "The checks:" in p)
    listed = re.findall(r"^\s*- \*\*(\w+)\*\*", paragraph.split("The checks:")[1], re.M)
    assert sorted(listed) == sorted(CHECKS)
    ((names, defaults),) = re.findall(
        r"`--checks` takes a comma list of the registered checks (.*?); without it `([\w,]+)` run\.",
        text,
    )
    assert sorted(re.findall(r"`(\w+)`", names)) == sorted(CHECKS)
    assert tuple(defaults.split(",")) == DEFAULT_CHECKS
    (named,) = re.findall(r"`DEFAULT_CHECKS` names the \w+ that run when none are named: (.*?)\.", text)
    assert tuple(re.findall(r"`(\w+)`", named)) == DEFAULT_CHECKS


def test_readme_names_every_export():
    # the README's sentence on the package's exports cannot go stale
    readme = README.read_text(encoding="utf-8")
    (sentence,) = re.findall(r"The package exports (.*?)\.\s", readme, re.S)
    named = re.findall(r"`(\w+)`", sentence)
    assert sorted(named) == sorted(set(qkcomin.__all__) - {"__version__"})
