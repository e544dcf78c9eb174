import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkcomin
from qkcomin.cli import main
from qkcomin.gkm import KModel, NotInSpanError, ShapeMismatchError
from qkcomin.laurent import NotDivisibleError
from qkcomin.quantum import CHECKS


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def inline_pool(monkeypatch):
    """Replaces the process pool of ``qk table`` by one that runs every row
    in this process, so no process starts.  Each hook in the returned list
    is called with ``max_workers`` when the pool is made."""
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


class TestVerify:
    def test_small_equivariant_pass(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--space", "gr:2,4", "--equivariant", "--oracle"
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

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_every_registered_check_is_accepted(self, capsys, name):
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,3", "--checks", name)
        assert rc == 0 and out.strip() == "PASS pairs=9"

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
        from qkcomin.quantum import Report

        def fake_verify(space, checks, oracle):
            rep = Report(str(space), space.equivariant, pairs=4)
            rep.violations.append("sum u=1 v=1 got=0")
            return rep

        monkeypatch.setattr(cli, "verify_space", fake_verify)
        rc, out, _ = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 1
        lines = out.strip().split("\n")
        assert lines[0] == "sum u=1 v=1 got=0"
        assert lines[-1] == "FAIL pairs=4 violations=1"

    @pytest.mark.parametrize(
        "exc_type",
        [NotInSpanError, ShapeMismatchError, NotDivisibleError, AssertionError],
        ids=lambda t: t.__name__,
    )
    def test_internal_error_exits_4(self, capsys, monkeypatch, exc_type):
        from qkcomin import cli
        from qkcomin.quantum import get_space

        def broken(self, values, orientation):
            raise exc_type("forced\nfailure")

        # a fresh Space, so no memoized product hides the expansion
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        monkeypatch.setattr(KModel, "expand_values", broken)
        rc, out, err = run_cli(capsys, "verify", "--space", "gr:1,2")
        assert rc == 4
        assert out == ""
        assert err == f"internal error: {exc_type.__name__}: forced failure\n"

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
        rc, _, err = run_cli(capsys, "verify", "--space", "gr:2,6", "--equivariant")
        assert rc == 2 and "ceiling" in err


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

    def test_pool_size_is_bounded_by_rows(self, capsys, inline_pool):
        """--jobs 1000 on the 3 rows of Gr(1,3) asks for 3 workers."""
        sizes = []
        inline_pool.append(sizes.append)
        rc, pooled, _ = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "1000")
        assert rc == 0 and sizes == [3]
        rc, serial, _ = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "1")
        assert rc == 0 and pooled == serial

    def test_pool_starts_with_every_table_loaded(self, capsys, monkeypatch, inline_pool):
        """Before the pool starts, the parent holds both tables of every
        model the rows read, X and each Y_d, so the forked workers share
        them instead of each parsing the cache files again."""
        from qkcomin import cli
        from qkcomin.gkm import OPPOSITE, PLAIN
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
        assert all(loaded[0].get(shape) == {PLAIN, OPPOSITE} for shape in read)

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the workers must inherit the patched module",
    )
    def test_worker_crash_exits_4(self, capsys, monkeypatch):
        """A row worker that dies is an internal error: two forked workers
        for the three rows of Gr(1,3), each exiting on its first pair."""
        from qkcomin import cli

        monkeypatch.setattr(cli, "_pair_line", lambda *args: os._exit(1))
        rc, out, err = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "2")
        assert rc == 4
        assert out == ""
        assert err.startswith("internal error: BrokenProcessPool: ")
        assert err.count("\n") == 1

    def test_ingestion_recomputes_sum_check(self, capsys):
        from qkcomin.quantum import load_table_json

        rc, out, _ = run_cli(capsys, "table", "--space", "gr:1,3", "--jobs", "1")
        assert rc == 0
        for line in out.strip().split("\n"):
            load_table_json(json.loads(line))


# sha256 of the stdout of `qk table ... --jobs 1` (and `--jobs 2`), and of each restriction-cache
# file that equivariant Gr(2,4) writes, as produced when the scalars were still
# stored with exponent-tuple keys.  Any change of representation must keep them.
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
}
GOLDEN_GR24_EQUIVARIANT_CACHE = {
    "restrict_008f28f749b65e68b195e364.json":
        "f91047d292eee37a68d9dd8226128440da7ba5f8aa2c972a2cfbe21c5b659bc2",
    "restrict_1e6cbe37c01df29e1fe7ca74.json":
        "339b022c558de8f64a1fd8ded8a0fb867122d3971e6a6b5f1e83a4dc6de5fd61",
    "restrict_9ed44eb15456dbcd21b7ffae.json":
        "aa5dba97e3385aa24a9a72a7cbfd1c854e10caf9178a7c18d2d5582139b39387",
    "restrict_da3e1a3618ab3f854c46fcd5.json":
        "237659089b4bf0544ba9876dfc9af673974635b9995c8f89e26bfaf10a37b1ff",
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
    def test_table_digest(self, capsys, fresh, space, equivariant, v_basis, jobs):
        """Both the serial path and the process pool give the pinned bytes."""
        argv = ["table", "--space", space, "--v-basis", v_basis, "--jobs", jobs]
        rc, out, _ = run_cli(capsys, *argv, *(["--equivariant"] if equivariant else []))
        assert rc == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GOLDEN_TABLES[(space, equivariant, v_basis)]

    def test_equivariant_cache_files(self, capsys, fresh):
        rc, _, _ = run_cli(capsys, "table", "--space", "gr:2,4", "--equivariant", "--jobs", "1")
        assert rc == 0
        files = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(fresh.glob("restrict_*.json"))
        }
        assert files == GOLDEN_GR24_EQUIVARIANT_CACHE


def parse(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


class TestCache:
    def test_path_stats_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        rc, out, _ = run_cli(capsys, "cache", "path")
        assert rc == 0 and out.strip() == str(tmp_path)
        rc, out, _ = run_cli(capsys, "cache", "stats")
        assert rc == 0 and json.loads(out)["files"] == 0
        rc, out, _ = run_cli(capsys, "cache", "clear")
        assert rc == 0 and json.loads(out) == {"removed": 0}

    def test_non_object_files_are_recomputed(self, capsys, tmp_path, monkeypatch):
        """A cache file of valid JSON that is not a cache document is a miss:
        the product is recomputed, and the files rewritten, byte for byte."""
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        argv = ("product", "--space", "gr:2,4", "--u", "1", "--v", "1")
        rc, fresh, _ = run_cli(capsys, *argv)
        assert rc == 0
        files = sorted(tmp_path.glob("restrict_*.json"))
        assert len(files) == 4  # X and Y_1, both orientations
        written = [p.read_bytes() for p in files]
        for p, text in zip(files, itertools.cycle(["null", "[]", '"x"', "7"])):
            p.write_text(text)
        assert run_cli(capsys, *argv) == (0, fresh, "")
        assert [p.read_bytes() for p in files] == written

    @pytest.mark.parametrize("damage", ["bad-entry", "short-rows"])
    def test_misfit_rows_are_recomputed(self, capsys, tmp_path, monkeypatch, damage):
        """A cache document with a valid checksum whose rows do not make a
        table of the model is a miss: an entry that does not parse, or rows
        one entry short.  The product is recomputed and the files rewritten."""
        from qkcomin import cache as diskcache
        from qkcomin import cli
        from qkcomin.quantum import get_space

        monkeypatch.setenv("QK_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "get_space", get_space.__wrapped__)
        argv = ("product", "--space", "gr:2,4", "--u", "1", "--v", "1")
        rc, fresh, _ = run_cli(capsys, *argv)
        assert rc == 0
        files = sorted(tmp_path.glob("restrict_*.json"))
        written = [p.read_bytes() for p in files]
        for p in files:
            doc = json.loads(p.read_text())
            if damage == "bad-entry":
                doc["rows"][0][0] = "t1^1"
            else:
                doc["rows"] = [row[:-1] for row in doc["rows"]]
            doc["sha256"] = diskcache._payload_hash(doc["rows"])
            p.write_text(json.dumps(doc))
        assert run_cli(capsys, *argv) == (0, fresh, "")
        assert [p.read_bytes() for p in files] == written


def child_env(cache_dir):
    """Minimal environment for a ``python -m qkcomin`` child process.

    The child gets a private cache, no inherited ``QK_*`` overrides, and an
    absolute ``PYTHONPATH`` to the package under test, so it imports the same
    ``qkcomin`` whether or not the package is installed and whatever the
    working directory.
    """
    package_root = Path(qkcomin.__file__).resolve().parents[1]
    return {
        "QK_CACHE_DIR": str(cache_dir),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(package_root),
    }


class TestSubprocessEntryPoints:
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
