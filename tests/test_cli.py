"""Command-line interface: exit codes, JSON-lines output, determinism."""

import argparse
import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qcap
from qcap import identities
from qcap.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, build_parser, main
from qcap.identities import CASES, FAMILIES, Bounds, iterate_grid
from qcap.series import monomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_case_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "new_fin_cap_1",
                           "--L-max", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        summary = records[-1]
        assert summary["summary"]["verdict"] is True
        assert summary["summary"]["cases"] == 1
        assert summary["summary"]["failed"] == 0
        assert "total_millis" in summary["timing"]
        for record in records[:-1]:
            assert record["verdict"] is True
            assert "millis" not in record

    def test_unknown_case_lists_valid_ids(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "nonsense")
        assert code == EXIT_CONFIG
        assert "valid ids" in err
        assert "new_fin_cap_1" in err

    def test_no_selection_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == EXIT_CONFIG

    def test_deterministic_reports(self, capsys):
        args = ("verify", "--case", "dual_identity_1", "--L-max", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        # everything except the timing line must be byte-identical
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    @pytest.mark.parametrize("flag", ["--L-max", "--M-max", "--f-max",
                                      "--nu-max", "--trunc"])
    def test_negative_bound_is_config_error(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--all", flag, "-1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("flag", ["--f-max", "--nu-max"])
    def test_zero_depth_bound_is_config_error(self, capsys, flag):
        # f and nu start at 1: a zero bound would give their cases no instance
        code, out, err = run(capsys, "verify", "--all", flag, "0")
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"{flag} must be >= 1, got 0" in err

    @pytest.mark.parametrize("s", ["7", "-1"])
    def test_twist_outside_depth_bound_is_config_error(self, capsys, s):
        code, out, err = run(capsys, "verify", "--case",
                             "hierarchy_finite_double", "--s", s)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "--s" in err

    def test_twist_with_no_twisted_case_is_config_error(self, capsys):
        # as `qcap series lhs:hierarchy_finite_cap1 --s 1` is
        code, out, err = run(capsys, "verify", "--case", "hierarchy_finite_cap1",
                             "--case", "new_fin_cap_1", "--s", "1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.splitlines() == ["--s: no selected case takes a twist s"]
        code, _, _ = run(capsys, "series", "lhs:hierarchy_finite_cap1", "--f", "1",
                         "--L", "2", "--s", "1")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("select", [("--all",), ("--case", "new_fin_cap_1",
                                                     "--case", "hierarchy_finite_double")])
    def test_twist_with_a_twisted_case_runs(self, capsys, select):
        code, out, _ = run(capsys, "verify", *select, "--s", "1", "--L-max", "2",
                           "--M-max", "2", "--trunc", "8")
        assert code == EXIT_OK
        params = [json.loads(line)["params"] for line in out.splitlines()[:-1]]
        assert {p["s"] for p in params if "s" in p} == {1}

    def test_text_format_header(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "new_fin_cap_1",
                           "--L-max", "2", "--format", "text")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("# cases=1 instances=")
        assert all(line.startswith("pass") for line in lines[1:-1])
        assert "passed" in lines[-1]

    def test_default_grid_is_the_bounds_default(self, capsys, monkeypatch):
        import qcap.identities

        grids = []

        def no_instances(case_id, bounds):
            grids.append(bounds)
            return iter(())

        monkeypatch.setattr(qcap.identities, "iterate_grid", no_instances)
        code, _, _ = run(capsys, "verify", "--all")
        assert code == EXIT_OK
        assert grids == [Bounds()] * len(CASES)

    @pytest.mark.parametrize("fmt", ("json", "text"))
    def test_failing_case_exits_1_and_reports_each_failure(self, capsys, monkeypatch, fmt):
        # a negative control: new_fin_cap_1's rhs plus 3q^(L^2+1) fails at every L
        case = CASES["new_fin_cap_1"]
        (_, lhs), (_, rhs) = case.sides
        sides = (("lhs", lhs), ("rhs", lambda L: rhs(L) + monomial(L * L + 1, 3)))
        monkeypatch.setitem(CASES, "new_fin_cap_1", dataclasses.replace(case, sides=sides))
        code, out, _ = run(capsys, "verify", "--case", "new_fin_cap_1",
                           "--case", "cap_analytic_1", "--L-max", "3", "--trunc", "8",
                           "--format", fmt)
        assert code == EXIT_FAIL
        lines = out.splitlines()
        if fmt == "json":
            records = [json.loads(line) for line in lines]
            assert records[-1]["summary"] == {
                "cases": 2, "failed": 4, "instances": 5, "verdict": False}
            assert [r["verdict"] for r in records[:-1]] == [False] * 4 + [True]
            assert records[0]["first_mismatch"] == {
                "side": "rhs", "exponent": 1, "reference_coeff": 0, "side_coeff": 3}
        else:
            assert lines[1] == ("FAIL  new_fin_cap_1  L=0  mismatch={'side': 'rhs', "
                                "'exponent': 1, 'reference_coeff': 0, 'side_coeff': 3}")
            assert lines[-2] == "pass  cap_analytic_1  n=8"
            assert lines[-1].startswith("# 1/5 passed (") and lines[-1].endswith(" ms)")

    def test_side_short_of_its_mode_exits_2(self, capsys, monkeypatch):
        # a negative control: an exact side that comes back truncated would
        # agree with the other to that order, so it must stop the run instead
        case = CASES["new_fin_cap_1"]
        (_, lhs), (_, rhs) = case.sides
        sides = (("lhs", lhs), ("rhs", lambda L: rhs(L).truncate(500)))
        monkeypatch.setitem(CASES, "new_fin_cap_1", dataclasses.replace(case, sides=sides))
        code, out, err = run(capsys, "verify", "--case", "new_fin_cap_1", "--L-max", "3")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("new_fin_cap_1 {'L': 0}: side 'rhs' is known only to order 500, "
                       "short of the exact check\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "verify", "--case", "new_fin_cap_1",
                           "--L-max", "2", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        assert records[-1]["summary"]["verdict"] is True

    def test_unopenable_out_is_config_error_before_any_case(
            self, capsys, monkeypatch, tmp_path):
        import qcap.identities

        def no_case(*args):
            raise AssertionError("a case ran before --out was opened")

        monkeypatch.setattr(qcap.identities, "verify_case", no_case)
        target = tmp_path / "missing" / "report.jsonl"
        code, out, err = run(capsys, "verify", "--case", "new_fin_cap_1",
                             "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"cannot open --out {str(target)!r}: ")

    def test_failed_out_write_is_config_error(self, capsys, monkeypatch):
        import qcap.cli

        class FullDevice(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(qcap.cli, "open", lambda *args: FullDevice(), raising=False)
        code, out, err = run(capsys, "verify", "--case", "new_fin_cap_1",
                             "--L-max", "2", "--out", "report.jsonl")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.splitlines() == [
            f"cannot write the output: {os.strerror(errno.ENOSPC)}"]


# sha256 of `qcap verify --all --format json` at default bounds without the
# summary line, recorded before the arithmetic core's fast paths went in.
# Any change to a report byte at default bounds changes it.
DEFAULT_REPORT_SHA256 = (
    "312718cf8067d863bf9d1a38ca8f7db69daa5452b3ffc5f1454b78a06de57950")
# The same at `--trunc 100`, recorded before the truncated fast paths went in;
# it pins every truncated case at the order the `limits` benchmark runs.
TRUNC_100_REPORT_SHA256 = (
    "0fb39e5ac7548203d95b1d6a07b3f0988c166818c292f7f89f941e6ba51aa217")
# The same at `--trunc 57`, recorded before the limit sides were nested level
# by level: 57 = 3 * 19 is no square, so it pins the cut-off b(N^2 + eps N) <= n
# of the base-3 chains between two multiples of the base.
TRUNC_57_REPORT_SHA256 = (
    "aeb21ab9a4584c95f817bae35dcd99630421ef4587cc66bddf39545f643f3cb0")

# The three base-3 finite hierarchies at `--L-max 12` (the `deep` bound),
# recorded before their chains were summed in q and stretched to q^3.
BASE3_HIERARCHY_L12_REPORT_SHA256 = (
    "d0e31012af86fcd775836d1ddabfa6f8f30469ee328a6ea716f9e3e68d657365")

# The cases whose sums the shared chain table and the per-(nu, L) S-ladder
# table serve, at `--L-max 12 --M-max 12` (the `deep` bounds, 533 reports),
# recorded before those tables went in.
SHARED_TABLES_L12_REPORT_SHA256 = (
    "93d330ad56f6a7a5366bbfae00c6cbdbfc3c6962378b33d47e235a845cb47d21")

# The S-ladder cases on a grid with M_max below L_max (`--L-max 10 --M-max 3`,
# 132 reports), recorded before the per-(nu, L) table was built only to the
# i <= M its M ask for.
SHORT_M_GRID_REPORT_SHA256 = (
    "3dae938ac0d28345cd39951cabc1580fd900881a2a79e809730a2b328d6f6a06")


# The whole `deep` benchmark grid, `--all --L-max 12 --M-max 12` (1,116
# reports), recorded before the finite left sides read their tails and seed
# classes from tables and the theta-type weights became exponent pairs.
DEEP_REPORT_SHA256 = (
    "f93038e2cfcf05f6b19677942a1ac027b8146bad85984c271271c2d9410614ba")

# `--all --f-max 6 --L-max 8 --M-max 4` (916 reports), twists past f = 3,
# recorded before verify evaluated its instances grouped by (L, f, s) and the
# finite left sides shared their chain rows.
F6_REPORT_SHA256 = (
    "a3e0df97f749d1678bd503f2930ee34672ef5fdd57f6eabb2a8e96891ec7940b")

# The S-ladder cases at `--nu-max 6 --L-max 8 --M-max 8`, recorded before the
# S-ladder left sides walked only the chains with a term.
S_LADDER_NU6_REPORT_SHA256 = (
    "c3ede9dae18e2b30ea94f1f0a004134581d181b3c1d579318fa0fcc339126282")


def report_sha256(capsys, *flags, select=("--all",)):
    code, out, _ = run(capsys, "verify", *select, "--format", "json", *flags)
    assert code == EXIT_OK
    reports = "".join(out.splitlines(keepends=True)[:-1])
    return hashlib.sha256(reports.encode()).hexdigest()


class TestReportGuard:
    def test_default_bounds_reports_are_byte_identical(self, capsys):
        assert report_sha256(capsys) == DEFAULT_REPORT_SHA256

    def test_deep_bounds_reports_are_byte_identical(self, capsys):
        assert report_sha256(capsys, "--L-max", "12", "--M-max", "12") == DEEP_REPORT_SHA256

    def test_trunc_100_reports_are_byte_identical(self, capsys):
        assert report_sha256(capsys, "--trunc", "100") == TRUNC_100_REPORT_SHA256

    def test_trunc_57_reports_are_byte_identical(self, capsys):
        assert report_sha256(capsys, "--trunc", "57") == TRUNC_57_REPORT_SHA256

    def test_base3_hierarchies_at_l12_are_byte_identical(self, capsys):
        select = ("--case", "hierarchy_finite_cap1_binomial",
                  "--case", "hierarchy_finite_cap2_binomial",
                  "--case", "hierarchy_finite_sum_cap")
        assert (report_sha256(capsys, "--L-max", "12", select=select)
                == BASE3_HIERARCHY_L12_REPORT_SHA256)

    def test_shared_table_cases_at_l12_are_byte_identical(self, capsys):
        select = ("--case", "s_hierarchy",
                  "--case", "hierarchy_finite_cap1",
                  "--case", "hierarchy_finite_cap2_analogue",
                  "--case", "hierarchy_finite_double")
        assert (report_sha256(capsys, "--L-max", "12", "--M-max", "12", select=select)
                == SHARED_TABLES_L12_REPORT_SHA256)

    def test_s_ladder_cases_with_m_below_l_are_byte_identical(self, capsys):
        select = ("--case", "s_hierarchy", "--case", "seed_identity")
        assert (report_sha256(capsys, "--L-max", "10", "--M-max", "3", select=select)
                == SHORT_M_GRID_REPORT_SHA256)

    def test_twists_to_depth_6_are_byte_identical(self, capsys):
        assert (report_sha256(capsys, "--f-max", "6", "--L-max", "8", "--M-max", "4")
                == F6_REPORT_SHA256)

    def test_s_ladder_cases_to_depth_6_are_byte_identical(self, capsys):
        select = ("--case", "s_hierarchy", "--case", "s_hierarchy_limit",
                  "--case", "corollary_transform")
        assert (report_sha256(capsys, "--nu-max", "6", "--L-max", "8", "--M-max", "8",
                              select=select)
                == S_LADDER_NU6_REPORT_SHA256)


def point(params):
    """The (L, f, s) that verify groups an instance by, an absent one as -1."""
    return tuple(params.get(p, -1) for p in "Lfs")


class TestEvaluationOrder:
    # verify evaluates its instances grouped by (L, f, s) and writes the
    # reports in the order of its --case flags and grids

    def test_reports_follow_the_case_order(self, capsys):
        ids = sorted(CASES)
        flags = ("--L-max", "4", "--M-max", "4", "--f-max", "4", "--trunc", "12")
        _, out, _ = run(capsys, "verify", *[x for c in ids for x in ("--case", c)], *flags)
        blocks = {}
        for line in out.splitlines()[:-1]:
            blocks.setdefault(json.loads(line)["id"], []).append(line)
        assert list(blocks) == ids
        rng = random.Random(5)
        for order in (ids[::-1], rng.sample(ids, len(ids))):
            _, out, _ = run(capsys, "verify", *[x for c in order for x in ("--case", c)], *flags)
            assert out.splitlines()[:-1] == [line for c in order for line in blocks[c]]

    def test_instances_are_evaluated_grouped_by_grid_point(self, capsys, monkeypatch):
        import qcap.identities

        calls, verify_case = [], qcap.identities.verify_case

        def recorded(case_id, params):
            calls.append((case_id, params))
            return verify_case(case_id, params)

        monkeypatch.setattr(qcap.identities, "verify_case", recorded)
        ids = random.Random(3).sample(sorted(CASES), len(CASES))
        _, out, _ = run(capsys, "verify", *[x for c in ids for x in ("--case", c)],
                        "--L-max", "3", "--M-max", "2", "--f-max", "4")
        points = [point(params) for _, params in calls]
        assert points == sorted(points)
        tasks = [(c, p) for c in ids for p in iterate_grid(c, Bounds(3, 2, 4))]
        assert sorted(calls, key=lambda call: tasks.index(call)) == tasks
        written = [json.loads(line) for line in out.splitlines()[:-1]]
        assert [(r["id"], r["params"]) for r in written] == [
            (c, dict(sorted(p.items()))) for c, p in tasks]

    def test_chain_rows_are_built_once_per_key_and_tables_hold_one_l(self, capsys):
        rows = identities._chain_rows
        rows.cache_clear()
        code, _, _ = run(capsys, "verify", "--all")
        assert code == EXIT_OK
        keys = {(FAMILIES[c.removeprefix("hierarchy_finite_")].a, p["f"], p.get("s", 0), p["L"])
                for c in CASES if c.startswith("hierarchy_finite_")
                for p in iterate_grid(c, Bounds())}
        assert rows.cache_info().misses == len(keys) == 108
        for table in (identities._chain_levels, identities._chain_tails, rows):
            info = table.cache_info()
            assert info.maxsize == 2 and info.currsize <= 2, table


class TestSeries:
    def test_registered_side(self, capsys):
        code, out, _ = run(capsys, "series", "rhs:new_fin_cap_1", "--L", "2")
        assert code == EXIT_OK
        assert out.strip() == "1 + q^2 - q^4"

    def test_classical_product(self, capsys):
        code, out, _ = run(capsys, "series", "product:jtp",
                           "--z-shift", "0", "--trunc", "4")
        assert code == EXIT_OK
        assert out.strip() == "1 + 2q + 2q^4"

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "series", "nonsense")
        assert code == EXIT_CONFIG
        assert "unknown series id" in err

    def test_unknown_side(self, capsys):
        code, _, err = run(capsys, "series", "middle:new_fin_cap_1", "--L", "2")
        assert code == EXIT_CONFIG
        assert "sides" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "series", "rhs:new_fin_cap_1")
        assert code == EXIT_CONFIG
        assert "missing flag --L for parameter 'L'" in err
        # the order n of a truncated case is given by --trunc
        code, _, err = run(capsys, "series", "lhs:cap_analytic_1")
        assert code == EXIT_CONFIG
        assert "missing flag --trunc for parameter 'n'" in err

    def test_classical_requires_trunc(self, capsys):
        code, _, err = run(capsys, "series", "sum:quintuple", "--z-shift", "1")
        assert code == EXIT_CONFIG

    def test_classical_negative_trunc_is_config_error(self, capsys):
        code, out, err = run(capsys, "series", "product:jtp", "--trunc", "-3")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "--trunc must be >= 0, got -3" in err

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(capsys, "series", "lhs:hierarchy_finite_cap1",
                           "--f", "0", "--L", "2")
        assert code == EXIT_CONFIG

    def test_twist_above_the_depth_is_config_error(self, capsys):
        code, out, err = run(capsys, "series", "lhs:hierarchy_finite_double",
                             "--f", "1", "--s", "2", "--L", "2")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "twist s must satisfy 0 <= s <= f\n"

    def test_b_outside_range_is_config_error(self, capsys):
        code, out, err = run(capsys, "series", "reference:dual_limit",
                             "--b", "7", "--trunc", "5")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "b must be 0, 1, or 2" in err

    def test_negative_l_is_config_error(self, capsys):
        code, out, err = run(capsys, "series", "lhs:new_fin_cap_1", "--L", "-3")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "new_fin_cap_1: parameter 'L' must be >= 0" in err

    @pytest.mark.parametrize("expr, flags, flag", [
        ("lhs:hierarchy_finite_cap1", ("--f", "1", "--L", "2", "--M", "3"), "--M"),
        ("lhs:cap_analytic_1", ("--trunc", "5", "--L", "2"), "--L"),
        ("lhs:cap_analytic_1", ("--trunc", "5", "--f", "1"), "--f"),
        ("lhs:hierarchy_finite_cap1", ("--f", "1", "--L", "2", "--s", "0"), "--s"),
        ("lhs:seed_identity", ("--L", "2", "--M", "2", "--nu", "1"), "--nu"),
        ("lhs:new_fin_cap_1", ("--L", "2", "--k", "1"), "--k"),
        ("reference:dual_limit", ("--b", "1", "--trunc", "5", "--L", "2"), "--L"),
        ("lhs:k_transform", ("--k", "1", "--L", "2", "--b", "0"), "--b"),
        ("lhs:new_fin_cap_1", ("--L", "2", "--trunc", "5"), "--trunc"),
        ("lhs:new_fin_cap_1", ("--L", "2", "--z-shift", "1"), "--z-shift"),
        ("lhs:cap_analytic_1", ("--trunc", "5", "--z-shift", "-2"), "--z-shift"),
        ("product:jtp", ("--trunc", "4", "--L", "3"), "--L"),
    ])
    def test_flag_the_case_does_not_take_is_config_error(self, capsys, expr, flags, flag):
        code, out, err = run(capsys, "series", expr, *flags)
        assert code == EXIT_CONFIG
        assert out == ""
        owner = expr if expr.startswith("product:") else expr.partition(":")[2]
        assert err.splitlines() == [f"{owner}: no parameter takes the flag {flag}"]

    def test_every_flag_a_case_takes_is_accepted(self, capsys):
        # positive control: each side of each case, given a value for every
        # parameter it takes (and --z-shift 0, the default), prints its series
        values = {"L": 2, "M": 2, "f": 2, "s": 1, "nu": 1, "k": 2, "b": 1, "n": 6}
        for case_id, case in sorted(CASES.items()):
            flags = [str(part) for name in case.params
                     for part in ("--trunc" if name == "n" else f"--{name}", values[name])]
            for side, _ in case.sides:
                code, out, err = run(capsys, "series", f"{side}:{case_id}", *flags,
                                     "--z-shift", "0")
                assert (code, err) == (EXIT_OK, ""), (case_id, side, err)
                assert out.strip(), (case_id, side)


class TestPartitions:
    def test_counts_table(self, capsys):
        code, out, _ = run(capsys, "partitions", "counts", "--m", "1",
                           "--n-max", "6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,C_1,D_1,match"
        assert lines[1] == "0,1,1,True"
        assert lines[-1] == "6,2,2,True"

    @pytest.mark.parametrize("m,last", [(1, "500,386039953768,386039953768,True"),
                                        (2, "500,389103728926,389103728926,True")])
    def test_counts_table_to_500(self, capsys, m, last):
        code, out, _ = run(capsys, "partitions", "counts", "--m", str(m),
                           "--n-max", "500")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 502
        assert lines[-1] == last

    def test_weighted_table(self, capsys):
        code, out, _ = run(capsys, "partitions", "weighted", "--theorem", "W1",
                           "--n-max", "5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,lhs,rhs,match"
        assert lines[4] == "3,2,2,True"

    def test_count_mismatch_is_failure(self, capsys, monkeypatch):
        import qcap.partitions
        monkeypatch.setattr(qcap.partitions, "count_d",
                            lambda m, n_max: [-1] * (n_max + 1))
        code, out, _ = run(capsys, "partitions", "counts", "--m", "1",
                           "--n-max", "2")
        assert code == EXIT_FAIL
        assert out.strip().splitlines()[1].endswith("False")

    @pytest.mark.parametrize("sub", [["counts", "--m", "1"],
                                     ["weighted", "--theorem", "W1"]],
                             ids=["counts", "weighted"])
    def test_negative_n_max_is_config_error(self, capsys, sub):
        code, out, err = run(capsys, "partitions", *sub, "--n-max", "-3")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "--n-max must be >= 0, got -3" in err

    def test_unopenable_out_is_config_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "partitions", "counts", "--m", "1",
                             "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"cannot open --out {str(tmp_path)!r}: ")

    def test_invalid_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["partitions", "counts", "--m", "3"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestParser:
    def test_subcommands_are_verify_series_and_partitions(self, capsys):
        (subcommands,) = [action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        assert sorted(subcommands.choices) == ["partitions", "series", "verify"]
        # any other command, the retired `hierarchy` too, is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["hierarchy", "--family", "cap1", "--f", "1", "--L", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'hierarchy'" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_keeps_no_flag_of_an_earlier_call(self, capsys):
        run(capsys, "verify", "--case", "new_fin_cap_1", "--L-max", "1")
        code, out, _ = run(capsys, "verify", "--case", "new_fin_cap_2", "--L-max", "1")
        assert code == EXIT_OK
        assert {json.loads(line)["id"] for line in out.splitlines()[:-1]} == {"new_fin_cap_2"}


class TestModuleEntryPoint:
    def env(self):
        # a checkout without an installed qcap: the package's parent on the path
        src = str(Path(qcap.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return {**os.environ, "PYTHONPATH": path}

    def python_m_qcap(self, *argv):
        return subprocess.run([sys.executable, "-m", "qcap", *argv],
                              capture_output=True, text=True, env=self.env())

    def test_verify_passes(self):
        done = self.python_m_qcap("verify", "--case", "new_fin_cap_1", "--L-max", "2")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["summary"]["verdict"] is True

    def test_optimized_interpreter_keeps_the_default_reports(self):
        # `python -O` strips every assert statement; the package's checks
        # must live elsewhere, so its reports are the same without them
        done = subprocess.run([sys.executable, "-O", "-m", "qcap", "verify", "--all",
                               "--format", "json"], capture_output=True, text=True, env=self.env())
        assert done.returncode == EXIT_OK, done.stderr
        reports = "".join(done.stdout.splitlines(keepends=True)[:-1])
        assert hashlib.sha256(reports.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_negative_bound_is_config_error(self):
        done = self.python_m_qcap("verify", "--case", "new_fin_cap_1", "--L-max", "-1")
        assert done.returncode == EXIT_CONFIG
        assert done.stdout == ""
        assert "--L-max" in done.stderr

    def test_closed_stdout_is_config_error_without_traceback(self):
        # every instance passes, but the reader leaves after one line; the
        # reports outgrow the pipe, so a later write finds it closed
        proc = subprocess.Popen([sys.executable, "-m", "qcap", "verify", "--all"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env())
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_CONFIG, err
        assert "Traceback" not in err
        assert "Exception ignored" not in err
        assert len(err.splitlines()) == 1

    def test_calls_in_one_process_print_what_fresh_processes_print(self, capsys):
        # the parser and the weighted tables that main keeps between calls,
        # across a usage error too, change no table
        calls = [("partitions", "counts", "--m", "2"),
                 ("partitions", "weighted", "--theorem", "W2"),
                 ("partitions", "counts", "--m", "1")]
        outputs = [run(capsys, *calls[0])]
        with pytest.raises(SystemExit) as exc:
            main(["partitions", "counts", "--m", "3"])
        assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()
        outputs += [run(capsys, *argv) for argv in calls[1:]]
        for argv, (code, out, err) in zip(calls, outputs):
            # bytes, so that the csv module's \r\n line ends are compared too
            done = subprocess.run([sys.executable, "-m", "qcap", *argv],
                                  capture_output=True, env=self.env())
            assert (code, out.encode(), err.encode()) == (
                done.returncode, done.stdout, done.stderr), argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_is_config_error_without_traceback(self, unbuffered):
        # buffered, the write fails at the flush; unbuffered, at the first write
        env = self.env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for argv in (("verify", "--case", "new_fin_cap_1"),
                     ("series", "rhs:new_fin_cap_1", "--L", "2"),
                     ("partitions", "counts", "--m", "1"),
                     ("partitions", "counts", "--m", "1", "--out", "/dev/full")):
            with open("/dev/full", "w") as full:
                done = subprocess.run([sys.executable, "-m", "qcap", *argv], stdout=full,
                                      stderr=subprocess.PIPE, text=True, env=env)
            assert done.returncode == EXIT_CONFIG, (argv, done.stderr)
            assert done.stderr.splitlines() == [
                f"cannot write the output: {os.strerror(errno.ENOSPC)}"], argv
