"""End-to-end checks of the command line front end.

Everything runs through main(argv) in-process so exit codes and the emitted
JSON/CSV can be asserted directly; one subprocess test confirms the module
entry point also works from a shell.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import ptcache.engine
from ptcache.cli import (
    EXIT_DECODE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_DEMANDS,
    MAX_LIBRARY_BYTES,
    main,
)
from ptcache.engine import VerifyResult


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- design


def test_design_reports_known_four_user_scheme(capsys):
    code, out, _ = run_cli(["design", "--thm", "2", "--K", "4", "--t", "2"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["design"] == "thm2-K4-t2"
    assert (report["K"], report["N"], report["M"], report["t"]) == (4, 4, 2, 2)
    assert report["F_PT"] == 4
    assert report["F_JCM"] == 12
    assert report["ratio"] == "1/3"
    assert report["rate"] == "1/1"
    assert report["grouping"] == [2, 2]
    assert report["tx_rules"] == {"2,1": [2]}
    assert report["excluded_types"] == ["2,0"]
    assert report["global_fs"] == {
        "subfile_types": ["2,0", "1,1"],
        "factors": [0, 1],
        "row_scales": [1],
    }


def test_design_out_file_matches_stdout_form(tmp_path, capsys):
    target = tmp_path / "plan.json"
    code, out, _ = run_cli(
        ["design", "--jcm", "--K", "4", "--t", "2", "--out", str(target)], capsys
    )
    assert code == EXIT_OK
    assert out == ""  # everything went to the file
    report = json.loads(target.read_text())
    assert report["F_PT"] == 12
    assert report["ratio"] == "1/1"
    # the file is the same sorted/indented form _emit prints
    assert target.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- analyze


def test_analyze_five_user_tables(capsys):
    code, out, _ = run_cli(["analyze", "--special", "k5_t3", "--K", "5"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["design"] == "k5-t3"
    assert report["grouping"] == [3, 2]
    assert report["subfile_types"] == [
        {"type": "3|0", "count": 1, "factor": 0},
        {"type": "2|1", "count": 6, "factor": 2},
        {"type": "1|2", "count": 3, "factor": 1},
    ]
    assert report["fs_table"] == {
        "2|2": ["star", 2, 1],
        "3|1": [0, 1, "star"],
    }
    assert report["row_scales"] == {"2|2": 1, "3|1": 2}
    assert report["mc_table"] == [[1, 4, 1], [0, 3, 3]]
    assert report["mc_ok"] is True
    assert report["excluded_types"] == ["3|0"]
    assert report["skipped_group_types"] == []
    assert report["F_PT"] == 15
    assert report["F_JCM"] == 30
    assert report["ratio"] == "1/2"
    assert report["jcm_rate"] == "2/3"


def test_analyze_custom_grouping_rules_file(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"2,1": [2]}))
    code, out, _ = run_cli(
        [
            "analyze",
            "--grouping",
            "2,2",
            "--K",
            "4",
            "--t",
            "2",
            "--rules",
            str(rules),
        ],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["design"] == "custom-K4-t2"
    assert report["F_PT"] == 4
    assert report["ratio"] == "1/3"


# ---------------------------------------------------------------- simulate


def test_simulate_staggered_nine_user_point(capsys):
    code, out, _ = run_cli(
        [
            "simulate",
            "--special",
            "tbar3",
            "--K",
            "9",
            "--N",
            "3",
            "--M",
            "2",
            "--demands",
            "3",
            "--seed",
            "7",
        ],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_decoded"] is True
    assert report["demands_checked"] == 3
    assert report["F_PT"] == 270
    assert report["t"] == 6
    assert report["rate"] == "1/2"
    assert report["message_count"] == 117
    # per-user cache is exactly M files' worth of bits
    assert report["cache_bits"] == 2 * 270 * 8
    assert report["total_bits"] == 1080


def test_simulate_explicit_demand_writes_transcript(tmp_path, capsys):
    transcript = tmp_path / "log.jsonl"
    code, out, _ = run_cli(
        [
            "simulate",
            "--thm",
            "2",
            "--K",
            "4",
            "--t",
            "2",
            "--N",
            "2",
            "--M",
            "1",
            "--demands",
            "1,2,2,1",
            "--transcript",
            str(transcript),
        ],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["demands_checked"] == 1
    assert report["all_decoded"] is True
    lines = transcript.read_text().splitlines()
    assert len(lines) == report["message_count"] == 4
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"group", "tx", "rx", "counter_snapshot", "payload_hex"}
        assert rec["tx"] not in rec["rx"]
        assert set(rec["rx"]) <= set(rec["group"])
        bytes.fromhex(rec["payload_hex"])  # must be valid hex


def test_simulate_all_demands_small_space(capsys):
    code, out, _ = run_cli(
        [
            "simulate",
            "--thm",
            "2",
            "--K",
            "4",
            "--t",
            "2",
            "--N",
            "2",
            "--M",
            "1",
            "--demands",
            "all",
        ],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["demands_checked"] == 2**4
    assert report["all_decoded"] is True


def test_simulate_same_seed_same_bytes(tmp_path, capsys):
    argv = [
        "simulate",
        "--special",
        "k5_t3",
        "--K",
        "5",
        "--demands",
        "2",
        "--seed",
        "11",
        "--bytes-per-packet",
        "3",
    ]
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, out, _ = run_cli(argv + ["--transcript", str(path)], capsys)
        assert code == EXIT_OK
        outs.append((out, path.read_bytes()))
    assert outs[0] == outs[1]

    other = tmp_path / "c.jsonl"
    code, out, _ = run_cli(
        argv[:-4] + ["--seed", "12", "--bytes-per-packet", "3",
                     "--transcript", str(other)],
        capsys,
    )
    assert code == EXIT_OK
    assert other.read_bytes() != outs[0][1]  # different seed, different payloads


@pytest.mark.parametrize(
    "argv,stdout_digest,transcript_digest",
    [
        # the simulate-thm2-k14 benchmark job with one fixed demand and seed
        (["simulate", "--thm", "2", "--K", "14", "--t", "6", "--N", "7", "--M", "3",
          "--bytes-per-packet", "16", "--demands", "3,1,4,1,5,2,6,5,3,5,7,2,7,1",
          "--seed", "2026"],
         "1a3f006dc419aa85635a33c7d6c39bae4e0c623aaf895eb7a2ff6016b133ee0a",
         "732f0adbd083a0a137560492e3894ac6e250d64719800361d84c55fd70fa0358"),
        (["simulate", "--special", "tbar3", "--K", "9", "--N", "3", "--M", "2",
          "--demands", "5", "--seed", "7"],
         "7ef10b5fd499ac1ab8ef9ebde2e0fa6bee8a9dbbe5bf883d9d078b7e23673bb6",
         "b29315f15b2f85a381a15086c3fc1908355c3a669c744ebe938c712bb14931cb"),
        (["simulate", "--thm", "2", "--K", "8", "--t", "4", "--bytes-per-packet", "3",
          "--demands", "3", "--seed", "1"],
         "b558892db5d3d6c03fb5bff84561ec832f7d302a0e9fd5e262ab83b82cb9359a",
         "89527b0fe86c0a65b3c2fe672fd6ebae7f8bfabf45bc490358e34c439884fbaf"),
        (["simulate", "--thm", "3", "--m", "3", "--q", "3", "--t", "2",
          "--demands", "2", "--seed", "3"],
         "6a75920755193e75cf9509a5221b1f6cc4c58292ab91edd78e95f7f885a69eec",
         "26b1c31d145fd77755212de860fde7e2eb0d619d8325cf8b85ece3683b1e0c6b"),
    ],
)
def test_simulate_bytes_are_pinned(argv, stdout_digest, transcript_digest,
                                   tmp_path, capsys):
    """The simulate report and the transcript of its last demand, byte for
    byte."""
    path = tmp_path / "log.jsonl"
    code, out, _ = run_cli(argv + ["--transcript", str(path)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == transcript_digest


def test_simulate_builds_messages_only_for_a_transcript(monkeypatch, tmp_path, capsys):
    """simulate decodes and measures the delivery's group records: without
    ``--transcript`` it creates no ``Message``; with it, it creates those of
    the transcript it writes, whose bytes stay pinned."""
    argv = ["simulate", "--thm", "2", "--K", "8", "--t", "4", "--bytes-per-packet",
            "3", "--demands", "3", "--seed", "1"]
    made = []
    real = ptcache.engine.Message

    def counting_message(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(ptcache.engine, "Message", counting_message)
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert made == []
    digest = "b558892db5d3d6c03fb5bff84561ec832f7d302a0e9fd5e262ab83b82cb9359a"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    path = tmp_path / "log.jsonl"
    code, out, _ = run_cli(argv + ["--transcript", str(path)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(made) == len(path.read_text().splitlines()) > 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "89527b0fe86c0a65b3c2fe672fd6ebae7f8bfabf45bc490358e34c439884fbaf"
    )


def test_simulate_decode_failure_exit_code(monkeypatch, capsys):
    def always_fail(session):
        return VerifyResult(ok=False, per_user={1: False}, missing={1: []})

    monkeypatch.setattr(ptcache.engine, "decode_and_verify", always_fail)
    code, out, _ = run_cli(
        ["simulate", "--thm", "2", "--K", "4", "--t", "2"], capsys
    )
    assert code == EXIT_DECODE
    assert json.loads(out)["all_decoded"] is False


# ---------------------------------------------------------------- search


@pytest.mark.parametrize(
    "K,t,names", [(12, 5, "7,662,320,328,116,431,759 candidates"), (60, 1, "K <= 16")]
)
def test_search_refuses_unbounded_work_before_it_starts(K, t, names, capsys):
    """(12,5) holds 7.7e18 candidates; laying out every grouping of K=60
    would take long before any count exists.  Both are refused at once."""
    start = time.perf_counter()
    code, out, err = run_cli(["search", "--K", str(K), "--t", str(t)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and names in err


def test_budget_admits_a_census_above_the_cap(capsys):
    code, out, _ = run_cli(["search", "--K", "10", "--t", "4", "--budget", "1000"], capsys)
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["partial"] is True and summary["explored"] == 1000


def test_search_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    code, out, _ = run_cli(
        ["search", "--K", "4", "--t", "2", "--out", str(out_csv)], capsys
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["explored"] == 17
    assert summary["feasible"] == 9
    assert summary["infeasible"] == {"mc": 8, "no_lcm": 0, "rate": 0}
    assert summary["partial"] is False
    assert summary["best"] == {
        "F_PT": 4,
        "grouping": [2, 2],
        "tx_rules": {"2,1": [2]},
    }

    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "K", "t", "grouping", "tx_rules", "F_PT", "F_JCM", "ratio",
        "feasible", "reason",
    ]
    body = rows[1:]
    assert len(body) == 17
    feasible = [r for r in body if r[7] == "True"]
    assert len(feasible) == 9
    best_rows = [r for r in feasible if r[4] == "4"]
    assert best_rows and best_rows[0][2] == "2,2"
    for r in body:
        if r[7] == "True":
            assert Fraction(r[6]) == Fraction(int(r[4]), int(r[5]))
        else:
            assert r[8] in ("mc", "no_lcm", "rate")


@pytest.mark.parametrize(
    "argv,csv_out,digest",
    [
        (["search", "--K", "6", "--t", "3"], True,
         "e19e047894166d151017ee2fad23e6f7da0e061e0b81ee8ae685dd82eaa71ee8"),
        (["search", "--K", "6", "--t", "3", "--budget", "908"], True,
         "7d0e3f933047f0a5ef0ab6cf00eb105126573689fb28ba6e992836e16179f6ec"),
        (["search", "--K", "7", "--t", "4"], False,
         "1c801dec76c2c2236776e30febbe9da0fbcf6d6ac1feb8d6e470c471c6a9a4dd"),
        (["design", "--thm", "1", "--K", "8", "--tbar", "4", "--variant",
          "fallback"], False,
         "3e09d93ce0ce9bec2c6c5bee111d978c2e4cd5c58c60b5f3ec15fad08c0c9240"),
        (["design", "--special", "k5_t3", "--K", "5"], False,
         "b5ef76ce0239e00b4152c3925dc711fbc17c3daf8f6205b2b34adb62ad8885e8"),
    ],
)
def test_records_and_rules_json_bytes_are_pinned(argv, csv_out, digest, tmp_path,
                                                 capsys):
    """Census CSVs (the 908 budget ends inside a subtree the LCM check cut),
    and the rules JSON of a search's best scheme and of designs, byte for
    byte."""
    path = tmp_path / "census.csv"
    code, out, _ = run_cli(argv + (["--out", str(path)] if csv_out else []), capsys)
    assert code == EXIT_OK
    if "--budget" in argv:
        assert json.loads(out)["partial"] is True
    data = path.read_bytes() if csv_out else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of `search --K K --t t` stdout for every census with K <= 7, and
# for (8,4) (about 1 s), so the search's leaves are pinned above K = 7 too
SEARCH_STDOUT = {
    (2, 1): "715462eabb1f04e5effd551111725abff9ab285862440d93151d93a94f7244c3",
    (3, 1): "da4848151027ec5d1cbf758213c415fd59153ea4013e877d891a4af171ca3926",
    (3, 2): "dc723c468de4bc99fbfa3d34affcad175fe6a002d5baed70c55c4a433cd29442",
    (4, 1): "990ea75b2d6d792433805eaa571cf508773d11c3fc36be284ae618b330a40047",
    (4, 2): "f72b0ce0e4f6fd427c8dd08543fa67ae2939c123d6fe8e790848dbfce26d5c79",
    (4, 3): "2d0ef4af7da98761b8ccf00e1ce43fd55c8d647e1665fd9928d8aa7347b8896f",
    (5, 1): "cfaa1bf1110a1ec3ee7e8878fa55bb7b146cbde56d21fee3742be4cb9377069a",
    (5, 2): "c7fa6adbfc4aa8d07b80b8b2d0772f6b655f141e726d27ee9a60249f460a2da3",
    (5, 3): "90325a19209b318d0b9ec0884ead446bce89ae0ad0b1f12d38fd817a6072c38f",
    (5, 4): "c57756ebbf0b467a9a6a54370d5820dfcae5195f8c22caae0270ed688c7e270e",
    (6, 1): "45f99369067d4fd89d87177da5cdf2fdff4db3fa8e4ecfd803e6b6677fdeba1a",
    (6, 2): "7363c21bd784ad9a7794ad5cc6d6740e33bb0bbe06dbfef2f87fe2143493c5a7",
    (6, 3): "44add74708d94d9a132a0d8ec1d9c5cb2ed047a6410d8e179fa71f3f3b1e12f1",
    (6, 4): "be68d600209bd80a6695f7a19013b9f1d7d849a428f6387fffd137b496a21fab",
    (6, 5): "601777ef4aca6018963772d676425abe34bafda1b61ab8be5aeea1ba9f729c85",
    (7, 1): "8e82fcbd73ebec685ec7870cfb376d2070639cb2119fb2a6b68cc168d284724e",
    (7, 2): "e9513ff0173f0caac5f17ead84aa8d80216d280403358a06f968c06015afb4b4",
    (7, 3): "301c51c1304e7e6d043944ce322facace11a52b97109827a27f35cc318aaf11a",
    (7, 4): "1c801dec76c2c2236776e30febbe9da0fbcf6d6ac1feb8d6e470c471c6a9a4dd",
    (7, 5): "205c950fc45ffcc0e5739b83cde4388475ad467329ced04f78a81661308d59ee",
    (7, 6): "460357635807ed422e5ecb24ae79f1189ba677d5b9757c821e99995dd27d5514",
    (8, 4): "b7669cd43c3fae104607711468b4dbc7b51e3bf144bbbee19a29488e2cbdd7dd",
}


@pytest.mark.parametrize("K,t", sorted(SEARCH_STDOUT))
def test_census_summaries_are_pinned(K, t, capsys):
    """Counts, feasible total and the best scheme of every small census,
    byte for byte, whatever order the search walks its candidates in."""
    code, out, _ = run_cli(["search", "--K", str(K), "--t", str(t)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_STDOUT[(K, t)]


# ---------------------------------------------------------------- sweep


def test_sweep_pair_group_curve_to_stdout(capsys):
    code, out, err = run_cli(
        ["sweep", "--family", "thm1", "--K", "4..12", "--tbar", "2"], capsys
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "label", "K", "F_PT", "F_JCM", "ratio", "bound"]
    assert [r[2] for r in rows[1:]] == ["4", "6", "8", "10", "12"]
    for r in rows[1:]:
        K = int(r[2])
        assert Fraction(r[5]) == Fraction(1, K - 1)
        assert Fraction(r[6]) == Fraction(1, K - 2)
    # odd K land in stderr notes, not the table
    for K in (5, 7, 9, 11):
        assert f"skipped K={K}" in err


def test_sweep_csv_bytes_are_pinned(capsys):
    """The thm1 sweep to K=100, byte for byte (97 lines)."""
    code, out, _ = run_cli(
        ["sweep", "--family", "thm1", "--tbar", "2,4", "--K", "4..100"], capsys
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 97
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "749584c13d3b68f7479d1b94cb37838363f009162ce3a5655ac4f405d587b709"
    )


def test_sweep_out_file_with_summary(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        ["sweep", "--family", "thm1", "--K", "4..8", "--tbar", "4",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary == {
        "schema_version": "1",
        "family": "thm1",
        "rows": 1,
        "skipped": 4,
        "out": str(out_csv),
    }
    rows = list(csv.reader(open(out_csv, newline="")))
    assert len(rows) == 2
    assert rows[1] == ["thm1", "t_bar=4", "8", "144", "280", "18/35", "3/4"]
    assert err.count("note: skipped") == 4


# ---------------------------------------------------------------- failures


def test_inconsistent_rules_exit_infeasible(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"3|0": [1], "2|1": [1]}))
    code, _, err = run_cli(
        ["design", "--grouping", "3,1", "--K", "4", "--t", "2",
         "--rules", str(rules)],
        capsys,
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible (mc)" in err
    assert "unequal amounts" in err


def test_ratio_cycle_exit_infeasible(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"2,1|0": [1], "1,1|1": [1], "2,0|1": [1]}))
    code, _, err = run_cli(
        ["analyze", "--grouping", "2,2,1", "--K", "5", "--t", "2",
         "--rules", str(rules)],
        capsys,
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible (lcm)" in err


@pytest.mark.parametrize(
    "sizes,K,t,rules,message",
    [
        ("2,2", 4, 1, {"1,1": [1], "2,0": "skip"},
         "infeasible (skip): group type 2,0 is marked skip but involves live "
         "subfile type(s) ['1,0']"),
        ("3,1", 4, 2, {"3|0": [1], "2|1": [1]},
         "infeasible (mc): user classes 1 and 2 would cache unequal amounts "
         "(5 vs 3 weighted subsets)"),
        ("2,2,1", 5, 2, {"2,1|0": [1], "1,1|1": [1], "2,0|1": [1]},
         "infeasible (lcm): no consistent global split factors: column 2: "
         "rows 1 and 2 need incompatible scales"),
        ("2,2,1", 5, 2, {"2,1|0": [2], "1,1|1": [1, 2], "2,0|1": [1]},
         "infeasible (rate): group type 2,0|1: transmissions would reach "
         "receivers with nothing to decode (excluded desired type(s) "
         "['2,0|0']); such members must transmit alone"),
    ],
)
def test_infeasible_stage_messages_are_pinned(tmp_path, capsys, sizes, K, t, rules,
                                              message):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    for command in ("analyze", "design"):
        code, out, err = run_cli(
            [command, "--grouping", sizes, "--K", str(K), "--t", str(t),
             "--rules", str(path)],
            capsys,
        )
        assert (code, out, err) == (EXIT_INFEASIBLE, "", message + "\n")


def test_all_skip_rules_rejected_as_usage(tmp_path, capsys):
    # skipping every group type is a malformed rule set, not a near-miss design
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"2,1": "skip"}))
    code, _, err = run_cli(
        ["design", "--grouping", "2,2", "--K", "4", "--t", "2",
         "--rules", str(rules)],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "marked skip" in err


def test_valid_skip_matches_the_selection_it_replaces(tmp_path, capsys):
    """t3_halfsplit at K=8 excludes every subfile type its group type 4,0
    involves.  Marking 4,0 "skip" rather than selecting [1] keeps F_PT, the
    global factors, the simulate report and the transcript, and drops only
    the 4,0 row from the analyze table."""
    seen = {}
    for name, sel in (("skip", "skip"), ("select", [1])):
        rules = tmp_path / f"{name}.json"
        rules.write_text(json.dumps({"4,0": sel, "3,1": [2], "2,2": [1]}))
        design = ["--grouping", "4,4", "--K", "8", "--t", "3", "--rules", str(rules)]
        code, analyzed, _ = run_cli(["analyze", *design], capsys)
        assert code == EXIT_OK
        transcript = tmp_path / f"{name}.jsonl"
        code, simulated, _ = run_cli(
            ["simulate", *design, "--demands", "3", "--seed", "5",
             "--transcript", str(transcript)],
            capsys,
        )
        assert code == EXIT_OK
        seen[name] = json.loads(analyzed), simulated, transcript.read_bytes()
    skip, select = seen["skip"], seen["select"]
    assert skip[0]["F_PT"] == select[0]["F_PT"] == 144
    assert skip[0]["subfile_types"] == select[0]["subfile_types"]
    assert skip[0]["skipped_group_types"] == select[0]["skipped_group_types"] == ["4,0"]
    assert skip[1:] == select[1:]
    table = dict(select[0]["fs_table"])
    del table["4,0"]
    assert skip[0]["fs_table"] == table


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["design"],
        ["design", "--thm", "2", "--K", "4", "--t", "2", "--jcm"],
        ["design", "--thm", "1", "--K", "8"],
        ["design", "--thm", "2", "--K", "9", "--t", "3"],
        ["design", "--thm", "4", "--K", "8", "--t", "2"],
        ["design", "--grouping", "2,2", "--K", "4", "--t", "2"],
        ["design", "--grouping", "2,2", "--K", "4", "--t", "2",
         "--rules", "/no/such/file.json"],
        ["design", "--jcm", "--K", "4", "--t", "2", "--N", "5"],
        ["simulate", "--jcm", "--K", "4", "--t", "2", "--N", "5", "--M", "2"],
        ["simulate", "--jcm", "--K", "4", "--t", "2", "--demands", "junk"],
        ["simulate", "--jcm", "--K", "4", "--t", "2", "--demands", "1,2"],
        ["simulate", "--jcm", "--K", "4", "--t", "2", "--bytes-per-packet", "0"],
        ["simulate", "--dpda", "t2", "--K", "8", "--demands", "all"],
        ["search", "--K", "4"],
        ["sweep", "--family", "thm1", "--K", "4..8"],
        ["sweep", "--family", "thm2", "--K", "8,10", "--t", "5"],
        ["frobnicate"],
    ],
)
def test_bad_arguments_exit_usage(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == EXIT_USAGE


# analyses whose type enumeration would overflow the recursion limit
ANALYZE_ABOVE_CAP = [
    ["analyze", "--special", "tbar3", "--K", "3000"],
    ["analyze", "--thm", "1", "--K", "1998", "--tbar", "2"],
]


@pytest.mark.parametrize(
    "argv,rules",
    [
        (["search", "--K", "4", "--t", "2", "--budget", "0"], None),
        (["search", "--K", "4", "--t", "2", "--budget", "-5"], None),
        (["design", "--grouping", "2,2", "--K", "4", "--t", "2"], [1, 2]),
        (["design", "--grouping", "2,2", "--K", "4", "--t", "2"], {"2|0": 1}),
        (["analyze", "--grouping", "2,2", "--K", "4", "--t", "2"], {"2,x": [1]}),
        (["sweep", "--family", "thm1", "--tbar", "2", "--K", "10..4"], None),
        (["sweep", "--family", "thm1", "--tbar", "2", "--K", "4..1000000000"], None),
        (["simulate", "--jcm", "--K", "4", "--t", "2", "--demands", "0"], None),
        (["simulate", "--jcm", "--K", "4", "--t", "2", "--demands", "-3"], None),
        (["design", "--jcm", "--K", "4", "--t", "2", "--N", "0", "--M", "0"], None),
        (["simulate", "--jcm", "--K", "4", "--t", "2", "--N", "0", "--M", "1"], None),
        (["sweep", "--family", "thm3", "--m", "0", "--t", "2", "--K", "6"], None),
        (["sweep", "--family", "thm3", "--m", "-3", "--t", "2", "--K", "6"], None),
        # parameters that no K admits: an error, not a header-only CSV
        (["sweep", "--family", "thm1", "--tbar", "3", "--K", "4..20"], None),
        (["sweep", "--family", "thm1", "--tbar", "0", "--K", "4..20"], None),
        (["sweep", "--family", "thm1", "--tbar", "-2", "--K", "4..20"], None),
        (["sweep", "--family", "thm1", "--tbar", "2,3", "--K", "4..20"], None),
        (["sweep", "--family", "thm2", "--t", "0", "--K", "4..20"], None),
        (["sweep", "--family", "thm3", "--m", "2", "--t", "1", "--K", "4..20"], None),
        (["sweep", "--family", "thm3", "--m", "2", "--t", "2", "--K", "4..20"], None),
        (["search", "--K", "4", "--t", "2", "--budget", str(2**63)], None),
        # rule sets the pipeline refuses before any stage runs
        (["design", "--grouping", "2,2", "--K", "4", "--t", "2"], {}),
        (["design", "--grouping", "2,2", "--K", "4", "--t", "2"], {"2,1": "skip"}),
        (["design", "--grouping", "2,2", "--K", "4", "--t", "2"], {"2,1": [7]}),
        # an analysis above the K cap, refused before its design is built
        (ANALYZE_ABOVE_CAP[0], None),
        (ANALYZE_ABOVE_CAP[1], None),
    ],
)
def test_malformed_input_is_a_usage_error(argv, rules, tmp_path, capsys):
    if rules is not None:
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        argv = argv + ["--rules", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


# Cheap commands for the fuzz test below: every number is small, so no
# mutation of them can start a large search, sweep or simulation.
FUZZ_BASES = [
    ["design", "--thm", "2", "--K", "4", "--t", "2"],
    ["analyze", "--jcm", "--K", "4", "--t", "2"],
    ["simulate", "--jcm", "--K", "4", "--t", "2", "--demands", "1"],
    ["search", "--K", "4", "--t", "2", "--budget", "5"],
    ["sweep", "--family", "thm1", "--tbar", "2", "--K", "4..6"],
    ["design", "--grouping", "2,2", "--K", "4", "--t", "2", "--rules", "RULES"],
]
FUZZ_TOKENS = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(
        ["--t", "--N", "--M", "--tbar", "--m", "--q", "--thm", "--grouping",
         "--demands", "--family", "--variant", "--special", "--dpda", "--jcm",
         "--seed", "--bytes-per-packet", "--budget", "--", "thm1", "thm3",
         "2,2", "1,2,1", "4..", "..", ",", "skip", "design", "search"]
    ),
    st.text(alphabet="-,.|:xyz ", max_size=5),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["2,1", "2,0", "1,1", "2|1", "x", ""]), inner, max_size=3
    ),
    max_leaves=6,
)


@st.composite
def malformed_argv(draw):
    argv = list(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        op = draw(st.sampled_from(["delete", "replace", "insert"]))
        if op == "insert" or i == len(argv):
            argv.insert(i, draw(FUZZ_TOKENS))
        elif op == "replace":
            argv[i] = draw(FUZZ_TOKENS)
        else:
            del argv[i]
    return argv


def check_exit_contract(argv, rules):
    """Run ``argv`` with ``rules`` written to the file named RULES: the exit
    code is a documented one, nothing raises, and exit 4 says ``error: ``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/rules.json"
        with open(path, "w") as fh:
            json.dump(rules, fh)
        argv = [path if a == "RULES" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's --help
                code = e.code
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_DECODE, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: "), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(argv=malformed_argv())
def test_malformed_argv_keeps_the_exit_code_contract(argv):
    check_exit_contract(argv, {"2,1": [2]})


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["design", "analyze", "simulate"]), rules=JSON_VALUES
)
def test_malformed_rules_keep_the_exit_code_contract(command, rules):
    check_exit_contract(
        [command, "--grouping", "2,2", "--K", "4", "--t", "2", "--rules", "RULES"],
        rules,
    )


class _DrewFiles(Exception):
    """Raised by a patched randbytes: the simulation started drawing files."""


def _refuse_randbytes(self, n):
    raise _DrewFiles(n)


# the jcm K=4, t=2 library: 4 files of 12 packets, 48 bytes a packet byte
JCM_4_2_LIBRARY = 4 * 12


@settings(max_examples=60, deadline=None)
@given(
    bytes_per_packet=st.one_of(
        st.just(1),
        st.integers(MAX_LIBRARY_BYTES // JCM_4_2_LIBRARY + 1, 10**40),
    ),
    demands=st.one_of(st.just(1), st.integers(MAX_DEMANDS + 1, 10**40)),
)
def test_simulate_refuses_oversized_work_before_drawing_files(
    bytes_per_packet, demands
):
    """A library above MAX_LIBRARY_BYTES or a demand count above MAX_DEMANDS
    exits 4 before a single file byte is drawn."""
    assume(bytes_per_packet > 1 or demands > 1)
    argv = ["simulate", "--jcm", "--K", "4", "--t", "2",
            "--bytes-per-packet", str(bytes_per_packet), "--demands", str(demands)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(random.Random, "randbytes", _refuse_randbytes), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")


def test_simulate_library_cap_is_inclusive(capsys):
    """Both caps are inclusive: at the largest library and demand count
    they admit, the simulation goes on to draw its files."""
    B = MAX_LIBRARY_BYTES // JCM_4_2_LIBRARY
    base = ["simulate", "--jcm", "--K", "4", "--t", "2"]
    with mock.patch.object(random.Random, "randbytes", _refuse_randbytes):
        with pytest.raises(_DrewFiles):
            main(base + ["--bytes-per-packet", str(B)])
        assert main(base + ["--bytes-per-packet", str(B + 1)]) == EXIT_USAGE
        with pytest.raises(_DrewFiles):
            main(base + ["--demands", str(MAX_DEMANDS)])
    capsys.readouterr()


class _Walked(Exception):
    """Raised by a patched ``subsets``: the packet map or the schedule
    started walking subsets."""


def _refuse_walk(n, k):
    raise _Walked(n, k)


THM2_K14 = ["simulate", "--thm", "2", "--K", "14", "--t", "6", "--N", "7", "--M", "3"]


@pytest.mark.parametrize(
    "argv,names",
    [
        (["simulate", "--thm", "2", "--K", "30", "--t", "6",
          "--bytes-per-packet", "100000000000"], "C(30, 6) t-subsets"),
        (THM2_K14 + ["--bytes-per-packet", "100000000000"], "6909 packets"),
        (THM2_K14 + ["--demands", str(MAX_DEMANDS + 1)], "demand vectors"),
        (["design", "--thm", "2", "--K", "60", "--t", "10"], "C(60, 10) t-subsets"),
        (["design", "--jcm", "--K", "20", "--t", "8"], "C(20, 9) groups"),
    ],
)
def test_caps_are_checked_before_any_subset_is_walked(argv, names, capsys):
    """The subset, library and demand caps take F_PT from the analysis and
    refuse before the packet map or the schedule walks a single subset."""
    with mock.patch.object(ptcache.engine, "subsets", _refuse_walk), \
            mock.patch.object(random.Random, "randbytes", _refuse_randbytes):
        code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and names in err, err


def test_simulate_analyzes_the_rules_once(monkeypatch, capsys):
    """The plan reuses the analysis the library cap read F_PT from."""
    calls = []
    analyze = ptcache.engine.analyze_rules

    def counting(*args):
        calls.append(args)
        return analyze(*args)

    monkeypatch.setattr(ptcache.engine, "analyze_rules", counting)
    code, out, _ = run_cli(THM2_K14, capsys)
    assert code == EXIT_OK and json.loads(out)["all_decoded"] is True
    assert len(calls) == 1


def test_subset_cap_is_inclusive(capsys):
    """At K=20 the cap of 2^17 = 131,072 admits t=7, with C(20, 8) = 125,970
    groups, and refuses t=8, with C(20, 9) = 167,960."""
    assert ptcache.engine.MAX_SUBSETS == 2**17
    with mock.patch.object(ptcache.engine, "subsets", _refuse_walk):
        with pytest.raises(_Walked):
            main(["design", "--jcm", "--K", "20", "--t", "7"])
        with pytest.raises(_Walked):
            main(["design", "--jcm", "--K", "20", "--t", "12"])  # C(20, 12) t-subsets
        assert main(["design", "--jcm", "--K", "20", "--t", "8"]) == EXIT_USAGE
        assert main(["design", "--jcm", "--K", "20", "--t", "11"]) == EXIT_USAGE
    capsys.readouterr()


BIG = st.one_of(st.integers(-2, 40), st.integers(41, 10**6), st.integers(10**6, 10**40))


@st.composite
def large_plan_argv(draw):
    """design or simulate argv naming plans of any size, up to K = 10^40."""
    argv = [draw(st.sampled_from(["design", "simulate"]))]
    selector = draw(st.sampled_from(["thm1", "thm2", "thm3", "jcm", "special", "dpda"]))
    K, t = draw(BIG), draw(BIG)
    if selector == "thm1":
        argv += ["--thm", "1", "--K", str(K), "--tbar", str(t)]
    elif selector == "thm2":
        argv += ["--thm", "2", "--K", str(K), "--t", str(t)]
    elif selector == "thm3":
        argv += ["--thm", "3", "--m", str(K), "--q", str(draw(BIG)), "--t", str(t)]
    elif selector == "jcm":
        argv += ["--jcm", "--K", str(K), "--t", str(t)]
    elif selector == "special":
        kind = draw(st.sampled_from(["tbar3", "lemma2", "t3_halfsplit", "odd_k_tbar2"]))
        argv += ["--special", kind, "--K", str(K), "--q", str(t)]
    else:
        argv += ["--dpda", draw(st.sampled_from(["t2", "t-km2"])), "--K", str(K)]
    if draw(st.booleans()):
        argv += ["--N", str(draw(BIG)), "--M", str(draw(BIG))]
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=large_plan_argv())
def test_large_plans_are_refused_before_the_work_starts(argv):
    """Plans of any size keep the exit-code contract; a plan above the
    subset cap is refused before its design is built or a subset walked, so
    only plans within the cap ever reach the walk."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(ptcache.engine, "subsets", _refuse_walk), \
            mock.patch.object(random.Random, "randbytes", _refuse_randbytes), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except _Walked as walk:  # the packet map's walk, of C(K, t) t-subsets
            K, t = walk.args
            assert math.comb(K, t) <= ptcache.engine.MAX_SUBSETS
            assert math.comb(K, t + 1) <= ptcache.engine.MAX_SUBSETS
            return
    assert code in (EXIT_INFEASIBLE, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: "), err.getvalue()


# thm3(31, 31, 30): a split-factor table of 6,842 group types x 5,604
# subfile types, above MAX_TABLE_ENTRIES
TABLE_ABOVE_CAP = ["analyze", "--thm", "3", "--m", "31", "--q", "31", "--t", "30"]


class _RowBuilt(Exception):
    """Raised by a patched ``SchemeLayout.row``, ``mgroup_structure`` or
    ``per_user_count``: a table row, a group type's structure or a row of
    the memory-check table was built."""


def _refuse_row(*args):
    raise _RowBuilt(*args)


def test_table_cap_refuses_before_any_row_is_built(capsys):
    """The table cap is checked once the types are enumerated, before any
    group type's structure, memory-check entry or split-factor row is
    built: the analysis exits 4 in a few seconds with nothing on stdout
    (42 s and 539 MB without it), and a sweep notes the K it skips."""
    assert ptcache.engine.MAX_TABLE_ENTRIES == 2**20
    start = time.perf_counter()
    with mock.patch.object(ptcache.engine.SchemeLayout, "row", _refuse_row), \
            mock.patch.object(ptcache.engine, "mgroup_structure", _refuse_row), \
            mock.patch.object(ptcache.engine, "per_user_count", _refuse_row):
        code, out, err = run_cli(TABLE_ABOVE_CAP, capsys)
        assert time.perf_counter() - start < 20
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "38,342,568 entries" in err, err
        code, out, err = run_cli(
            ["sweep", "--family", "thm3", "--m", "31", "--t", "30", "--K", "961"],
            capsys,
        )
    assert code == EXIT_OK
    assert out.splitlines() == ["family,label,K,F_PT,F_JCM,ratio,bound"]
    assert err.startswith("note: skipped K=961: ") and "the cap is" in err, err


@pytest.mark.parametrize("argv", ANALYZE_ABOVE_CAP + [TABLE_ABOVE_CAP])
def test_analyze_above_the_cap_is_a_usage_error_in_optimized_mode(argv):
    """The caps are no asserts: ``python -O`` refuses the same analyses."""
    src = os.path.dirname(os.path.dirname(ptcache.engine.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ptcache.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_analyze_of_a_thousand_singletons_keeps_the_exit_code_contract(
    flags, tmp_path
):
    """1,000 one-user groups at t = 999 have partitions of 1,000 ones; with
    rules that miss their group type, ``analyze`` exits 4 with no traceback,
    under ``python -O`` too."""
    rules = tmp_path / "rules.json"
    rules.write_text("{}")
    src = os.path.dirname(os.path.dirname(ptcache.engine.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "ptcache.cli", "analyze", "--grouping",
         ",".join(["1"] * 1000), "--K", "1000", "--t", "999", "--rules", str(rules)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("error: transmitter rules must cover"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ptcache.cli", "design", "--jcm", "--K", "4",
         "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["F_PT"] == 12
    assert report["grouping"] == [4]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
