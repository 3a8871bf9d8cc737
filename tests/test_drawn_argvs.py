"""Drawn command lines under a memory limit: every run keeps the exit-code
contract.

One child interpreter caps its address space with ``RLIMIT_AS`` and runs
every argv of a fixed-seed draw through ``ptcache.cli.main`` in-process,
over all five subcommands.  The draws mix small, boundary and huge ints,
malformed numbers, groupings of many equal groups, malformed and deeply
nested rules files, ``--out`` targets that can and cannot be written, and
``sweep --K=<negative>..N`` ranges.  Each run must end with exit 0, 2, 3 or
4 within a few seconds and print no traceback.  Admitted inputs are drawn
small: the caps admit runs of up to a minute, such as the (9, 4) census,
and this test bounds refusals, not admitted work.
"""

import json
import os
import random
import subprocess
import sys

import ptcache
from ptcache.designs import DPDA_MODES, SPECIAL_KINDS
from ptcache.typevec import enumerate_types, make_grouping, unique_set_names

SEED = 28
RUNS = 1200
ADDRESS_SPACE = 1 << 30  # bytes the child may map
PER_RUN_S = 5
WALL_S = 600

# Reads a JSON list of argvs from the file named by argv[2]; prints one JSON
# line per run: [exit code or None if main raised, seconds, stderr tail,
# whether stderr holds a traceback].
CHILD = r"""
import contextlib, io, json, resource, sys, time, traceback
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from ptcache.cli import main
with open(sys.argv[2]) as fh:
    argvs = json.load(fh)
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's --help
            code = e.code
        except Exception:
            code = None
            traceback.print_exc()
    text = err.getvalue()
    del out, err
    print(json.dumps([code, time.perf_counter() - start, text[-300:],
                      "Traceback" in text]), flush=True)
"""

SMALL_GROUPINGS = ((2, 2), (3,), (2, 1), (1, 1, 1), (2, 2, 2), (3, 1), (2, 1, 1))
HUGE = (2**31, 2**63 - 1, 2**63, 10**30)
MALFORMED = ("", "x", "1.5", "1e3", "0x10", " 3", "+2", "--", "2,2", "..", "-")


def number(rnd, lo, hi):
    """Mostly an int in lo..hi; else a boundary, a huge or a malformed one."""
    r = rnd.random()
    if r < 0.85:
        return str(rnd.randint(lo, hi))
    if r < 0.95:
        edges = (lo - 1, lo, hi, hi + 1, 0, -1) + HUGE + tuple(-h for h in HUGE)
        return str(rnd.choice(edges))
    return rnd.choice(MALFORMED)


def numbers(rnd, lo, hi):
    return ",".join(number(rnd, lo, hi) for _ in range(rnd.randint(1, 3)))


def nested(rnd, depth):
    """A JSON value nested ``depth`` deep."""
    left, right = rnd.choice([("[", "]"), ('{"2,1": ', "}")])
    return left * depth + rnd.choice(["1", "[1]", '"skip"', "null"]) + right * depth


def rules_file(rnd, tmp, i, sizes, t):
    """A rules file path: rules for every group type of (sizes, t), other
    valid, malformed or deeply nested JSON, or a path that is no readable
    file."""
    kind = rnd.randrange(8)
    if kind == 0:
        return os.path.join(tmp, "missing.json")
    if kind == 1:
        return tmp  # a directory
    if kind == 2:
        text = nested(rnd, rnd.choice([10, 100, 1000, 10**5]))
    elif kind == 3:
        text = rnd.choice(["", "{", "[]", "null", "7", '"x"', "\x00\xff", "{}" * 3])
    elif kind >= 5 and sizes in SMALL_GROUPINGS and 1 <= int(t) < sum(sizes):
        g = make_grouping(sum(sizes), sizes)
        text = json.dumps({
            gt.text(): rnd.choice([[1], [len(unique_set_names(gt))], "skip", [1, 2]])
            for gt, _ in enumerate_types(g, int(t) + 1)
        })
    else:
        keys = ["2,1", "2,0", "1,1", "2|1", "1|1", "1,1,1", "x", "", "2,2"]
        values = [[1], [2], [1, 2], [0], [7], [], "skip", None, 1, "x", [[1]]]
        text = json.dumps(
            {rnd.choice(keys): rnd.choice(values) for _ in range(rnd.randint(0, 4))}
        )
    path = os.path.join(tmp, f"rules{i}.json")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def out_target(rnd, tmp, i):
    return rnd.choice(
        [os.path.join(tmp, f"out{i}"), tmp, os.path.join(tmp, "no-dir", "out")]
    )


def grouping(rnd):
    """Group sizes: a few small ones, or many equal groups."""
    r = rnd.random()
    if r < 0.3:
        return ",".join(map(str, rnd.choice(SMALL_GROUPINGS)))
    if r < 0.6:
        return numbers(rnd, 1, 4)
    size = rnd.choice(["1", "2", "3", "10", number(rnd, 1, 10)])
    return ",".join([size] * rnd.choice([2, 10, 100, 500, 1000]))


def selector(rnd, tmp, i, K_top):
    kind = rnd.randrange(7)
    if kind == 0:
        return ["--thm", "1", "--K", number(rnd, 2, K_top), "--tbar",
                number(rnd, 2, 8)] + rnd.choice(
            [[], ["--variant", rnd.choice(["orderwise", "fallback", "x"])]])
    if kind == 1:
        return ["--thm", "2", "--K", number(rnd, 2, K_top), "--t", number(rnd, 1, 6)]
    if kind == 2:
        top = 5 if K_top > 10 else 3  # simulating thm3(5, 5, 4) takes seconds
        return ["--thm", "3", "--m", number(rnd, 2, top), "--q", number(rnd, 2, top),
                "--t", number(rnd, 1, top - 1)]
    if kind == 3:
        return ["--special", rnd.choice(SPECIAL_KINDS), "--K",
                number(rnd, 2, K_top)] + rnd.choice([[], ["--q", number(rnd, 2, 4)]])
    if kind == 4:
        mode = rnd.choice(DPDA_MODES).replace("_", "-")
        return ["--dpda", mode, "--K", number(rnd, 2, K_top)]
    if kind == 5:
        return ["--jcm", "--K", number(rnd, 2, min(K_top, 8)), "--t", number(rnd, 1, 7)]
    text = grouping(rnd)
    sizes = tuple(int(s) for s in text.split(",") if s.lstrip("-").isdigit())
    K = str(sum(sizes)) if rnd.random() < 0.8 else number(rnd, 1, 12)
    t = rnd.choice([number(rnd, 1, 3), number(rnd, 1, 3), str(sum(sizes) - 1), "100"])
    return ["--grouping", text, "--K", K, "--t", t,
            "--rules", rules_file(rnd, tmp, i, sizes, t)]


def draw(rnd, tmp, i):
    """One argv of the draw."""
    command = rnd.choice(["design", "analyze", "simulate", "search", "sweep"])
    if command in ("design", "analyze"):
        argv = [command] + selector(rnd, tmp, i, 40)
        if command == "design" and rnd.random() < 0.3:
            argv += ["--N", number(rnd, 1, 8), "--M", number(rnd, 0, 8)]
    elif command == "simulate":
        # K <= 5: --demands all checks up to K^K demands, 46,656 at K = 6
        argv = ["simulate"] + selector(rnd, tmp, i, 4)
        argv += ["--demands", rnd.choice(["all", number(rnd, 1, 3)]),
                 "--bytes-per-packet", number(rnd, 1, 4), "--seed", number(rnd, 0, 9)]
    elif command == "search":
        argv = ["search", "--K", number(rnd, 2, 7), "--t", number(rnd, 1, 6)]
        if rnd.random() < 0.5:
            argv += ["--budget", number(rnd, 1, 2000)]
    else:
        family = rnd.choice(["thm1", "thm2", "thm3"])
        ends = rnd.randrange(4)
        if ends == 0:
            K = f"--K={rnd.choice([-1, -5, -10**5, -10**8, -10**30])}..{number(rnd, 1, 40)}"
        elif ends == 1:
            K = f"--K={number(rnd, 1, 40)}..{number(rnd, 1, 60)}"
        else:
            K = f"--K={numbers(rnd, 1, 60)}"
        flags = {"thm1": ["--tbar", numbers(rnd, 2, 8)],
                 "thm2": ["--t", numbers(rnd, 2, 8)],
                 "thm3": ["--m", number(rnd, 2, 6), "--t", numbers(rnd, 2, 4)]}
        argv = ["sweep", "--family", family, K] + flags[family]
    if command != "design" and rnd.random() < 0.3:
        argv += ["--out", out_target(rnd, tmp, i)]
    r = rnd.random()  # now and then drop, repeat or add a token
    if r < 0.05:
        del argv[rnd.randrange(1, len(argv))]
    elif r < 0.08:
        argv.append(rnd.choice(argv[1:]))
    elif r < 0.1:
        argv.insert(rnd.randrange(len(argv) + 1), rnd.choice(["--help", "-x", "--K"]))
    return argv


def test_drawn_argvs_keep_the_exit_code_contract(tmp_path):
    rnd = random.Random(SEED)
    argvs = [draw(rnd, str(tmp_path), i) for i in range(RUNS)]
    assert {"design", "analyze", "simulate", "search", "sweep"} <= {a[0] for a in argvs}
    path = tmp_path / "argvs.json"
    path.write_text(json.dumps(argvs))
    src = os.path.dirname(os.path.dirname(ptcache.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(ADDRESS_SPACE), str(path)],
            capture_output=True, text=True, timeout=WALL_S,
            env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
        )
        stdout, stderr = proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:
        stdout, stderr = e.stdout or "", e.stderr or ""
        if isinstance(stdout, bytes):
            stdout, stderr = stdout.decode(), stderr.decode()
    results = [json.loads(line) for line in stdout.splitlines()]
    assert len(results) == RUNS, (
        f"the child stopped at argv {argvs[len(results)]}: {stderr[-500:]}"
    )
    bad = [
        (argv, code, round(seconds, 2), tail)
        for argv, (code, seconds, tail, traceback) in zip(argvs, results)
        if code not in (0, 2, 3, 4) or traceback or seconds > PER_RUN_S
    ]
    assert bad == [], bad[:5]
