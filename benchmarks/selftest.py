#!/usr/bin/env python3
"""Self-test of the benchmark, at the small size (about a minute).

    python3 benchmarks/selftest.py

1. Every workload runs in both modes; each must be correct, report every
   metric of its mode, and fail exactly its known-fault operations.
2. Real program outputs, altered one fact at a time, must be rejected by
   the oracles: a check that accepts a wrong output would measure nothing.
3. Without the program next to it, run.py must exit non-zero and print
   no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import oracles
import run

FAULTS = {"ensemble-chain": 3, "certify": 1, "simulate-stream": 0}


def check_runs() -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            r = run.Run(workload, seed=7, seconds=1, trace=trace, size="small")
            res = run.execute(r)
            assert res["correct"], f"{workload} trace {trace}: {r.error}"
            names = run.PER_LAYER if trace else run.END_TO_END
            assert set(res["metrics"]) == set(names), f"{workload}: metric names"
            passes = 2 if trace else 1
            assert res["failed"] == FAULTS[workload] * passes * r.rounds, \
                f"{workload} trace {trace}: {res['failed']} failed, {r.failures}"
            if not trace:
                assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]
            print(f"ok   {workload} trace {trace}: {res['attempted']} attempted, "
                  f"{res['failed']} failed")


def _outcomes(workload: str, work: Path) -> list[tuple[run.Op, run.Outcome]]:
    ops = run.BUILDERS[workload](random.Random(7), run.SIZES["small"], work)
    with run.Spawner(run.child_env(), work) as spawner:
        return [(op, spawner.run([sys.executable, "-m", "bell_lab", *op.argv])) for op in ops]


def _rejects(op: run.Op, out: run.Outcome, alter, what: str) -> None:
    rep = json.loads(out.stdout)
    alter(rep)
    bad = run.Outcome(out.returncode, json.dumps(rep).encode(), out.stderr, out.wall)
    try:
        op.check(bad)
    except (oracles.OracleError, KeyError, TypeError, ValueError):
        print(f"ok   rejects {what}")
        return
    raise AssertionError(f"oracle accepted {what}")


def _set_weight(rep: dict) -> None:
    weights = rep["sections"]["bell_tests"]["membership"]["weights"]
    label = next(iter(weights))
    weights[label] = "1/3" if weights[label] != "1/3" else "1/5"


def _drop_violation(rep: dict) -> None:
    rep["sections"]["bell_locality"]["violations"].pop()


def _lower_bound(rep: dict) -> None:
    f = rep["sections"]["bell_tests"]["membership"]["functional"]
    coeffs = f["coefficients"]
    key = next(iter(coeffs))
    coeffs[key] = 100


def _move_class(rep: dict) -> None:
    classes = rep["sections"]["instructions"]["partition"]["classes"]
    classes[0]["weight"], classes[1]["weight"] = classes[1]["weight"], "0"


def _chsh(rep: dict) -> None:
    rep["sections"]["bell_tests"]["chsh"]["chsh_value"] += 1e-6


def _count(rep: dict) -> None:
    key = next(iter(rep["counts"]))
    rep["counts"][key] += 1


def check_oracles() -> None:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        by_name = {}
        for workload in run.WORKLOADS:
            (work / workload).mkdir()
            for op, out in _outcomes(workload, work / workload):
                by_name[op.name] = (op, out)
                if op.kind != "fault":
                    assert op.check(out), op.name
        _rejects(*by_name["report exact local ensemble"], _set_weight, "wrong inside weights")
        _rejects(*by_name["report exact local ensemble"], _move_class, "wrong class weights")
        _rejects(*by_name["report decimal noisy ensemble"], _drop_violation, "a missing violation")
        _rejects(*by_name["report decimal noisy ensemble"], _lower_bound,
                 "a functional exceeded on a vertex")
        _rejects(*by_name["report decimal singlet 2x2"], _chsh, "a CHSH value off by 1e-6")
        _rejects(*by_name["simulate exact ensemble on equal axes"], _count, "a miscounted outcome")
        op, out = by_name["simulate decimal singlet with CSV"]
        csv_path = Path(op.argv[op.argv.index("--out") + 1])
        lines = csv_path.read_bytes().splitlines(keepends=True)
        row = lines[5].decode().split(",")
        row[3] = "-1" if row[3] == "1" else "1"
        lines[5] = ",".join(row).encode()
        csv_path.write_bytes(b"".join(lines))
        _rejects(op, out, lambda rep: None, "a CSV row off the SplitMix64 stream")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_program() -> None:
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        res = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert res.returncode != 0 and '"correct"' not in res.stdout, res
        print(f"ok   exits {res.returncode} without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_runs()
    check_oracles()
    check_without_program()
    print("selftest passed")
