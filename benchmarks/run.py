#!/usr/bin/env python3
"""bell-lab benchmark: the audit chain, certification and simulation.

    python3 benchmarks/run.py --workload ensemble-chain --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, both modes

Run from anywhere; the program is taken from the `src` directory next to
this one.  `--trace 0` times the CLI (`python -m bell_lab ...`) as a user
runs it, one child process per operation, and prints the end-to-end
metrics; `--trace 1` runs the same operations in this process through
`bell_lab.cli.main` with spans around each layer's public calls and prints
the per-layer metrics.  Either way every output is checked against the
oracles in `oracles.py`, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

A run repeats whole rounds of its workload's operations for about
`--seconds` seconds and reports each timing as the median over rounds, at
a reference core speed (see `Clock`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles
import specs
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("ensemble-chain", "certify", "simulate-stream")
MODULES = ("specio", "model", "audit", "instructions", "harness", "montecarlo", "singlet", "cli")

SIZES = {
    # states: hidden states per ensemble spec; trials: singlet simulate with
    # CSV; seq_trials: equal-axis simulate of the local ensemble
    "full": dict(states=256, trials=100_000, seq_trials=30_000,
                 geometries=("2x2", "3x3", "4x4"), exact_axes=4),
    "small": dict(states=16, trials=3_000, seq_trials=600,
                  geometries=("2x2", "3x3"), exact_axes=3),
}

SETUP_REPEATS = 11
OP_LIMIT_S = 120.0

#: The time the calibration loop (`Clock`) takes on an uncontended core of
#: the host the reference figures come from.
REFERENCE_CALIBRATION_S = 0.025

END_TO_END = {
    "setup_s": "s", "exact_s": "s", "decimal_s": "s", "peak_rss_mb": "MB",
}
MEMBERSHIP_TAGS = ("2x2", "3x3", "4x4", "4x4_exact", "ensemble")
PER_LAYER = {
    "specio.parse_s": "s", "specio.spec_bytes": "bytes",
    "model.validate_s": "s", "model.validate_calls": "count",
    "model.behavior_s": "s", "model.kernel_cells": "count",
    "audit.locality_s": "s", "audit.signal_s": "s", "audit.anticorr_s": "s",
    "audit.locality_violations": "count",
    "instructions.derive_s": "s", "instructions.classify_s": "s", "instructions.classes": "count",
    "harness.chsh_s": "s", "harness.bell1964_s": "s",
    **{f"harness.membership_{tag}_s": "s" for tag in MEMBERSHIP_TAGS},
    "harness.cert_terms": "count", "harness.cert_denominator_bits": "bits",
    "montecarlo.run_s": "s", "montecarlo.trials_per_s": "trials/s",
    "montecarlo.summarize_s": "s", "montecarlo.csv_s": "s", "montecarlo.csv_bytes": "bytes",
    "singlet.make_s": "s",
    "cli.pipeline_s": "s", "cli.emit_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{f"{m}.sloc": "lines" for m in MODULES}, "src.sloc": "lines",
}


class ProgramMissing(Exception):
    """The checkout holds no runnable bell_lab package."""


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: str
    wall: float
    rss_mb: float = 0.0


@dataclass
class Op:
    """One operation: a CLI invocation and the check of its output.

    kind is "exact" or "decimal" (summed into exact_s / decimal_s) or
    "fault" (an operation that a known defect makes fail; timed apart).
    """

    name: str
    kind: str
    argv: list[str]
    check: Callable[[Outcome], bool]
    tag: str = "other"
    #: in-process extra call made before the CLI call in --trace 1 runs
    extra: Callable[[], None] | None = None
    #: files the operation writes, checked along with its stdout
    files: tuple[Path, ...] = ()


# ---------------------------------------------------------------------------
# inputs and operations


def _write(path: Path, spec: dict) -> bytes:
    data = json.dumps(spec).encode("utf-8")
    path.write_bytes(data)
    return data


def _json_check(check: Callable[[dict], bool]) -> Callable[[Outcome], bool]:
    def run(out: Outcome) -> bool:
        oracles.expect(out.returncode == 0, f"exit code {out.returncode}: {out.stderr[-400:]}")
        return check(json.loads(out.stdout))
    return run


def _report(path: Path, *flags: str) -> list[str]:
    return ["report", str(path), "--format", "json", *flags]


def ensemble_ops(rng: random.Random, size: dict, work: Path) -> list[Op]:
    offset = rng.uniform(0.0, 360.0)
    loc = specs.instruction_ensemble(rng, size["states"], offset)
    dec = specs.noisy_singlet_ensemble(rng, size["states"], offset)
    flags = ("--chsh", specs.roles_arg(specs.ROLES_3), "--bell1964", specs.BELL1964_3)
    loc_bytes = _write(work / "local.json", loc.to_spec("instruction-set ensemble"))
    dec_bytes = _write(work / "noisy.json", dec.to_spec("noisy singlet ensemble"))
    ops = [
        Op("report exact local ensemble", "exact", _report(work / "local.json", *flags),
           _json_check(lambda r: oracles.check_exact_report(
               r, loc, "instruction-set ensemble", loc_bytes, specs.ROLES_3, True)),
           tag="ensemble"),
        Op("report decimal noisy ensemble", "decimal", _report(work / "noisy.json", *flags),
           _json_check(lambda r: oracles.check_decimal_report(
               r, dec, "noisy singlet ensemble", dec_bytes, specs.ROLES_3, True, "affine")),
           tag="ensemble"),
    ]
    for name, data in specs.bad_inputs().items():
        path = work / f"bad_{name}.json"
        path.write_bytes(data)
        ops.append(Op(f"bad input {name}", "fault", _report(path),
                      lambda o: oracles.check_bad_input(o.returncode, o.stderr)))
    return ops


def _make_singlet_check(s: specs.Singlet) -> Callable[[], None]:
    """In-process make_planar_singlet on the same angles, held to the
    closed form (1 - A*B*cos)/4 before any rounding."""
    sc = s.scenario
    alice = ",".join(f"{i}={d!r}" for i, d in zip(sc.alice_ids, sc.alice_deg))
    bob = ",".join(f"{i}={d!r}" for i, d in zip(sc.bob_ids, sc.bob_deg))

    def run() -> None:
        import bell_lab
        model = bell_lab.make_planar_singlet(alice, bob)
        for (_, a, b), dist in model.kernel.cells.items():
            c = sc.cos(a, b)
            want = [specs.singlet_prob(A, B, c) for A, B in specs.JOINT]
            got = [dist.pp, dist.pm, dist.mp, dist.mm]
            oracles.expect(all(oracles.close(x, y, 1e-12) for x, y in zip(got, want)),
                           f"make_planar_singlet cell {a}|{b}: {got} != {want}")
    return run


def certify_ops(rng: random.Random, size: dict, work: Path) -> list[Op]:
    offset = rng.uniform(0.0, 360.0)
    ops = []
    for geometry in size["geometries"]:
        s = specs.singlet(geometry, offset)
        name = f"singlet {geometry}"
        flags = ["--chsh", specs.roles_arg(s.roles)]
        if geometry == "3x3":
            flags += ["--bell1964", specs.BELL1964_3]
        data = _write(work / f"singlet_{geometry}.json", s.to_spec(name))
        kind = "chsh" if geometry == "2x2" else "affine"
        ops.append(Op(
            f"report decimal singlet {geometry}", "decimal",
            _report(work / f"singlet_{geometry}.json", *flags),
            _json_check(lambda r, s=s, name=name, data=data, g=geometry, kind=kind:
                        oracles.check_decimal_report(r, s, name, data, s.roles, g == "3x3", kind)),
            tag=geometry, extra=_make_singlet_check(s)))
    n = size["exact_axes"]
    mix = specs.exact_mixture(rng, n, offset)
    roles = specs.best_chsh_roles(mix.scenario)
    mix_bytes = _write(work / "exact_mixture.json", mix.to_spec("exact instruction-set mixture"))
    ops.append(Op(
        f"report exact mixture {n}x{n}", "exact",
        _report(work / "exact_mixture.json", "--chsh", specs.roles_arg(roles),
                "--bell1964", specs.BELL1964_3),
        _json_check(lambda r: oracles.check_exact_report(
            r, mix, "exact instruction-set mixture", mix_bytes, roles, True)),
        tag=f"{n}x{n}_exact"))
    dl = specs.decimal_local_2x2()
    dl_bytes = _write(work / "decimal_local.json", dl.to_spec("decimal local mixture", exact_weights=False))
    ops.append(Op(
        "report decimal local mixture 2x2", "fault", _report(work / "decimal_local.json"),
        _json_check(lambda r: oracles.check_decimal_local(r, dl, "decimal local mixture", dl_bytes)),
        tag="fault"))
    return ops


def simulate_ops(rng: random.Random, size: dict, work: Path) -> list[Op]:
    offset = rng.uniform(0.0, 360.0)
    loc = specs.instruction_ensemble(rng, size["states"], offset)
    s = specs.singlet("2x2", offset)
    seed_csv, seed_seq = rng.randrange(2**63), rng.randrange(2**63)
    _write(work / "singlet.json", s.to_spec("singlet chsh"))
    _write(work / "local.json", loc.to_spec("instruction-set ensemble"))
    seq = work / "equal_axes.txt"
    seq.write_text("".join(f"{x},{x}\n" for x in loc.scenario.alice_ids))
    csv_path = work / "records.csv"
    trials, seq_trials = size["trials"], size["seq_trials"]
    return [
        Op("simulate decimal singlet with CSV", "decimal",
           ["simulate", str(work / "singlet.json"), "--trials", str(trials), "--seed", str(seed_csv),
            "--out", str(csv_path), "--chsh-roles", specs.roles_arg(s.roles), "--format", "json"],
           _json_check(lambda r: oracles.check_sim_singlet(
               r, csv_path.read_bytes(), s, seed_csv, trials, s.roles)),
           files=(csv_path,)),
        Op("simulate exact ensemble on equal axes", "exact",
           ["simulate", str(work / "local.json"), "--trials", str(seq_trials), "--seed", str(seed_seq),
            "--policy", f"sequence:{seq}", "--format", "json"],
           _json_check(lambda r: oracles.check_sim_local(r, loc, seed_seq, seq_trials))),
    ]


BUILDERS = {"ensemble-chain": ensemble_ops, "certify": certify_ops, "simulate-stream": simulate_ops}


# ---------------------------------------------------------------------------
# running operations


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BELL_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Runs child processes through `spawner.py`, which reports each
    child's wall time and its own peak RSS (os.wait4)."""

    def __init__(self, env: dict, work: Path) -> None:
        self.env, self.work = env, work
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout.bin", self.work / "stderr.txt"
        request = {"cmd": cmd, "env": self.env, "cwd": str(ROOT), "stdout": str(out_path),
                   "stderr": str(err_path), "limit": OP_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        res = json.loads(reply)
        return Outcome(res["returncode"], out_path.read_bytes(),
                       err_path.read_text(errors="replace"), res["wall"], res["maxrss_kb"] / 1024.0)


def run_inprocess(op: Op, work: Path) -> Outcome:
    """The same operation through bell_lab.cli.main in this process."""
    from bell_lab import cli

    out_path = work / "stdout.bin"
    err = io.StringIO()
    with open(out_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.extra is not None:
                op.extra()
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # what the CLI would print as a traceback with exit code 1
            code = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    return Outcome(code, out_path.read_bytes(), err.getvalue(), wall)


# ---------------------------------------------------------------------------
# tracing targets


def _after_parse(t: Tracer, args, kwargs, model) -> None:
    text = args[0] if args else kwargs.get("text", "")
    t.count("specio.spec_bytes", len(text.encode("utf-8") if isinstance(text, str) else text))
    t.count("model.kernel_cells", len(model.kernel.cells))


def _after_cert(t: Tracer, args, kwargs, cert) -> None:
    values = list((cert.weights or {}).values())
    if cert.functional is not None:
        values += list(cert.functional.coefficients.values())
        values += [cert.functional.bound, cert.functional.value]
    terms = len(cert.weights or {}) + (len(cert.functional.coefficients) if cert.functional else 0)
    t.count("harness.cert_terms", terms)
    bits = max((getattr(v, "denominator", 1).bit_length() for v in values), default=0)
    t.maximum("harness.cert_denominator_bits", bits)


def _after_csv(t: Tracer, args, kwargs, _result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    t.count("montecarlo.csv_bytes", os.path.getsize(path))


def _after_run(t: Tracer, args, kwargs, _result) -> None:
    t.count("montecarlo.trials", args[1] if len(args) > 1 else kwargs["trials"])


TARGETS = [
    # (module, attribute, span name, after hook); missing names are skipped
    ("specio", "parse_theory", "specio.parse", _after_parse),
    ("model", "validate_theory", "model.validate",
     lambda t, *_: t.count("model.validate_calls", 1)),
    ("model", "behavior", "model.behavior", None),
    ("audit", "check_bell_locality", "audit.locality",
     lambda t, a, k, r: t.count("audit.locality_violations", len(r.violations))),
    ("audit", "check_signal_locality", "audit.signal", None),
    ("audit", "check_anticorrelation", "audit.anticorr", None),
    ("instructions", "derive_instruction_sets", "instructions.derive", None),
    ("instructions", "classify_states", "instructions.classify",
     lambda t, a, k, r: t.count("instructions.classes", len(r.classes))),
    ("harness", "chsh", "harness.chsh", None),
    ("harness", "bell1964", "harness.bell1964", None),
    ("harness", "local_polytope_membership",
     lambda t: f"harness.membership_{t.membership_tag}", _after_cert),
    ("montecarlo", "run_experiment", "montecarlo.run", _after_run),
    ("montecarlo", "summarize", "montecarlo.summarize", None),
    ("montecarlo", "write_records_csv", "montecarlo.csv", _after_csv),
    ("singlet", "make_planar_singlet", "singlet.make", None),
    ("cli", "run_pipeline", "cli.pipeline", None),
    ("cli", "emit_json", "cli.emit", None),
    ("cli", "RunReport.to_dict", "cli.to_dict", None),
]


def install(tracer: Tracer) -> None:
    import importlib

    targets = {}
    for module, attr, name, after in TARGETS:
        owner = importlib.import_module(f"bell_lab.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is not None and attr in vars(cls):
                targets[(cls, attr)] = (name, after)
        elif hasattr(owner, attr):
            targets[getattr(owner, attr)] = (name, after)
    tracer.install(targets)


def layer_values(tracer: Tracer, factor: float) -> dict[str, float]:
    """One operation's per-layer values, times at the reference speed."""
    self_t = {name: t * factor for name, t in tracer.self_times().items()}
    incl = {name: t * factor for name, t in tracer.inclusive_times().items()}
    c = tracer.counts
    return {
        "specio.parse_s": self_t.get("specio.parse", 0.0),
        "specio.spec_bytes": c.get("specio.spec_bytes", 0),
        "model.validate_s": self_t.get("model.validate", 0.0),
        "model.validate_calls": c.get("model.validate_calls", 0),
        "model.behavior_s": self_t.get("model.behavior", 0.0),
        "model.kernel_cells": c.get("model.kernel_cells", 0),
        "audit.locality_s": self_t.get("audit.locality", 0.0),
        "audit.signal_s": self_t.get("audit.signal", 0.0),
        "audit.anticorr_s": self_t.get("audit.anticorr", 0.0),
        "audit.locality_violations": c.get("audit.locality_violations", 0),
        "instructions.derive_s": self_t.get("instructions.derive", 0.0),
        "instructions.classify_s": self_t.get("instructions.classify", 0.0),
        "instructions.classes": c.get("instructions.classes", 0),
        "harness.chsh_s": self_t.get("harness.chsh", 0.0),
        "harness.bell1964_s": self_t.get("harness.bell1964", 0.0),
        **{f"harness.membership_{tag}_s": self_t.get(f"harness.membership_{tag}", 0.0)
           for tag in MEMBERSHIP_TAGS},
        "harness.cert_terms": c.get("harness.cert_terms", 0),
        "harness.cert_denominator_bits": c.get("harness.cert_denominator_bits", 0),
        "montecarlo.run_s": self_t.get("montecarlo.run", 0.0),
        "montecarlo.trials": c.get("montecarlo.trials", 0),
        "montecarlo.run_incl_s": incl.get("montecarlo.run", 0.0),
        "montecarlo.summarize_s": self_t.get("montecarlo.summarize", 0.0),
        "montecarlo.csv_s": self_t.get("montecarlo.csv", 0.0),
        "montecarlo.csv_bytes": c.get("montecarlo.csv_bytes", 0),
        "singlet.make_s": self_t.get("singlet.make", 0.0),
        "cli.pipeline_s": incl.get("cli.pipeline", 0.0),
        "cli.emit_s": self_t.get("cli.emit", 0.0) + self_t.get("cli.to_dict", 0.0),
        "trace.spans": len(tracer.spans),
    }


def sloc() -> dict[str, int]:
    """Source lines: lines that are neither blank nor only a comment."""
    def count(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip() and not line.strip().startswith("#"))
    pkg = SRC / "bell_lab"
    out = {f"{m}.sloc": count(pkg / f"{m}.py") if (pkg / f"{m}.py").exists() else 0 for m in MODULES}
    out["src.sloc"] = sum(count(p) for p in sorted(pkg.rglob("*.py")))
    return out


# ---------------------------------------------------------------------------
# one measured run


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: int
    size: str
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    error: str | None = None
    walls: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    verdicts: dict[tuple[str, str], bool] = field(default_factory=dict)

    def record(self, op: Op, outcome: Outcome, factor: float) -> float:
        """Check one outcome; returns its wall time at the reference speed.

        An output byte-identical to one already checked (stdout, exit
        code, stderr and the files it wrote) reuses that verdict, so later
        rounds spend their time running the program, not the oracles.
        """
        self.attempted += 1
        self.walls.setdefault(op.name, []).append(outcome.wall)
        self.scaled.setdefault(op.name, []).append(outcome.wall * factor)
        digest = hashlib.sha256(outcome.stdout)
        digest.update(f"{outcome.returncode}\n{outcome.stderr}".encode("utf-8", "replace"))
        for path in op.files:
            digest.update(path.read_bytes())
        key = (op.name, digest.hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(outcome)
            except (oracles.OracleError, ValueError, KeyError, TypeError, IndexError) as exc:
                raise oracles.OracleError(f"{op.name}: {type(exc).__name__}: {exc}") from exc
        ok = self.verdicts[key]
        if not ok:
            self.failed += 1
            self.failures[op.name] = self.failures.get(op.name, 0) + 1
        return outcome.wall * factor


def check_program() -> None:
    if not (SRC / "bell_lab" / "__init__.py").is_file():
        raise ProgramMissing(f"no bell_lab package under {SRC}")


def probe(spawner: Spawner) -> dict:
    code = ("import json, sys, numpy, bell_lab; print(json.dumps({'file': bell_lab.__file__, "
            "'python': sys.version.split()[0], 'numpy': numpy.__version__}))")
    out = spawner.run([sys.executable, "-c", code])
    if out.returncode != 0:
        raise ProgramMissing(f"cannot import bell_lab: {out.stderr.strip()[-400:]}")
    info = json.loads(out.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"bell_lab resolves to {info['file']}, outside {SRC}")
    return info


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def measure(run: Run) -> None:
    check_program()
    size = SIZES[run.size]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{run.workload}-", dir=WORK))
    try:
        pinning = pin_to_one_core()
        with Spawner(child_env(), work) as spawner:
            info = probe(spawner)
            run.notes.append(f"program {info['file']} commit {git_commit()}")
            run.notes.append(f"python {info['python']} numpy {info['numpy']} "
                             f"nproc {os.cpu_count()}, {pinning}, "
                             "BELL_LAB_THREADS cleared")
            ops = BUILDERS[run.workload](random.Random(run.seed), size, work)
            if run.trace:
                _measure_traced(run, ops, work)
            else:
                _measure_cli(run, ops, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _rounds(run: Run, one_round: Callable[[], None]) -> None:
    """Whole rounds until the next one would end after --seconds."""
    start = time.perf_counter()
    while True:
        one_round()
        run.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / run.rounds > run.seconds:
            return


def pin_to_one_core() -> str:
    """Pin this process, and so every child it starts, to one core."""
    core = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {core})
    except OSError as exc:
        return f"not pinned ({exc})"
    return f"pinned to core {core}"


class Clock:
    """Rescales wall times to a reference core speed.

    On a shared host a core's speed swings by up to 2x in phases of
    seconds, as other tenants load it (README, "Noise").  With the
    benchmark and the program pinned to one core, a fixed loop timed on
    that core just after each operation, and just before it (the previous
    call), measures how fast the core ran; the operation's wall time is
    multiplied by REFERENCE_CALIBRATION_S over their mean.  The loop does
    Fraction arithmetic and walks an 8 MB list, so that it feels both the
    compute and the cache contention the program feels.
    """

    def __init__(self) -> None:
        self.big = list(range(1_000_000))
        self.last = self._loop()

    def _loop(self) -> float:
        start = time.perf_counter()
        fraction = Fraction(0)
        for i in range(1, 4000):
            fraction += Fraction(1, i % 97 + 1)
        total = 0
        for x in self.big[::3]:
            total += x
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale for the operation that ran since the previous call."""
        now = self._loop()
        factor = REFERENCE_CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        return factor


def _measure_cli(run: Run, ops: list[Op], spawner: Spawner) -> None:
    clock = Clock()
    rss = []
    setup = []
    for _ in range(SETUP_REPEATS):
        out = spawner.run([sys.executable, "-c", "import bell_lab"])
        setup.append(out.wall * clock.factor())
        rss.append(out.rss_mb)

    def one_round() -> None:
        for op in ops:
            out = spawner.run([sys.executable, "-m", "bell_lab", *op.argv])
            rss.append(out.rss_mb)
            run.record(op, out, clock.factor())

    _rounds(run, one_round)

    def summed(kind: str) -> float:
        return sum(statistics.median(run.scaled[op.name]) for op in ops if op.kind == kind)

    run.metrics = {
        "setup_s": statistics.median(setup),
        "exact_s": summed("exact"),
        "decimal_s": summed("decimal"),
        "peak_rss_mb": max(rss),
    }


def _measure_traced(run: Run, ops: list[Op], work: Path) -> None:
    sys.path.insert(0, str(SRC))
    import bell_lab

    if not Path(bell_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"bell_lab resolves to {bell_lab.__file__}, outside {SRC}")
    from bell_lab import cli  # noqa: F401  (imported before any timing)

    clock = Clock()
    per_round: list[dict[str, float]] = []

    def untraced() -> float:
        total = 0.0
        for op in ops:
            out = run_inprocess(op, work)
            total += run.record(op, out, clock.factor())
        return total

    def one_round() -> None:
        # alternate which pass goes first, so drift within a round cancels
        plain = untraced() if run.rounds % 2 == 0 else None
        totals: dict[str, float] = {}
        traced = 0.0
        for op in ops:
            tracer = Tracer(membership_tag=op.tag)
            install(tracer)
            try:
                out = run_inprocess(op, work)
            finally:
                tracer.restore()
            factor = clock.factor()
            traced += run.record(op, out, factor)
            if op.kind == "fault":
                continue
            values = layer_values(tracer, factor)
            values["cli.report_bytes"] = len(out.stdout) if op.argv[0] == "report" else 0
            for name, value in values.items():
                merge = max if name == "harness.cert_denominator_bits" else float.__add__
                totals[name] = merge(float(totals.get(name, 0)), float(value))
        if plain is None:
            plain = untraced()
        trials, run_s = totals.pop("montecarlo.trials"), totals.pop("montecarlo.run_incl_s")
        totals["montecarlo.trials_per_s"] = trials / run_s if run_s else 0.0
        totals["trace.overhead_s"] = traced - plain
        per_round.append(totals)

    _rounds(run, one_round)

    def estimate(name: str) -> float:
        values = [r[name] for r in per_round]
        if PER_LAYER[name] in ("s", "trials/s"):
            return statistics.median(values)
        return int(statistics.median_low(values))

    run.metrics = {name: estimate(name) for name in per_round[0]}
    run.metrics.update(sloc())


def result(run: Run) -> dict:
    units = PER_LAYER if run.trace else END_TO_END
    return {
        "correct": run.error is None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()} if run.error is None else {},
    }


def print_run(run: Run, res: dict) -> None:
    print(f"# workload {run.workload}  seed {run.seed}  size {run.size}  trace {run.trace}  "
          f"seconds {run.seconds}  rounds {run.rounds}")
    for note in run.notes:
        print(f"# {note}")
    for name, walls in run.walls.items():
        failed = run.failures.get(name, 0)
        print(f"#   op {name:40s} wall {statistics.median(walls):8.4f} s  at reference "
              f"{statistics.median(run.scaled[name]):8.4f} s  n {len(walls):3d}  failed {failed}")
    for name, m in res["metrics"].items():
        print(f"#   metric {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"#   attempted {run.attempted}  failed {run.failed}")
    if run.error:
        print(f"# INCORRECT: {run.error}")


def execute(run: Run) -> dict:
    try:
        measure(run)
    except oracles.OracleError as exc:
        run.error = str(exc)
        print(f"bell-lab benchmark: wrong output: {exc}", file=sys.stderr)
    return result(run)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="'small' runs every workload and check in seconds")
    args = parser.parse_args(argv)
    os.environ.pop("BELL_LAB_THREADS", None)
    try:
        if args.workload == "all":
            return run_all(args)
        run = Run(args.workload, args.seed, args.seconds, args.trace, args.size)
        res = execute(run)
    except ProgramMissing as exc:
        print(f"bell-lab benchmark: {exc}", file=sys.stderr)
        return 2
    print_run(run, res)
    print(json.dumps(res))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, then one table of every metric."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = Run(workload, args.seed, args.seconds, trace, args.size)
            results[(workload, trace)] = res = execute(run)
            print_run(run, res)
    print()
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        for name, unit in units.items():
            cells = [results[(w, trace)]["metrics"].get(name, {}).get("value") for w in WORKLOADS]
            print(f"| `{name}` | {unit} | " + " | ".join(
                "-" if v is None else f"{v:.4g}" if isinstance(v, float) else str(v)
                for v in cells) + " |")
    for label, key in (("attempted", "attempted"), ("failed", "failed")):
        cells = [f"{results[(w, 0)][key]} / {results[(w, 1)][key]}" for w in WORKLOADS]
        print(f"| {label} (trace 0 / 1) | ops | " + " | ".join(cells) + " |")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
