"""Checks of the program's outputs against facts computed apart from it.

Every expected value here comes from `specs` (what the benchmark generated)
and from closed forms: singlet correlators E = -v*cos(theta_a - theta_b),
exact sums over the generated instruction sets, the benchmark's own
enumeration of deterministic vertices, and a numpy SplitMix64 stream.
A check raises `OracleError` on a wrong output.  Checks of operations
that may fail return False for the failure and True for success.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from specs import JOINT, Mixture, NoisyEnsemble, Scenario, Singlet

DECIMAL_TOL = 1e-9
#: Width of the statistical checks, in standard errors.  With ~10 checks
#: per seed, 5 sigma keeps a false alarm below 1e-5 per run.
SIGMAS = 5.0


class OracleError(Exception):
    """The program's output disagrees with the independent computation."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def num(value) -> Fraction | float:
    """A probability as the program prints it: int, 'p/q' string or float."""
    if isinstance(value, bool):
        raise OracleError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        p, q = value.split("/")
        return Fraction(int(p), int(q))
    return value


def close(x, y, tol: float = DECIMAL_TOL) -> bool:
    return abs(float(x) - float(y)) <= tol


def correlator(cell) -> Fraction | float:
    return cell[0] - cell[1] - cell[2] + cell[3]


# ---------------------------------------------------------------------------
# deterministic vertices and membership certificates

_LABEL = re.compile(r"^A\[(.*)\] B\[(.*)\]$")


def _signs(text: str) -> dict[str, int]:
    out = {}
    for item in text.split(","):
        sid, _, sign = item.rpartition(":")
        out[sid] = +1 if sign == "+" else -1
    return out


def vertices(sc: Scenario):
    """Every deterministic strategy as (alice signs, bob signs) dicts."""
    for sa in itertools.product((+1, -1), repeat=len(sc.alice_ids)):
        for sb in itertools.product((+1, -1), repeat=len(sc.bob_ids)):
            yield dict(zip(sc.alice_ids, sa)), dict(zip(sc.bob_ids, sb))


def check_inside(m: dict, beh: dict, sc: Scenario, exact: bool) -> bool:
    """An inside verdict; True when it carries convex weights that
    reproduce the behaviour, False when it carries none."""
    expect(m["inside"] is True, f"local behaviour reported outside: {m.get('functional')}")
    if m.get("weights") is None:
        return False
    acc = {pair: [Fraction(0)] * 4 for pair in sc.pairs()}
    total = Fraction(0)
    for label, w in m["weights"].items():
        w = num(w)
        match = _LABEL.match(label)
        expect(match is not None, f"unreadable strategy label {label!r}")
        sa, sb = _signs(match.group(1)), _signs(match.group(2))
        expect(w >= 0, f"negative weight {w} on {label}")
        total += w
        for a, b in sc.pairs():
            acc[(a, b)][JOINT.index((sa[a], sb[b]))] += w
    if exact:
        expect(total == 1, f"weights sum to {total}, not 1")
        expect(acc == beh, "inside weights do not reproduce the behaviour exactly")
    else:
        expect(close(total, 1), f"weights sum to {total}")
        for pair in sc.pairs():
            for i in range(4):
                expect(close(acc[pair][i], beh[pair][i]), f"weights miss cell {pair} #{i}")
    return True


def check_outside(m: dict, beh: dict, sc: Scenario, kind: str) -> None:
    """An outside verdict whose functional is at most its bound on every
    deterministic vertex and above it at the behaviour."""
    expect(m["inside"] is False, "non-local behaviour reported inside")
    f = m["functional"]
    expect(f["kind"] == kind, f"functional kind {f['kind']!r}, expected {kind!r}")
    bound = num(f["bound"])
    terms = []
    for key, c in f["coefficients"].items():
        a, b, ab = key.split("|")
        terms.append((a, b, +1 if ab[0] == "+" else -1, +1 if ab[1] == "+" else -1, num(c)))
    for sa, sb in vertices(sc):
        value = sum(c for a, b, A, B, c in terms if sa[a] == A and sb[b] == B)
        expect(value <= bound, f"functional {value} exceeds its bound {bound} on a vertex")
    at = sum(float(c) * beh[(a, b)][JOINT.index((A, B))] for a, b, A, B, c in terms)
    scale = sum(abs(float(c)) for *_, c in terms)
    expect(at - float(bound) > DECIMAL_TOL * max(1.0, scale),
           f"functional {at} does not exceed its bound {bound} at the behaviour")
    expect(close(at, num(f["value"]), 1e-6 * max(1.0, scale)), "functional value misreported")


# ---------------------------------------------------------------------------
# report --format json


def _common(rep: dict, name: str, spec_bytes: bytes) -> dict:
    expect(rep["model"] == name, f"model name {rep['model']!r}")
    expect(rep["input"]["sha256"] == hashlib.sha256(spec_bytes).hexdigest(), "input digest")
    sec = rep["sections"]
    expect(sec["validation"] == {"valid": True, "violations": []}, "valid spec reported invalid")
    return sec


def _check_tests(bell: dict, beh: dict, sc: Scenario, roles, bell1964: bool, exact: bool) -> None:
    """Correlators, CHSH and the three-axis inequality from the behaviour."""
    tol = 0 if exact else DECIMAL_TOL
    same = (lambda x, y: x == y) if exact else close
    for pair in sc.pairs():
        expect(same(num(bell["correlators"][f"{pair[0]}|{pair[1]}"]), correlator(beh[pair])),
               f"correlator {pair}")
    if roles is not None:
        a, a2, b, b2 = roles
        s = correlator(beh[(a, b)]) + correlator(beh[(a, b2)]) + correlator(beh[(a2, b)]) \
            - correlator(beh[(a2, b2)])
        c = bell["chsh"]
        expect(same(num(c["chsh_value"]), s), f"CHSH value {c['chsh_value']} != {s}")
        expect(num(c["local_bound"]) == 2, "CHSH local bound is not 2")
        expect(c["violated"] == (abs(s) - 2 > tol), "CHSH violation verdict")
    if bell1964:
        axes = [(x, x) for x in sc.alice_ids[:3]]
        if any(beh[ax][0] > tol or beh[ax][3] > tol for ax in axes):
            expect("skipped" in bell["bell1964"], "three-axis test ran without anti-correlation")
        else:
            (x1, _), (x2, _), (x3, _) = axes
            e12, e13, e23 = (correlator(beh[(x1, x2)]), correlator(beh[(x1, x3)]),
                             correlator(beh[(x2, x3)]))
            r = bell["bell1964"]
            expect(same(num(r["lhs"]), abs(e12 - e13)) and same(num(r["rhs"]), 1 + e23),
                   "three-axis sides")
            expect(r["satisfied"] == (abs(e12 - e13) - (1 + e23) <= tol), "three-axis verdict")


def check_exact_report(rep: dict, mix: Mixture, name: str, spec_bytes: bytes, roles,
                       bell1964: bool) -> bool:
    """A local exact mixture of anti-correlated instruction sets: every
    check passes, the 2^n partition is derived, membership is inside."""
    sec = _common(rep, name, spec_bytes)
    sc, n = mix.scenario, len(mix.scenario.alice_ids)
    loc = sec["bell_locality"]
    expect(loc["verdict"] == "BellLocal" and loc["violations"] == [], "local mixture not BellLocal")
    expect(num(loc["worst_residual"]) == 0, "nonzero residual on a local mixture")
    sig = sec["signal_locality"]
    expect(sig["verdict"] == "SignalLocal" and num(sig["max_delta"]) == 0, "signal delta")
    anti = sec["anticorrelation"]
    expect(anti["verdict"] == "AntiCorrelated" and len(anti["checks"]) == n * len(mix.state_ids),
           "anti-correlation checks")
    ins = sec["instructions"]
    expect(ins["derived"] is True, f"derivation failed: {ins.get('failure')}")
    states = ins["instructions"]["states"]
    expect(len(states) == len(mix.state_ids), "derived state count")
    for sid, w, sa in zip(mix.state_ids, mix.weights, mix.alice):
        got = states[sid]
        expect(num(got["weight"]) == w, f"weight of {sid}")
        expect(all(got["outcomes"][f"{x}|{x}"] == [s, -s] for x, s in zip(sc.alice_ids, sa)),
               f"instruction set of {sid}")
    part = ins["partition"]
    expect(part["class_count"] == 2 ** n, "class count")
    want = mix.class_weights()
    for cls in part["classes"]:
        expect(num(cls["weight"]) == want[cls["pattern"]], f"class {cls['pattern']} weight")
    beh = mix.behavior()
    bell = sec["bell_tests"]
    _check_tests(bell, beh, sc, roles, bell1964, exact=True)
    expect(check_inside(bell["membership"], beh, sc, exact=True), "exact inside verdict without weights")
    return True


def expected_violations(sc: Scenario, visibilities, tol: float = DECIMAL_TOL) -> int:
    """Violations of a singlet-kernel state at visibility v: per cell, 4
    factorization entries (residual |v c|/4) and 8 far-outcome conditional
    entries (residual |v c|/2); its marginals are all 1/2."""
    total = 0
    for v in visibilities:
        for pair in sc.pairs():
            r = abs(v * sc.cos(*pair))
            total += 4 * (r / 4 > tol) + 8 * (r / 2 > tol)
    return total


def check_decimal_report(rep: dict, model: NoisyEnsemble | Singlet, name: str,
                         spec_bytes: bytes, roles, bell1964: bool, kind: str) -> bool:
    """A singlet or noisy-singlet ensemble: not Bell local with the closed
    form's violations, signal local, outside with a valid functional."""
    sec = _common(rep, name, spec_bytes)
    sc = model.scenario
    if isinstance(model, Singlet):
        ids, vis, eps = ["psi"], [1.0], [0.0]
    else:
        ids, vis, eps = model.state_ids, [1.0 - e for e in model.eps], model.eps
    vis_of = dict(zip(ids, vis))
    loc = sec["bell_locality"]
    want = expected_violations(sc, vis)
    expect(loc["verdict"] == "NotBellLocal", "singlet kernel reported BellLocal")
    expect(len(loc["violations"]) == want, f"{len(loc['violations'])} violations, expected {want}")
    for v in loc["violations"]:
        lhs, rhs, res = v["lhs"], v["rhs"], v["residual"]
        expect(close(res, abs(lhs - rhs), 1e-12), "violation residual")
        if v["form"] == "factorization":
            p = (1.0 - v["outcome_a"] * v["outcome_b"] * vis_of[v["state"]] * sc.cos(v["a"], v["b"])) / 4
            expect(close(lhs, p) and close(rhs, 0.25), f"factorization entry {v}")
    worst = max(vis) * max(abs(sc.cos(*p)) for p in sc.pairs()) / 4
    expect(close(num(loc["worst_residual"]), worst), "worst residual")
    sig = sec["signal_locality"]
    expect(sig["verdict"] == "SignalLocal", "singlet marginals reported signalling")
    shared = sc.alice_ids == sc.bob_ids
    if shared:
        anti = sec["anticorrelation"]
        bad = sum(len(sc.alice_ids) for e in eps if e / 4 > DECIMAL_TOL)
        expect(len(anti["checks"]) == len(ids) * len(sc.alice_ids), "anti-correlation checks")
        expect(sum(not c["ok"] for c in anti["checks"]) == bad, "anti-correlation failures")
        fail = sec["instructions"]
        expect(fail["derived"] is False, "derivation succeeded on a singlet kernel")
        f = fail["failure"]
        expect(f["state"] == ids[0] and f["axis"] == [sc.alice_ids[0]] * 2 and f["side"] == "alice"
               and close(f["marginal"], 0.5), f"derivation failure {f}")
    else:
        expect("skipped" in sec["anticorrelation"] and "skipped" in sec["instructions"],
               "anti-correlation ran without shared axes")
    beh = model.behavior()
    bell = sec["bell_tests"]
    _check_tests(bell, beh, sc, roles, bell1964, exact=False)
    check_outside(bell["membership"], beh, sc, kind)
    return True


def check_decimal_local(rep: dict, mix: Mixture, name: str, spec_bytes: bytes) -> bool:
    """Decimal-weighted local mixture: inside, with weights (the README's
    promise); False when the verdict comes without them."""
    sec = _common(rep, name, spec_bytes)
    expect(sec["bell_locality"]["verdict"] == "BellLocal", "local mixture not BellLocal")
    beh = {pair: [float(p) for p in cell] for pair, cell in mix.behavior().items()}
    return check_inside(sec["bell_tests"]["membership"], beh, mix.scenario, exact=False)


def check_bad_input(returncode: int, stderr: str) -> bool:
    """Bad input must exit 2 with a one-line error, not a traceback."""
    return returncode == 2 and "Traceback" not in stderr


# ---------------------------------------------------------------------------
# simulate


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix_uniform(seed: int, positions: np.ndarray) -> np.ndarray:
    """SplitMix64 at each stream position, mapped into [0, 1)."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & (2**64 - 1)) + (positions.astype(np.uint64) + np.uint64(1)) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / 2.0**64


def _cumulative(values) -> list[float]:
    out, total = [], 0.0
    for v in values:
        total += max(0.0, float(v))
        out.append(total)
    return out


def _draw(cum: list[float], u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(np.asarray(cum), u, side="right"), len(cum) - 1)


def _setting(u: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((u * n).astype(np.int64), n - 1)


def _tally(a_idx, b_idx, o_idx, sc: Scenario) -> dict[str, int]:
    na, nb = len(sc.alice_ids), len(sc.bob_ids)
    flat = np.bincount((a_idx * nb + b_idx) * 4 + o_idx, minlength=na * nb * 16)
    out = {}
    for i, a in enumerate(sc.alice_ids):
        for j, b in enumerate(sc.bob_ids):
            for k, (A, B) in enumerate(JOINT):
                n = int(flat[(i * nb + j) * 4 + k])
                if n:
                    out[f"{a}|{b}|{'+' if A > 0 else '-'}{'+' if B > 0 else '-'}"] = n
    return out


def _check_stats(stats: dict, counts: dict[str, int], sc: Scenario, roles, expected_s) -> None:
    """Summary numbers against the counts, plus the statistical properties."""
    expect(stats["counts"] == counts, "summary counts differ from the independent tally")
    pair_n = {}
    for key, n in counts.items():
        a, b, _ = key.split("|")
        pair_n[(a, b)] = pair_n.get((a, b), 0) + n
    corr = {}
    for (a, b), n in pair_n.items():
        e = sum(A * B * counts.get(f"{a}|{b}|{'+' if A > 0 else '-'}{'+' if B > 0 else '-'}", 0)
                for A, B in JOINT) / n
        corr[(a, b)] = (e, math.sqrt(max(0.0, 1 - e * e) / n))
        expect(close(stats["correlators"][f"{a}|{b}"]["value"], e, 1e-12), f"correlator {a}|{b}")
    if expected_s is not None:
        a, a2, b, b2 = roles
        pairs = [(a, b), (a, b2), (a2, b), (a2, b2)]
        s = corr[pairs[0]][0] + corr[pairs[1]][0] + corr[pairs[2]][0] - corr[pairs[3]][0]
        se = math.sqrt(sum(corr[p][1] ** 2 for p in pairs))
        expect(abs(s - expected_s) <= SIGMAS * se, f"CHSH {s} vs {expected_s} +/- {se}")
        expect(close(stats["chsh"]["value"], s, 1e-12), "reported CHSH estimate")
    for d in stats["signal_deltas"]:
        expect(d["delta"] <= SIGMAS * d["std_error"] + 1e-12,
               f"no-signalling delta {d['delta']} > {SIGMAS} sigma ({d['std_error']})")


def check_sim_singlet(stats: dict, csv_bytes: bytes, model: Singlet, seed: int, trials: int,
                      roles) -> bool:
    """Uniform-settings singlet run: every CSV row re-derived from (seed,
    trial, slot), the summary equal to the CSV tally, CHSH and
    no-signalling within the statistical bounds."""
    sc = model.scenario
    expect(stats["trials"] == trials and stats["seed"] == seed, "trials or seed")
    lines = csv_bytes.decode("ascii").splitlines()
    expect(lines[0] == "trial,a,b,A,B" and len(lines) == trials + 1, "CSV header or length")
    rows = [line.split(",") for line in lines[1:]]
    t = np.arange(trials, dtype=np.uint64)
    a_idx = _setting(splitmix_uniform(seed, 4 * t + 1), len(sc.alice_ids))
    b_idx = _setting(splitmix_uniform(seed, 4 * t + 2), len(sc.bob_ids))
    u_out = splitmix_uniform(seed, 4 * t + 3)
    o_idx = np.empty(trials, dtype=np.int64)
    for i, a in enumerate(sc.alice_ids):
        for j, b in enumerate(sc.bob_ids):
            sel = (a_idx == i) & (b_idx == j)
            o_idx[sel] = _draw(_cumulative(model.cell(a, b)), u_out[sel])
    want_a = np.asarray(sc.alice_ids)[a_idx]
    want_b = np.asarray(sc.bob_ids)[b_idx]
    want_o = np.asarray([f"{A},{B}" for A, B in JOINT])[o_idx]
    got = np.asarray(rows)
    expect(np.array_equal(got[:, 0].astype(np.int64), np.arange(trials)), "CSV trial column")
    expect(np.array_equal(got[:, 1], want_a) and np.array_equal(got[:, 2], want_b),
           "CSV settings differ from the SplitMix64 stream")
    expect(np.array_equal(np.char.add(np.char.add(got[:, 3], ","), got[:, 4]), want_o),
           "CSV outcomes differ from the SplitMix64 stream")
    beh = model.behavior()
    a, a2, b, b2 = roles
    s = correlator(beh[(a, b)]) + correlator(beh[(a, b2)]) + correlator(beh[(a2, b)]) \
        - correlator(beh[(a2, b2)])
    _check_stats(stats, _tally(a_idx, b_idx, o_idx, sc), sc, roles, s)
    return True


def check_sim_local(stats: dict, mix: Mixture, seed: int, trials: int) -> bool:
    """Fixed equal-axis sequence over the instruction-set ensemble: counts
    re-derived exactly from the stream, no same-outcome event."""
    sc = mix.scenario
    n = len(sc.alice_ids)
    expect(stats["trials"] == trials and stats["seed"] == seed, "trials or seed")
    t = np.arange(trials, dtype=np.uint64)
    state = _draw(_cumulative(mix.weights), splitmix_uniform(seed, 4 * t))
    axis = np.arange(trials) % n
    u_out = splitmix_uniform(seed, 4 * t + 3)
    o_idx = np.empty(trials, dtype=np.int64)
    beh_of = {}
    for k, (sa, sb) in enumerate(zip(mix.alice, mix.bob)):
        for i in range(n):
            beh_of[(k, i)] = _cumulative(int((sa[i], sb[i]) == ab) for ab in JOINT)
    for (k, i), cum in beh_of.items():
        sel = (state == k) & (axis == i)
        if sel.any():
            o_idx[sel] = _draw(cum, u_out[sel])
    counts = _tally(axis, axis, o_idx, sc)
    expect(all(not key.endswith(("++", "--")) for key in counts), "same outcome on an equal axis")
    expect(stats["pair_counts"] == {f"{x}|{x}": trials // n for x in sc.alice_ids}, "pair counts")
    _check_stats(stats, counts, sc, None, None)
    return True
