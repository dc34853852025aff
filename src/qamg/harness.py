"""Instance generation, JSON serialization, and experiment orchestration.

Instances and reports are JSON with sorted keys; exact thresholds travel as
rational strings like "3/4".  Every seeded path draws from a 64-bit
counter-based generator keyed by the seed, so identical configs produce
byte-identical reports apart from the wall-clock field.  File writes go
through a temp-then-rename step so a concurrent reader never sees a partial
file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .amplification import (
    ENUMERATE_EVENT_CAP,
    QmaInstance,
    amplify_by_copies,
    analytic_acceptance,
    as_fraction,
    counting_certificate,
    run_alternating_measurements,
)
from .circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    StateVector,
    check_width,
    circuit,
    dagger,
    hadamard,
    ishift,
    multi_controlled_x_gates,
    parse_circuit,
    serialize_circuit,
    toffoli,
    x_gates,
)
from .qam import QamInstance, coin_strings, markov_check, parallel_repetition_values
from .qmam import QipInstance, honest_value, optimize_cheating, soundness_bound

RNG_NAME = "philox-4x64-counter"

GENERATOR_KINDS = (
    "qma-p",
    "qma-random",
    "qam-bounded",
    "qam-random",
    "qip-perfect",
    "qip-no",
)

# Each protocol's modes and, for each mode, the flag sets one run of it can
# read: the count flags and --exact a run passes must all lie in one set, or
# the run is a usage error.  A qma analytic run reads --copies in place of
# --reps.
MODE_FLAGS = {
    "qma": {
        "enumerate": (("reps", "exact"),),
        "sample": (("reps", "exact"),),
        "analytic": (("reps", "exact"), ("copies", "exact")),
    },
    "qam": {"enumerate": ((),), "analytic": (("reps",),)},
    "qmam": {"sample": (("restarts",),), "analytic": ((),)},
}

TABLE_COLUMNS = ("N_or_t", "message_qubits", "error")

# Work caps: measurement events of a qma run by mode, witness copies of a qma
# run, log2 of the coin tuples a qam analytic run scans, and log2 of the
# amplitudes a qmam sample run's see-saw batch holds (restarts * 2^(k+m+l)).
QMA_EVENT_CAPS = {"enumerate": ENUMERATE_EVENT_CAP, "sample": 4096, "analytic": 1 << 20}
QMA_COPIES_CAP = 1 << 20
QAM_TUPLE_CAP_BITS = 12
QMAM_BATCH_CAP_BITS = 22


class SchemaError(ValueError):
    """Instance or report JSON does not match the expected shape."""


class WorkCapError(ValueError):
    """A run would do more work than its mode's cap allows."""


Instance = Union[QmaInstance, QamInstance, QipInstance]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# --- rational JSON round-trip ---


def _num_to_json(value: Fraction) -> Union[int, str]:
    frac = as_fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def _num_from_json(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"expected number or rational string, got {value!r}")
    try:
        return as_fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SchemaError(f"bad rational value {value!r}") from exc


def _arity_from_json(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return value


# --- instance serialization ---


def instance_to_dict(inst: Instance) -> dict:
    if isinstance(inst, QmaInstance):
        out = {
            "type": "qma",
            "m": inst.m,
            "k": inst.k,
            "a": _num_to_json(inst.a),
            "b": _num_to_json(inst.b),
            "circuit": serialize_circuit(inst.verifier),
        }
        if inst.label is not None:
            out["label"] = inst.label
        return out
    if isinstance(inst, QamInstance):
        return {
            "type": "qam",
            "s": inst.s,
            "m": inst.m,
            "k": inst.k,
            "a": _num_to_json(inst.a),
            "b": _num_to_json(inst.b),
            "circuits": {y: serialize_circuit(c) for y, c in sorted(inst.family.items())},
        }
    if isinstance(inst, QipInstance):
        return {
            "type": "qmam",
            "k": inst.k,
            "m": inst.m,
            "epsilon": _num_to_json(inst.epsilon),
            "v1": serialize_circuit(inst.v1),
            "v2": serialize_circuit(inst.v2),
        }
    raise SchemaError(f"cannot serialize {type(inst).__name__}")


def _require(d: dict, keys: Sequence[str]) -> None:
    missing = [key for key in keys if key not in d]
    if missing:
        raise SchemaError(f"instance JSON missing fields {missing}")


def _parse_or_schema_error(text, field: str) -> Circuit:
    if not isinstance(text, str):
        raise SchemaError(f"field {field!r} must be circuit text")
    try:
        return parse_circuit(text)
    except CircuitParseError as exc:
        raise SchemaError(f"field {field!r}: {exc}") from exc


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError("instance JSON must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "qma":
            _require(data, ["m", "k", "a", "b", "circuit"])
            return QmaInstance(
                verifier=_parse_or_schema_error(data["circuit"], "circuit"),
                m=_arity_from_json(data, "m"),
                k=_arity_from_json(data, "k"),
                a=_num_from_json(data["a"]),
                b=_num_from_json(data["b"]),
                label=data.get("label"),
            )
        if kind == "qam":
            _require(data, ["s", "m", "k", "a", "b", "circuits"])
            if not isinstance(data["circuits"], dict):
                raise SchemaError("field 'circuits' must map coin strings to circuit text")
            s = _arity_from_json(data, "s")
            # compare before QamInstance lists all 2^s coin strings
            if s < 0 or len(data["circuits"]) != 1 << min(s, 64):
                raise SchemaError(
                    f"field 's' = {s} needs 2^s circuits, got {len(data['circuits'])}"
                )
            parsed: dict[str, Circuit] = {}  # coins with equal texts share one Circuit
            family = {}
            for y, text in data["circuits"].items():
                if not isinstance(text, str) or text not in parsed:
                    parsed[text] = _parse_or_schema_error(text, f"circuits[{y!r}]")
                family[y] = parsed[text]
            return QamInstance(
                s=s,
                family=family,
                m=_arity_from_json(data, "m"),
                k=_arity_from_json(data, "k"),
                a=_num_from_json(data["a"]),
                b=_num_from_json(data["b"]),
            )
        if kind == "qmam":
            _require(data, ["k", "m", "epsilon", "v1", "v2"])
            return QipInstance(
                v1=_parse_or_schema_error(data["v1"], "v1"),
                v2=_parse_or_schema_error(data["v2"], "v2"),
                k=_arity_from_json(data, "k"),
                m=_arity_from_json(data, "m"),
                epsilon=_num_from_json(data["epsilon"]),
            )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"invalid {kind} instance: {exc}") from exc
    raise SchemaError(f"unknown instance type {kind!r}")


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    write_atomic(path, json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n")


def load_instance(path: Union[str, Path]) -> Instance:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return instance_from_dict(data)


# --- generators ---


def _random_gates(rng: np.random.Generator, width: int, count: int) -> list[Gate]:
    gates: list[Gate] = []
    for _ in range(count):
        kind = int(rng.integers(0, 3 if width >= 3 else 2))
        if kind == 0:
            gates.append(hadamard(int(rng.integers(0, width))))
        elif kind == 1:
            gates.append(ishift(int(rng.integers(0, width))))
        else:
            q = [int(x) for x in rng.permutation(width)[:3]]
            gates.append(toffoli(q[0], q[1], q[2]))
    return gates


def _coin_pattern_gates(
    coin_qubits: Sequence[int], pattern: int, target: int, borrow: int
) -> list[Gate]:
    """Flip target iff the coin qubits spell the given pattern."""
    d = len(coin_qubits)
    flips: list[Gate] = []
    for pos, q in enumerate(coin_qubits):
        if not (pattern >> (d - 1 - pos)) & 1:
            flips.extend(x_gates(q))
    core = multi_controlled_x_gates(list(coin_qubits), target, [borrow])
    return flips + core + flips


def _dyadic_hit_circuit(width: int, coin_qubits: Sequence[int], count: int, borrow: int) -> Circuit:
    """Toss the coin qubits and flip the output on `count` chosen patterns.

    The output qubit ends XORed with an indicator of probability
    count / 2^len(coin_qubits), exactly.
    """
    gates = [hadamard(q) for q in coin_qubits]
    for pattern in range(count):
        gates += _coin_pattern_gates(coin_qubits, pattern, 0, borrow)
    return circuit(width, gates)


def _generate_qma_p(target, m: int, k: int) -> QmaInstance:
    """Verifier whose top acceptance eigenvalue is an exact dyadic near target.

    Work coins drive a minterm indicator XORed onto the output qubit, so the
    spectrum is {count/2^d, 1 - count/2^d}; the realized top eigenvalue is
    re-measured and declared as the threshold a.
    """
    if m < 1 or k < 2:
        raise ValueError("qma-p needs m >= 1 and k >= 2 (coins plus a borrow)")
    check_width(m + k, exact=True)
    goal = as_fraction(target)
    if not 0 <= goal <= 1:
        raise ValueError(f"target must be in [0,1], got {goal}")
    d = k - 1
    while d > 1 and (goal * 2 ** (d - 1)).denominator == 1:
        d -= 1  # smallest coin count that realizes the target exactly
    count = min(1 << d, max(0, round(goal * (1 << d))))
    coin_qubits = list(range(m, m + d))
    verifier = _dyadic_hit_circuit(m + k, coin_qubits, count, borrow=m + d)
    inst = QmaInstance(verifier=verifier, m=m, k=k, a=Fraction(3, 4), b=Fraction(1, 4))
    realized = Fraction(max(count, (1 << d) - count), 1 << d)
    top = float(inst.spectrum.eigenvalues[0])
    if abs(top - float(realized)) > 1e-9:
        raise AssertionError(f"realized spectrum {top} != declared {realized}")
    if realized == 1:
        a, b = Fraction(1), Fraction(1, 2)
    else:
        a, b = realized, realized / 2
    return QmaInstance(verifier=verifier, m=m, k=k, a=a, b=b, label="yes")


def _generate_qam_bounded(s: int, m: int, k: int, error) -> QamInstance:
    """Coin family whose expected rejection is a dyadic value <= error.

    All coins but one accept perfectly; the all-zero coin hides a two-coin
    miss whose weight is the largest quarter-multiple under error * 2^s.
    """
    if s < 1 or m < 1 or k < 3:
        raise ValueError("qam-bounded needs s >= 1, m >= 1, k >= 3")
    check_width(m + k, exact=True)
    budget = as_fraction(error) * (1 << s)
    miss_quarters = min(2, int(budget * 4 // 1))
    if miss_quarters < 1:
        raise ValueError(f"error budget {error} too small to realize with two coins")
    perfect = circuit(m + k, [*x_gates(0)])
    miss = _dyadic_hit_circuit(m + k, [m, m + 1], miss_quarters, borrow=m + 2)
    lossy = circuit(m + k, [*miss.gates, *x_gates(0)])
    family = {y: perfect for y in coin_strings(s)}
    family["0" * s] = lossy
    return QamInstance(s=s, family=family, m=m, k=k, a=Fraction(2, 3), b=Fraction(1, 3))


def generate_instance(kind: str, seed: int, **params) -> Instance:
    """Deterministic seeded instance construction for the supported kinds.

    qma-p: target (rational), m, k; exact-by-construction spectrum.
    qma-random / qam-random: random gate lists with conventional thresholds;
    the promise is not enforced (qma-random at seed 14, m=2, k=3 has top
    eigenvalue exactly 1/2, between b=1/4 and a=3/4).
    qam-bounded: s, m, k, error; passes the 2/3-fraction precondition.
    qip-perfect: k, m; second transformation inverts the first then flips
    the output, so the honest value is exactly 1.
    qip-no: k, m, coins; soundness error exactly 2^-coins (0 when coins=0).
    """
    rng = _rng(seed)
    if kind == "qma-p":
        return _generate_qma_p(
            params.get("target", "1/2"),
            int(params.get("m", 1)),
            int(params.get("k", 2)),
        )
    if kind == "qma-random":
        m = int(params.get("m", 1))
        k = int(params.get("k", 2))
        check_width(m + k, exact=True)
        gates = _random_gates(rng, m + k, int(params.get("gates", 3 * (m + k))))
        return QmaInstance(
            verifier=circuit(m + k, gates), m=m, k=k, a=Fraction(3, 4), b=Fraction(1, 4)
        )
    if kind == "qam-bounded":
        return _generate_qam_bounded(
            int(params.get("s", 3)),
            int(params.get("m", 1)),
            int(params.get("k", 3)),
            params.get("error", "1/20"),
        )
    if kind == "qam-random":
        s = int(params.get("s", 1))
        m = int(params.get("m", 1))
        k = int(params.get("k", 2))
        check_width(m + k, exact=True)
        family = {
            y: circuit(m + k, _random_gates(rng, m + k, int(params.get("gates", 3 * (m + k)))))
            for y in coin_strings(s)
        }
        return QamInstance(s=s, family=family, m=m, k=k, a=Fraction(2, 3), b=Fraction(1, 3))
    if kind == "qip-perfect":
        k = int(params.get("k", 1))
        m = int(params.get("m", 1))
        check_width(k + m, exact=False)
        v1 = circuit(k + m, _random_gates(rng, k + m, int(params.get("gates", 8))))
        v2 = circuit(k + m, [*dagger(v1).gates, *x_gates(0)])
        return QipInstance(v1=v1, v2=v2, k=k, m=m, epsilon=Fraction(1))
    if kind == "qip-no":
        k = int(params.get("k", 3))
        m = int(params.get("m", 1))
        coins = int(params.get("coins", 2))
        if coins and k < coins + 1:
            raise ValueError("qip-no needs k >= coins + 1")
        check_width(k + m, exact=False)
        gates: list[Gate] = [hadamard(q) for q in range(1, 1 + coins)]
        if coins:
            gates += multi_controlled_x_gates(list(range(1, 1 + coins)), 0, [k + m - 1])
        return QipInstance(
            v1=circuit(k + m),
            v2=circuit(k + m, gates),
            k=k,
            m=m,
            epsilon=Fraction(1, 1 << coins) if coins else Fraction(0),
        )
    raise ValueError(f"unknown kind {kind!r}; expected one of {GENERATOR_KINDS}")


# --- experiment orchestration ---


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance file and a compute mode.

    The instance's type names its protocol; `run_experiment` checks the mode
    and flags against that protocol's `MODE_FLAGS` entry after loading it.
    """

    instance: str
    mode: str
    seed: int = 0
    reps: Optional[int] = None
    copies: Optional[int] = None
    restarts: Optional[int] = None
    exact: bool = False
    out: Optional[str] = None

    def check(self, protocol: str) -> None:
        """Reject a mode the protocol lacks, flags no run of the mode reads, and counts below 1."""
        if self.mode not in MODE_FLAGS[protocol]:
            raise ValueError(
                f"mode {self.mode!r} not valid for {protocol}; "
                f"choose from {tuple(MODE_FLAGS[protocol])}"
            )
        if self.mode == "sample" and self.seed is None:
            raise ValueError("sampling modes require a seed")
        counts = [name for name in ("reps", "copies", "restarts")
                  if getattr(self, name) is not None]
        flags = counts + ["exact"] * self.exact
        readings = MODE_FLAGS[protocol][self.mode]
        for name in flags:
            if not any(name in reading for reading in readings):
                raise ValueError(f"{protocol} {self.mode} mode does not read {name}")
        if not any(set(flags) <= set(reading) for reading in readings):
            apart = " and ".join(f for f in flags if not all(f in r for r in readings))
            raise ValueError(f"{protocol} {self.mode} mode does not read {apart} together")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def echo(self, protocol: str) -> dict:
        return {
            "protocol": protocol,
            "instance": self.instance,
            "mode": self.mode,
            "seed": self.seed,
            "reps": self.reps,
            "copies": self.copies,
            "restarts": self.restarts,
            "exact": self.exact,
        }


def _run_qma(config: ExperimentConfig, inst: QmaInstance) -> tuple[dict, dict, dict, dict]:
    n_events = config.reps if config.reps is not None else 8 * inst.gap_q**2
    cap = QMA_EVENT_CAPS.get(config.mode)
    if config.copies is None and cap is not None and n_events > cap:
        raise WorkCapError(f"{config.mode} mode capped at {cap} events, got {n_events}")
    if config.copies is not None and config.copies > QMA_COPIES_CAP:
        raise WorkCapError(f"copies capped at {QMA_COPIES_CAP}, got {config.copies}")
    top = float(inst.spectrum.eigenvalues[0])
    witness = StateVector.from_amplitudes([complex(x) for x in inst.spectrum.vectors[:, 0]])
    values: dict = {"top_eigenvalue": top, "gap_q": inst.gap_q}
    residuals: dict = {}
    checks: dict = {}
    if config.copies is not None:
        amplified = amplify_by_copies(inst, config.copies)
        acc = float(amplified.acceptance_probability(top))
        checks["acceptance_is_probability"] = 0.0 <= acc <= 1.0
        values.update(
            {
                "copies": amplified.copies,
                "message_qubits": amplified.message_width,
                "acceptance": acc,
            }
        )
        row = {"N_or_t": amplified.copies, "message_qubits": amplified.message_width}
    else:
        analytic = float(analytic_acceptance([(top, 1)], n_events, inst.a, inst.b))
        values.update({"n_events": n_events, "message_qubits": inst.m, "analytic": analytic})
        checks["analytic_is_probability"] = 0.0 <= analytic <= 1.0
        if config.mode == "enumerate":
            dist = run_alternating_measurements(inst, witness, n_events, mode="enumerate")
            acc = float(dist.acceptance_probability())
            residuals["enumerate_vs_analytic"] = abs(acc - analytic)
            checks["enumerate_matches_analytic"] = residuals["enumerate_vs_analytic"] < 1e-9
            residuals["distribution_total"] = abs(float(dist.total()) - 1.0)
            checks["distribution_normalized"] = residuals["distribution_total"] < 1e-9
        elif config.mode == "sample":
            draws = 256
            _, accepted = run_alternating_measurements(
                inst, witness, n_events, mode="sample", seed=config.seed, draws=draws
            )
            acc = int(accepted.sum()) / draws
            sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / draws)
            residuals["sample_vs_analytic"] = abs(acc - analytic)
            checks["sample_within_noise"] = residuals["sample_vs_analytic"] <= 6 * sigma + 1e-9
            values["sample_draws"] = draws
        else:
            acc = analytic
        values["acceptance"] = acc
        row = {"N_or_t": n_events, "message_qubits": inst.m}
    if config.exact:
        cert = counting_certificate(inst)
        values["certificate"] = {"h": cert.h, "g": cert.g}
        residuals["certificate_vs_trace"] = abs(
            float(cert.value) - float(np.trace(inst.q_operator()).real)
        )
        checks["certificate_matches_trace"] = residuals["certificate_vs_trace"] < 1e-12
    error = 1.0 - values["acceptance"] if top >= float(inst.a + inst.b) / 2 else values["acceptance"]
    row["error"] = error
    values["error"] = error
    return values, residuals, checks, row


def _run_qam(config: ExperimentConfig, inst: QamInstance) -> tuple[dict, dict, dict, dict]:
    n = config.reps if config.reps is not None else 2
    if config.mode == "analytic" and inst.s * n > QAM_TUPLE_CAP_BITS:
        raise WorkCapError(
            f"analytic mode capped at 2^{QAM_TUPLE_CAP_BITS} coin tuples, "
            f"got 2^({inst.s}*{n})"
        )
    gap = inst.complement_gap()
    mu = {y: float(inst.coin_verifier(y).spectrum.eigenvalues[0]) for y in inst.coins()}
    expected_error = 1.0 - sum(mu.values()) / len(mu)
    values: dict = {"mu_by_coin": mu, "expected_error": expected_error}
    residuals: dict = {"complement_gap": gap}
    checks: dict = {"complement_identity": gap <= 1e-12}
    if config.mode == "analytic":
        lams, independent = parallel_repetition_values(inst, n)
        worst = float(np.abs(lams - independent).max())
        residuals["repetition_vs_independent"] = worst
        checks["repetition_matches_independent"] = worst < 1e-9
        values["repetitions"] = n
        row = {"N_or_t": n, "message_qubits": inst.m, "error": expected_error}
    else:
        report = markov_check(inst, "yes", seed=config.seed)
        values.update(
            {
                "fraction_good": float(report.fraction_good),
                "precondition_ok": report.precondition_ok,
                "exhaustive": report.exhaustive,
            }
        )
        checks["markov_two_thirds"] = (not report.precondition_ok) or report.passes
        row = {"N_or_t": 1, "message_qubits": inst.m, "error": expected_error}
    return values, residuals, checks, row


def _run_qmam(config: ExperimentConfig, base: QipInstance) -> tuple[dict, dict, dict, dict]:
    restarts = config.restarts if config.restarts is not None else 16
    batch_bits = base.k + base.m + base.l
    if config.mode == "sample" and restarts << batch_bits > 1 << QMAM_BATCH_CAP_BITS:
        raise WorkCapError(
            f"sample mode capped at 2^{QMAM_BATCH_CAP_BITS} see-saw amplitudes, "
            f"got {restarts}*2^{batch_bits}"
        )
    honest = honest_value(base)
    bound = soundness_bound(base)
    values: dict = {
        "honest_value": honest,
        "bound": bound,
        "epsilon": float(base.epsilon),
    }
    residuals: dict = {}
    checks: dict = {"honest_within_unit": -1e-9 <= honest <= 1 + 1e-9}
    if config.mode == "sample":
        result = optimize_cheating(base, restarts=restarts, seed=config.seed)
        values.update(
            {
                "cheat_value": result.value,
                "converged": result.converged,
                "iterations": result.iterations,
                "restarts": restarts,
            }
        )
        residuals["cheat_over_bound"] = max(0.0, result.value - bound)
        checks["cheat_below_bound"] = result.value <= bound + 1e-4
        checks["cheat_reaches_half"] = result.value >= 0.5 - 1e-6
        error = result.value - 0.5
    else:
        error = 1.0 - honest
    row = {"N_or_t": config.restarts or 1, "message_qubits": base.m, "error": error}
    values["error"] = error
    return values, residuals, checks, row


# Each instance class's protocol tag and runner.
_PROTOCOLS = {
    QmaInstance: ("qma", _run_qma),
    QamInstance: ("qam", _run_qam),
    QipInstance: ("qmam", _run_qmam),
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Load the instance, run its protocol in the config's mode, and assemble the report.

    The instance file is read once, and its type names the protocol.  The
    mode and flags are checked against that protocol before any work.  The
    report echoes the config, records computed values and residuals, and
    carries a checks map; the experiment counts as passing when every check
    is true.  When config.out is set the JSON is written atomically.
    """
    started = time.monotonic()
    inst = load_instance(config.instance)
    protocol, runner = _PROTOCOLS[type(inst)]
    config.check(protocol)
    values, residuals, checks, row = runner(config, inst)
    report = {
        "config": config.echo(protocol),
        "values": values,
        "residuals": residuals,
        "checks": checks,
        "passed": all(checks.values()),
        "table_row": row,
        "rng": RNG_NAME,
        "wall_clock_seconds": time.monotonic() - started,
    }
    if config.out:
        write_atomic(config.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def run_batch(configs: Sequence[ExperimentConfig]) -> list[dict]:
    """Run several experiments one after another; reports come back in input order."""
    return [run_experiment(config) for config in configs]


def emit_tables(reports: Sequence[dict]) -> str:
    """Render report table rows as CSV with a stable column order.

    Every report must carry the same table_row keys; an empty list yields a
    header-only CSV with the canonical sweep columns.
    """
    if not reports:
        return ",".join(TABLE_COLUMNS) + "\n"
    rows = []
    for report in reports:
        row = report.get("table_row")
        if not isinstance(row, dict):
            raise SchemaError("report lacks a table_row object")
        rows.append(row)
    keys = sorted(rows[0])
    canonical = [c for c in TABLE_COLUMNS if c in rows[0]]
    columns = canonical + [k for k in keys if k not in canonical]
    for row in rows[1:]:
        if sorted(row) != keys:
            raise SchemaError(
                f"heterogeneous table rows: {sorted(row)} vs {keys}"
            )
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text
