"""The benchmark's workloads: a seeded instance pool, the questions of one round, checks.

A round is a fixed list of questions about the instances of one pool entry.
Each question is a public qamg call: `qamg.cli.main(["run", ...])` with its
exit code and written report checked, or a library call.  Only the call is
timed; reading reports back and every check happen after it.  Checks compare
against `oracle` (which does not use qamg) or against properties the paper
proves, never against earlier output of qamg.

qamg functions are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle
import qamg
import qamg.amplification as amplification
import qamg.cli as cli
import qamg.harness as harness

# Instances per pool; rounds cycle through the pool when a run outlasts it.
POOL = 128
QMA_P_TARGETS = ("1/2", "5/8", "3/4", "11/16")
SAMPLE_SIGMAS = 6


class QuestionFailed(Exception):
    """A question ended without an answer: an exception or a nonzero exit code."""


@dataclass(frozen=True)
class Question:
    label: str
    call: Callable[[], object]  # the timed part
    finish: Callable[[object], object] = lambda raw: raw  # untimed: raw result -> answer


def _close(got, want, tol: float) -> bool:
    return abs(float(got) - float(want)) <= tol


class Workload:
    """Instances are generated and saved by `prepare`; `round(j)` lists questions."""

    name = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out = out_dir
        self._oracle_cache: dict = {}

    def instance_seed(self, j: int, salt: int = 0) -> int:
        return (self.seed * POOL + j) * 4 + salt

    def save(self, inst, name: str) -> Path:
        path = self.out / f"{name}.json"
        harness.save_instance(inst, path)
        return path

    def cli_run(self, label: str, instance: Path, *options: str) -> Question:
        report = self.out / f"report-{label}.json"
        argv = ["run", "--instance", str(instance), *options, "--out", str(report)]

        def finish(code):
            if code != 0:
                raise QuestionFailed(f"qamg run exited {code}")
            with open(report) as handle:
                return json.load(handle)

        return Question(label, lambda: cli.main(argv), finish)

    def oracle_for(self, j: int) -> dict:
        if j not in self._oracle_cache:
            self._oracle_cache[j] = self.reference(j)
        return self._oracle_cache[j]

    @staticmethod
    def load_json(path: Path) -> dict:
        with open(path) as handle:
            return json.load(handle)

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, j: int) -> list[Question]:
        raise NotImplementedError

    def reference(self, j: int) -> dict:
        raise NotImplementedError

    def check(self, j: int, answers: dict) -> list[str]:
        raise NotImplementedError


def _qma_reference(path: Path) -> dict:
    data = Workload.load_json(path)
    q = oracle.acceptance_operator(data["circuit"], data["m"], data["k"])
    return {
        "data": data,
        "q": q,
        "top": oracle.top_eigenvalue(q),
        "spectrum": oracle.spectrum(q),
        "a": Fraction(str(data["a"])),
        "b": Fraction(str(data["b"])),
    }


def _tail_at(ref: dict, n: int) -> float:
    return oracle.binomial_tail(ref["top"], n, oracle.threshold(n, ref["a"], ref["b"]))


class WitnessAmplification(Workload):
    """Float state-vector kernel: enumerate and sample trajectories, analytic tails."""

    name = "witness-amplification"
    R_MAX = 40
    ENUMERATE_REPS = 8
    SAMPLE_REPS = 4
    ANALYTIC_REPS = 2048

    def prepare(self) -> None:
        self.paths = []
        self.instances = []
        for j in range(POOL):
            inst = qamg.generate_instance("qma-random", self.instance_seed(j), m=2, k=3)
            self.instances.append(inst)
            self.paths.append(self.save(inst, f"wa-{j}"))
        self._exact_tails: dict = {}

    def round(self, j: int) -> list[Question]:
        inst, path = self.instances[j], self.paths[j]
        questions = [
            self.cli_run("enumerate", path, "--mode", "enumerate", "--reps", str(self.ENUMERATE_REPS)),
            self.cli_run("sample", path, "--mode", "sample", "--reps", str(self.SAMPLE_REPS),
                         "--seed", str(j)),
            self.cli_run("analytic", path, "--mode", "analytic", "--reps", str(self.ANALYTIC_REPS)),
        ]
        for r in range(1, self.R_MAX + 1):
            for side, p in (("a", float(inst.a)), ("b", float(inst.b))):
                questions.append(Question(
                    f"amplify-r{r}-{side}",
                    lambda r=r, p=p: amplification.amplify_preserving_witness(inst, r)
                    .acceptance_probability(p),
                ))
        return questions

    def reference(self, j: int) -> dict:
        return _qma_reference(self.paths[j])

    def exact_tail(self, a: Fraction, b: Fraction, r: int, p: Fraction) -> Fraction:
        n = oracle.amplified_events(a, b, r)
        key = (a, b, n, p)
        if key not in self._exact_tails:
            self._exact_tails[key] = oracle.binomial_tail_exact(p, n, oracle.threshold(n, a, b))
        return self._exact_tails[key]

    def check(self, j: int, answers: dict) -> list[str]:
        ref = self.oracle_for(j)
        bad = []
        for label in ("enumerate", "sample", "analytic"):
            rep = answers.get(label)
            if rep is not None and not _close(rep["values"]["top_eigenvalue"], ref["top"], 1e-9):
                bad.append(f"{label}: top eigenvalue {rep['values']['top_eigenvalue']} != {ref['top']}")
        rep = answers.get("enumerate")
        if rep is not None:
            want = _tail_at(ref, self.ENUMERATE_REPS)
            if not _close(rep["values"]["acceptance"], want, 1e-9):
                bad.append(f"enumerate: acceptance {rep['values']['acceptance']} != tail {want}")
        rep = answers.get("sample")
        if rep is not None:
            want = _tail_at(ref, self.SAMPLE_REPS)
            draws = rep["values"]["sample_draws"]
            sigma = math.sqrt(max(want * (1 - want), 1e-12) / draws)
            if abs(rep["values"]["acceptance"] - want) > SAMPLE_SIGMAS * sigma + 1e-9:
                bad.append(f"sample: acceptance {rep['values']['acceptance']} not within "
                           f"{SAMPLE_SIGMAS} sigma of {want}")
        rep = answers.get("analytic")
        if rep is not None:
            want = _tail_at(ref, self.ANALYTIC_REPS)
            if not _close(rep["values"]["analytic"], want, 1e-9):
                bad.append(f"analytic: {rep['values']['analytic']} != tail {want}")
        a, b = ref["a"], ref["b"]
        for r in range(1, self.R_MAX + 1):
            for side, p in (("a", a), ("b", b)):
                got = answers.get(f"amplify-r{r}-{side}")
                if got is None:
                    continue
                exact = self.exact_tail(a, b, r, p)
                bound = Fraction(1, 2**r)
                holds = exact >= 1 - bound if side == "a" else exact <= bound
                if not holds:
                    bad.append(f"amplify r={r} p={side}: exact tail {float(exact)} breaks 2^-{r}")
                if not _close(got, exact, 1e-12):
                    bad.append(f"amplify r={r} p={side}: {got} != exact tail {float(exact)}")
        return bad


class ExactCertificates(Workload):
    """Exact ring: Gram certificates, amplified certificates, exact enumeration."""

    name = "exact-certificates"
    CERT_R = 2
    ENUMERATE_REPS = 8

    def prepare(self) -> None:
        self.wide, self.narrow, self.narrow_paths = [], [], []
        for j in range(POOL):
            self.wide.append(self.save(
                qamg.generate_instance("qma-random", self.instance_seed(j, 0), m=4, k=5), f"ec45-{j}"))
            inst = qamg.generate_instance("qma-random", self.instance_seed(j, 1), m=2, k=3)
            self.narrow.append(inst)
            self.narrow_paths.append(self.save(inst, f"ec23-{j}"))
        self.dyadic, self.dyadic_paths = [], []
        for i, target in enumerate(QMA_P_TARGETS):
            inst = qamg.generate_instance("qma-p", 0, target=target, m=1, k=3)
            self.dyadic.append(inst)
            self.dyadic_paths.append(self.save(inst, f"ecp-{i}"))

    def round(self, j: int) -> list[Question]:
        narrow = self.narrow[j]
        dyadic = self.dyadic[j % len(self.dyadic)]
        return [
            self.cli_run("certificate", self.wide[j], "--mode", "analytic", "--exact"),
            Question("amplified", lambda: amplification.amplified_counting_certificate(
                narrow, self.CERT_R)),
            Question("exact-enumerate", lambda: amplification.run_alternating_measurements(
                dyadic, qamg.StateVector.basis(1, 0, exact=True), self.ENUMERATE_REPS, "enumerate")),
        ]

    def reference(self, j: int) -> dict:
        dyadic = Workload.load_json(self.dyadic_paths[j % len(self.dyadic)])
        q = oracle.acceptance_operator(dyadic["circuit"], dyadic["m"], dyadic["k"])
        width = dyadic["m"] + dyadic["k"]
        return {
            "wide": _qma_reference(self.wide[j]),
            "narrow": _qma_reference(self.narrow_paths[j]),
            "p": oracle.as_dyadic(float(q[0, 0].real), width),
        }

    def check(self, j: int, answers: dict) -> list[str]:
        ref = self.oracle_for(j)
        bad = []
        rep = answers.get("certificate")
        if rep is not None:
            wide = ref["wide"]
            values = rep["values"]
            if not _close(values["top_eigenvalue"], wide["top"], 1e-9):
                bad.append(f"certificate: top eigenvalue {values['top_eigenvalue']} != {wide['top']}")
            want = _tail_at(wide, values["n_events"])
            if not _close(values["analytic"], want, 1e-9):
                bad.append(f"certificate: analytic {values['analytic']} != tail {want}")
            h, g = values["certificate"]["h"], values["certificate"]["g"]
            trace = float(wide["q"].trace().real)
            if g != oracle.hadamard_count(wide["data"]["circuit"]):
                bad.append(f"certificate: g = {g} is not the Hadamard count")
            if not _close(Fraction(h, 2**g), trace, 1e-12):
                bad.append(f"certificate: h/2^g = {float(Fraction(h, 2**g))} != trace {trace}")
        cert = answers.get("amplified")
        if cert is not None:
            narrow = ref["narrow"]
            a, b = narrow["a"], narrow["b"]
            n = oracle.amplified_events(a, b, self.CERT_R)
            t0 = oracle.threshold(n, a, b)
            want = sum(oracle.binomial_tail(lam, n, t0) for lam in narrow["spectrum"])
            if cert.g != n * oracle.hadamard_count(narrow["data"]["circuit"]):
                bad.append(f"amplified: g = {cert.g} is not N times the Hadamard count")
            if not _close(Fraction(cert.h, 2**cert.g), want, 1e-9):
                bad.append(f"amplified: h/2^g = {float(Fraction(cert.h, 2**cert.g))} != {want}")
        dist = answers.get("exact-enumerate")
        if dist is not None:
            p, n = ref["p"], self.ENUMERATE_REPS
            if sum(dist.probs.values()) != 1:
                bad.append(f"exact-enumerate: probabilities sum to {sum(dist.probs.values())}")
            if 0 < p < 1 and len(dist.probs) != 2**n:
                bad.append(f"exact-enumerate: {len(dist.probs)} patterns, expected {2**n}")
            for z, prob in dist.probs.items():
                w = sum(z)
                if not isinstance(prob, Fraction) or prob != p**w * (1 - p) ** (n - w):
                    bad.append(f"exact-enumerate: Pr{z} = {prob} != p^{w}(1-p)^{n - w}, p = {p}")
                    break
        return bad


class CoinGames(Workload):
    """Spectra and the see-saw: coin-first repetition and one-coin cheating."""

    name = "coin-games"
    RESTARTS = 8

    def prepare(self) -> None:
        self.qam_random, self.qip_perfect = [], []
        for j in range(POOL):
            self.qam_random.append(self.save(
                qamg.generate_instance("qam-random", self.instance_seed(j, 0), s=2, m=1, k=3),
                f"cg-qam-{j}"))
            self.qip_perfect.append(self.save(
                qamg.generate_instance("qip-perfect", self.instance_seed(j, 1), k=2, m=1),
                f"cg-perfect-{j}"))
        self.qam_bounded = self.save(
            qamg.generate_instance("qam-bounded", self.seed, s=6, m=2, k=3, error="1/16"),
            "cg-bounded")
        self.qip_no = self.save(
            qamg.generate_instance("qip-no", self.seed, k=3, m=1, coins=2), "cg-no")
        self._fixed_refs: Optional[dict] = None

    def round(self, j: int) -> list[Question]:
        restarts = ("--restarts", str(self.RESTARTS), "--seed", str(j))
        return [
            self.cli_run("qam-analytic", self.qam_random[j], "--mode", "analytic", "--reps", "3"),
            self.cli_run("qam-enumerate", self.qam_random[j], "--mode", "enumerate"),
            self.cli_run("bounded-enumerate", self.qam_bounded, "--mode", "enumerate"),
            self.cli_run("no-sample", self.qip_no, "--mode", "sample", *restarts),
            self.cli_run("perfect-sample", self.qip_perfect[j], "--mode", "sample", *restarts),
            self.cli_run("perfect-analytic", self.qip_perfect[j], "--mode", "analytic"),
        ]

    @staticmethod
    def _qam_reference(path: Path) -> dict:
        data = Workload.load_json(path)
        mu = {
            y: oracle.top_eigenvalue(oracle.acceptance_operator(text, data["m"], data["k"]))
            for y, text in data["circuits"].items()
        }
        error = 1.0 - sum(mu.values()) / len(mu)
        good = sum(1 for v in mu.values() if v >= 2 / 3 - 1e-9) / len(mu)
        return {"mu": mu, "error": error, "good": good, "precondition": error <= 1 / 9 + 1e-12}

    @staticmethod
    def _qip_reference(path: Path) -> dict:
        data = Workload.load_json(path)
        epsilon = Fraction(str(data["epsilon"]))
        return {
            "bound": 0.5 + math.sqrt(epsilon) / 2,
            "honest": oracle.honest_one_coin_value(data["v1"], data["v2"], data["k"], data["m"]),
        }

    def reference(self, j: int) -> dict:
        if self._fixed_refs is None:
            self._fixed_refs = {
                "bounded": self._qam_reference(self.qam_bounded),
                "no": self._qip_reference(self.qip_no),
            }
        return {
            "qam": self._qam_reference(self.qam_random[j]),
            "perfect": self._qip_reference(self.qip_perfect[j]),
            **self._fixed_refs,
        }

    def check(self, j: int, answers: dict) -> list[str]:
        ref = self.oracle_for(j)
        bad = []
        for label, key in (("qam-analytic", "qam"), ("qam-enumerate", "qam"),
                           ("bounded-enumerate", "bounded")):
            rep = answers.get(label)
            if rep is None:
                continue
            values, want = rep["values"], ref[key]
            if set(values["mu_by_coin"]) != set(want["mu"]) or any(
                not _close(values["mu_by_coin"][y], want["mu"][y], 1e-9) for y in want["mu"]
            ):
                bad.append(f"{label}: mu_by_coin {values['mu_by_coin']} != {want['mu']}")
            if not _close(values["expected_error"], want["error"], 1e-9):
                bad.append(f"{label}: expected error {values['expected_error']} != {want['error']}")
            if label.endswith("enumerate"):
                if not _close(values["fraction_good"], want["good"], 1e-12):
                    bad.append(f"{label}: good-coin fraction {values['fraction_good']} != {want['good']}")
                if values["precondition_ok"] != want["precondition"]:
                    bad.append(f"{label}: precondition {values['precondition_ok']} != {want['precondition']}")
        for label, key in (("no-sample", "no"), ("perfect-sample", "perfect"),
                           ("perfect-analytic", "perfect")):
            rep = answers.get(label)
            if rep is None:
                continue
            values, want = rep["values"], ref[key]
            if not _close(values["honest_value"], want["honest"], 1e-9):
                bad.append(f"{label}: honest value {values['honest_value']} != {want['honest']}")
            if "cheat_value" in values:
                cheat = values["cheat_value"]
                if not 0.5 - 1e-6 <= cheat <= want["bound"] + 1e-4:
                    bad.append(f"{label}: cheat value {cheat} outside [1/2, {want['bound']}]")
        rep = answers.get("perfect-analytic")
        if rep is not None and not _close(rep["values"]["honest_value"], 1.0, 1e-9):
            bad.append(f"perfect-analytic: honest value {rep['values']['honest_value']} != 1")
        # Completeness makes the best prover on a perfect game accept with probability 1; the
        # see-saw stops within 2e-6 of it on 512 seeded instances, so 1e-4 flags a weaker search.
        rep = answers.get("perfect-sample")
        if rep is not None and rep["values"]["cheat_value"] < 1.0 - 1e-4:
            bad.append(f"perfect-sample: see-saw stopped at {rep['values']['cheat_value']}, not 1")
        return bad


WORKLOADS = {w.name: w for w in (WitnessAmplification, ExactCertificates, CoinGames)}


def make(name: str, seed: int, out_dir: Path) -> Optional[Workload]:
    cls = WORKLOADS.get(name)
    return cls(seed, out_dir) if cls is not None else None
