"""The four workloads: seeded plans, set-up, timed operations and checks.

A *plan* is a pure function of ``(seed, seconds)``: the same arguments
give the same operation list, whatever the host.  ``seconds`` sizes the
fixed work (``NOMINAL_SECONDS`` is the size the workloads were tuned at);
the work never depends on the clock.  The program only ever sees the
generated inputs.

Each workload object is driven by ``run.py`` in four steps: ``setup``
(imports, circuit load, vectors and universe, or service construction —
timed as set-up), ``run`` (the timed operations, each checked right after
it returns, outside its timed region), ``verify`` (digests against the
second-engine references) and the reports.  Program calls go through
module attributes, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple

import refs
from measure import maybe_percentile
from speed import WallClock

NOMINAL_SECONDS = 12
DEFAULT_SEED = 1
#: Seed of the fixed base test programs (never the run's seed).
BASE_SEED = 0

COVERAGE_CIRCUITS = ("s820", "s1196", "s1423")
SERVICE_CIRCUITS = ("s298", "s344", "s382", "s386", "s526")
#: Engines of each circuit's CI test matrix, one distinct spec each.
MATRIX_ENGINES = (
    "csim-MV", "csim-MV", "csim-MV", "PROOFS", "PROOFS", "PROOFS",
    "vsim", "vsim", "transition", "transition",
)
MATRIX_COLLAPSED = 3
MATRIX_PRUNED = 2
BURST_SIZE = 8
#: Worker processes for coverage-sharded (the host's nproc when sized).
SHARD_JOBS = 2


def _sized(base: float, seconds: int, multiple: int = 1, minimum: int = 1) -> int:
    value = int(round(base * seconds / NOMINAL_SECONDS / multiple)) * multiple
    return max(minimum, value)


# -- plans ------------------------------------------------------------------


def coverage_plan(seed: int, seconds: int) -> dict:
    """Three csim-MV gradings of a test program, one per circuit.

    Each circuit's test program is a fixed base sequence followed by a
    tail drawn from the seed: a CI job re-grading the design's test
    program plus the tests a change appended.  Fault dropping makes the
    first few hundred vectors carry nearly all of the work, and that work
    swings with the exact vectors (fully random 512-vector sets took
    13.6-25.1 s over seeds 1-8); keeping the base fixed leaves the seed's
    inputs different in every run while the work stays nearly constant.
    """
    rng = random.Random(f"coverage:{seed}")
    total = _sized(512, seconds, multiple=8, minimum=16)
    tail = max(8, total // 4)
    return {
        "engine": "csim-MV",
        "campaigns": [
            {
                "circuit": name,
                "scale": 1.0,
                "base_vectors": total - tail,
                "base_seed": BASE_SEED,
                "tail_vectors": tail,
                "tail_seed": rng.randrange(1 << 30),
            }
            for name in COVERAGE_CIRCUITS
        ],
    }


def base_and_tail(circuit, inputs: dict):
    """A test program: the fixed base sequence, then the seeded tail."""
    from repro.patterns import random_gen
    from repro.patterns.vectors import TestSequence

    base = random_gen.random_sequence(circuit, inputs["base_vectors"], seed=inputs["base_seed"])
    tail = random_gen.random_sequence(circuit, inputs["tail_vectors"], seed=inputs["tail_seed"])
    return TestSequence(len(circuit.inputs), list(base.vectors) + list(tail.vectors))


def diagnose_plan(seed: int, seconds: int) -> dict:
    """One vsim dictionary build on s1196, then ranked queries.

    The production test set is a fixed base plus a seeded tail (as in
    :func:`coverage_plan`: with fully random sets, some seeds leave s1196
    uninitialized for long enough that a third as many faults are
    detected, and query cost follows).  Each query observes one sampled
    detected fault (``pick`` indexes the sorted detected faults); every
    second query keeps only a prefix of the signature, modelling partial
    observation.
    """
    rng = random.Random(f"diagnose:{seed}")
    total = _sized(128, seconds, multiple=8, minimum=16)
    tail = max(8, total // 4)
    return {
        "circuit": "s1196",
        "scale": 1.0,
        "base_vectors": total - tail,
        "base_seed": BASE_SEED,
        "tail_vectors": tail,
        "tail_seed": rng.randrange(1 << 30),
        "queries": [
            {"pick": rng.random(), "prefix": index % 2 == 1, "keep": rng.uniform(0.25, 0.75)}
            for index in range(_sized(300, seconds, minimum=4))
        ],
    }


def service_plan(seed: int, seconds: int) -> dict:
    """Bursts of CI test-matrix requests plus /diagnose queries.

    Each circuit has a matrix of distinct job specs with a fixed engine
    mix and fixed numbers of collapsed and pruned entries; the seed picks
    which entries get which options, their vectors and the request order.
    A burst targets one circuit.  Every matrix entry is requested at least
    once and the remaining requests repeat entries at random, so most
    requests hit the result cache and the number of distinct simulations
    does not depend on the seed.  Queries are spread over the bursts; the
    first one (whose observation is arbitrary) answers 202 and triggers the
    s526 dictionary build.
    """
    rng = random.Random(f"service:{seed}")
    per_circuit = _sized(30 / len(SERVICE_CIRCUITS), seconds)
    matrix: Dict[str, List[dict]] = {}
    bursts = []
    for circuit in SERVICE_CIRCUITS:
        collapsed = set(rng.sample(range(len(MATRIX_ENGINES)), MATRIX_COLLAPSED))
        pruned = set(rng.sample(range(len(MATRIX_ENGINES)), MATRIX_PRUNED))
        specs = []
        for index, engine in enumerate(MATRIX_ENGINES):
            spec: dict = {
                "circuit": circuit,
                "scale": 0.5,
                "random_patterns": 64,
                "seed": rng.randrange(1 << 30),
            }
            if engine == "transition":
                spec["transition"] = True
            else:
                spec["engine"] = engine
            if index in collapsed:
                spec["collapse"] = "equivalence"
            if index in pruned:
                spec["prune_untestable"] = True
            specs.append(spec)
        matrix[circuit] = specs
        total = per_circuit * BURST_SIZE
        requests = list(range(len(specs))) if total >= len(specs) else []
        requests += [rng.randrange(len(specs)) for _ in range(total - len(requests))]
        rng.shuffle(requests)
        for start in range(0, total, BURST_SIZE):
            bursts.append(
                {"circuit": circuit, "requests": requests[start:start + BURST_SIZE], "queries": []}
            )
    rng.shuffle(bursts)
    bursts[0]["queries"].append({"warmup": True})
    for _ in range(_sized(40, seconds, minimum=2) - 1):
        slot = rng.randrange(1, len(bursts))
        bursts[slot]["queries"].append(
            {"pick": rng.random(), "prefix": rng.random() < 0.5, "keep": rng.uniform(0.25, 0.75)}
        )
    return {
        "matrix": matrix,
        "bursts": bursts,
        "dictionary": {
            "circuit": "s526",
            "scale": 0.5,
            "random_patterns": 64,
            "seed": rng.randrange(1 << 30),
        },
    }


PLANS: Dict[str, Callable[[int, int], dict]] = {
    "coverage": coverage_plan,
    "diagnose": diagnose_plan,
    "service": service_plan,
}


# -- the timed-operation session ----------------------------------------------


class Session:
    """Times program calls, counts operations and failures.

    Each call is one region of *clock* (a :class:`speed.WallClock` unless
    given; the untraced run passes its :class:`speed.HostClock`).
    ``run_s`` sums the calls' wall seconds; with a span recorder each call
    is also one operation root span, and its duration is the span's.
    *between*, if given, is called with ``run_s`` before each operation,
    outside its timed region.
    """

    def __init__(
        self,
        recorder=None,
        between: Optional[Callable[[float], None]] = None,
        clock: Optional[WallClock] = None,
    ) -> None:
        self.recorder = recorder
        self.between = between
        self.clock = clock if clock is not None else WallClock()
        self.run_s = 0.0
        self.attempted = 0
        self.failures: Dict[int, str] = {}

    def call(self, kind: str, function: Callable, *args, **kwargs) -> Tuple[int, object, float]:
        """Run one operation; returns ``(index, result or None, seconds)``."""
        if self.between is not None:
            self.between(self.run_s)
        index = self.attempted
        self.attempted += 1
        scope = (
            self.recorder.root(f"bench.{kind}", op=index)
            if self.recorder is not None
            else contextlib.nullcontext()
        )
        result = None
        with scope as span:
            with self.clock.region() as timed:
                try:
                    result = function(*args, **kwargs)
                except Exception as exc:  # noqa: BLE001 - a failed operation is a result
                    self.fail(index, f"{kind} raised {type(exc).__name__}: {exc}")
        elapsed = span.duration if span is not None else timed.seconds
        self.run_s += elapsed
        return index, result, elapsed

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- checks -----------------------------------------------------------------


Site = Tuple[int, int, str]


def site_of(fault) -> Site:
    return (fault.gate, fault.pin, fault.kind.value)


def observation(query: dict, failures: Tuple) -> Tuple[List[Tuple[int, int]], bool]:
    """The failures a query observes, and whether it is the full signature."""
    if query["prefix"] and len(failures) > 1:
        keep = min(len(failures) - 1, max(1, int(len(failures) * query["keep"])))
        return list(failures[:keep]), False
    return list(failures), True


def check_ranking(
    body: bytes,
    site: Site,
    observed: List[Tuple[int, int]],
    exact: bool,
    signatures: Dict[Site, frozenset],
    top: int,
) -> Optional[str]:
    """Why a ranking is wrong for its query, or None when it is right.

    An exact query must rank the sampled fault's equivalence class (faults
    with its signature) first.  A partial one must list the sampled fault
    with its exact evidence, or list *top* candidates that all score at
    least as well as it does.
    """
    candidates = json.loads(body)["candidates"]
    if not candidates:
        return "no candidates"
    scores = [candidate["score"] for candidate in candidates]
    if scores != sorted(scores, reverse=True):
        return "candidates not ranked by score"
    first = candidates[0]
    if exact:
        if not first["exact"]:
            return "exact query: top candidate is not an exact match"
        if signatures.get(tuple(first["site"])) != signatures[site]:
            return "exact query: top candidate is outside the sampled fault's class"
        return None
    expected = round(len(observed) / len(signatures[site]), 6)
    for candidate in candidates:
        if tuple(candidate["site"]) == site:
            if (candidate["matched"], candidate["missed"], candidate["score"]) != (
                len(observed), 0, expected
            ):
                return "partial query: wrong evidence for the sampled fault"
            return None
    if len(candidates) < top or candidates[-1]["score"] < expected:
        return "partial query: sampled fault missing from a ranking it belongs in"
    return None


def top_site(body: bytes) -> Optional[list]:
    """The top-ranked candidate's site, or None for an empty ranking."""
    candidates = json.loads(body)["candidates"]
    return candidates[0]["site"] if candidates else None


def latency_line(label: str, samples: List[float]) -> str:
    """``label n=.. p50=.. p90=..`` with refused percentiles shown as n/a."""
    parts = [f"{label:<14} n={len(samples):<4}"]
    for q in (0.5, 0.9):
        value = maybe_percentile(samples, q)
        shown = f"{value * 1000:.2f} ms" if value is not None else "n/a"
        parts.append(f"p{round(q * 100)}={shown}")
    return "  ".join(parts)


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    family = ""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.plan = PLANS[self.family](seed, seconds)
        #: (operation index, reference name, digest) awaiting references.
        self.digests: List[Tuple[int, str, str]] = []

    def reference_key(self) -> str:
        return refs.reference_key(self.family, self.seed, self.seconds)

    def verify(self, session: Session, references: dict) -> None:
        for index, name, digest in self.digests:
            if references.get(name) != digest:
                session.fail(index, f"{name}: digest differs from the second engine's")

    def report(self) -> List[str]:
        return []

    def counts(self) -> dict:
        return {}

    def layer_extras(self, state_root: str) -> Dict[str, float]:
        """Per-layer metrics read from program state rather than spans."""
        return {}


class CoverageWorkload(Workload):
    """Grade a test set with csim-MV and fault dropping (the paper's use)."""

    name = "coverage-csim"
    family = "coverage"
    jobs = 1

    def setup(self, state_dir: str) -> None:
        from repro.circuit import library
        from repro.faults import universe
        from repro.harness import runner

        self._runner = runner
        self.inputs = []
        for campaign in self.plan["campaigns"]:
            circuit = library.load(campaign["circuit"], scale=campaign["scale"])
            tests = base_and_tail(circuit, campaign)
            self.inputs.append((campaign["circuit"], circuit, tests, universe.stuck_at_universe(circuit)))
        self.results: Dict[str, dict] = {}
        self.campaign_s: Dict[str, float] = {}

    def run(self, session: Session) -> None:
        for name, circuit, tests, faults in self.inputs:
            index, result, elapsed = session.call(
                "campaign",
                self._runner.run_stuck_at,
                circuit,
                tests,
                self.plan["engine"],
                faults=faults,
                jobs=self.jobs,
            )
            if result is None:
                continue
            self.campaign_s[name] = elapsed
            if result.truncated:
                session.fail(index, f"{name}: truncated ({result.truncation_reason})")
            self.digests.append((index, name, refs.campaign_digest(result, circuit)))
            self.results[name] = dict(
                asdict(result.counters),
                detected=result.num_detected,
                work=result.counters.total_work(),
            )

    def report(self) -> List[str]:
        return [
            f"campaign {name:<6} {seconds:8.3f} s  detected {self.results[name]['detected']}"
            for name, seconds in self.campaign_s.items()
        ]

    def counts(self) -> dict:
        return {"campaigns": self.results}


class ShardedCoverageWorkload(CoverageWorkload):
    """coverage-csim's campaigns through run_parallel's process pool."""

    name = "coverage-sharded"
    jobs = SHARD_JOBS

    def layer_extras(self, state_root: str) -> Dict[str, float]:
        """``parallel.work_overhead``: shard work over single-process work."""
        base = single_process_work(state_root, self)
        shard_work = sum(entry["work"] for entry in self.results.values())
        return {"parallel.work_overhead": shard_work / base if base else 0.0}


def single_process_work(state_root: str, workload: Workload) -> int:
    """coverage-csim's total work for the same seed and size.

    Read from the counts that a coverage-csim run in this checkout
    recorded; recomputed (untimed) when there is none.
    """
    path = counts_path(state_root, CoverageWorkload.name, workload.seed, workload.seconds)
    try:
        with open(path) as handle:
            campaigns = json.load(handle)["campaigns"]
    except (FileNotFoundError, ValueError, KeyError):
        single = CoverageWorkload(workload.seed, workload.seconds)
        single.setup("")
        single.run(Session())
        campaigns = single.results
    return sum(entry["work"] for entry in campaigns.values())


class DiagnoseWorkload(Workload):
    """Build a fault dictionary once with vsim, then answer many queries."""

    name = "diagnose-vsim"
    family = "diagnose"
    top = 10

    def setup(self, state_dir: str) -> None:
        from repro.circuit import library
        from repro.diagnosis import dictionary, store

        self._dictionary = dictionary
        self._store = store
        self.circuit = library.load(self.plan["circuit"], scale=self.plan["scale"])
        self.tests = base_and_tail(self.circuit, self.plan)
        self.build_s: Optional[float] = None
        self.query_s: List[float] = []
        self.exact_queries = 0
        self.ranked: List[Optional[list]] = []
        self.info: dict = {}

    def _build(self):
        responses = self._dictionary.build_responses(
            self.circuit, self.tests, engine="vsim", word_width=64, collapse="equivalence"
        )
        blob = self._store.encode_dictionary(
            self.circuit.name, len(self.tests), responses, "full", collapse="equivalence"
        )
        return responses, blob, self._store.decode_dictionary(blob)

    def run(self, session: Session) -> None:
        index, built, self.build_s = session.call("build", self._build)
        if built is None:
            return
        responses, blob, dictionary = built
        self.digests.append((index, "dictionary", refs.responses_digest(responses)))
        by_site = {site_of(fault): failures for fault, failures in responses.items()}
        signatures = {site: frozenset(failures) for site, failures in by_site.items()}
        detected = sorted(site for site, failures in by_site.items() if failures)
        self.info = {"faults": len(by_site), "detected": len(detected), "bytes": len(blob)}
        if not detected:
            session.fail(index, "the dictionary detects no fault to query")
            return
        for query in self.plan["queries"]:
            site = detected[int(query["pick"] * len(detected))]
            observed, exact = observation(query, by_site[site])
            index, body, elapsed = session.call(
                "query",
                self._store.diagnosis_report,
                self.circuit,
                self.tests,
                dictionary,
                observed,
                top=self.top,
            )
            if body is None:
                continue
            self.query_s.append(elapsed)
            self.exact_queries += exact
            problem = check_ranking(body, site, observed, exact, signatures, self.top)
            if problem is not None:
                session.fail(index, problem)
            self.ranked.append(top_site(body))

    def report(self) -> List[str]:
        lines = []
        if self.build_s is not None:
            lines.append(
                f"build_s        {self.build_s:.3f} s  ({self.info.get('faults')} faults, "
                f"{self.info.get('detected')} detected, {self.info.get('bytes')} bytes)"
            )
        lines.append(latency_line("query_s", self.query_s))
        return lines

    def counts(self) -> dict:
        return dict(
            self.info,
            queries=len(self.query_s),
            exact_queries=self.exact_queries,
            top_sites=refs.sha256(json.dumps(self.ranked).encode()),
        )


class ServiceWorkload(Workload):
    """A regression farm replaying CI test matrices against one service."""

    name = "service-replay"
    family = "service"
    top = 10

    def setup(self, state_dir: str) -> None:
        from repro.serve import service

        self.service = service.FaultSimService(
            service.ServeConfig(
                state_dir=os.path.join(state_dir, "serve"),
                workers=0,
                # Lease renewals are wall-clock driven; a TTL far beyond any
                # job keeps the number of store writes a function of the seed.
                lease_ttl=3600.0,
            )
        )
        self.hit_s: List[float] = []
        self.miss_s: List[float] = []
        self.query_s: List[float] = []
        self.first_blob: Dict[str, bytes] = {}
        self.tally = {"hits": 0, "queued": 0, "diagnose_200": 0, "diagnose_202": 0}
        self.signatures: Dict[Site, frozenset] = {}
        self.by_site: Dict[Site, Tuple] = {}
        self.detected: List[Site] = []
        self.ranked: List[Optional[list]] = []

    def _drain(self, session: Session) -> None:
        service = self.service

        def drain() -> None:
            for _ in range(100000):
                if not service.queue.depth():
                    return
                service.process_once(0.0)
            raise RuntimeError("queue did not drain")

        if service.queue.depth():
            session.call("drain", drain)

    def run(self, session: Session) -> None:
        for burst in self.plan["bursts"]:
            pending = []
            for request in burst["requests"]:
                spec = self.plan["matrix"][burst["circuit"]][request]
                index, outcome, elapsed = session.call("submit", self.service.submit, dict(spec))
                if outcome is None:
                    continue
                record, _ = outcome
                key = refs.spec_key(spec)
                if record.state == "done" and record.cache_hit:
                    self.tally["hits"] += 1
                    self.hit_s.append(elapsed)
                    self._check_blob(session, index, key, record.job_id)
                else:
                    self.tally["queued"] += 1
                    pending.append((index, key, record.job_id))
            self._drain(session)
            for index, key, job_id in pending:
                record = self.service.status(job_id)
                if record is None or record.state != "done":
                    session.fail(index, f"{job_id} ended {record.state if record else 'missing'}")
                    continue
                self.miss_s.append(record.finished_at - record.created_at)
                self._check_blob(session, index, key, job_id)
            for query in burst["queries"]:
                self._query(session, query)

    def _check_blob(self, session: Session, index: int, key: str, job_id: str) -> None:
        blob = self.service.result_bytes(job_id)
        if blob is None:
            session.fail(index, f"{job_id}: no result")
        elif key not in self.first_blob:
            self.first_blob[key] = blob
            self.digests.append((index, key, refs.sha256(blob)))
        elif blob != self.first_blob[key]:
            session.fail(index, f"{job_id}: cache hit bytes differ from its miss's")

    def _query(self, session: Session, query: dict) -> None:
        payload = dict(self.plan["dictionary"], top=self.top)
        if query.get("warmup"):
            site, observed, exact = None, [(1, 0)], True
        else:
            if not self.detected:
                return  # the dictionary build failed; already counted
            site = self.detected[int(query["pick"] * len(self.detected))]
            observed, exact = observation(query, self.by_site[site])
        payload["failures"] = [list(item) for item in observed]
        index, answer, elapsed = session.call("diagnose", self.service.diagnose, payload)
        if answer is None:
            return
        status, document, body = answer
        if query.get("warmup"):
            if status != 202:
                session.fail(index, f"first query answered {status}, not 202")
                return
            self.tally["diagnose_202"] += 1
            self._drain(session)
            self._load_dictionary(session, index, document["job"])
            return
        if status != 200:
            session.fail(index, f"query answered {status} after the build")
            return
        self.tally["diagnose_200"] += 1
        self.query_s.append(elapsed)
        problem = check_ranking(body, site, observed, exact, self.signatures, self.top)
        if problem is not None:
            session.fail(index, problem)
        self.ranked.append(top_site(body))

    def _load_dictionary(self, session: Session, index: int, job_id: str) -> None:
        blob = self.service.result_bytes(job_id)
        if blob is None:
            session.fail(index, "dictionary build left no artifact")
            return
        self.by_site = refs.artifact_responses(blob)
        self.digests.append((index, "dictionary", refs.response_digest(self.by_site.items())))
        self.signatures = {site: frozenset(f) for site, f in self.by_site.items()}
        self.detected = sorted(site for site, failures in self.by_site.items() if failures)
        if not self.detected:
            session.fail(index, "the dictionary detects no fault to query")

    def report(self) -> List[str]:
        return [
            latency_line("hit_s", self.hit_s),
            latency_line("miss_s", self.miss_s),
            latency_line("query_s", self.query_s),
        ]

    def counts(self) -> dict:
        snapshot = self.service.metrics_snapshot()
        return dict(
            self.tally,
            simulated=snapshot["jobs"]["simulated"],
            dictionaries_built=snapshot["diagnosis"]["dictionaries_built"],
            batches=snapshot["batch"]["size_counts"],
            counters=snapshot["counters"],
            top_sites=refs.sha256(json.dumps(self.ranked).encode()),
        )

    def layer_extras(self, state_root: str) -> Dict[str, float]:
        snapshot = self.service.metrics_snapshot()
        waits = [
            record.started_at - record.created_at
            for record in self.service.store.all_records()
            if record.started_at is not None
        ]
        return {
            "serve.batch_mean": snapshot["batch"]["mean_size"],
            "serve.queue_wait_s": math.fsum(waits),
            "serve.hit_ratio": snapshot["cache"]["hit_rate"],
            "serve.retries": snapshot["jobs"]["retried"],
        }


WORKLOADS = {
    workload.name: workload
    for workload in (CoverageWorkload, DiagnoseWorkload, ServiceWorkload, ShardedCoverageWorkload)
}


def counts_path(state_root: str, name: str, seed: int, seconds: int, traced: bool = False) -> str:
    suffix = "-traced" if traced else ""
    return os.path.join(state_root, "counts", f"{name}-seed{seed}-x{seconds}{suffix}.json")
