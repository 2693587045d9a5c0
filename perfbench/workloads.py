"""The benchmark's workloads.

Each workload turns ``--seed`` into its inputs, sets the program up
(:meth:`setup`, timed as ``setup_s``), runs one fixed unit of work per
pass (:meth:`execute`, timed as ``run_s``), and checks that pass's
outputs (:meth:`check`, untimed).  Every call into the program goes
through a module attribute, so the wrappers of :mod:`layers` see it.

A pass of the same inputs must reproduce the same simulated (sim)
numbers exactly; :meth:`check` returns them for the harness to compare.
"""

import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PassReport:
    """Checked outcome of one pass: operations and sim numbers."""

    attempted: int
    failed: int
    sim: Dict[str, float] = field(default_factory=dict)


def _mod(name: str):
    """A loaded ``repro`` module (attribute lookups see any wrapper)."""
    __import__(name)
    return sys.modules[name]


def cold_start(cache_dir: str) -> None:
    """Forget what an earlier set-up in this process memoized.

    Points the characterization cache at an empty directory and drops
    the in-process memos a fresh interpreter would not have (fitted
    model sets, assembled base-ISA kernels, the ECDH key pair used to
    price handshakes), so every set-up repetition is cold.
    """
    os.makedirs(cache_dir)
    os.environ["REPRO_COSTS_CACHE_DIR"] = cache_dir
    _mod("repro.costs").reset_cache()
    _mod("repro.isa.kernels")._BASE_PROGRAMS.clear()
    _mod("repro.costs.backends")._ecdh_parties = None


# -- farm ---------------------------------------------------------------------

FARM_CORES = 16
FARM_EXTENDED_FRACTION = 0.5
FARM_CACHE_CAPACITY = 128


class FarmWorkload:
    """Open-loop Poisson traffic on a heterogeneous 16-core farm.

    Half the cores carry the TIE extensions.  A pass generates the
    request stream from the seed, simulates it and summarizes it; the
    farm, the stream and therefore every sim number are the same in
    every pass.
    """

    op_name = "requests"
    setup_reps = 2

    def __init__(self, name: str, seed: int, scheduler: str, mix,
                 arrival_rate: float, n_requests: int, clients: int,
                 resumption_ratio: float):
        self.name = name
        self.seed = seed
        self.scheduler = scheduler
        self.n_requests = n_requests
        self.profile = _mod("repro.farm.workload").TrafficProfile(
            arrival_rate=arrival_rate, mix=dict(mix), clients=clients,
            resumption_ratio=resumption_ratio)
        self.specs = None

    def setup(self) -> None:
        costs = _mod("repro.costs").PlatformCosts
        platform = _mod("repro.platform").SecurityPlatform
        key = _mod("repro.ssl.fixtures").SERVER_1024
        base = costs.measure(platform.base(), key)
        optimized = costs.measure(platform.optimized(), key)
        self.specs = _mod("repro.farm.simulator").build_farm(
            FARM_CORES, base, optimized, FARM_EXTENDED_FRACTION)

    def execute(self):
        workload = _mod("repro.farm.workload")
        simulator = _mod("repro.farm.simulator")
        requests = workload.generate_requests(self.profile,
                                              self.n_requests,
                                              seed=self.seed)
        farm = simulator.FarmSimulator(
            self.specs, _mod("repro.farm.scheduler").make_scheduler(
                self.scheduler),
            cache_capacity=FARM_CACHE_CAPACITY)
        result = farm.run(requests)
        return requests, result, _mod("repro.farm.metrics").summarize(
            result)

    def check(self, outputs) -> PassReport:
        requests, result, summary = outputs
        served = Counter(c.request.seq for c in result.completions)
        valid = {c.request.seq for c in result.completions
                 if c.request.arrival_cycle <= c.start_cycle
                 <= c.finish_cycle}
        ok = sum(1 for r in requests
                 if served[r.seq] == 1 and r.seq in valid)
        # Session-cache keys stored on some core and gone from it by the
        # end: with no faults injected, only LRU eviction removes them.
        stored = {(c.core_index, c.request.protocol, c.request.client_id)
                  for c in result.completions
                  if _mod("repro.protocols").get_protocol(
                      c.request.protocol).resumable
                  and not (c.request.resumed and c.cache_hit)}
        cached = sum(len(cache) for core in result.cores
                     for cache in core.caches.values())
        sim = {
            "farm.requests": len(requests),
            "farm.p50_ms": summary.p50_ms,
            "farm.p99_ms": summary.p99_ms,
            "farm.secure_mbps": summary.secure_mbps,
            "farm.cache_hit_rate": summary.cache_hit_rate,
            "farm.evicted_sessions": len(stored) - cached,
            "farm.offered_per_s": self.profile.arrival_rate,
            "farm.completed_per_s": summary.sessions_per_s,
            "farm.simulator.events": result.events_processed,
        }
        return PassReport(len(requests), len(requests) - ok, sim)

    def failed_pass(self) -> PassReport:
        return PassReport(self.n_requests, self.n_requests)


def farm_resume(seed: int) -> FarmWorkload:
    """Resumable SSL and TLS 1.3 sessions under preferential dispatch.

    2560 clients exceed the farm's 16 x 128 session-cache slots per
    protocol, so stores evict.
    """
    return FarmWorkload("farm_resume", seed, "preferential",
                        {"ssl": 1.0, "tls13": 1.0}, arrival_rate=150.0,
                        n_requests=4000, clients=2560,
                        resumption_ratio=0.9)


def farm_link(seed: int) -> FarmWorkload:
    """Non-resumable link-layer traffic under least-loaded dispatch,
    offered just below the farm's capacity knee (about 3000/s)."""
    return FarmWorkload("farm_link", seed, "least-loaded",
                        {"esp": 1.0, "wep": 1.0, "kasumi": 1.0},
                        arrival_rate=2750.0, n_requests=20000,
                        clients=4096, resumption_ratio=0.0)


# -- algorithm exploration ----------------------------------------------------

EXPLORE_STRIDE = 15


class ExploreWorkload:
    """Macro-model exploration of a strided slice of the modexp space.

    The seed picks the slice's offset in the 450-candidate
    ``iter_configs()`` order; every candidate estimates one 512-bit RSA
    decryption on the base platform's macro-models.
    """

    name = "explore_modexp"
    op_name = "candidates"
    setup_reps = 9

    def __init__(self, seed: int):
        configs = list(_mod("repro.crypto.modexp").iter_configs())
        offset = random.Random(seed).randrange(EXPLORE_STRIDE)
        self.configs = configs[offset::EXPLORE_STRIDE]
        self.models = None

    def setup(self) -> None:
        self.models = _mod("repro.costs").characterize_cached(0, 0)

    def execute(self):
        explorer = _mod("repro.explore.explorer")
        store = _mod("repro.explore.cache").ExplorationStore(enabled=False)
        return explorer.AlgorithmExplorer(
            self.models, explorer.RsaDecryptWorkload.bits512()).explore(
                self.configs, store=store)

    def check(self, results) -> PassReport:
        labels = sorted(r.config.label() for r in results)
        complete = labels == sorted(c.label() for c in self.configs)
        correct = [r for r in results if r.correct]
        failed = (len(self.configs) - len(correct) if complete
                  else len(self.configs))
        sim = {
            "explore.candidates": len(self.configs),
            "explore.best_cycles": (min(r.estimated_cycles
                                        for r in correct)
                                    if correct else 0.0),
        }
        return PassReport(len(self.configs), failed, sim)

    def failed_pass(self) -> PassReport:
        return PassReport(len(self.configs), len(self.configs))


WORKLOADS = {
    "farm_resume": farm_resume,
    "farm_link": farm_link,
    "explore_modexp": ExploreWorkload,
}
