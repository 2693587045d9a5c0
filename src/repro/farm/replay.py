"""JSONL workload traces: export a request stream, replay it anywhere.

Comparing schedulers or core mixes is only honest when every
configuration serves the *same* traffic.  Seeded generation
already guarantees that in-process; a trace file extends the guarantee
across processes, CI jobs, and repo versions: one header line of
metadata, then one JSON record per :class:`~repro.farm.workload.
SessionRequest`, floats serialized by ``repr`` so arrival cycles
round-trip bit-exactly (``export -> import`` reproduces the identical
request list, and replaying it reproduces the identical
:class:`~repro.farm.simulator.FarmResult` -- covered by the CI
``shard-smoke`` job).
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.protocols import protocol_names
from repro.ssl.throughput import DEFAULT_CLOCK_HZ
from repro.farm.workload import SessionRequest

__all__ = ["TRACE_FORMAT", "TRACE_VERSION", "WorkloadTrace",
           "export_workload", "import_workload"]

TRACE_FORMAT = "repro.farm.workload"
TRACE_VERSION = 1

_FIELDS = ("seq", "arrival_cycle", "protocol", "size_bytes", "resumed",
           "client_id")


@dataclass
class WorkloadTrace:
    """A request stream plus the metadata it was generated under."""

    requests: List[SessionRequest]
    clock_hz: float = DEFAULT_CLOCK_HZ
    meta: Dict = field(default_factory=dict)


def export_workload(path, requests: Sequence[SessionRequest],
                    clock_hz: float = DEFAULT_CLOCK_HZ,
                    **meta) -> int:
    """Write ``requests`` as a JSONL trace; returns the record count.

    Extra keyword arguments land in the header's ``meta`` object --
    conventionally the generation parameters (profile, seed, shards)
    so a trace documents its own provenance.
    """
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "count": len(requests), "clock_hz": clock_hz,
                  "meta": dict(meta)}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for request in requests:
            record = {name: getattr(request, name) for name in _FIELDS}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(requests)


def import_workload(path) -> WorkloadTrace:
    """Read a JSONL trace back into a :class:`WorkloadTrace`.

    Validates the header (format marker, version, record count) and
    every record's protocol against the registry, so a truncated or
    foreign file fails loudly instead of replaying a partial or
    unpriceable population.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle)
                 if line]
    if not lines:
        raise ValueError(f"{path}: empty workload trace")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} trace")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version "
                         f"{header.get('version')!r}")
    records = lines[1:]
    expected = header.get("count", len(records))
    if len(records) != expected:
        raise ValueError(f"{path}: header promises {expected} records, "
                         f"found {len(records)} (truncated trace?)")
    known = protocol_names()
    requests = []
    for line in records:
        data = json.loads(line)
        if data["protocol"] not in known:
            raise ValueError(
                f"{path}: trace names unregistered protocol "
                f"{data['protocol']!r}; registered: {list(known)}")
        requests.append(SessionRequest(
            seq=int(data["seq"]),
            arrival_cycle=float(data["arrival_cycle"]),
            protocol=str(data["protocol"]),
            size_bytes=int(data["size_bytes"]),
            resumed=bool(data["resumed"]),
            client_id=int(data["client_id"])))
    return WorkloadTrace(requests=requests,
                         clock_hz=float(header.get("clock_hz",
                                                   DEFAULT_CLOCK_HZ)),
                         meta=dict(header.get("meta", {})))
