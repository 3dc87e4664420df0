"""Canonical circuit and job hashing: the service's content address.

Two submissions should share one cache entry exactly when the engine is
guaranteed to produce interchangeable results for them.  That guarantee
rests on two normalisations:

* **Circuit canonicalisation** — the netlist is re-serialised into a
  canonical ``.bench``-like text: inputs sorted, outputs sorted, one
  line per gate sorted by target net, gate input order preserved
  (``XOR(a, b)`` and ``XOR(b, a)`` are logically equal but produce
  different Tseitin variable interleavings, so they do *not* collapse).
  Whitespace, comments, line order, and declaration order all wash out.
* **Option canonicalisation** — only the options that can change a
  result (solver, budget, certification mode, dropping, block width)
  enter the key, serialised with sorted keys; presentation knobs
  (worker count, shard timeouts) stay out, because the replay merge
  makes every fault's verdict class worker-count independent.  The
  CDCL solver's test vectors can depend on the schedule, so two results
  under one key are interchangeable by verdict class, and every cached
  vector is witness-replayed on read (:mod:`repro.service.store`).

The job key is the SHA-256 over both; the circuit hash alone is also
exposed for observability (two option sets over one netlist share it).
"""

from __future__ import annotations

import hashlib
import json

from repro.atpg.certify import CERTIFY_MODES
from repro.atpg.engine import SOLVERS
from repro.circuits.gates import GateType, gate_function_name
from repro.circuits.network import Network

#: The option names that participate in the job key, with the defaults
#: the service applies when a submission omits them.
RESULT_OPTIONS = {
    "solver": "cdcl",
    "max_conflicts": 100_000,
    "fault_dropping": True,
    "certify": "witness",
    "drop_block_size": 64,
}


def _whole(value) -> bool:
    """True for a JSON integer (``true``/``false`` are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool)


#: The values each result option accepts, as (check, description); the
#: ranges match the ``repro atpg`` flags.
OPTION_VALUES = {
    "solver": (lambda v: v in SOLVERS, "one of " + ", ".join(SOLVERS)),
    "max_conflicts": (lambda v: _whole(v) and v >= 1, "a positive integer"),
    "fault_dropping": (lambda v: isinstance(v, bool), "true or false"),
    "certify": (
        lambda v: v in CERTIFY_MODES, "one of " + ", ".join(CERTIFY_MODES)
    ),
    "drop_block_size": (
        lambda v: _whole(v) and 1 <= v <= 1 << 16, "an integer in 1..65536"
    ),
}


def canonical_circuit_text(network: Network) -> str:
    """The canonical serialisation hashed as the circuit's identity."""
    lines = []
    for net in sorted(network.inputs):
        lines.append(f"INPUT({net})")
    for net in sorted(network.outputs):
        lines.append(f"OUTPUT({net})")
    gate_lines = []
    for gate in network.gates():
        if gate.gate_type is GateType.INPUT:
            continue
        if gate.gate_type in (GateType.CONST0, GateType.CONST1):
            func, args = gate_function_name(gate.gate_type), ""
        else:
            func = gate_function_name(gate.gate_type)
            args = ",".join(gate.inputs)
        gate_lines.append(f"{gate.output}={func}({args})")
    lines.extend(sorted(gate_lines))
    return "\n".join(lines) + "\n"


def canonical_circuit_hash(network: Network) -> str:
    """SHA-256 hex digest of the canonical circuit text."""
    text = canonical_circuit_text(network)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_options(options: dict | None) -> dict:
    """Project ``options`` onto the result-determining set, with
    service defaults filled in.

    Raises:
        ValueError: when ``options`` is not a mapping, for unknown
            option names (a typo silently ignored here would poison the
            cache key space), and for values outside
            :data:`OPTION_VALUES`.
    """
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ValueError("job options must be a JSON object")
    unknown = sorted(set(options) - set(RESULT_OPTIONS))
    if unknown:
        raise ValueError(f"unknown job options: {', '.join(unknown)}")
    for name, value in options.items():
        check, expected = OPTION_VALUES[name]
        if not check(value):
            raise ValueError(
                f"job option {name} must be {expected}, not {value!r}"
            )
    merged = dict(RESULT_OPTIONS)
    merged.update(options)
    return merged


def canonical_job_key(network: Network, options: dict | None = None) -> str:
    """SHA-256 job key over (canonical circuit, canonical options)."""
    payload = json.dumps(canonical_options(options), sort_keys=True)
    digest = hashlib.sha256()
    digest.update(canonical_circuit_text(network).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(payload.encode("utf-8"))
    return digest.hexdigest()
