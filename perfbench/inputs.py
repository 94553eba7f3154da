"""Deterministic input generation for the default-path benchmark.

Every input is derived from the workload seed alone and handed to the
program as OpenQASM 2 text.  The seed never reaches ``Configuration``: the
verifications themselves always run with the library defaults plus
``seed=0`` (the value ``repro-qcec serve`` sets), so a verdict depends only
on the circuits.

The Table-1 instances have fixed sizes and fixed circuits.  The seed picks
the name of the quantum register and the order of the pairs in
``table1_equiv``, the mutation sites, the extra gate of each fresh service
pair and which service request fills which position of a block: choices
that change the texts but not the work per pass or block.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from repro import check_equivalence, circuit_from_qasm, to_unitary_circuit
from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
    running_example_lambda,
)
from repro.circuit.random_circuits import random_static_circuit
from repro.compilation.basis import (
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)
from repro.core.results import EquivalenceCriterion

#: Table-1 instances of ``table1_equiv`` and ``table1_mutants``.  QPE 8
#: keeps the alternating prover measurable (about 0.1 s) once the
#: falsifier's cost is gone; QFT 12 is left out because one pass with it
#: takes about 10 s on a 2-core host, too long for several passes per run.
TABLE1_INSTANCES = (
    ("bv", 8),
    ("bv", 12),
    ("qft", 8),
    ("qft", 10),
    ("qpe", 6),
    ("qpe", 8),
)

#: Gates a mutation inserts (QASM text of the operation).
MUTATION_GATES = ("x", "z", "h", "p(0.25)")

#: ``table1_mutants`` mutants per inserted gate and Table-1 instance.
MUTANTS_PER_GATE = 2

#: The primed pool of ``service_mix``: Table-1 pairs at n 6-10.
SERVICE_POOL = (
    ("bv", 6),
    ("bv", 10),
    ("qft", 6),
    ("qft", 8),
    ("qpe", 6),
    ("qpe", 7),
)

#: One ``service_mix`` block: exact request-kind counts, shuffled per block.
BLOCK_KINDS = (("hit", 75), ("canonical", 20), ("miss", 5))
BLOCK_SIZE = sum(count for _, count in BLOCK_KINDS)

#: Size of the fresh ``service_mix`` pairs (qubits, depth).
FRESH_QUBITS, FRESH_DEPTH = 5, 8

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

_EQUIVALENT_CRITERIA = (
    EquivalenceCriterion.EQUIVALENT,
    EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)

# A plain (unconditioned) gate application: name, optional parameters,
# operand list.  Declarations, measure, reset, barrier and ``if`` lines are
# excluded by the caller.
_GATE_LINE = re.compile(r"^([a-z][a-z0-9_]*)(\([^)]*\))?\s+(.+);$")
_NOT_GATES = {"OPENQASM", "include", "qreg", "creg", "measure", "reset", "barrier", "if", "gate", "opaque"}


@dataclass(frozen=True)
class Pair:
    """One verification request: two QASM texts and the expected verdict."""

    name: str
    first: str
    second: str
    expected: str  # EQUIVALENT or NOT_EQUIVALENT
    kind: str = "pair"


def verdict_class(criterion: EquivalenceCriterion | str) -> str | None:
    """``equivalent``/``not_equivalent`` for definitive verdicts, else None."""
    criterion = EquivalenceCriterion(criterion)
    if criterion in _EQUIVALENT_CRITERIA:
        return EQUIVALENT
    if criterion is EquivalenceCriterion.NOT_EQUIVALENT:
        return NOT_EQUIVALENT
    return None


def hidden_string(num_bits: int) -> str:
    """The Bernstein-Vazirani hidden string ``1010...`` of ``num_bits`` bits.

    Fixed rather than seeded: the falsifier's cost depends on where the
    ones are (up to 2x between strings of equal weight at n=12).
    """
    return ("10" * num_bits)[:num_bits]


def table1_pair(family: str, size: int) -> Pair:
    """The static/dynamic Table-1 pair of one instance (equivalent)."""
    if family == "bv":
        secret = hidden_string(size)
        static, dynamic = bernstein_vazirani_static(secret), bernstein_vazirani_dynamic(secret)
    elif family == "qft":
        static, dynamic = qft_static_benchmark(size), qft_dynamic(size)
    elif family == "qpe":
        static = qpe_static(size, running_example_lambda)
        dynamic = iterative_qpe(size, running_example_lambda)
    else:
        raise ValueError(f"unknown Table-1 family {family!r}")
    return Pair(f"{family}{size}", static.to_qasm(), dynamic.to_qasm(), EQUIVALENT)


def renamed(pair: Pair, register: str) -> Pair:
    """``pair`` with its quantum register ``q`` called ``register``."""
    rename = re.compile(r"\bq\[")
    return Pair(
        pair.name,
        rename.sub(f"{register}[", pair.first),
        rename.sub(f"{register}[", pair.second),
        pair.expected,
        pair.kind,
    )


def table1_pairs(seed: int) -> list[Pair]:
    """``table1_equiv`` inputs: every instance once, seeded register name and order."""
    rng = random.Random(f"table1_equiv/{seed}")
    register = f"q{rng.randrange(16**4):04x}"
    pairs = [renamed(table1_pair(family, size), register) for family, size in TABLE1_INSTANCES]
    rng.shuffle(pairs)
    return pairs


def mutation_sites(qasm: str) -> list[tuple[int, str]]:
    """``(line index, qubit operand)`` for every operand of a plain gate line."""
    sites = []
    for index, line in enumerate(qasm.splitlines()):
        line = line.strip()
        match = _GATE_LINE.match(line)
        if match is None or match.group(1) in _NOT_GATES:
            continue
        for operand in match.group(3).split(","):
            sites.append((index, operand.strip()))
    return sites


def insert_line(qasm: str, index: int, text: str) -> str:
    lines = qasm.splitlines()
    lines.insert(index, text)
    return "\n".join(lines) + "\n"


def mutate(pair: Pair, gate: str, rng: random.Random, *, max_draws: int = 64) -> Pair:
    """A mutant of ``pair``'s dynamic side that alternating proves different.

    ``gate`` (one of :data:`MUTATION_GATES`) is inserted before a seeded
    plain unitary gate, on one of that gate's qubits, so the mutant stays
    valid for Scheme 1.  Sites where the alternating checker finds the
    mutant equivalent (e.g. a ``z`` right after a reset) are redrawn.
    """
    static = circuit_from_qasm(pair.first)
    sites = mutation_sites(pair.second)
    for _ in range(max_draws):
        index, operand = rng.choice(sites)
        text = insert_line(pair.second, index, f"{gate} {operand};")
        mutant = circuit_from_qasm(text)
        to_unitary_circuit(mutant)  # raises if the mutant broke Scheme 1
        if verdict_class(check_equivalence(static, mutant).criterion) == NOT_EQUIVALENT:
            return Pair(
                f"{pair.name}_mut_{gate}_l{index}_{operand}",
                pair.first,
                text,
                NOT_EQUIVALENT,
                kind="mutant",
            )
    raise RuntimeError(f"no non-equivalent {gate} mutant of {pair.name} in {max_draws} draws")


def mutant_pairs(seed: int) -> list[Pair]:
    """``table1_mutants`` inputs: confirmed non-equivalent, seeded order.

    Every instance gets :data:`MUTANTS_PER_GATE` mutants per gate of
    :data:`MUTATION_GATES`: the falsifier's cost depends strongly on the
    inserted gate (an ``x`` keeps the simulated states small), so drawing
    the gate too would make the work per pass depend on the seed.
    """
    rng = random.Random(f"table1_mutants/{seed}")
    mutants = []
    for family, size in TABLE1_INSTANCES:
        base = table1_pair(family, size)
        for gate in MUTATION_GATES:
            mutants.extend(mutate(base, gate, rng) for _ in range(MUTANTS_PER_GATE))
    rng.shuffle(mutants)
    return mutants


def translated(qasm: str) -> str:
    """The circuit lowered to CX + ``u`` gates (same canonical fingerprint)."""
    circuit = circuit_from_qasm(qasm)
    return rewrite_single_qubit_to_u(decompose_to_cx_and_single_qubit(circuit)).to_qasm()


def _identity_slots(qasm: str) -> tuple[list[int], int]:
    """Gate-line indices and qubit count an ``id`` marker can be placed at."""
    gate_lines = list(dict(mutation_sites(qasm)))
    num_qubits = int(re.search(r"qreg\s+q\[(\d+)\];", qasm).group(1))
    return gate_lines, num_qubits


def identity_capacity(qasm: str) -> int:
    """Number of distinct :func:`with_identity` variants of ``qasm``."""
    gate_lines, num_qubits = _identity_slots(qasm)
    return len(gate_lines) * num_qubits


def with_identity(qasm: str, variant: int) -> str:
    """``qasm`` plus one ``id`` gate, placed by ``variant``.

    Distinct variants give distinct raw fingerprints but the same canonical
    fingerprint, so every such request consults the canonical cache tier
    instead of hitting the raw key stored by an earlier repeat.
    """
    gate_lines, num_qubits = _identity_slots(qasm)
    if not 0 <= variant < len(gate_lines) * num_qubits:
        raise ValueError(f"identity variant {variant} out of range")
    line = gate_lines[variant // num_qubits]
    return insert_line(qasm, line, f"id q[{variant % num_qubits}];")


def fresh_pair(structure: int, rng: random.Random) -> Pair:
    """A never-seen pair: a random circuit against its CX + ``u`` translation.

    The circuit is ``random_static_circuit`` with the fixed seed
    ``structure`` plus one ``u`` gate with seeded angles on a seeded qubit:
    the extra gate makes every pair new to both cache tiers, while the
    fixed structures keep the work per block independent of the workload
    seed (the falsifier's cost varies 3x between random structures).  The
    expected verdict comes from the alternating checker, not from the
    construction, so the oracle is independent of the translation code.
    """
    circuit = random_static_circuit(FRESH_QUBITS, FRESH_DEPTH, seed=structure)
    angles = [rng.uniform(0.0, 2 * math.pi) for _ in range(3)]
    circuit.u(*angles, rng.randrange(FRESH_QUBITS))
    first = circuit.to_qasm()
    second = translated(first)
    criterion = check_equivalence(circuit_from_qasm(first), circuit_from_qasm(second)).criterion
    expected = verdict_class(criterion)
    if expected is None:
        raise RuntimeError(f"alternating left a fresh pair undecided: {criterion.value}")
    return Pair("fresh", first, second, expected, kind="miss")


def service_pool() -> list[Pair]:
    """The primed ``service_mix`` pool (the seed shapes the requests, not the pool)."""
    return [table1_pair(family, size) for family, size in SERVICE_POOL]


def _slot_kinds() -> list[str]:
    """The kind of each position of a block: a fixed, evenly spread pattern.

    Canonical requests sit at every fifth position and misses at every
    twentieth, so the client threads meet misses at the same rhythm in
    every block and for every seed (a shuffled order moved throughput and
    the median latency by about 20% between seeds).
    """
    kinds = []
    for position in range(BLOCK_SIZE):
        if position % 20 == 10:
            kinds.append("miss")
        elif position % 5 == 2:
            kinds.append("canonical")
        else:
            kinds.append("hit")
    return kinds


def service_blocks(seed: int, pool: list[Pair], num_blocks: int) -> list[list[Pair]]:
    """``num_blocks`` blocks of :data:`BLOCK_KINDS` requests.

    Hits repeat pool pairs verbatim; canonical requests repeat a pool pair
    with its first circuit translated (plus a unique ``id`` marker); misses
    are fresh pairs, one per random structure.  Every block has the exact
    kind counts at the fixed positions of :func:`_slot_kinds`; pool pairs
    are used round-robin, and the seed shuffles which request of a kind
    fills which of its positions.
    """
    rng = random.Random(f"service_mix/{seed}")
    lowered = [translated(pair.first) for pair in pool]
    variants = [0] * len(pool)
    orders = []
    for qasm in lowered:
        order = list(range(identity_capacity(qasm)))
        rng.shuffle(order)
        orders.append(order)
    counts = dict(BLOCK_KINDS)
    blocks = []
    for _ in range(num_blocks):
        requests: dict[str, list[Pair]] = {"hit": [], "canonical": [], "miss": []}
        for i in range(counts["hit"]):
            pair = pool[i % len(pool)]
            requests["hit"].append(Pair(pair.name, pair.first, pair.second, pair.expected, kind="hit"))
        for i in range(counts["canonical"]):
            index = i % len(pool)
            pair = pool[index]
            if variants[index] == len(orders[index]):
                raise ValueError(f"{num_blocks} blocks need more identity variants of {pair.name}")
            variant = orders[index][variants[index]]
            variants[index] += 1
            requests["canonical"].append(
                Pair(
                    f"{pair.name}_lowered",
                    with_identity(lowered[index], variant),
                    pair.second,
                    pair.expected,
                    kind="canonical",
                )
            )
        requests["miss"] = [fresh_pair(structure, rng) for structure in range(counts["miss"])]
        for kind_requests in requests.values():
            rng.shuffle(kind_requests)
        blocks.append([requests[kind].pop() for kind in _slot_kinds()])
    return blocks
