"""Tests of the benchmark itself: inputs, oracle, arithmetic and contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro import Configuration, check_equivalence, circuit_from_qasm, to_unitary_circuit  # noqa: E402
from repro.service.fingerprint import canonical_pair_fingerprint, pair_fingerprint  # noqa: E402

from perfbench import inputs, run  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER, covered, percentile, self_time  # noqa: E402
from perfbench.verdicts import Outcomes, WrongVerdict, judge  # noqa: E402

SMALL = (("bv", 4), ("qft", 4), ("qpe", 3))


def _texts(pairs):
    return [(pair.name, pair.first, pair.second, pair.expected, pair.kind) for pair in pairs]


# ----------------------------------------------------------------------
# deterministic generation
# ----------------------------------------------------------------------


def test_table1_pairs_are_byte_identical_for_equal_seeds():
    assert _texts(inputs.table1_pairs(7)) == _texts(inputs.table1_pairs(7))


def test_table1_pairs_differ_between_seeds():
    assert _texts(inputs.table1_pairs(7)) != _texts(inputs.table1_pairs(8))


def test_table1_pairs_differ_only_in_register_name_and_order():
    base = {f"{family}{size}": inputs.table1_pair(family, size) for family, size in inputs.TABLE1_INSTANCES}
    for seed in (7, 8):
        pairs = inputs.table1_pairs(seed)
        assert sorted(pair.name for pair in pairs) == sorted(base)
        for pair in pairs:
            register = re.search(r"qreg (\w+)\[", pair.first).group(1)
            assert register != "q"
            assert inputs.renamed(base[pair.name], register) == pair


def test_mutants_are_deterministic():
    def draw(seed):
        rng = random.Random(seed)
        return [
            inputs.mutate(inputs.table1_pair(f, n), gate, rng)
            for f, n in SMALL
            for gate in inputs.MUTATION_GATES
        ]

    assert _texts(draw(1)) == _texts(draw(1))
    assert _texts(draw(1)) != _texts(draw(2))


def test_service_schedule_is_deterministic():
    pool = inputs.service_pool()
    first = inputs.service_blocks(4, pool, 1)
    assert _texts(first[0]) == _texts(inputs.service_blocks(4, pool, 1)[0])
    assert _texts(first[0]) != _texts(inputs.service_blocks(5, pool, 1)[0])


# ----------------------------------------------------------------------
# mutants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutants_are_non_equivalent_and_valid_for_scheme1(seed):
    rng = random.Random(seed)
    for family, size in SMALL:
        base = inputs.table1_pair(family, size)
        gate = inputs.MUTATION_GATES[seed % len(inputs.MUTATION_GATES)]
        mutant = inputs.mutate(base, gate, rng)
        assert mutant.expected == inputs.NOT_EQUIVALENT
        assert mutant.first == base.first
        # Exactly one line was inserted: ``gate`` right before a plain gate line.
        original, mutated = base.second.splitlines(), mutant.second.splitlines()
        sites = dict(inputs.mutation_sites(base.second))
        insertions = [i for i in range(len(mutated)) if mutated[:i] + mutated[i + 1 :] == original]
        assert any(i in sites and mutated[i].split()[0] == gate for i in insertions)
        dynamic = circuit_from_qasm(mutant.second)
        to_unitary_circuit(dynamic)
        result = check_equivalence(circuit_from_qasm(mutant.first), dynamic)
        assert inputs.verdict_class(result.criterion) == inputs.NOT_EQUIVALENT


def test_mutation_sites_skip_measure_reset_and_conditions():
    qasm = inputs.table1_pair("qft", 3).second
    lines = qasm.splitlines()
    for index, _ in inputs.mutation_sites(qasm):
        assert not lines[index].startswith(("measure", "reset", "if", "qreg", "creg"))


# ----------------------------------------------------------------------
# service_mix schedule
# ----------------------------------------------------------------------


def test_service_blocks_have_exact_kind_counts():
    pool = inputs.service_pool()
    blocks = inputs.service_blocks(2, pool, 2)
    for block in blocks:
        assert len(block) == inputs.BLOCK_SIZE
        assert Counter(pair.kind for pair in block) == dict(inputs.BLOCK_KINDS)
        assert [pair.kind for pair in block] == [pair.kind for pair in blocks[0]]
        hits = Counter(pair.name for pair in block if pair.kind == "hit")
        assert max(hits.values()) - min(hits.values()) <= 1


def test_canonical_requests_share_the_canonical_key_only():
    configuration = Configuration(seed=0)
    pool = inputs.service_pool()
    by_second = {pair.second: pair for pair in pool}
    blocks = inputs.service_blocks(3, pool, 2)
    canonical = [pair for block in blocks for pair in block if pair.kind == "canonical"]
    raw_keys = set()
    for request in canonical[:12]:
        base = by_second[request.second]
        first, second = circuit_from_qasm(request.first), circuit_from_qasm(request.second)
        base_first = circuit_from_qasm(base.first)
        raw = pair_fingerprint(first, second, configuration)
        assert raw != pair_fingerprint(base_first, second, configuration)
        assert canonical_pair_fingerprint(first, second, configuration) == canonical_pair_fingerprint(
            base_first, second, configuration
        )
        raw_keys.add(raw)
    assert len(raw_keys) == len(canonical[:12])
    assert len({pair.first for pair in canonical}) == len(canonical)


def test_fresh_pairs_carry_the_alternating_verdict():
    pair = inputs.fresh_pair(3, random.Random(9))
    assert pair.first != inputs.fresh_pair(3, random.Random(10)).first
    assert pair.kind == "miss"
    result = check_equivalence(circuit_from_qasm(pair.first), circuit_from_qasm(pair.second))
    assert inputs.verdict_class(result.criterion) == pair.expected


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def test_judge_accepts_confirms_counts_undecided_and_rejects_wrong():
    equivalent = inputs.Pair("p", "", "", inputs.EQUIVALENT)
    different = inputs.Pair("m", "", "", inputs.NOT_EQUIVALENT)
    assert judge(equivalent, "equivalent_up_to_global_phase")
    assert judge(different, "not_equivalent")
    assert not judge(equivalent, "no_information")
    assert not judge(equivalent, "probably_equivalent")
    assert not judge(different, "no_information")
    with pytest.raises(WrongVerdict):
        judge(equivalent, "not_equivalent")
    with pytest.raises(WrongVerdict):
        judge(different, "equivalent")
    with pytest.raises(WrongVerdict):
        judge(different, "probably_equivalent")


def test_outcomes_count_exceptions_as_failures():
    outcomes = Outcomes()
    pair = inputs.Pair("p", "", "", inputs.EQUIVALENT)
    assert outcomes.guard(pair, lambda: {"criterion": "equivalent"}) == {"criterion": "equivalent"}

    def broken():
        raise OSError("connection reset")

    assert outcomes.guard(pair, broken) is None
    assert outcomes.guard(pair, lambda: {"criterion": "no_information"}) is None
    assert (outcomes.attempted, outcomes.failed) == (3, 2)
    with pytest.raises(WrongVerdict):
        outcomes.guard(pair, lambda: {"criterion": "not_equivalent"})


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, [(1.0, 2.0), (5.0, 7.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 15.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    node = {
        "start": 100.0,
        "duration": 10.0,
        "children": [
            {"start": 101.0, "duration": 3.0},
            {"start": 102.0, "duration": 4.0},  # overlaps the first
            {"start": 108.0, "duration": 5.0},  # runs past the parent
        ],
    }
    assert self_time(node) == pytest.approx(10.0 - 5.0 - 2.0)


def test_percentile_interpolates_between_ranks():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile(list(range(11)), 0.9) == pytest.approx(9.0)
    assert percentile([5.0], 0.9) == 5.0


# ----------------------------------------------------------------------
# contract
# ----------------------------------------------------------------------


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_equiv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
