"""Committed mutants: source edits the test suite must catch.

    python tests/mutants.py

Each mutant names a file, a snippet that occurs in it exactly once, the
snippet's replacement and the pytest node ids that must catch the edit.
For each mutant the script copies src/, tests/ and pyproject.toml, plus
the README.md and perfbench/ files some tests read, into a fresh
temporary directory, runs the listed tests there and requires them
to pass, applies the edit, runs them again and requires at least one to
fail. It exits 1 if a snippet is missing or repeated, if the listed tests
fail before the edit, or if a mutant survives.

Standard library only; pytest does not collect this file, and
tests/test_mutants.py checks the snippets in Tier-1 without running them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail


MUTANTS = (
    Mutant(
        "pattern-letter-at-k-accepted",
        "src/wildquery/wildcard.py",
        "        elif s < k:\n            base = base * k + s\n",
        "        elif s <= k:\n            base = base * k + s\n",
        (
            "tests/test_wildcard.py::TestBacktrackingQuery::test_shape_errors",
            "tests/test_dht.py::TestWildcardQuery"
            "::test_rejects_non_binary_or_misshaped_patterns",
        ),
    ),
    Mutant(
        "chord-decay-table-mode-full",
        "src/wildquery/experiments.py",
        '"entries_factor": 8,\n        "mode": ENTRY_BOUND,',
        '"entries_factor": 8,\n        "mode": FULL,',
        (
            "tests/test_experiments.py::TestCli"
            "::test_golden_config_from_the_cli[chord-decay]",
            "tests/test_bench_hooks.py"
            "::test_benchmark_and_golden_configs_set_only_their_table_keys",
        ),
    ),
    Mutant(
        "arc-first-without-plus-one",
        "src/wildquery/dht.py",
        "self._arc_first = [keys[a - 1] + 1 for a in range(n)]",
        "self._arc_first = [keys[a - 1] for a in range(n)]",
        ("tests/test_dht.py::TestLookup::test_equals_reference_lookup",),
    ),
    Mutant(
        "arc-width-one-short",
        "src/wildquery/dht.py",
        "[arcs[a] + arcs[a + 1 - n] for a in range(n)]",
        "[arcs[a] + arcs[a + 1 - n] - 1 for a in range(n)]",
        (
            "tests/test_dht.py::TestConstruction::test_two_node_ring",
            "tests/test_dht.py::TestLookup::test_equals_reference_lookup",
        ),
    ),
    Mutant(
        "chord-wildcard-start-one-short",
        "src/wildquery/experiments.py",
        "        start = rng.randrange(n)\n"
        "        res = net.wildcard_query(pattern, start)\n",
        "        start = rng.randrange(n - 1)\n"
        "        res = net.wildcard_query(pattern, start)\n",
        (
            "tests/test_experiments.py::TestRunners"
            "::test_chord_wildcard_starts_are_the_randrange_draws",
            "tests/test_golden.py::test_report_digests[chord-wildcard]",
        ),
    ),
    Mutant(
        "tables-keep-repeated-offsets",
        "src/wildquery/dht.py",
        "                if off > last:\n"
        "                    offs.append(off)\n"
        "                    addrs.append(f)\n",
        "                if off > 0:\n"
        "                    offs.append(off)\n"
        "                    addrs.append(f)\n",
        (
            "tests/test_dht.py::TestConstruction"
            "::test_tables_match_ring_scan_oracle",
        ),
    ),
    Mutant(
        "near-fingers-one-past-the-gap",
        "src/wildquery/dht.py",
        "near = min(granted, gap.bit_length())",
        "near = min(granted, gap.bit_length() + 1)",
        (
            "tests/test_dht.py::TestConstruction"
            "::test_tables_match_ring_scan_oracle",
            "tests/test_dht.py::TestConstruction"
            "::test_fingers_match_ring_scan_oracle",
        ),
    ),
    Mutant(
        "route-memo-kept-across-table-rebuilds",
        "src/wildquery/dht.py",
        "        self._route_memo = _NO_ROUTES\n",
        '        self.__dict__.setdefault("_route_memo", _NO_ROUTES)\n',
        ("tests/test_dht.py::TestLookup::test_refill_resets_the_route_memo",),
    ),
    Mutant(
        "dense-keys-scan-one-short",
        "src/wildquery/dht.py",
        "compress(range(self.size), self._stored)",
        "compress(range(self.size - 1), self._stored)",
        (
            "tests/test_dht.py::TestEntries"
            "::test_fills_on_both_sides_of_the_dense_rule",
            "tests/test_dht.py::TestEntries"
            "::test_fill_makes_the_randrange_draws",
        ),
    ),
    Mutant(
        "dense-rule-one-entry-late",
        "src/wildquery/dht.py",
        "dense = 2 * count >= self.size",
        "dense = 2 * count > self.size",
        (
            "tests/test_dht.py::TestEntries"
            "::test_fills_on_both_sides_of_the_dense_rule",
        ),
    ),
    Mutant(
        "submask-step-plus-one",
        "src/wildquery/dht.py",
        "sub = (sub - mask) & mask",
        "sub = (sub + 1) & mask",
        (
            "tests/test_dht.py::TestWildcardQuery"
            "::test_protocol_order_is_counting_order",
            "tests/test_dht.py::TestWildcardQuery"
            "::test_equals_chained_reference_lookups",
        ),
    ),
    Mutant(
        "chord-wildcard-rank-one-too-high",
        "src/wildquery/experiments.py",
        "(c & -c).bit_length() - 1",
        "(c & -c).bit_length()",
        ("tests/test_golden.py::test_report_digests[chord-wildcard]",),
    ),
    Mutant(
        "chord-decay-key-drawn-one-bit-wide",
        "src/wildquery/experiments.py",
        "d_bits = n_stored.bit_length()",
        "d_bits = n_stored.bit_length() + 1",
        (
            "tests/test_experiments.py::TestRunners"
            "::test_chord_decay_makes_the_choice_and_randrange_draws",
            "tests/test_golden.py::test_report_digests[chord-decay]",
        ),
    ),
    Mutant(
        "plan-span-counts-the-walk-depth",
        "src/wildquery/wildcard.py",
        "configuration[q - 1] >= m - d",
        "configuration[q - 1] > m - d",
        (
            "tests/test_wildcard.py::TestSearchPlan"
            "::test_tables_against_their_definitions",
            "tests/test_wildcard.py::TestSearchPlan"
            "::test_span_equals_the_per_depth_count",
        ),
    ),
    Mutant(
        "plan-resume-always-the-top-wildcard",
        "src/wildquery/wildcard.py",
        "resume += ([m - z] + resume[1:]) * (k - 1)",
        "resume += [m - z] * (len(resume) * (k - 1))",
        (
            "tests/test_wildcard.py::TestSearchPlan"
            "::test_tables_against_their_definitions",
        ),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.file).read_text().count(mutant.snippet)


def _tests_pass(root: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def _copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    for part in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / part, into / part)


def check(mutant: Mutant) -> str:
    """'killed', or why the mutant does not count as killed."""
    with tempfile.TemporaryDirectory(prefix="wildquery-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        if not _tests_pass(copy, mutant.tests):
            return "its tests fail before the edit"
        path = copy / mutant.file
        path.write_text(
            path.read_text().replace(mutant.snippet, mutant.replacement)
        )
        if _tests_pass(copy, mutant.tests):
            return "SURVIVED"
    return "killed"


def main() -> int:
    bad = [(m, occurrences(m)) for m in MUTANTS if occurrences(m) != 1]
    for mutant, count in bad:
        print(
            f"{mutant.name}: snippet occurs {count} times in {mutant.file}",
            file=sys.stderr,
        )
    if bad:
        return 1
    failed = 0
    for mutant in MUTANTS:
        verdict = check(mutant)
        print(f"{mutant.name}: {verdict}")
        failed += verdict != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
