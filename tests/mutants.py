"""Mutation checks: each mutant breaks the program in one place, and the
tests named with it must fail on the broken copy.

Run from anywhere, with pytest installed:

    python tests/mutants.py

``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory once per mutant. The mutant's ``old`` text must occur exactly
once in its file; it is replaced by ``new`` and the named tests run on
the copy. An unmutated copy must pass all the named tests first, so a
mutant counts as caught only by tests that fail because of it. The
script exits 1 if the unmutated copy fails, or if any mutant does not
apply, survives, or stops the tests some other way than by failing them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_TESTS = ["tests/test_metrics.py::test_path_summary_equals_per_source_bfs_past_word_boundaries"]
MOTIF_TESTS = [
    "tests/test_motifs.py::test_larger_graph_counts_by_hand",
    "tests/test_motifs.py::test_counts_match_edge_and_wedge_oracles_on_larger_graphs",
]
SPREAD_TESTS = [
    "tests/test_cli.py::test_panel_writes_the_same_bytes_for_every_worker_count",
    "tests/test_cli.py::test_baselines_writes_the_same_bytes_for_every_worker_count",
]

# (file, old text, new text, test ids)
MUTANTS = [
    # A root's tree nodes are counted at the root's own distance.
    (
        "src/gridpanel/metrics.py",
        "pairs += fold << (width * (d + 1))",
        "pairs += fold << (width * d)",
        PATH_TESTS,
    ),
    # A root's profile is folded in at level 1 only.
    (
        "src/gridpanel/metrics.py",
        "            if profile[i]:\n",
        "            if profile[i] and d == 1:\n",
        PATH_TESTS,
    ),
    # Tree sources enter the sweep one level late.
    (
        "src/gridpanel/metrics.py",
        "if d < len(inject):\n            for r, bits in inject[d].items():",
        "if d <= len(inject):\n            for r, bits in inject[d - 1].items():",
        PATH_TESTS,
    ),
    # A root's profile is folded in once per level, not once per source.
    (
        "src/gridpanel/metrics.py",
        "                fold += c * profile[i]",
        "                fold += profile[i]",
        PATH_TESTS,
    ),
    # The matched lattice's coordination rounds half of the degree to even.
    (
        "src/gridpanel/metrics.py",
        "max(2, 2 * _round_half_up(avg_degree / 2))",
        "max(2, 2 * round(avg_degree / 2))",
        [
            "tests/test_metrics.py::test_lattice_clustering_reference_points",
            "tests/test_generators.py::test_efficiency_comparison_matches_edges_across_families",
        ],
    ),
    # The census keeps each station's walk back to itself as a pair.
    (
        "src/gridpanel/motifs.py",
        "    for a in positions:\n        del walks[a, a]\n",
        "",
        ["tests/test_motifs.py::test_census_equals_motif_counts_on_the_fixtures"],
    ),
    # Chordless 4-cycles lose the correction for linked middle corners.
    (
        "src/gridpanel/motifs.py",
        "cycles += comb(w, 2) - sum(len(common.intersection(rows[x])) for x in common) // 2",
        "cycles += comb(w, 2)",
        MOTIF_TESTS,
    ),
    # A linked diagonal pair closes chordless 4-cycles.
    (
        "src/gridpanel/motifs.py",
        "if w > 1 and b not in rows[a]:",
        "if w > 1:",
        MOTIF_TESTS,
    ),
    # Each process's results are concatenated, not interleaved.
    (
        "src/gridpanel/cli.py",
        "    for k, (done, _) in enumerate(shares):\n        results[k::w] = done\n",
        "    results = [result for done, _ in shares for result in done]\n",
        SPREAD_TESTS,
    ),
    # The first failure in process order is raised, not the earliest item's.
    (
        "src/gridpanel/cli.py",
        "raise min(failures, key=itemgetter(0))[1]",
        "raise failures[0][1]",
        ["tests/test_cli.py::test_a_failing_year_raises_as_a_sequential_run_does"],
    ),
    # A worker's wait status is ignored.
    (
        "src/gridpanel/cli.py",
        "status = os.waitpid(pid, 0)[1]",
        "status = 0 * os.waitpid(pid, 0)[1]",
        ["tests/test_cli.py::test_a_worker_that_dies_without_its_rows_exits_two_and_writes_nothing"],
    ),
    # Process k computes the items one index after its own.
    (
        "src/gridpanel/cli.py",
        "    index = 0\n",
        "    index = 1\n",
        SPREAD_TESTS,
    ),
]

# A mutant can make the sweep loop forever; its run is stopped after this.
TIMEOUT_S = 300
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=IGNORED)
    shutil.copytree(ROOT / "tests", into / "tests", ignore=IGNORED)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(where: Path, ids: list[str]) -> str:
    # "tests passed", "tests failed", or why the tests reached neither.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        done = subprocess.run(
            command, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"tests timed out after {TIMEOUT_S} s"
    return {0: "tests passed", 1: "tests failed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        verdict = _pytest(Path(tmp), sorted({test for *_, tests in MUTANTS for test in tests}))
    if verdict != "tests passed":
        print(f"unmutated copy: {verdict}")
        return 1
    bad = 0
    for number, (file, old, new, tests) in enumerate(MUTANTS, start=1):
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            target = Path(tmp) / file
            text = target.read_text(encoding="utf-8")
            if text.count(old) == 1:
                target.write_text(text.replace(old, new), encoding="utf-8")
                verdict = _pytest(Path(tmp), tests)
            else:
                verdict = f"old text occurs {text.count(old)} times"
        bad += verdict != "tests failed"
        print(f"mutant {number} ({file}: {old.strip()!r} -> {new.strip()!r}): {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
