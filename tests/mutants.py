"""A mutation gate: hand-made mutants of `src/` that named tests must catch.

Each mutant is one edit to one module of `src/midcache`: its old text, which
must occur exactly once, becomes its new text. Run from the repository root:

    python -m tests.mutants

For each mutant the script copies `src/` into a temporary directory, applies
the edit there and runs pytest on the mutant's node ids with only that copy on
PYTHONPATH, from the temporary directory (so Hypothesis keeps no example
database in the checkout). Hypothesis runs with a fixed seed, so every run
draws the same examples and a kill by a Hypothesis test is repeatable, and
under the `mutants` profile of `tests/conftest.py`, which skips shrinking a
failing example, since only whether a test fails counts. Every
named node id must select at least one failing test. First the named tests must all pass on an unmutated copy. The
script then prints one line per mutant and exits 1 if a mutant survives, its
old text is not found exactly once, its node ids select no test, or its tests
run past a timeout (a mutant can make a loop endless). The tier-1
test `tests/test_mutants.py` checks that every old text and node id still fits
the code, so a refactor that moves mutated code updates the mutant in the same
change.

The list starts from the mutants that `CHANGES.md` describes for the star
answer, adds and removals on the interaction graph, the replay harness, and
the cover cycle and the metamorphic relations, then covers the trace reader,
the generator's shuffle, the flow kernel, the update queue, the report,
Greedy-Dual-Size and the harness's decision audits.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 300   # per pytest run on a mutant


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # module file under src/midcache
    old: str
    new: str
    kills: tuple[str, ...]    # pytest node ids; each must select a failing test


_VCOVER = "tests/test_vcover.py::"
_COVER = "tests/test_covergraph.py::"
_HARNESS = "tests/test_simharness.py::"
_METAMORPHIC = "tests/test_metamorphic.py::"
_LOADMGR = "tests/test_loadmgr.py::"
_WORKLOAD = "tests/test_workload.py::"
_CLI = "tests/test_cli.py::"
_GOLDEN = "tests/test_golden.py::"

_EVENT_LOOP_HEAD = """\
    receive_update = cache.receive_update
    for ev in events:
        seq = ev.seq
        if isinstance(ev, Update):
            receive_update(ev)
            if decisions := on_update(ev):
                execute(cache, ledger, log, decisions, seq, None)
        elif decisions := on_query(ev):
            execute(cache, ledger, log, decisions, seq, ev)
        if cache.outstanding:   # read each event: a policy may rebind the map
"""

MUTANTS: tuple[Mutant, ...] = (
    # The star answer.
    Mutant("star-strict-cost", "vcover.py",
           "sum(map(_cost, ius)) <= q.ship_cost:",
           "sum(map(_cost, ius)) < q.ship_cost:",
           (_VCOVER + "TestStarAnswer::test_a_star_on_a_quiet_flow_skips_the_kernel",)),
    Mutant("star-without-joined-guard", "vcover.py",
           "if not joined and quiet(graph, self.flow)",
           "if quiet(graph, self.flow)",
           (_VCOVER + "TestStarAnswer::test_a_star_with_a_group_on_the_graph_reaches_the_kernel",
            _VCOVER + "TestTwinGroups::test_high_tolerance_query_splits_a_group")),
    Mutant("quiet-without-settled-test", "covergraph.py",
           "return mark is not None and mark[1] is None and mark[0] == _marks(g)",
           "return mark is not None and mark[0] == _marks(g)",
           (_COVER + "TestQuiet",)),
    Mutant("star-after-add-query", "vcover.py",
           """\
        if not joined and quiet(graph, self.flow) and sum(map(_cost, ius)) <= q.ship_cost:
            return [ShipUpdates(tuple(map(_uid, ius))), AnswerFromCache(qid)]
        graph.add_query(qid, q.ship_cost)
""",
           """\
        graph.add_query(qid, q.ship_cost)
        if not joined and quiet(graph, self.flow) and sum(map(_cost, ius)) <= q.ship_cost:
            return [ShipUpdates(tuple(map(_uid, ius))), AnswerFromCache(qid)]
""",
           (_VCOVER + "TestStarAnswer::test_a_star_on_a_quiet_flow_skips_the_kernel",)),
    # Adds and removals on the interaction graph.
    Mutant("newer-part-without-old-edges", "vcover.py",
           "                    for old in qids:\n",
           "                    for old in (qids if part is members else ()):\n",
           (_VCOVER + "TestTwinGroups::test_high_tolerance_query_splits_a_group",
            _VCOVER + "TestTwinGroups::test_both_parts_of_a_split_stay_until_an_eviction_takes_them")),
    Mutant("removal-keeps-settled-mark", "covergraph.py",
           "        fs.mark = None\n",
           "        if fs.mark is None or fs.mark[1] is not None:\n            fs.mark = None\n",
           (_COVER + "TestCycleExits::test_removal_after_the_flow_settled",
            _COVER + "TestQuiet::test_any_removal_ends_it",
            _VCOVER + "TestEndToEnd::test_eviction_reopens_a_settled_component")),
    Mutant("eviction-takes-one-group", "vcover.py",
           "                gids.add(members[0].uid)\n",
           "                gids.add(members[0].uid)\n                break\n",
           (_VCOVER + "TestGraphConsistency::test_graph_nodes_subset_of_outstanding",
            _VCOVER + "TestTwinGroups::test_eviction_while_the_objects_groups_hold_flow")),
    Mutant("cleanup-skips-group-of", "vcover.py",
           "                del group_of[u.uid]\n",
           "                pass\n",
           (_VCOVER + "TestStarAnswer::test_a_star_on_a_quiet_flow_skips_the_kernel",
            _VCOVER + "TestTwinGroups::test_high_tolerance_query_splits_a_group")),
    # The replay harness.
    Mutant("fast-answer-without-residency-test", "simharness.py",
           "if not (objects <= cache.resident and cache.outstanding.keys().isdisjoint(objects)):",
           "if not cache.outstanding.keys().isdisjoint(objects):",
           (_HARNESS + "TestAudit::test_answer_with_missing_object_aborts_with_index",)),
    Mutant("fast-answer-without-queue-test", "simharness.py",
           "if not (objects <= cache.resident and cache.outstanding.keys().isdisjoint(objects)):",
           "if not objects <= cache.resident:",
           (_HARNESS + "TestAudit::test_stale_answer_aborts_with_event_index",)),
    Mutant("no-final-row", "simharness.py",
           "    if events and events[-1].seq % stride:",
           "    if False:",
           (_HARNESS + "TestRun::test_series_monotone_and_sampled[last-off-stride]",)),
    Mutant("final-row-always", "simharness.py",
           "    if events and events[-1].seq % stride:",
           "    if events:",
           (_HARNESS + "TestRun::test_series_monotone_and_sampled[last-on-stride]",)),
    Mutant("outstanding-bound-once", "simharness.py",
           _EVENT_LOOP_HEAD,
           _EVENT_LOOP_HEAD.replace("    receive_update = cache.receive_update\n",
                                    "    receive_update, outstanding = cache.receive_update, "
                                    "cache.outstanding\n")
                           .replace("        if cache.outstanding:", "        if outstanding:"),
           (_HARNESS + "TestAudit::test_bad_decision_aborts_with_event_index[queue-map-rebound]",)),
    # The cover cycle and the metamorphic relations.
    Mutant("prune-without-marks-check", "covergraph.py",
           "    if mark is None or mark[1] is None or mark[0] != _marks(g):",
           "    if mark is None or mark[1] is None:",
           (_COVER + "TestCycleExits::test_a_cover_computed_on_another_graph_is_refused",
            _COVER + "TestCycleExits::test_nodes_added_between_a_cover_and_its_prune")),
    Mutant("prune-without-settled-check", "covergraph.py",
           "    if mark is None or mark[1] is None or mark[0] != _marks(g):",
           "    if mark is None or mark[0] != _marks(g):",
           (_COVER + "TestCycleExits::test_a_second_prune_is_refused",)),
    Mutant("prune-without-open-edge-check", "covergraph.py",
           "    if edged := [qid for qid in answered if g.query_edges[qid]]:",
           "    if edged := []:",
           (_COVER + "TestCycleExits::test_an_edge_the_cover_leaves_open_is_refused",)),
    Mutant("removal-without-absent-id-check", "covergraph.py",
           "        if missing := drop_updates - self.update_weight.keys():",
           "        if missing := set():",
           (_COVER + "TestPrune::test_remove_nodes_refuses_absent_ids",)),
    Mutant("offer-sorts-by-residue", "loadmgr.py",
           "        missing = sorted(missing)\n",
           "        missing = sorted(missing, key=lambda o: (o % 3, o))\n",
           (_METAMORPHIC + "test_order_preserving_relabel_changes_only_the_ids[vcover]",
            _LOADMGR + "TestOffer::test_matches_sorted_offer_and_its_random_stream")),
    Mutant("vcover-seed-from-trace-length", "simharness.py",
           "VCoverPolicy(cache, seed=config.seed, **p)",
           "VCoverPolicy(cache, seed=len(events), **p)",
           (_METAMORPHIC + "test_a_prefix_makes_the_full_runs_decisions[vcover]",)),
    Mutant("offer-caps-load-cost", "loadmgr.py",
           "            if rng.random() < c / lc:",
           "            if rng.random() < c / min(lc, 10**9):",
           (_METAMORPHIC + "test_relations_hold_on_a_generated_trace[vcover]",
            _LOADMGR + "TestOffer::test_ski_rental_expectation")),
    # The trace reader and the generator.
    Mutant("template-path-without-contract", "workload.py",
           "                    for msg in check(ev):\n",
           "                    for msg in (check(ev) if m is None else ()):\n",
           (_WORKLOAD + "TestTemplatePath::test_template_path_reads_as_the_json_path",
            _WORKLOAD + "TestTraceValue::test_trace_of_fails_where_validate_does")),
    Mutant("object-texts-one-set", "workload.py",
           "if (objects := object_texts.get(oids)) is None:",
           "if (objects := next(iter(object_texts.values()), None)) is None:",
           (_WORKLOAD + "TestTraceIO::test_roundtrip",
            _WORKLOAD + "TestTemplatePath::test_every_written_line_fits_a_template")),
    Mutant("counts-only-on-clean-end", "workload.py",
           "        finally:\n            rep.n_queries += n_queries\n",
           "        else:\n            rep.n_queries += n_queries\n",
           (_WORKLOAD + "TestUnreadableTrace::test_report_counts_the_events_read",)),
    Mutant("fallback-without-blank-test", "workload.py",
           'if not line.strip(b" \\t\\n\\r"):',
           "if False:",
           (_WORKLOAD + "TestTraceIO::test_blank_means_json_whitespace_only[empty]",
            _WORKLOAD + "TestTraceIO::test_blank_means_json_whitespace_only[json-whitespace]")),
    Mutant("shuffle-never-leaves-an-index", "core.py",
           "        while j > i:\n",
           "        while j >= i:\n",
           ("tests/test_core.py::test_shuffle_is_random_shuffle",
            _LOADMGR + "TestOffer::test_order_and_stream_are_random_shuffles",
            _WORKLOAD + "TestGenerateMatchesReference::test_same_catalog_events_and_bytes")),
    # The flow kept once, the update queue and the report.
    Mutant("search-takes-a-saturated-query", "covergraph.py",
           "if sum(inflow.values()) < query_weight[qid]:",
           "if sum(inflow.values()) <= query_weight[qid]:",
           (_COVER + "TestLazySeeding::test_later_seed_finds_the_path_the_first_seed_lacks",)),
    Mutant("augment-without-sink-bottleneck", "covergraph.py",
           "                 g.query_weight[qs[-1]] - sum(fs.flow_uq.get(qs[-1], {}).values()),\n",
           "",
           (_COVER + "TestLazySeeding::test_later_seed_finds_the_path_the_first_seed_lacks",
            _COVER + "TestMinWeightCover::test_updates_win_when_query_heavier")),
    Mutant("removal-keeps-arc-flow", "covergraph.py",
           "                fs.flow_uq.get(qid, {}).pop(uid, None)\n",
           "",
           (_COVER + "TestDivideByRemoval::test_a_division_keeps_the_edges_and_unsettles_the_flow",
            _VCOVER + "TestTwinGroups::test_eviction_while_the_objects_groups_hold_flow")),
    Mutant("cover-takes-reached-updates", "covergraph.py",
           "cover_u = frozenset(u for u in updates if u not in reached_u)",
           "cover_u = frozenset(u for u in updates if u in reached_u)",
           (_COVER + "TestLazySeeding::test_later_seed_finds_the_path_the_first_seed_lacks",
            _COVER + "TestMinWeightCover::test_tie_prefers_covering_updates",
            _VCOVER + "TestUpdateManager::test_single_cheap_update_ships_update")),
    Mutant("receive-update-replaces-queue", "core.py",
           "self.outstanding.setdefault(oid, []).append(u)",
           "self.outstanding[oid] = [u]",
           ("tests/test_core.py::TestInteractingUpdates::test_tolerance_excludes_recent_update",
            "tests/test_core.py::TestApply::test_ship_all_outstanding_restores_freshness",
            _VCOVER + "TestUpdateManager::test_repeated_arrivals_flip_cover_to_updates")),
    Mutant("report-joins-by-hand", "cli.py",
           "    text = simharness._csv(cols, rows)\n",
           '    text = "".join(",".join(map(str, r)) + "\\n" for r in (cols, *rows))\n',
           (_CLI + "TestReport::test_a_label_with_csv_syntax_reads_back_intact[comma]",
            _CLI + "TestReport::test_a_label_with_csv_syntax_reads_back_intact[newline]")),
    # Greedy-Dual-Size and the harness's decision audits.
    Mutant("gds-inflation-frozen", "loadmgr.py",
           "state.inflation = h",
           "pass",
           (_GOLDEN + "test_run_outputs_byte_identical",
            _LOADMGR + "TestChainedBatches::test_matches_chained_eager_oracle",
            _LOADMGR + "TestChainedBatches::test_seeded_runs_rebuild_the_heap",
            _LOADMGR + "TestGdsTouch::test_inflation_raises_credit",
            _LOADMGR + "TestLazyApply::test_net_state_matches_eager_final_residency",
            _LOADMGR + "TestLazyApply::test_resident_loaded_outside_starts_at_inflation",
            _HARNESS + "TestReplayAudit::test_queue_left_on_evict_fails_where_run_fails",
            _VCOVER + "TestReferenceVCover::test_golden_shapes_match_the_reference",
            _VCOVER + "TestReferenceVCover::test_run_matches_the_reference",
            _VCOVER + "TestTwinGroups::test_groups_are_twins_and_covers_expand_to_the_ungrouped_cover")),
    Mutant("sync-ignores-outside-moves", "loadmgr.py",
           "if state.synced_cache is not cache or state.synced_moves != moves:",
           "if state.synced_cache is not cache:",
           (_LOADMGR + "TestChainedBatches::test_matches_chained_eager_oracle",
            _LOADMGR + "TestChainedBatches::test_seeded_runs_rebuild_the_heap",
            _LOADMGR + "TestLazyApply::test_failed_batch_forces_the_sync",
            _LOADMGR + "TestLazyApply::test_resident_loaded_outside_starts_at_inflation",
            _LOADMGR + "TestLazyApply::test_unapplied_decisions_force_the_sync")),
    Mutant("evicted-admission-touches-network", "loadmgr.py",
           "if victim in admitted:",
           "if False:",
           ("tests/test_acceptance.py::test_c05_lazy_gds_no_churn",
            _GOLDEN + "test_replay_counts_one_move_per_residency_change[churn532-vcover]",
            _GOLDEN + "test_run_outputs_byte_identical[churn532-vcover-1]",
            _LOADMGR + "TestChainedBatches::test_matches_chained_eager_oracle",
            _LOADMGR + "TestChainedBatches::test_seeded_runs_rebuild_the_heap",
            _LOADMGR + "TestLazyApply::test_churn_collapses_to_single_load",
            _LOADMGR + "TestLazyApply::test_net_state_matches_eager_final_residency",
            _LOADMGR + "TestLazyApply::test_no_intra_batch_churn",
            _METAMORPHIC + "test_byte_scaling_scales_ledgers_only[vcover]",
            _METAMORPHIC + "test_order_preserving_relabel_changes_only_the_ids[vcover]",
            _METAMORPHIC + "test_time_shift_changes_nothing[vcover]",
            _HARNESS + "TestInputContract::test_validated_traces_run_and_replay_under_every_policy",
            _VCOVER + "TestCanonicalCover::test_every_cover_is_the_exhaustive_canonical_cover",
            _VCOVER + "TestReferenceVCover::test_golden_shapes_match_the_reference[churn532-1]",
            _VCOVER + "TestReferenceVCover::test_run_matches_the_reference",
            _VCOVER + "TestTwinGroups::test_groups_are_twins_and_covers_expand_to_the_ungrouped_cover")),
    Mutant("ship-query-names-any-query", "simharness.py",
           "if to_ship is None or d.qid != to_ship.qid:",
           "if to_ship is None:",
           (_HARNESS + "TestAudit::test_bad_decision_aborts_with_event_index[ship-another-qid]",
            _HARNESS + "TestReplayAudit::test_ship_query_naming_another_query")),
    Mutant("answer-names-any-query", "simharness.py",
           "if query is None or d.qid != query.qid:",
           "if query is None:",
           (_HARNESS + "TestAudit::test_bad_decision_aborts_with_event_index"
                       "[answer-names-another-query]",)),
    Mutant("query-ships-twice", "simharness.py",
           "to_ship = None",
           "pass",
           (_HARNESS + "TestAudit::test_bad_decision_aborts_with_event_index[ship-twice]",)),
    Mutant("warmup-boundary", "simharness.py",
           "if seq <= warmup:",
           "if seq < warmup:",
           (_CLI + "TestCliDigests::test_gen_and_compare_outputs_pinned",
            _HARNESS + "TestRun::test_warmup_view_subtracts_prefix")),
)


def module_path(src: Path, m: Mutant) -> Path:
    return src / "midcache" / m.file


def apply_mutant(src: Path, m: Mutant) -> None:
    """Edit the copy of `src/` in place; raises ValueError unless the old text
    occurs exactly once."""
    path = module_path(src, m)
    text = path.read_text()
    if (n := text.count(m.old)) != 1:
        raise ValueError(f"{m.name}: old text occurs {n} times in {m.file}")
    path.write_text(text.replace(m.old, m.new))


_OUTCOME = re.compile(r"^(FAILED|ERROR) (\S+)")


def failing_ids(src: Path, node_ids: tuple[str, ...], workdir: Path) -> tuple[int, set[str]]:
    """Run pytest on `node_ids` against the package in `src`; returns its exit
    code and the node ids of the tests that failed or errored."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "--no-header",
           "-p", "no:cacheprovider", "--hypothesis-seed=0", "--hypothesis-profile=mutants",
           "--rootdir", str(ROOT),
           *(str(ROOT / i) for i in node_ids)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    failed, base = set(), workdir.resolve()
    for line in out.stdout.splitlines():
        if m := _OUTCOME.match(line):   # the summary names files relative to workdir
            path, sep, rest = m.group(2).partition("::")
            failed.add(f"{(base / path).resolve().relative_to(ROOT).as_posix()}{sep}{rest}")
    return out.returncode, failed


def selects(node_id: str, failed: set[str]) -> bool:
    return any(f == node_id or f.startswith((node_id + "::", node_id + "["))
               for f in failed)


def run_on_copy(m: Mutant | None, node_ids: tuple[str, ...]) -> tuple[int, set[str]]:
    """`failing_ids` against a fresh copy of `src/`, with `m` applied unless
    it is None; raises ValueError if its old text is not found exactly once."""
    with tempfile.TemporaryDirectory(prefix="midcache-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if m is not None:
            apply_mutant(src, m)
        return failing_ids(src, node_ids, Path(tmp))


def check(m: Mutant) -> str | None:
    """None if the mutant is caught by every one of its node ids, else why not."""
    if not m.kills:
        return "names no test"
    try:
        code, failed = run_on_copy(m, m.kills)
    except ValueError as exc:
        return str(exc)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if code not in (0, 1):
        return f"pytest exited {code} (a node id may select no test)"
    if missed := [i for i in m.kills if not selects(i, failed)]:
        return "survives " + ", ".join(missed)
    return None


def main() -> int:
    # A copy that cannot pass the named tests unmutated would catch every mutant.
    node_ids = tuple(dict.fromkeys(i for m in MUTANTS for i in m.kills))
    code, failed = run_on_copy(None, node_ids)
    if code != 0:
        print(f"unmutated copy: pytest exited {code}, failing {', '.join(sorted(failed))}")
        return 1
    problems = 0
    for m in MUTANTS:
        start = time.perf_counter()
        why = check(m)
        problems += why is not None
        print(f"{m.name}: {'caught' if why is None else why} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
