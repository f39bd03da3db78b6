"""Tests for the open-loop multi-tenant serving family (repro.experiments.tenants)."""

import numpy as np
import pytest

from repro.experiments import ExperimentScale
from repro.experiments.tenants import (
    ARRIVAL_PROCESSES,
    QUERY_KINDS,
    SATURATION_BACKLOG_FRACTION,
    TENANT_TEMPLATES,
    ArrivalConfig,
    TenantSpec,
    _downsample_depth,
    _tenant_rng,
    build_query_schedule,
    default_tenants,
    percentile_cycles,
    run_serving_point,
)
from repro.perf import result_digest


def _rng():
    return np.random.default_rng(7)


class TestArrivals:
    @pytest.mark.parametrize("process", ["poisson", "uniform"])
    def test_stochastic_arrivals_are_strictly_increasing(self, process):
        cfg = ArrivalConfig(process=process, rate_per_kcycle=5.0)
        cycles = cfg.arrival_cycles(200, _rng())
        assert len(cycles) == 200
        assert all(b > a for a, b in zip(cycles, cycles[1:]))
        assert cycles[0] >= 1

    def test_same_rng_seed_gives_identical_arrivals(self):
        cfg = ArrivalConfig(process="poisson", rate_per_kcycle=2.0)
        assert cfg.arrival_cycles(64, _rng()) == cfg.arrival_cycles(64, _rng())

    def test_arrival_scale_compresses_the_schedule(self):
        cfg = ArrivalConfig(process="poisson", rate_per_kcycle=1.0)
        base = cfg.arrival_cycles(100, _rng())
        fast = cfg.arrival_cycles(100, _rng(), arrival_scale=10.0)
        assert fast[-1] < base[-1]

    def test_trace_replays_and_wraps_with_span(self):
        cfg = ArrivalConfig(process="trace", trace=(100, 250, 400))
        cycles = cfg.arrival_cycles(6, _rng())
        # Second lap shifts by the trace span (400).
        assert cycles == [100, 250, 400, 500, 650, 800]

    def test_trace_ignores_the_rng_entirely(self):
        cfg = ArrivalConfig(process="trace", trace=(10, 20))
        assert cfg.arrival_cycles(4, _rng()) == cfg.arrival_cycles(
            4, np.random.default_rng(999)
        )

    def test_unknown_process_raises(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalConfig(process="bursty").arrival_cycles(4, _rng())

    def test_process_catalogue_is_stable(self):
        assert ARRIVAL_PROCESSES == ("poisson", "uniform", "trace")
        assert QUERY_KINDS == ("fm-seeding", "hash-seeding",
                              "kmer-counting", "prealignment")


class TestSchedule:
    TENANTS = (
        TenantSpec(name="a", arrival=ArrivalConfig(rate_per_kcycle=2.0),
                   mix=(("fm-seeding", 3.0), ("kmer-counting", 1.0)),
                   queries=40),
        TenantSpec(name="b",
                   arrival=ArrivalConfig(process="uniform",
                                         rate_per_kcycle=1.0),
                   mix=(("prealignment", 1.0),), queries=20),
    )

    def test_schedule_is_deterministic(self):
        assert build_query_schedule(self.TENANTS, seed=3) == \
            build_query_schedule(self.TENANTS, seed=3)

    def test_different_seeds_give_different_schedules(self):
        assert build_query_schedule(self.TENANTS, seed=3) != \
            build_query_schedule(self.TENANTS, seed=4)

    def test_schedule_is_merged_in_arrival_order(self):
        queries = build_query_schedule(self.TENANTS, seed=3)
        assert len(queries) == 60
        keys = [(q.arrival, q.tenant, q.index) for q in queries]
        assert keys == sorted(keys)

    def test_mix_respects_declared_kinds(self):
        queries = build_query_schedule(self.TENANTS, seed=3)
        kinds_a = {q.kind for q in queries if q.tenant == 0}
        kinds_b = {q.kind for q in queries if q.tenant == 1}
        assert kinds_a <= {"fm-seeding", "kmer-counting"}
        assert kinds_b == {"prealignment"}

    def test_tenant_streams_are_independent(self):
        # Dropping tenant b must not change tenant a's draws.
        both = [q for q in build_query_schedule(self.TENANTS, seed=3)
                if q.tenant == 0]
        alone = build_query_schedule(self.TENANTS[:1], seed=3)
        assert both == alone

    def test_tenant_rng_streams_differ_by_index(self):
        a = _tenant_rng(5, 0).integers(0, 1 << 30, size=4)
        b = _tenant_rng(5, 1).integers(0, 1 << 30, size=4)
        assert list(a) != list(b)


class TestPercentiles:
    def test_nearest_rank_on_small_lists(self):
        lat = [10, 20, 30, 40]
        assert percentile_cycles(lat, 50) == 20
        assert percentile_cycles(lat, 95) == 40
        assert percentile_cycles(lat, 99) == 40
        assert percentile_cycles([7], 50) == 7

    def test_empty_latencies_raise(self):
        with pytest.raises(ValueError, match="no latencies"):
            percentile_cycles([], 50)


class TestQueueTimeline:
    def test_downsample_tracks_peak_depth(self):
        events = [(10, 1), (20, 1), (30, -1), (40, 1), (50, -1), (60, -1)]
        timeline, peak = _downsample_depth(list(events), buckets=2)
        assert peak == 2
        assert timeline[-1][0] >= 60
        assert max(d for _c, d in timeline) == 2

    def test_empty_events(self):
        assert _downsample_depth([]) == ([], 0)

    def test_same_cycle_events_order_arrivals_after_departures(self):
        # Sorted by (cycle, delta): the -1 at cycle 10 lands before the
        # +1, so depth never exceeds 1.
        events = [(5, 1), (10, 1), (10, -1), (15, -1)]
        _timeline, peak = _downsample_depth(list(events), buckets=1)
        assert peak == 1


class TestBuiltInTenants:
    def test_default_tenants_cycle_templates_with_suffixes(self):
        count = len(TENANT_TEMPLATES) + 2
        tenants = default_tenants(count, queries_per_tenant=5)
        assert len(tenants) == count
        assert tenants[0].name == TENANT_TEMPLATES[0].name
        assert tenants[len(TENANT_TEMPLATES)].name == \
            f"{TENANT_TEMPLATES[0].name}-2"
        assert len({t.name for t in tenants}) == count
        assert all(t.queries == 5 for t in tenants)


class TestServingPoint:
    TENANTS = (
        TenantSpec(name="aligner",
                   arrival=ArrivalConfig(rate_per_kcycle=0.2),
                   mix=(("fm-seeding", 3.0), ("hash-seeding", 1.0)),
                   queries=10),
        TenantSpec(name="counter",
                   arrival=ArrivalConfig(process="uniform",
                                         rate_per_kcycle=0.15),
                   mix=(("kmer-counting", 1.0),), queries=6),
    )

    @pytest.fixture(scope="class")
    def point(self):
        return run_serving_point("beacon-d", self.TENANTS,
                                 scale=ExperimentScale.quick(), seed=11)

    def test_every_query_completes(self, point):
        assert point.queries == 16
        assert point.report is not None
        assert point.report.tasks_completed == 16
        assert point.makespan_cycles > point.last_arrival_cycle

    def test_per_tenant_stats_are_ordered_and_complete(self, point):
        assert [s.tenant for s in point.per_tenant] == ["aligner", "counter"]
        for stats in point.per_tenant:
            assert 0 < stats.p50_cycles <= stats.p95_cycles \
                <= stats.p99_cycles <= stats.max_cycles

    def test_queue_timeline_and_peak_are_consistent(self, point):
        assert point.peak_queue_depth >= 1
        assert point.queue_depth
        assert max(d for _c, d in point.queue_depth) == point.peak_queue_depth

    def test_saturation_criterion_matches_backlog(self, point):
        assert point.saturated == (
            point.backlog_at_last_arrival
            > SATURATION_BACKLOG_FRACTION * point.queries
        )

    def test_bit_identical_across_runs(self, point):
        twin = run_serving_point("beacon-d", self.TENANTS,
                                 scale=ExperimentScale.quick(), seed=11)
        assert twin == point
        assert result_digest(twin) == result_digest(point)

    def test_seed_changes_the_point(self, point):
        other = run_serving_point("beacon-d", self.TENANTS,
                                  scale=ExperimentScale.quick(), seed=12)
        assert other != point

    def test_needs_at_least_one_tenant(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            run_serving_point("beacon-d", ())
