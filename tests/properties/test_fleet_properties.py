"""Property-based tests: the fleet scheduler adds *concurrency*, nothing else.

Acceptance criteria for fleet execution:

* **Fleet of one ≡ plain run.**  For any seed, fault rate, and chaos
  kill point, a single plan driven through :class:`FleetScheduler` is
  byte-identical to the same plan driven by ``execute_plan`` with the
  parallel scheduler — same stream export (messages, ids, timestamps),
  same journal entries, same charges, same clock end.  The fleet path
  reuses the exact same wave stepper, so this holds to the byte, not
  just up to time.

* **Determinism under resubmission.**  The same submission list produces
  byte-identical stream exports run to run, even with shared model
  capacity and single-flight coalescing in play.

* **Order-independence absent contention.**  Without shared contention
  (no capacity limits, no coalescing), each plan's outputs, finish time,
  and the fleet makespan are functions of the plan alone — permuting the
  submission order changes nothing but message interleaving.

* **Thread backend is result-identical.**  The same seeds × fault rates
  × kill points driven through :class:`ThreadBackend` produce the same
  node outputs, statuses, charge multisets, and journal entry sets as
  serial — only event *order* (store arrival, id numbering scheme, span
  interleaving) may differ.  A failed wave is the one defined
  divergence: serial stops at the first failing node, thread mode has
  already started its siblings, so serial's executed set is a subset.

* **No capacity overbooking.**  After a fleet run with shared model
  capacity, no model ever had more reservations in flight than its
  limit: the capacity's own peak (read from its occupancy profile)
  stays at or below the limit and equals a brute-force sweep of the
  recorded intervals, and the queueing tallies repeat run to run.

* **Batching determinism.**  A serial fleet with micro-batching enabled
  reproduces the store export byte for byte run to run: batch-window
  membership and flush instants are pure functions of the submission
  list on the simulated clock.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.engine import ThreadBackend
from repro.core.fleet import FleetEntry, FleetScheduler, FleetSubmission
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.recovery import RecoveryManager, WriteAheadJournal
from repro.core.resilience import (
    ChaosController,
    ChaosSpec,
    KillSwitch,
    RetryPolicy,
)
from repro.core.runtime import Blueprint
from repro.core.scheduler import VirtualTimeline
from repro.core.session import SessionManager
from repro.errors import CoordinatorKilledError
from repro.llm import LLMBatcher
from repro.streams import StreamStore
from repro.streams.persistence import export_json


def diamond_plan(seed: int) -> TaskPlan:
    """Fan-out/fan-in: S1 -> (M1, M2, M3) -> S2 (two waves of real width)."""
    plan = TaskPlan("fp", goal="diamond")
    plan.add_step("s1", "A", {"IN": Binding.const(f"q{seed}")})
    plan.add_step("m1", "B", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step("m2", "C", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step("m3", "D", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step(
        "s2", "E",
        {"IN": Binding.from_node("m1", "OUT"), "IN2": Binding.from_node("m2", "OUT")},
    )
    return plan


def run_scenario(
    seed: int,
    fault_rate: float,
    kill_at: int | None,
    fleet: bool,
    backend=None,
):
    """One seeded diamond run under agent chaos, optionally kill+resumed.

    With *fleet*, the plan goes through a one-slot :class:`FleetScheduler`
    on a shared timeline (stepping waves via *backend* when given);
    otherwise ``execute_plan`` drives it directly.  Everything else —
    store, session, journal, chaos, retries — is identical, so the
    outputs must be too.
    """
    clock = SimClock()
    store = StreamStore(clock)
    session = SessionManager(store).create("fleet-prop")
    budget = Budget(clock=clock)
    chaos = ChaosController(
        ChaosSpec(agent_transient_rate=fault_rate), seed=seed, clock=clock
    )
    switch = KillSwitch(kill_at) if kill_at is not None else None
    journal = WriteAheadJournal(store, session=session, barrier_hook=switch)

    def context():
        return AgentContext(store=store, session=session, clock=clock, budget=budget)

    def stage(name, latency):
        def fn(inputs):
            chaos.agent_fault(f"{name}|{inputs.get('IN')}")
            budget.charge(f"agent:{name}", cost=0.01, latency=latency)
            bound = ",".join(str(v) for k, v in sorted(inputs.items()) if v)
            return {"OUT": f"{name}({bound})"}

        return FunctionAgent(
            name, fn,
            inputs=(
                Parameter("IN", "text"),
                Parameter("IN2", "text", required=False),
            ),
            outputs=(Parameter("OUT", "text"),),
        )

    for name, latency in (("A", 0.2), ("B", 0.5), ("C", 0.3), ("D", 0.4), ("E", 0.1)):
        stage(name, latency).attach(context())

    def new_coordinator():
        coordinator = TaskCoordinator(
            journal=journal,
            parallel=True,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.5, jitter=0.5, seed=seed
            ),
        )
        coordinator.attach(context())
        return coordinator

    coordinator = new_coordinator()
    try:
        if fleet:
            scheduler = FleetScheduler(
                VirtualTimeline(clock), clock, max_inflight=1, backend=backend
            )
            result = scheduler.run(
                [
                    FleetEntry(
                        plan=diamond_plan(seed),
                        coordinator=coordinator,
                        budget=budget,
                    )
                ]
            )
            run = result.plans[0].run
        else:
            run = coordinator.execute_plan(diamond_plan(seed))
    except CoordinatorKilledError:
        coordinator.crash()
        manager = RecoveryManager(journal, coordinator=new_coordinator())
        runs = manager.resume_incomplete(budget=budget)
        assert len(runs) == 1
        run = runs[0]
    charges = sorted((c.source, c.cost, c.latency) for c in budget.charges())
    return (
        dict(run.node_outputs),
        charges,
        # Full entries, timestamps included: fleet-of-one must reproduce
        # the journal to the byte, not just up to time.
        journal.entries("fp"),
        run.status,
        export_json(store),
        clock.now(),
        normalized_trace(store),
    )


def normalized_trace(store) -> list[tuple]:
    """The store's global trace as a sorted multiset of message facts.

    Thread-backend runs append to the store in pool-arrival order, so the
    raw export is order-unstable run to run even when every message —
    id, stream, payload, producer, timestamp — is identical.  Sorting
    removes exactly (and only) the arrival order.
    """
    return sorted(
        (
            message.stream_id,
            message.message_id,
            message.kind.value,
            repr(message.payload),
            message.producer,
            message.timestamp,
        )
        for message in store.trace()
    )


def run_thread_scenario(seed: int, fault_rate: float, kill_at: int | None):
    """`run_scenario` through the fleet path on a fresh thread backend."""
    engine = ThreadBackend()
    try:
        return run_scenario(seed, fault_rate, kill_at, fleet=True, backend=engine)
    finally:
        engine.close()


def _freeze(value):
    """Recursively hashable form of a journal entry, time fields stripped.

    Branch-local timestamps are the one thing wave/thread accounting is
    *allowed* to reorder relative to the global clock; every other field
    must match the serial run exactly.
    """
    if isinstance(value, dict):
        return tuple(
            sorted(
                (k, _freeze(v))
                for k, v in value.items()
                if k not in ("timestamp", "started_at")
            )
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class TestFleetOfOneEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
        kill_at=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    )
    @settings(max_examples=25, deadline=None)
    def test_fleet_of_one_is_byte_identical(self, seed, fault_rate, kill_at):
        plain = run_scenario(seed, fault_rate, kill_at, fleet=False)
        fleet = run_scenario(seed, fault_rate, kill_at, fleet=True)
        # Store export first: messages, ids, *and timestamps* must match.
        assert fleet[4] == plain[4]
        assert fleet == plain


class TestThreadBackendEquivalence:
    """Same seeds × fault rates through :class:`ThreadBackend`: results
    must match serial even where event order differs."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_thread_results_match_serial(self, seed, fault_rate):
        outputs_s, charges_s, journal_s, status_s, _, end_s, _ = run_scenario(
            seed, fault_rate, None, fleet=True
        )
        outputs_t, charges_t, journal_t, status_t, _, end_t, _ = (
            run_thread_scenario(seed, fault_rate, None)
        )
        # Fault decisions are content-seeded (hash of seed|key|counter),
        # so the same nodes fail under both backends: statuses agree.
        assert status_t == status_s
        # Serial stops a failed wave at the first failing node; thread
        # mode has already started the siblings — subset, not equality.
        assert outputs_s.items() <= outputs_t.items()
        if status_s == "completed":
            assert outputs_t == outputs_s
            assert charges_t == charges_s
            assert end_t == end_s
            # Journal entry *sets* match up to time: same records, only
            # write order and arrival interleaving may differ.
            assert {_freeze(e) for e in journal_t} == {
                _freeze(e) for e in journal_s
            }

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_thread_runs_are_result_deterministic(self, seed, fault_rate):
        """Two same-seed thread runs agree on every message fact — ids,
        payloads, timestamps — modulo store arrival order."""
        first = run_thread_scenario(seed, fault_rate, None)
        second = run_thread_scenario(seed, fault_rate, None)
        assert first[0] == second[0]  # node outputs
        assert first[1] == second[1]  # charge multiset
        assert first[3] == second[3]  # status
        assert first[5] == second[5]  # clock end
        assert first[6] == second[6]  # normalized trace

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kill_at=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=15, deadline=None)
    def test_thread_chaos_kill_resume_converges(self, seed, kill_at):
        """Chaos under the thread backend: kill at the Nth barrier (which
        barrier that is depends on thread interleaving), resume, and the
        final state must equal the uninterrupted serial run's — the
        kill-point-invariance property, backend-independent."""
        outputs_s, _, _, status_s, _, _, _ = run_scenario(
            seed, 0.0, None, fleet=True
        )
        outputs_t, _, _, status_t, _, _, _ = run_thread_scenario(
            seed, 0.0, kill_at
        )
        assert status_t == status_s == "completed"
        assert outputs_t == outputs_s


def job_plan(index: int) -> TaskPlan:
    """Fig-6-style plan with per-index inputs (distinct LLM latencies)."""
    plan = TaskPlan(f"job-{index:02d}", goal=f"session {index}")
    plan.add_step(
        "profile", "PROFILER", {"IN": Binding.const(f"candidate #{index}")}
    )
    plan.add_step("match", "MATCHER", {"IN": Binding.from_node("profile", "OUT")})
    plan.add_step(
        "rank", "RANKER", {"IN": Binding.from_node("match", "OUT")}
    )
    return plan


def job_agents(catalog, index: int):
    """LLM-backed stages; MATCHER's prompt is shared across sessions."""

    def llm_stage(name, model, prompt_of):
        def fn(inputs):
            return {"OUT": catalog.client(model).complete(prompt_of(inputs)).text}

        return FunctionAgent(
            name, fn,
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
        )

    return [
        llm_stage(
            "PROFILER", "mega-s",
            lambda i: f"TASK: EXTRACT\nFIELDS: title\nTEXT: {i['IN']}",
        ),
        llm_stage(
            "MATCHER", "mega-m",
            lambda i: "TASK: RELATED_TITLES\nTITLE: data scientist",
        ),
        llm_stage(
            "RANKER", "mega-s",
            lambda i: f"TASK: SUMMARIZE\nTEXT: {i.get('IN', '')}",
        ),
    ]


def run_fleet_blueprint(order, **kwargs):
    """A fresh Blueprint fleet run over ``job_plan(i) for i in order``."""
    bp = Blueprint()
    submissions = [
        FleetSubmission(plan=job_plan(i), agents=job_agents(bp.catalog, i))
        for i in order
    ]
    result = bp.run_fleet(submissions, **kwargs)
    return bp, result


class TestFleetDeterminism:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_same_submissions_byte_identical(self, seed):
        """Rerunning the same list reproduces the store to the byte,
        even with capacity queueing and single-flight coalescing live."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5]
        kwargs = dict(max_inflight=2, capacity={"mega-s": 1}, single_flight=True)
        bp1, r1 = run_fleet_blueprint(order, **kwargs)
        bp2, r2 = run_fleet_blueprint(order, **kwargs)
        assert export_json(bp1.store) == export_json(bp2.store)
        assert r1.makespan == r2.makespan
        assert [(p.plan_id, p.outcome, p.finished_at) for p in r1.plans] == [
            (p.plan_id, p.outcome, p.finished_at) for p in r2.plans
        ]

    @given(permutation=st.permutations(list(range(4))))
    @settings(max_examples=10, deadline=None)
    def test_reordered_submission_same_outcomes(self, permutation):
        """Without shared contention, per-plan results and the makespan
        are functions of the plans, not of submission order."""
        kwargs = dict(max_inflight=4, single_flight=False, journal=False)
        _, base = run_fleet_blueprint(list(range(4)), **kwargs)
        _, permuted = run_fleet_blueprint(permutation, **kwargs)

        def by_plan(result):
            return {
                p.plan_id: (
                    p.outcome,
                    p.admitted_at,
                    p.finished_at,
                    dict(p.run.node_outputs) if p.run else None,
                )
                for p in result.plans
            }

        assert by_plan(permuted) == by_plan(base)
        assert permuted.makespan == base.makespan


class TestBatchingDeterminism:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=8, deadline=None)
    def test_batched_fleet_is_byte_identical_on_serial(self, seed):
        """Micro-batch membership is a pure function of the submission
        list under the serial backend: reruns reproduce the store export
        byte for byte, and the batcher tallies agree."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5, (seed + 3) % 5]

        def run():
            kwargs = dict(
                max_inflight=4,
                capacity={"mega-s": 1, "mega-m": 1},
                single_flight=True,
                batching=LLMBatcher(max_batch_wait=1.0),
            )
            bp, result = run_fleet_blueprint(order, **kwargs)
            return export_json(bp.store), result.makespan, bp.catalog.batcher.stats()

        export_1, makespan_1, stats_1 = run()
        export_2, makespan_2, stats_2 = run()
        assert export_1 == export_2
        assert makespan_1 == makespan_2
        assert stats_1 == stats_2

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=5, deadline=None)
    def test_batching_never_changes_outcomes(self, seed):
        """Batching amortizes latency and slots; it must not change any
        plan's outcome or node outputs."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5]

        def outcomes(batching):
            kwargs = dict(max_inflight=3, single_flight=False, batching=batching)
            _, result = run_fleet_blueprint(order, **kwargs)
            return {
                p.plan_id: (
                    p.outcome,
                    dict(p.run.node_outputs) if p.run else None,
                )
                for p in result.plans
            }

        assert outcomes(LLMBatcher(max_batch_wait=1.0)) == outcomes(False)


def swept_peak(intervals) -> int:
    """Most intervals active at one instant, by brute force."""
    return max(
        (
            sum(1 for s, e in intervals if s <= x < e)
            for x, end in intervals
            if x < end
        ),
        default=0,
    )


class TestCapacityInvariant:
    @given(
        seed=st.integers(min_value=0, max_value=100),
        small=st.integers(min_value=1, max_value=2),
        medium=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_no_model_is_ever_overbooked(self, seed, small, medium):
        order = [(seed + k) % 5 for k in range(5)]
        limits = {"mega-s": small, "mega-m": medium}

        def run():
            bp, _ = run_fleet_blueprint(
                order, max_inflight=4, capacity=dict(limits), single_flight=False
            )
            return bp.catalog.capacity

        capacity = run()
        assert set(capacity.models()) == set(limits)
        for model, limit in limits.items():
            intervals = capacity.intervals(model)
            assert intervals
            assert capacity.max_concurrency(model) <= limit
            assert capacity.max_concurrency(model) == swept_peak(intervals)
        if small == 1:
            assert capacity.stats().queued > 0
        again = run().stats()
        assert (again.queued, again.total_wait) == (
            capacity.stats().queued,
            capacity.stats().total_wait,
        )
