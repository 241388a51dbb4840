"""The benchmark's four workloads, driven through the library's public API.

Every workload builds its inputs from the seed alone and runs on the serial
backend in one thread, so every simulated metric and every count repeats
exactly for a given seed.  A *request* is a plan for ``fleet`` and
``surge``, a conversation turn for ``conversation`` and one storage
operation for ``shard``.

Each workload offers the same four members:

* ``setup()`` builds the system and its inputs (timed as ``setup_s``);
* ``prepare(system)`` warms a fresh system and, the first time, computes
  the reference answers the correctness checks compare against;
* ``run(system, rep)`` serves one repetition and returns a :class:`Rep`;
* ``single_use`` is true when a system can serve only one repetition;
  ``builds`` is how many times a reusable system is built in a run, and
  ``setup_repeats`` how many timed builds run back to back each time.

A repetition marks a :class:`Timeline` at the same points every time it
runs, so ``run.py`` can keep, for each stretch between two marks, the
fastest reading over all repetitions.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from layers import sim_self_by_kind

perf_counter = time.perf_counter


class Timeline:
    """Wall instants taken at the same points of every repetition.

    The serial backend does the same work in the same order each time, so
    segment *i* (from mark *i* to mark *i + 1*) covers the same work in every
    repetition.  Each mark has a label, so a repetition whose marks do not
    line up with the others is caught.
    """

    def __init__(self) -> None:
        self.instants: list[float] = []
        self.labels: list[Any] = []
        #: Segments that are the benchmark's own bookkeeping, not served work.
        self.idle: list[int] = []

    def mark(self, label: Any) -> None:
        self.instants.append(perf_counter())
        self.labels.append(label)

    def pause(self) -> None:
        """The segment from the latest mark to the next one is idle."""
        self.idle.append(len(self.instants) - 1)

    def index(self) -> dict[Any, int]:
        """Label -> position of its last mark."""
        return {label: i for i, label in enumerate(self.labels)}


@dataclass
class Rep:
    """One repetition's outcome.

    ``wall_s`` and ``timeline.instants`` are wall-clock measurements;
    everything else is exact for a given seed, and :meth:`fingerprint`
    collects it so repetitions can be checked against each other.
    """

    attempted: int = 0
    completed: int = 0
    #: Requests the overload plane refused by design (counted against
    #: ``completion_rate``, not as failures).
    refused: int = 0
    #: Requests that failed or returned a wrong answer.
    wrong: int = 0
    wall_s: float = 0.0
    timeline: Timeline = field(default_factory=Timeline)
    #: Each latency sample's stretches of the timeline, as (first mark,
    #: last mark) pairs; its latency is their sum.
    windows: list[list[tuple[int, int]]] = field(default_factory=list)
    #: End-to-end simulated metrics (``sim_*``, ``tier0_slo_rate``).
    sim: dict[str, float] = field(default_factory=dict)
    #: Counts the program exposes, keyed by per-layer metric name.
    counts: dict[str, float] = field(default_factory=dict)
    #: Digest of every request's output.
    outputs: str = ""
    problems: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        return (
            self.attempted, self.completed, self.refused, self.wrong,
            sorted(self.sim.items()), sorted(self.counts.items()), self.outputs,
            digest(self.timeline.labels), self.timeline.idle, self.windows,
        )


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def balanced(rng: random.Random, values: Any, n: int) -> list:
    """*n* draws in which every value appears equally often (when *n* is a
    multiple of ``len(values)``), in seeded order.  Inputs built this way
    differ between seeds but keep the same mix, so a metric's spread across
    seeds measures the program, not the luck of the draw."""
    values = list(values)
    pool = values * -(-n // len(values))
    rng.shuffle(pool)
    return pool[:n]


def digest(items: Any) -> str:
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def _observability_counts(blueprints: list[Any]) -> dict[str, float]:
    """Span totals and simulated self time per span kind over *blueprints*."""
    spans = 0
    sim_self: dict[str, float] = {}
    for bp in blueprints:
        recorded = bp.observability.tracer.spans()
        spans += len(recorded)
        for kind, seconds in sim_self_by_kind(recorded).items():
            sim_self[kind] = sim_self.get(kind, 0.0) + seconds
    return {
        "observability.spans_end": spans,
        "llm.sim_self_s": sim_self.get("llm", 0.0),
        "core.coordinator.node_sim_self_s": sim_self.get("node", 0.0),
    }


def _llm_counts(bp: Any) -> dict[str, float]:
    catalog = bp.catalog
    batches = catalog.batcher.stats() if catalog.batcher else None
    capacity = catalog.capacity.stats() if catalog.capacity else None
    return {
        # The tracker records physical calls and batch joins; a join is
        # charged but rides another call's invocation.
        "llm.physical_calls": bp.tracker.calls - (batches.joins if batches else 0),
        "llm.single_flight.joins": (
            catalog.single_flight.stats().joins if catalog.single_flight else 0
        ),
        "llm.batch.joins": batches.joins if batches else 0,
        "llm.batch.mean_size": batches.mean_batch if batches else 0.0,
        "llm.capacity.queued": capacity.queued if capacity else 0,
        "llm.capacity.wait_sim_s": capacity.total_wait if capacity else 0.0,
    }


def _solo_outputs(plan: Any, make_agents: Callable[[Any], list]) -> dict[str, Any]:
    """Final outputs of *plan* run alone, through the plain coordinator
    path, on a fresh Blueprint: the reference for fleet and surge.
    *make_agents* builds the plan's agents over the fresh catalog."""
    from repro.core import Blueprint, TaskCoordinator

    bp = Blueprint()
    session = bp.create_session()
    for agent in make_agents(bp.catalog):
        bp.attach(agent, session)
    coordinator = TaskCoordinator(data_planner=bp.data_planner, parallel=True)
    bp.attach(coordinator, session)
    run = coordinator.execute_plan(plan)
    if run.status != "completed":
        raise RuntimeError(f"reference run of {plan.plan_id} ended {run.status}")
    return run.final_outputs()


def _check_plans(rep: Rep, plans: list[Any], expected_of: Callable[[int, Any], Any]) -> list:
    """Score plan results (in submission order) against solo reference
    outputs.  Sets ``rep.outputs`` and returns the plans served correctly."""
    outputs, correct = [], []
    for index, p in enumerate(plans):
        if p.outcome == "rejected":
            rep.refused += 1
            outputs.append((p.plan_id, "rejected", p.rejection_reason))
            continue
        final = p.run.final_outputs() if p.run is not None else None
        outputs.append((p.plan_id, p.outcome, final))
        if p.outcome == "completed" and final == expected_of(index, p):
            rep.completed += 1
            correct.append(p)
        else:
            rep.wrong += 1
            rep.problems.append(f"{p.plan_id}: {p.outcome}, output mismatch or failure")
    rep.outputs = digest(outputs)
    return correct


def _plan_metrics(rep: Rep, bp: Any, result: Any, correct: list[Any]) -> None:
    """Simulated metrics and exposed counts of a plan run."""
    latency = [p.finished_at - p.arrived_at for p in correct]
    rep.sim = {
        "sim_latency_s_p50": quantile(latency, 0.50),
        "sim_latency_s_p95": quantile(latency, 0.95),
        "sim_makespan_s": result.makespan,
        "sim_cost_usd_per_request": bp.tracker.cost / max(1, rep.completed),
    }
    admitted = [p for p in result.plans if p.outcome != "rejected"]
    rep.counts = {
        "streams.subscriptions.live_end": len(bp.store.subscriptions()),
        "streams.trace.messages_end": len(bp.store.trace()),
        "core.fleet.queue_wait_sim_s_p95": quantile([p.queue_wait for p in admitted], 0.95),
        **_llm_counts(bp),
        **_observability_counts([bp]),
    }
    for reason in ("rate_limited", "shed", "deadline_expired", "backlog_full"):
        rep.counts[f"core.overload.rejected.{reason}"] = result.rejected_by.get(reason, 0)


def _marking(processor: Callable, timeline: Timeline, plan: str, stage: str) -> Callable:
    """*processor* wrapped to mark *timeline* when it starts and ends."""
    def marked(inputs: dict[str, Any]) -> Any:
        timeline.mark((plan, stage, "start"))
        result = processor(inputs)
        timeline.mark((plan, stage, "end"))
        return result
    return marked


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
FLEET_PLANS = 128
FLEET_INFLIGHT = 16
FLEET_SLOTS = 2
#: Share of plans that replay an earlier plan's candidate, so their
#: PROFILER prompts repeat exactly.
FLEET_REPEAT_SHARE = 0.25
FLEET_TITLES = (
    "data scientist", "data engineer", "software engineer", "product manager",
    "machine learning engineer", "data analyst", "backend engineer",
    "research scientist",
)
FLEET_CITIES = ("San Francisco", "Oakland", "San Jose", "Seattle", "Austin", "New York")


@dataclass(frozen=True)
class Candidate:
    cid: int
    title: str
    city: str


def fleet_plan(index: int, who: Candidate) -> Any:
    """A Fig-6-style plan: profile, then match | recommend, then rank."""
    from repro.core import Binding, TaskPlan

    plan = TaskPlan(f"fleet-{index:03d}", goal=f"job search for candidate {who.cid}")
    plan.add_step(
        "profile", "PROFILER",
        {"IN": Binding.const(f"candidate #{who.cid}: {who.title} in {who.city}")},
    )
    plan.add_step("match", "MATCHER", {"IN": Binding.from_node("profile", "OUT")})
    plan.add_step("recommend", "RECOMMENDER", {"IN": Binding.from_node("profile", "OUT")})
    plan.add_step(
        "rank", "RANKER",
        {"IN": Binding.from_node("match", "OUT"), "IN2": Binding.from_node("recommend", "OUT")},
    )
    return plan


def fleet_agents(catalog: Any, who: Candidate) -> list:
    """Four LLM stages for one plan's session.

    MATCHER and RECOMMENDER prompts depend only on the title, so plans
    sharing a title coalesce through single-flight; distinct prompts to one
    model can share a micro-batch.
    """
    from repro.core import FunctionAgent, Parameter

    def stage(name: str, model: str, prompt_of: Callable) -> Any:
        def fn(inputs: dict[str, Any]) -> dict[str, Any]:
            # Looked up per call: run_fleet wires the single-flight,
            # batcher and capacity onto the catalog after the agents exist.
            return {"OUT": catalog.client(model).complete(prompt_of(inputs)).text}

        return FunctionAgent(
            name, fn,
            inputs=(Parameter("IN", "text"), Parameter("IN2", "text", required=False)),
            outputs=(Parameter("OUT", "text"),),
        )

    return [
        stage("PROFILER", "mega-s",
              lambda i: f"TASK: EXTRACT\nFIELDS: title, location\nTEXT: {i['IN']}"),
        stage("MATCHER", "mega-m", lambda i: f"TASK: RELATED_TITLES\nTITLE: {who.title}"),
        stage("RECOMMENDER", "hr-ft", lambda i: f"TASK: LIST_SKILLS\nTITLE: {who.title}"),
        stage("RANKER", "mega-s",
              lambda i: f"TASK: SUMMARIZE\nTEXT: {i['IN']} | {i.get('IN2', '')}"),
    ]


class MarkedSubmissions(list):
    """Submissions that mark *timeline* as each one is taken, so the
    fleet's per-plan preparation is split into short segments too."""

    def __init__(self, submissions: list, timeline: Timeline) -> None:
        super().__init__(submissions)
        self.timeline = timeline

    def __iter__(self) -> Any:
        for submission in super().__iter__():
            self.timeline.mark((submission.plan.plan_id, "taken"))
            yield submission


class Fleet:
    """A closed batch of Fig-6 plans through ``Blueprint.run_fleet`` with
    single-flight, micro-batching and a per-model capacity limit on."""

    name = "fleet"
    single_use = True
    builds = 0
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        repeats = set(rng.sample(range(1, FLEET_PLANS), int(FLEET_PLANS * FLEET_REPEAT_SHARE)))
        titles = balanced(rng, FLEET_TITLES, FLEET_PLANS)
        self.candidates: list[Candidate] = []
        for index in range(FLEET_PLANS):
            if index in repeats:
                self.candidates.append(self.candidates[rng.randrange(index)])
            else:
                self.candidates.append(
                    Candidate(index, titles[index], rng.choice(FLEET_CITIES))
                )
        self._expected: dict[Candidate, dict[str, Any]] = {}

    def setup(self) -> Any:
        from repro.core import Blueprint
        from repro.core.fleet import FleetSubmission

        bp = Blueprint()
        timeline = Timeline()
        submissions = []
        for index, who in enumerate(self.candidates):
            plan = fleet_plan(index, who)
            agents = fleet_agents(bp.catalog, who)
            for agent in agents:
                agent.processor = _marking(agent.processor, timeline, plan.plan_id, agent.name)
            submissions.append(FleetSubmission(plan=plan, agents=agents))
        return bp, MarkedSubmissions(submissions, timeline), timeline

    def prepare(self, system: Any) -> None:
        for who in self.candidates:
            if who not in self._expected:
                self._expected[who] = _solo_outputs(
                    fleet_plan(0, who), lambda catalog: fleet_agents(catalog, who)
                )

    def run(self, system: Any, rep_index: int) -> Rep:
        from repro.llm import LLMBatcher

        bp, submissions, timeline = system
        timeline.mark("submit")
        result = bp.run_fleet(
            submissions,
            max_inflight=FLEET_INFLIGHT,
            capacity={model: FLEET_SLOTS for model in bp.catalog.names()},
            batching=LLMBatcher(),
        )
        timeline.mark("done")
        rep = Rep(attempted=len(submissions), timeline=timeline,
                  wall_s=timeline.instants[-1] - timeline.instants[0])
        # A closed batch: every plan is due when the batch is submitted.
        at = timeline.index()
        last = submissions[0].agents[-1].name
        rep.windows = [[(0, at[(s.plan.plan_id, last, "end")])]
                       for s in submissions if (s.plan.plan_id, last, "end") in at]
        correct = _check_plans(
            rep, result.plans, lambda index, p: self._expected[self.candidates[index]]
        )
        _plan_metrics(rep, bp, result, correct)
        return rep


# ----------------------------------------------------------------------
# surge
# ----------------------------------------------------------------------
#: The first SURGE_ARRIVALS arrivals of a trace generated over
#: SURGE_HORIZON simulated seconds, their times stretched so the next
#: arrival would land at SURGE_SPAN (the demo's surge window, 20-40 s, is
#: always inside).  The trace is short enough for a run to hold a dozen
#: repetitions, so each stretch of the timeline gets a quiet reading.  A fixed count over a fixed span keeps every seed's load
#: equal: per-plan state grows with the plans served, so both throughput
#: and admission outcomes follow the load a seed happens to draw.
SURGE_HORIZON = 240.0
SURGE_ARRIVALS = 160
SURGE_SPAN = 80.0
SURGE_INFLIGHT = 4


class Surge:
    """The three-tenant overload demo with its 2.4x surge window, through
    ``Blueprint.run_traffic`` with QoS admission and brownout on and LLM
    reuse off."""

    name = "surge"
    single_use = True
    builds = 0
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._expected: dict[tuple, dict[str, Any]] = {}

    def setup(self) -> Any:
        from repro.core import Blueprint
        from repro.core.overload.demo import demo_admission, demo_brownout, demo_traffic

        bp = Blueprint()
        trace = demo_traffic(seed=self.seed, horizon=SURGE_HORIZON).generate()
        stretch = SURGE_SPAN / trace[SURGE_ARRIVALS].time
        arrivals = [replace(a, time=a.time * stretch) for a in trace[:SURGE_ARRIVALS]]
        brownout = demo_brownout(metrics=bp.observability.metrics)
        return bp, arrivals, demo_admission(), brownout

    def prepare(self, system: Any) -> None:
        """Nothing to warm: references depend on the run's brownout
        decisions, so they are computed (and cached) while checking."""

    def _expected_of(self, arrival: Any, decision: dict[str, Any] | None) -> dict[str, Any]:
        """Solo outputs of the plan as admission left it: downshifted and
        pruned exactly as the brownout controller decided."""
        from repro.core.overload.demo import demo_agents, demo_plan

        model_map = (decision or {}).get("downshifted") or {}
        drop_optional = bool((decision or {}).get("pruned"))
        key = (arrival.tenant, arrival.index, tuple(sorted(model_map.items())), drop_optional)
        if key not in self._expected:
            plan = demo_plan(arrival)
            if decision is not None:
                plan = plan.derived(model_map=model_map, drop_optional=drop_optional)
            self._expected[key] = _solo_outputs(plan, lambda catalog: demo_agents())
        return self._expected[key]

    def run(self, system: Any, rep_index: int) -> Rep:
        from repro.core.overload.demo import TIER0_LATENCY_SLO, demo_submission

        bp, arrivals, admission, brownout = system
        timeline = Timeline()
        ran: dict[str, str] = {}  # plan id -> its last stage

        def submit(arrival: Any) -> Any:
            timeline.mark(("submit", arrival.tenant, arrival.index))
            submission = demo_submission(arrival)
            pid, agents = submission.plan.plan_id, submission.agents
            for agent in agents:
                agent.processor = _marking(agent.processor, timeline, pid, agent.name)
            ran[pid] = agents[-1].name
            timeline.mark(("submitted", arrival.tenant, arrival.index))
            return submission

        timeline.mark("start")
        result = bp.run_traffic(
            arrivals,
            submit,
            max_inflight=SURGE_INFLIGHT,
            admission=admission,
            brownout=brownout,
            single_flight=False,
        )
        timeline.mark("done")
        rep = Rep(attempted=len(arrivals), timeline=timeline,
                  wall_s=timeline.instants[-1] - timeline.instants[0])
        # A plan's wall latency is its service time: the stretches that end
        # at one of its stages starting (dispatch to it) or ending (its
        # work).  Its wait while other plans run depends on the seed's
        # traffic mix; its service time does not.
        served: dict[str, list[tuple[int, int]]] = {}
        for index, label in enumerate(timeline.labels):
            if isinstance(label, tuple) and label[0] in ran:
                served.setdefault(label[0], []).append((index - 1, index))
        done = set(timeline.labels)
        rep.windows = [served[pid] for pid, last in ran.items() if (pid, last, "end") in done]
        decisions = {
            d["plan"]: d for d in brownout.decisions if d.get("action") == "degrade"
        }
        correct = _check_plans(
            rep, result.plans,
            lambda index, p: self._expected_of(arrivals[index], decisions.get(p.plan_id)),
        )
        _plan_metrics(rep, bp, result, correct)
        tier0 = [p for p in result.plans if p.tier == 0]
        within = [
            p for p in correct
            if p.tier == 0 and p.finished_at - p.arrived_at <= TIER0_LATENCY_SLO
        ]
        rep.sim["tier0_slo_rate"] = len(within) / max(1, len(tier0))
        rep.counts["core.overload.brownout.transitions"] = len(brownout.transitions)
        return rep


# ----------------------------------------------------------------------
# conversation
# ----------------------------------------------------------------------
CONVERSATION_JOBS = 600
CONVERSATION_SEEKERS = 450
CONVERSATION_SESSIONS = 32
CONVERSATION_SKILLS = (
    "python", "sql", "spark", "java", "kubernetes", "tableau", "statistics",
    "machine learning",
)


class Conversation:
    """One user at a time: each session replays Scenario I (job search plus
    a follow-up) and the Fig-8 Agentic Employer script (NL -> SQL)."""

    name = "conversation"
    single_use = False
    builds = 3
    setup_repeats = 2

    def __init__(self, seed: int) -> None:
        from repro.hr.data import FIRST_NAMES
        from repro.hr.taxonomy import base_titles
        from repro.llm.knowledge import REGION_CITIES

        self.seed = seed
        rng = random.Random(seed)
        n = CONVERSATION_SESSIONS
        titles = [t.lower() for t in base_titles()]
        cities = [city for region in sorted(REGION_CITIES) for city in REGION_CITIES[region]]
        self.scripts = [
            (
                ("ask", f"I am looking for a {title} position in {region}."),
                ("followup", f"what about {rng.choice(cities)}?"),
                ("say", "hello!"),
                ("click", rng.randint(1, CONVERSATION_JOBS)),
                ("say", f"how many applicants have {skill} skills?"),
                ("say", "top candidates by experience"),
                ("say", f"average salary of {salary_title} jobs"),
                ("say", f"add {rng.choice(FIRST_NAMES)} to the shortlist"),
                ("say", "update my shortlist"),
            )
            for title, region, skill, salary_title in zip(
                balanced(rng, titles, n),
                balanced(rng, sorted(REGION_CITIES), n),
                balanced(rng, CONVERSATION_SKILLS, n),
                balanced(rng, titles, n),
            )
        ]
        self._expected: list[list[Any]] | None = None

    def setup(self) -> Any:
        from repro.hr.data import build_enterprise

        return build_enterprise(
            self.seed, n_jobs=CONVERSATION_JOBS, n_seekers=CONVERSATION_SEEKERS
        )

    def prepare(self, enterprise: Any) -> None:
        """Replay every session once; the first replay is the reference."""
        replies = [
            self._session(enterprise, script, Timeline(), index)[0]
            for index, script in enumerate(self.scripts)
        ]
        if self._expected is None:
            self._expected = replies

    @staticmethod
    def _session(enterprise: Any, script: tuple, timeline: Timeline,
                 session: int) -> tuple[list, list, list]:
        """Serve one session, marking *timeline* around each turn.

        Returns (replies, per-turn (simulated seconds, simulated dollars),
        apps).
        """
        from repro.hr.apps import AgenticEmployerApp, CareerAssistant

        replies: list[Any] = []
        turns: list[tuple[float, float]] = []
        timeline.mark((session, "start"))
        assistant = CareerAssistant(enterprise=enterprise)
        employer = None
        for turn, (kind, arg) in enumerate(script):
            if kind in ("ask", "followup"):
                app: Any = assistant
            else:
                if employer is None:
                    employer = AgenticEmployerApp(enterprise=enterprise)
                app = employer
            bp = app.blueprint
            sim0, cost0 = bp.clock.now(), bp.tracker.cost
            timeline.mark((session, turn, "start"))
            if kind == "ask":
                reply: Any = assistant.ask(arg)
            elif kind == "followup":
                reply = assistant.followup(arg)
            elif kind == "click":
                reply = employer.click_job(arg)
            else:
                reply = employer.say(arg)
            timeline.mark((session, turn, "end"))
            turns.append((bp.clock.now() - sim0, bp.tracker.cost - cost0))
            if kind in ("ask", "followup"):
                reply = (reply.text, [m.get("id") for m in reply.matches])
            replies.append(reply)
        timeline.mark((session, "end"))
        timeline.pause()
        return replies, turns, [assistant, employer]

    def run(self, enterprise: Any, rep_index: int) -> Rep:
        rep = Rep()
        timeline = rep.timeline
        sim_latency: list[float] = []
        cost = 0.0
        counts: dict[str, float] = {
            "llm.physical_calls": 0, "streams.subscriptions.live_end": 0,
            "streams.trace.messages_end": 0, "observability.spans_end": 0,
            "llm.sim_self_s": 0.0, "core.coordinator.node_sim_self_s": 0.0,
        }
        all_replies = []
        for session, (script, expected) in enumerate(zip(self.scripts, self._expected)):
            replies, turns, apps = self._session(enterprise, script, timeline, session)
            rep.attempted += len(turns)
            for (sim, spent), reply, want in zip(turns, replies, expected):
                cost += spent
                if reply == want:
                    rep.completed += 1
                    sim_latency.append(sim)
                else:
                    rep.wrong += 1
                    rep.problems.append(f"reply differs from reference: {str(reply)[:80]!r}")
            blueprints = [app.blueprint for app in apps]
            for bp in blueprints:
                counts["llm.physical_calls"] += bp.tracker.calls
                counts["streams.subscriptions.live_end"] += len(bp.store.subscriptions())
                counts["streams.trace.messages_end"] += len(bp.store.trace())
            for name, value in _observability_counts(blueprints).items():
                counts[name] += value
            all_replies.append(replies)
        rep.outputs = digest(all_replies)
        at = timeline.index()
        rep.windows = [
            [(at[(session, turn, "start")], at[(session, turn, "end")])]
            for session, script in enumerate(self.scripts) for turn in range(len(script))
        ]
        instants = timeline.instants
        rep.wall_s = sum(
            instants[i + 1] - instants[i]
            for i in range(len(instants) - 1) if i not in timeline.idle
        )
        rep.sim = {
            "sim_latency_s_p50": quantile(sim_latency, 0.50),
            "sim_latency_s_p95": quantile(sim_latency, 0.95),
            "sim_cost_usd_per_request": cost / max(1, rep.completed),
        }
        rep.counts = counts
        return rep


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
SHARD_SEEKERS = 20_000
# Operations per repetition: point gets, quorum writes (a cluster tick
# after every SHARD_TICK_EVERY of them), fan-out finds of each kind, and
# per city a pruned find of each listed kind plus SQL group-bys.
SHARD_GETS = 96
SHARD_WRITES = 48
SHARD_TICK_EVERY = 4
SHARD_FANOUT_EACH = 6
SHARD_PRUNED_PER_CITY = ("city", "title", "years", "title")
SHARD_SQL_PER_CITY = 1
SHARD_LIMIT = 20


def _matches(doc: dict[str, Any], spec: dict[str, Any]) -> bool:
    """The plain-Python filter the shard checks compare finds against."""
    for key, want in spec.items():
        if isinstance(want, dict):
            if not doc[key] >= want["$gte"]:
                return False
        elif doc[key] != want:
            return False
    return True


def _strip(doc: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in doc.items() if key != "_id"}


class Shard:
    """One client over the sharded enterprise: a seeded mix of point gets,
    pruned and fan-out finds, pruned SQL group-bys and quorum writes."""

    name = "shard"
    single_use = False
    builds = 3
    setup_repeats = 1

    def __init__(self, seed: int) -> None:
        from repro.hr.data import OTHER_CITIES
        from repro.hr.taxonomy import base_titles
        from repro.llm.knowledge import REGION_CITIES

        self.seed = seed
        rng = random.Random(seed)
        # Every city appears equally often: cities land on shards of
        # different sizes, so a seeded choice would change the work.
        cities = list(REGION_CITIES["sf bay area"]) + list(OTHER_CITIES)
        titles = base_titles()
        ops: list[tuple[str, Any]] = [
            ("get", rng.randint(1, SHARD_SEEKERS)) for _ in range(SHARD_GETS)
        ]
        ops += [("write", None)] * SHARD_WRITES
        ops += [("find_fanout", {"title": title})
                for title in rng.sample(titles, SHARD_FANOUT_EACH)]
        ops += [("find_fanout", {"years_experience": {"$gte": years}})
                for years in rng.sample(range(10, 20), SHARD_FANOUT_EACH)]
        for city in cities:
            for extra in SHARD_PRUNED_PER_CITY:
                spec: dict[str, Any] = {"city": city}
                if extra == "title":
                    spec["title"] = rng.choice(titles)
                elif extra == "years":
                    spec["years_experience"] = {"$gte": rng.randint(4, 18)}
                ops.append(("find_pruned", spec))
            ops += [("sql", city)] * SHARD_SQL_PER_CITY
        rng.shuffle(ops)
        self.ops = ops
        self._docs: dict[int, dict[str, Any]] | None = None
        self._answers: dict[tuple, Any] = {}

    def setup(self) -> Any:
        from repro.hr.data import build_sharded_enterprise

        return build_sharded_enterprise(seed=self.seed, n_seekers=SHARD_SEEKERS)

    def prepare(self, enterprise: Any) -> None:
        """Regenerate the rows the enterprise was built from, then serve the
        operation list once so lazily built state exists before timing."""
        if self._docs is None:
            import numpy as np
            from repro.hr.data import generate_jobs, generate_seekers_fast

            # The same draws, in the same order, as build_sharded_enterprise.
            rng = np.random.default_rng(self.seed)
            generate_jobs(200, rng)
            seekers = generate_seekers_fast(SHARD_SEEKERS, rng)
            self._docs = {s["id"]: {**s, "seeker_id": s["id"]} for s in seekers}
        self._serve(enterprise, "warm", Timeline())

    @staticmethod
    def _sql(city: str) -> str:
        return (
            "SELECT title, COUNT(*) AS n FROM seekers WHERE city = "
            f"'{city}' GROUP BY title ORDER BY n DESC LIMIT 3"
        )

    def _serve(self, enterprise: Any, tag: str,
               timeline: Timeline) -> tuple[list, dict[str, int], list]:
        """Run the operation list once, marking *timeline* after each
        operation.

        Returns (per-op (kind, arg, result), scan stats, acked writes).
        """
        from repro.errors import ClusterUnavailableError

        profiles = enterprise.profiles
        resumes = enterprise.documents.collection("resumes")
        database = enterprise.database
        results: list[tuple[str, Any, Any, float]] = []
        stats = {"finds": 0, "docs_scanned": 0, "queries": 0, "shards_scanned": 0,
                 "write_rejected": 0}
        acked: list[tuple[str, dict[str, Any]]] = []
        writes = 0
        timeline.mark("start")
        for number, (kind, arg) in enumerate(self.ops):
            if kind == "get":
                out: Any = profiles.get(f"profile-{arg}")
            elif kind in ("find_pruned", "find_fanout"):
                out = profiles.find(arg, limit=SHARD_LIMIT)
            elif kind == "sql":
                out = database.execute(self._sql(arg)).rows
            else:
                writes += 1
                out = (f"bench-{tag}-{writes}", {"seeker_id": -writes, "text": tag})
                try:
                    resumes.insert(out[1], doc_id=out[0])
                except ClusterUnavailableError:
                    out = None
                if writes % SHARD_TICK_EVERY == 0:
                    enterprise.documents.tick()
            timeline.mark(number)
            if kind in ("find_pruned", "find_fanout"):
                stats["finds"] += 1
                stats["docs_scanned"] += profiles.last_find_stats["docs_scanned"]
                stats["queries"] += 1
                stats["shards_scanned"] += profiles.last_find_stats["shards_scanned"]
            elif kind == "sql":
                stats["queries"] += 1
                stats["shards_scanned"] += database.last_execute_stats["shards_scanned"]
            elif kind == "write":
                if out is None:
                    stats["write_rejected"] += 1
                else:
                    acked.append(out)
            results.append((kind, arg, out))
        return results, stats, acked

    def _answer(self, kind: str, arg: Any) -> Any:
        """The plain-Python answer: a find's match count, or a city's
        seekers counted by title."""
        key = (kind, repr(arg))
        if key not in self._answers:
            docs = self._docs.values()
            if kind == "sql":
                counts: dict[str, int] = {}
                for d in docs:
                    if d["city"] == arg:
                        counts[d["title"]] = counts.get(d["title"], 0) + 1
                self._answers[key] = counts
            else:
                self._answers[key] = sum(1 for d in docs if _matches(d, arg))
        return self._answers[key]

    def _correct(self, kind: str, arg: Any, out: Any) -> bool:
        docs = self._docs
        if kind == "get":
            return _strip(out) == docs[arg] and out.get("_id") == f"profile-{arg}"
        if kind in ("find_pruned", "find_fanout"):
            return len(out) == min(SHARD_LIMIT, self._answer(kind, arg)) and all(
                _matches(d, arg) and _strip(d) == docs.get(d.get("seeker_id")) for d in out
            )
        counts = self._answer(kind, arg)
        top = sorted(counts.values(), reverse=True)[:3]
        return [r["n"] for r in out] == top and all(
            counts.get(r["title"]) == r["n"] for r in out
        )

    def run(self, enterprise: Any, rep_index: int) -> Rep:
        from repro.errors import QueryError

        timeline = Timeline()
        results, stats, acked = self._serve(enterprise, f"r{rep_index}", timeline)
        rep = Rep(attempted=len(results), timeline=timeline,
                  wall_s=timeline.instants[-1] - timeline.instants[0],
                  windows=[[(number, number + 1)] for number in range(len(results))])
        reads = []
        for kind, arg, out in results:
            if kind == "write":
                if out is None:
                    rep.wrong += 1
                    rep.problems.append("a write was refused")
                continue
            reads.append(out)
            if self._correct(kind, arg, out):
                rep.completed += 1
            else:
                rep.wrong += 1
                rep.problems.append(f"{kind} {arg!r} returned a wrong result")
        # A write completes once it is acknowledged and reads back intact.
        resumes = enterprise.documents.collection("resumes")
        for doc_id, doc in acked:
            try:
                intact = _strip(resumes.get(doc_id)) == doc
            except QueryError:
                intact = False
            if intact:
                rep.completed += 1
            else:
                rep.wrong += 1
                rep.problems.append(f"acked write {doc_id} did not read back")
        rep.outputs = digest(reads)
        rep.counts = {
            "storage.cluster.docs_scanned_per_find":
                stats["docs_scanned"] / max(1, stats["finds"]),
            "storage.cluster.shards_scanned_per_query":
                stats["shards_scanned"] / max(1, stats["queries"]),
            "storage.cluster.write.rejected": stats["write_rejected"],
        }
        return rep


WORKLOADS: dict[str, type] = {
    cls.name: cls for cls in (Fleet, Surge, Conversation, Shard)
}
