"""Regression tests for indexed dispatch and incremental trace indexes.

The store replaced its O(all-subscriptions) dispatch scan with an
exact-stream / session-namespace / tagged-wildcard / catch-all index, and
its trace query re-scans with per-tag and per-producer indexes built at
publish time.  These tests prove both yield *identical* results to the
reference linear scans they replaced — same targets, same delivery
order — and that a publish examines only its own session's agents.
"""

import random

import pytest

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.session import SessionManager
from repro.core.context import AgentContext
from repro.streams import StreamStore, Subscription


@pytest.fixture
def store():
    return StreamStore(SimClock())


def scan_targets(store, message):
    """The pre-index reference: linear scan in subscription order."""
    return [s for s in store.subscriptions() if s.wants(message)]


class TestDispatchIndexEquivalence:
    def make_subscribers(self, store, log):
        """A spread of subscription shapes across every index bucket."""
        def recorder(name):
            return lambda message: log.append((name, message.message_id))

        store.subscribe("exact-a", recorder("exact-a"), stream_pattern="a")
        store.subscribe("glob-tag", recorder("glob-tag"), include_tags=["SQL"])
        store.subscribe("catch-all", recorder("catch-all"))
        store.subscribe("exact-b", recorder("exact-b"), stream_pattern="b")
        store.subscribe(
            "glob-prefix", recorder("glob-prefix"), stream_pattern="a*"
        )
        store.subscribe(
            "glob-excl",
            recorder("glob-excl"),
            include_tags=["SQL", "DOC"],
            exclude_tags=["DRAFT"],
        )

    def test_targets_match_linear_scan(self, store):
        log = []
        self.make_subscribers(store, log)
        for sid in ("a", "b", "ab"):
            store.create_stream(sid)
        cases = [
            ("a", []),
            ("a", ["SQL"]),
            ("b", ["DOC"]),
            ("ab", ["SQL", "DRAFT"]),
            ("ab", []),
            ("b", ["SQL", "DOC"]),
        ]
        for stream_id, tags in cases:
            message = store.publish_data(stream_id, "x", tags=tags)
            expected = [s.subscriber for s in scan_targets(store, message)]
            delivered = [name for name, mid in log if mid == message.message_id]
            assert delivered == expected, (stream_id, tags)

    def test_multi_tag_candidate_delivered_once(self, store):
        store.create_stream("s")
        hits = []
        store.subscribe("both", hits.append, include_tags=["A", "B"])
        store.publish_data("s", 1, tags=["A", "B"])
        assert len(hits) == 1

    def test_delivery_order_is_subscription_order(self, store):
        store.create_stream("s")
        order = []
        # Interleave bucket kinds so a bucket-by-bucket walk would differ.
        store.subscribe("w1", lambda m: order.append("w1"))
        store.subscribe("e1", lambda m: order.append("e1"), stream_pattern="s")
        store.subscribe("t1", lambda m: order.append("t1"), include_tags=["T"])
        store.subscribe("e2", lambda m: order.append("e2"), stream_pattern="s")
        store.subscribe("w2", lambda m: order.append("w2"))
        store.publish_data("s", 1, tags=["T"])
        assert order == ["w1", "e1", "t1", "e2", "w2"]

    def test_unsubscribe_cleans_every_bucket(self, store):
        store.create_stream("s")
        store.create_stream("ns:s")
        subs = [
            store.subscribe("e", lambda m: None, stream_pattern="s"),
            store.subscribe("t", lambda m: None, include_tags=["T"]),
            store.subscribe("w", lambda m: None),
            store.subscribe("n", lambda m: None, stream_pattern="ns:*"),
            store.subscribe(
                "nt", lambda m: None, stream_pattern="ns:*", include_tags=["T", "U"]
            ),
        ]
        assert set(store._namespaced) == {("ns:", None), ("ns:", "T"), ("ns:", "U")}
        for sub in subs:
            store.unsubscribe(sub.subscription_id)
        assert store._exact_subs == {}
        assert store._namespaced == {}
        assert store._tagged_wildcards == {}
        assert store._catchall_wildcards == {}
        assert store._sub_order == {}
        hits = []
        store.subscribe("later", hits.append)
        store.subscribe("later-ns", hits.append, stream_pattern="ns:*")
        store.publish_data("s", 1, tags=["T"])
        store.publish_data("ns:s", 2, tags=["T"])
        assert [m.payload for m in hits] == [1, 2, 2]

    def test_namespace_needs_a_literal_prefix(self, store):
        """Only a glob-free prefix through the first separator is a namespace."""
        for pattern in ("s1:*", "s1:a?", "s1:[ab]", "s1:x:*"):
            store.subscribe(pattern, lambda m: None, stream_pattern=pattern)
        for pattern in ("*:x", "s?:*", "[s]1:*", "s1*"):
            store.subscribe(pattern, lambda m: None, stream_pattern=pattern)
        assert set(store._namespaced) == {("s1:", None)}
        assert len(store._namespaced[("s1:", None)]) == 4
        assert len(store._catchall_wildcards) == 4

    def test_randomized_equivalence(self):
        streams = [
            "alpha", "beta", "gamma/one", "gamma/two",
            "s1:x", "s1:ab", "s1:sub:x", "s2:x", "s2:ab", "s10:x",
        ]
        patterns = streams + [
            "*", "gamma/*", "?lpha", "*a",
            "s1:*", "s1:a?", "s2:*", "s1:sub:*", "*:x", "s?:*", "s1*",
        ]
        tags = ["SQL", "DOC", "IMG", "DRAFT"]
        for seed in (7, 11, 23):
            rng = random.Random(seed)
            store = StreamStore(SimClock())
            for sid in streams:
                store.create_stream(sid)
            log = []
            for i in range(60):
                store.subscribe(
                    f"sub{i}",
                    (lambda name: lambda m: log.append((name, m.message_id)))(f"sub{i}"),
                    stream_pattern=rng.choice(patterns),
                    include_tags=rng.sample(tags, rng.randint(0, 2)),
                    exclude_tags=rng.sample(tags, rng.randint(0, 1)),
                )
            for _ in range(120):
                message = store.publish_data(
                    rng.choice(streams), "x", tags=rng.sample(tags, rng.randint(0, 3))
                )
                expected = [s.subscriber for s in scan_targets(store, message)]
                delivered = [n for n, mid in log if mid == message.message_id]
                assert delivered == expected, (seed, message.stream_id, message.tags)


class TestSessionScopedDispatch:
    """A publish examines its own session's subscriptions, not everyone's."""

    AGENTS_PER_SESSION = 3

    def attach_sessions(self, store, n_sessions):
        sessions = SessionManager(store)
        created = []
        for s in range(n_sessions):
            session = sessions.create(f"sess-{s}")
            context = AgentContext(store=store, session=session, clock=store.clock)
            for a in range(self.AGENTS_PER_SESSION):
                # One untagged control subscription plus one tagged data
                # subscription per agent — the shapes every agent files.
                FunctionAgent(f"A{a}", lambda inputs: {}, listen_tags=("T",)).attach(context)
            created.append(session)
        return created

    @pytest.mark.parametrize("n_sessions", [1, 4, 16, 64])
    def test_wants_calls_equal_own_session_subscriptions(self, monkeypatch, n_sessions):
        store = StreamStore(SimClock())
        session = self.attach_sessions(store, n_sessions)[0]
        own = [
            s for s in store.subscriptions() if s.stream_pattern == session.stream_id("*")
        ]
        assert len(own) == 2 * self.AGENTS_PER_SESSION
        examined = []
        wants = Subscription.wants

        def counting_wants(subscription, message):
            examined.append(message.message_id)
            return wants(subscription, message)

        monkeypatch.setattr(Subscription, "wants", counting_wants)
        message = store.publish_data(session.session_stream.stream_id, "x", tags=["T"])
        assert examined.count(message.message_id) == len(own)
        control = store.publish_control(session.session_stream.stream_id, "PING")
        assert examined.count(control.message_id) == self.AGENTS_PER_SESSION


class TestTraceIndexEquivalence:
    def fill(self, store):
        store.create_stream("s")
        for i in range(50):
            store.publish_data(
                "s",
                i,
                tags=[f"T{i % 3}"] + (["X"] if i % 7 == 0 else []),
                producer=f"p{i % 4}" if i % 5 else "",
            )

    def test_trace_by_tag_matches_scan(self, store):
        self.fill(store)
        for tag in ("T0", "T1", "T2", "X", "missing"):
            assert store.trace_by_tag(tag) == [
                m for m in store.trace() if m.has_tag(tag)
            ]

    def test_trace_by_producer_matches_scan(self, store):
        self.fill(store)
        for producer in ("p0", "p1", "p2", "p3", "", "missing"):
            assert store.trace_by_producer(producer) == [
                m for m in store.trace() if m.producer == producer
            ]

    def test_indexes_preserve_publish_order(self, store):
        self.fill(store)
        trace_order = {m.message_id: i for i, m in enumerate(store.trace())}
        positions = [trace_order[m.message_id] for m in store.trace_by_tag("T1")]
        assert positions == sorted(positions)
