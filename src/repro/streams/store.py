"""The streams database: creation, publication, subscription, dispatch.

The blueprint deploys a "streams database [that] manages the flow of data
and control messages among components" (Section IV).  :class:`StreamStore`
is that database: it owns every stream, assigns message ids and timestamps,
persists the global trace, and delivers messages to subscribers.

Delivery is synchronous and depth-first: when a subscriber's callback
publishes further messages (the normal case — agents react to messages by
emitting more), those are delivered immediately before the publish returns.
This gives coordinators read-your-writes semantics over agent outputs; a
dispatch-depth guard catches accidental agent loops.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, TYPE_CHECKING

from ..clock import SimClock
from ..errors import StreamError
from ..ids import IdGenerator
from .message import Message, MessageKind, control_payload
from .stream import Stream
from .subscription import Subscription, SubscriberCallback, TagRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Observability

#: Ends a stream id's namespace: a session names every stream it owns
#: ``{session_id}:{name}``, so ``stream_id[:first ':' + 1]`` is the
#: session's namespace and ``"{session_id}:*"`` subscribes to all of it.
#: The dispatch index keys session-scoped subscriptions on it.
NAMESPACE_SEPARATOR = ":"


def stream_namespace(stream_id: str) -> str:
    """The namespace prefix of *stream_id* (through its first separator),
    or ``""`` when it has none."""
    return stream_id[: stream_id.find(NAMESPACE_SEPARATOR) + 1]


class StreamStore:
    """In-process streams database with pub/sub and full observability."""

    #: Characters that make a stream pattern a glob rather than a literal.
    _GLOB_CHARS = frozenset("*?[")

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._ids = IdGenerator()
        self._streams: dict[str, Stream] = {}
        self._subscriptions: dict[str, Subscription] = {}
        # Dispatch index: rather than testing every subscription against
        # every message (O(subscriptions) per publish), candidates come
        # from four tiers, each a bucket table keyed by what a message
        # must carry to match:
        #   * exact — literal patterns, keyed by stream id;
        #   * namespaced — globs whose literal prefix reaches the first
        #     ``NAMESPACE_SEPARATOR`` (``"sess-3:*"``), keyed
        #     ``(namespace, None)`` if untagged, else ``(namespace, tag)``
        #     once per include tag — so a publish only examines its own
        #     session's subscriptions;
        #   * tagged — other globs with include tags, keyed by tag;
        #   * catch-all — other globs with no include tags.
        # ``wants()`` still runs on each candidate, so the index only has
        # to be complete (never miss a match), not precise.
        self._exact_subs: dict[str, dict[str, Subscription]] = {}
        self._namespaced: dict[tuple[str, str | None], dict[str, Subscription]] = {}
        self._tagged_wildcards: dict[str, dict[str, Subscription]] = {}
        self._catchall_wildcards: dict[str, Subscription] = {}
        # Global insertion sequence, so merged candidates are delivered
        # in the same order a linear scan of ``_subscriptions`` would.
        self._sub_order: dict[str, int] = {}
        self._sub_counter = 0
        self._trace: list[Message] = []
        # Incremental trace indexes, appended at publish time so
        # ``trace_by_tag`` / ``trace_by_producer`` never re-scan the log.
        self._trace_by_tag: dict[str, list[Message]] = {}
        self._trace_by_producer: dict[str, list[Message]] = {}
        self._lock = threading.RLock()
        self._depth = 0
        self.max_dispatch_depth = 500
        # Plain tallies, pulled into a metrics snapshot by the collector
        # below: publishing is the hottest path in the runtime, so it
        # must not pay a registry update per message.
        self._message_counts: dict[str, int] = {}
        self._delivery_count = 0
        self._observability: "Observability | None" = None

    @property
    def observability(self) -> "Observability | None":
        """Optional metrics sink (settable; the Blueprint wires its own).

        Reports ``stream.messages`` per kind and ``stream.deliveries`` —
        the fan-out factor the A2 scaling study cares about.
        """
        return self._observability

    @observability.setter
    def observability(self, value: "Observability | None") -> None:
        if value is self._observability:
            return
        self._observability = value
        if value is not None:
            value.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self, sink) -> None:
        for kind, count in self._message_counts.items():
            sink.inc("stream.messages", float(count), kind=kind)
        if self._delivery_count:
            sink.inc("stream.deliveries", float(self._delivery_count))

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def create_stream(
        self,
        stream_id: str | None = None,
        tags: Iterable[str] = (),
        creator: str = "",
    ) -> Stream:
        """Create and register a new stream.

        Raises:
            StreamError: if *stream_id* already exists.
        """
        with self._lock:
            if stream_id is None:
                stream_id = self._ids.next("stream")
            if stream_id in self._streams:
                raise StreamError(f"stream already exists: {stream_id!r}")
            stream = Stream(
                stream_id,
                tags=frozenset(tags),
                creator=creator,
                created_at=self.clock.now(),
            )
            self._streams[stream_id] = stream
            return stream

    def get_stream(self, stream_id: str) -> Stream:
        with self._lock:
            stream = self._streams.get(stream_id)
        if stream is None:
            raise StreamError(f"unknown stream: {stream_id!r}")
        return stream

    def has_stream(self, stream_id: str) -> bool:
        with self._lock:
            return stream_id in self._streams

    def ensure_stream(self, stream_id: str, creator: str = "") -> Stream:
        """Return the stream, creating it if it does not exist yet."""
        with self._lock:
            if stream_id in self._streams:
                return self._streams[stream_id]
            return self.create_stream(stream_id, creator=creator)

    def list_streams(self) -> list[str]:
        with self._lock:
            return sorted(self._streams)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        stream_id: str,
        payload: Any,
        kind: MessageKind = MessageKind.DATA,
        tags: Iterable[str] = (),
        producer: str = "",
        metadata: Mapping[str, Any] | None = None,
    ) -> Message:
        """Append a message to *stream_id* and dispatch it to subscribers."""
        stream = self.get_stream(stream_id)
        message = Message(
            message_id=self._ids.next("msg"),
            stream_id=stream_id,
            kind=kind,
            payload=payload,
            tags=frozenset(tags),
            producer=producer,
            timestamp=self.clock.now(),
            metadata=dict(metadata or {}),
        )
        self._persist(message)
        stream.append(message)
        self._record(message)
        self._dispatch(message)
        return message

    def _record(self, message: Message) -> None:
        """Append *message* to the global trace, its indexes and tallies.

        The one write path into the trace: live publishes and archive
        replay (:func:`~repro.streams.persistence.replay_store`) both go
        through it, so a replayed store answers ``trace_by_tag`` /
        ``trace_by_producer`` / ``stats`` exactly as the original did.
        """
        with self._lock:
            self._trace.append(message)
            for tag in message.tags:
                self._trace_by_tag.setdefault(tag, []).append(message)
            self._trace_by_producer.setdefault(message.producer, []).append(message)
            counts = self._message_counts
            kind = message.kind.value
            counts[kind] = counts.get(kind, 0) + 1

    def _persist(self, message: Message) -> None:
        """Durability hook, called before the message touches any in-memory
        structure.  The base store is purely in-memory (no-op); the
        partitioned store overrides this to replicate the message — and by
        raising refuses the publish outright when no quorum can store it,
        leaving trace, stream, and subscribers untouched."""

    def publish_data(self, stream_id: str, payload: Any, **kwargs: Any) -> Message:
        return self.publish(stream_id, payload, kind=MessageKind.DATA, **kwargs)

    def publish_control(
        self, stream_id: str, instruction: str, producer: str = "", tags: Iterable[str] = (), **fields: Any
    ) -> Message:
        """Publish a control message carrying *instruction* and *fields*."""
        return self.publish(
            stream_id,
            control_payload(instruction, **fields),
            kind=MessageKind.CONTROL,
            tags=tags,
            producer=producer,
        )

    def close_stream(self, stream_id: str, producer: str = "") -> Message:
        """Append an end-of-stream marker, closing the stream."""
        return self.publish(stream_id, None, kind=MessageKind.EOS, producer=producer)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscriber: str,
        callback: SubscriberCallback,
        stream_pattern: str = "*",
        include_tags: Iterable[str] = (),
        exclude_tags: Iterable[str] = (),
        control_only: bool = False,
        data_only: bool = False,
    ) -> Subscription:
        """Register *callback* for matching messages; returns the subscription."""
        subscription = Subscription(
            subscription_id=self._ids.next("sub"),
            subscriber=subscriber,
            callback=callback,
            stream_pattern=stream_pattern,
            tag_rule=TagRule.of(include_tags, exclude_tags),
            control_only=control_only,
            data_only=data_only,
        )
        with self._lock:
            self._subscriptions[subscription.subscription_id] = subscription
            self._index_subscription(subscription)
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is not None:
                self._unindex_subscription(subscription)
        if subscription is not None:
            subscription.active = False

    def subscriptions(self) -> list[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def _index_keys(
        self, subscription: Subscription
    ) -> tuple[dict[Any, dict[str, Subscription]] | None, list[Any]]:
        """The bucket table and keys *subscription* is filed under
        (``None`` table: the catch-all list)."""
        pattern = subscription.stream_pattern
        include = subscription.tag_rule.include
        if not self._GLOB_CHARS.intersection(pattern):
            return self._exact_subs, [pattern]
        namespace = stream_namespace(pattern)
        if namespace and not self._GLOB_CHARS.intersection(namespace):
            if include:
                return self._namespaced, [(namespace, tag) for tag in include]
            return self._namespaced, [(namespace, None)]
        if include:
            return self._tagged_wildcards, list(include)
        return None, []

    def _index_subscription(self, subscription: Subscription) -> None:
        """File *subscription* under the index bucket(s) it can match from.

        Caller holds the lock.
        """
        sub_id = subscription.subscription_id
        self._sub_counter += 1
        self._sub_order[sub_id] = self._sub_counter
        table, keys = self._index_keys(subscription)
        if table is None:
            self._catchall_wildcards[sub_id] = subscription
        for key in keys:
            table.setdefault(key, {})[sub_id] = subscription

    def _unindex_subscription(self, subscription: Subscription) -> None:
        """Remove *subscription* from every index bucket.  Caller holds the lock."""
        sub_id = subscription.subscription_id
        self._sub_order.pop(sub_id, None)
        table, keys = self._index_keys(subscription)
        if table is None:
            self._catchall_wildcards.pop(sub_id, None)
        for key in keys:
            bucket = table.get(key)
            if bucket is not None:
                bucket.pop(sub_id, None)
                if not bucket:
                    del table[key]

    def _candidates(self, message: Message) -> list[Subscription]:
        """Every subscription that *could* want the message, in insertion order.

        Caller holds the lock.  Complete by construction: a literal
        pattern only matches its own stream; a glob whose literal prefix
        is a namespace only matches streams in that namespace (and, with
        include tags, only messages carrying one of them); any other glob
        with include tags only matches messages carrying one of them;
        everything else is in the catch-all list.  May over-approximate
        (``wants()`` is the final word), never under-approximate.
        """
        stream_id = message.stream_id
        tags = message.tags
        buckets = []
        bucket = self._exact_subs.get(stream_id)
        if bucket:
            buckets.append(bucket)
        namespaced = self._namespaced
        if namespaced:
            namespace = stream_namespace(stream_id)
            if namespace:
                bucket = namespaced.get((namespace, None))
                if bucket:
                    buckets.append(bucket)
                for tag in tags:
                    bucket = namespaced.get((namespace, tag))
                    if bucket:
                        buckets.append(bucket)
        for tag in tags:
            bucket = self._tagged_wildcards.get(tag)
            if bucket:
                buckets.append(bucket)
        if self._catchall_wildcards:
            buckets.append(self._catchall_wildcards)
        # Single-bucket fast path: each bucket dict is insertion-ordered
        # (ids are never re-indexed), so its values are already in
        # ``_sub_order`` order — no merge, no sort.
        if len(buckets) == 1:
            return list(buckets[0].values())
        if not buckets:
            return []
        merged: dict[str, Subscription] = {}
        for bucket in buckets:
            merged.update(bucket)
        order = self._sub_order
        return sorted(merged.values(), key=lambda s: order[s.subscription_id])

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> None:
        """Depth-first synchronous delivery.

        Messages published from inside a subscriber callback are delivered
        immediately (nested), so a coordinator that publishes an
        EXECUTE_AGENT instruction observes the agent's outputs as soon as
        the publish returns.  A depth guard catches runaway agent loops.

        Callbacks may mutate the subscription table: the candidate set is
        snapshotted under the lock before any callback runs, so a
        subscription added mid-dispatch only sees *later* messages, and
        ``active`` is re-checked per delivery so one unsubscribed (by
        itself or a peer) mid-dispatch is skipped, not called on a dead
        subscription.
        """
        with self._lock:
            self._depth += 1
            depth = self._depth
            targets = [s for s in self._candidates(message) if s.wants(message)]
        delivered = 0
        try:
            if depth > self.max_dispatch_depth:
                raise StreamError(
                    f"dispatch depth exceeded {self.max_dispatch_depth} "
                    f"(agent loop?) on stream {message.stream_id!r}"
                )
            for subscription in targets:
                if not subscription.active:
                    continue
                delivered += 1
                subscription.callback(message)
        finally:
            # One locked add per dispatch instead of one per delivery; a
            # raising callback still counts its own delivery, as before.
            with self._lock:
                self._delivery_count += delivered
                self._depth -= 1

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def trace(self) -> list[Message]:
        """The global, append-ordered log of every message ever published."""
        with self._lock:
            return list(self._trace)

    def trace_length(self) -> int:
        """How many messages the trace holds — a position for :meth:`trace_since`."""
        return len(self._trace)

    def trace_since(self, position: int) -> list[Message]:
        """The trace from *position* on (copies only that tail, not the log)."""
        with self._lock:
            return self._trace[position:]

    def trace_by_tag(self, tag: str) -> list[Message]:
        """Messages carrying *tag*, in publish order (indexed, no scan)."""
        with self._lock:
            return list(self._trace_by_tag.get(tag, ()))

    def trace_by_producer(self, producer: str) -> list[Message]:
        """Messages from *producer*, in publish order (indexed, no scan)."""
        with self._lock:
            return list(self._trace_by_producer.get(producer, ()))

    def stats(self) -> dict[str, Any]:
        """Counts for dashboards and benches."""
        with self._lock:
            return {
                "streams": len(self._streams),
                "subscriptions": len(self._subscriptions),
                "messages": len(self._trace),
                "by_kind": dict(self._message_counts),
            }
