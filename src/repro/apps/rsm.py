"""Replicated state machine over ordered multicast (§3.2, Listing 2).

The paper's consensus example: with the network providing ordered
multicast (Speculative Paxos / NOPaxos style), replicas can apply client
operations in network order and reply directly; the client accepts a result
once a quorum of replicas agrees on the sequence number.  Gap recovery —
what NOPaxos does when the ``mcast_gap`` marker appears — is counted per
replica and surfaced in metrics snapshots as ``rsm.<group>.gaps_total``
(a full view-change protocol is out of the paper's scope and ours).

Client retransmission rides the control plane's one retry loop
(:mod:`repro.core.rpc`): capped exponential backoff with deterministic
jitter, charged to a shared :class:`~repro.core.rpc.RpcStats`.  Because a
retransmitted operation re-enters the ordered multicast and is assigned a
*new* sequence number, replicas dedup by (client address, request id) and
replay their original (seq, result) — otherwise a retransmit would both
double-apply the op and split the quorum across two sequence numbers.

The state machine is a dictionary with compare-and-swap, enough to exercise
"replies must agree" semantics.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Callable

from ..chunnels.multicast import GAP_HEADER, SEQ_HEADER, OrderedMcast
from ..chunnels.serialize import Serialize
from ..core import rpc
from ..core.dag import wrap
from ..core.runtime import Runtime
from ..errors import BerthaError, ConnectionTimeoutError
from ..sim.datagram import Address
from ..sim.eventloop import Interrupt

__all__ = ["RsmReplica", "RsmClient", "QuorumError"]

#: A replica's service time to apply one operation.
APPLY_COST = 1.0e-6
#: Every submit's retransmission schedule: capped exponential backoff with
#: deterministic per-client jitter.
SUBMIT_POLICY = rpc.RetryPolicy(timeout=5e-3, retries=3, backoff=2.0, jitter=0.1)


class QuorumError(BerthaError):
    """The client could not assemble a quorum of matching replies."""


class RsmReplica:
    """One replica: apply multicast-ordered operations; reply directly."""

    def __init__(
        self,
        runtime: Runtime,
        port: int,
        group: str,
        members: list[str],
    ):
        self.runtime = runtime
        self.group = group
        self.name = runtime.entity.name
        self.state: dict[str, object] = {}
        self.applied = 0
        self.gaps_seen = 0
        #: Chaos flag: while down, multicast deliveries are consumed but
        #: neither applied nor answered — the replica falls behind exactly
        #: as a crashed process would (recovery/state transfer is out of
        #: scope; a restarted replica simply rejoins from where it died).
        self.down = False
        #: (client address, request id) → (seq, result): a retransmitted op
        #: re-enters the multicast under a fresh sequence number, so replay
        #: of the original verdict is what keeps ops at-most-once *and* the
        #: quorum agreeing on one (seq, result).
        self._replies = rpc.ReplyCache(1024)
        dag = wrap(Serialize() >> OrderedMcast(group=group, members=members))
        self.endpoint = runtime.new(f"rsm-{group}", dag)
        self.listener = self.endpoint.listen(port=port)
        self._acceptor = runtime.env.process(
            self._accept_loop(), name=f"rsm:{self.name}.accept"
        )
        obs = runtime.network.obs
        obs.bind(
            f"rsm.{group}.{self.name}.gaps_total", self, "gaps_seen",
            replace=True,
        )
        obs.bind(f"rsm.{group}.{self.name}.applied", self, "applied", replace=True)
        roster = runtime.network.__dict__.setdefault(
            "_rsm_groups", {}
        ).setdefault(group, [])
        roster.append(self)
        obs.replace(
            f"rsm.{group}.gaps_total",
            lambda roster=roster: sum(r.gaps_seen for r in roster),
        )

    @property
    def address(self) -> Address:
        return self.listener.address

    def _accept_loop(self):
        while True:
            try:
                conn = yield self.listener.accept()
            except Interrupt:
                return
            self.runtime.env.process(
                self._serve(conn), name=f"rsm:{self.name}.conn"
            )

    def _serve(self, conn):
        env = self.runtime.env
        while not conn.closed:
            msg = yield conn.recv()
            if self.down:
                continue
            if msg.headers.get(GAP_HEADER):
                self.gaps_seen += 1
            payload = msg.payload
            request_id = (
                payload.get("request_id") if isinstance(payload, dict) else None
            )
            key = (repr(msg.src), request_id)
            cached = self._replies.get(key) if request_id is not None else None
            if cached is not None:
                seq, result = cached
            else:
                yield env.timeout(APPLY_COST)
                seq = msg.headers.get(SEQ_HEADER)
                result = self._apply(payload)
                self.applied += 1
                if request_id is not None:
                    self._replies.put(key, (seq, result))
            conn.send(
                {
                    "replica": self.name,
                    "seq": seq,
                    "request_id": request_id,
                    "result": result,
                },
                dst=msg.src,
            )

    def _apply(self, op: dict) -> object:
        kind = op.get("op")
        if kind == "put":
            self.state[op["key"]] = op["value"]
            return "ok"
        if kind == "get":
            return self.state.get(op["key"])
        if kind == "cas":
            current = self.state.get(op["key"])
            if current == op["expect"]:
                self.state[op["key"]] = op["value"]
                return "ok"
            return f"conflict:{current!r}"
        return "error:unknown-op"

    def crash(self) -> None:
        """Stop applying and answering (see :attr:`down`)."""
        self.down = True

    def restart(self) -> None:
        """Resume from the pre-crash state (missed ops stay missed)."""
        self.down = False

    def close(self) -> None:
        self.listener.close()


class RsmClient:
    """Submit operations to the whole group; wait for a quorum.

    Any number of :meth:`submit` calls may be in flight on the one group
    connection: a single receive loop routes each reply by ``request_id``
    to its submit's collector (replies for requests nobody waits on any
    more are dropped), and the replicas' sequenced order — not the order
    of submission or completion — is the order the ops apply in.

    Retries ride :func:`repro.core.rpc.call` under :data:`SUBMIT_POLICY`,
    one retransmit schedule per submit; retransmit and round-trip counts
    accumulate on :attr:`stats`.
    """

    def __init__(self, runtime: Runtime, group: str, name: str = "rsm-client"):
        self.runtime = runtime
        self.group = group
        dag = wrap(Serialize() >> OrderedMcast(group=group))
        self.endpoint = runtime.new(name, dag)
        self.conn = None
        self._request_ids = itertools.count(1)
        #: request_id → that submit's reply collector.
        self._collectors: dict[int, Callable[[dict], None]] = {}
        self._receiver = None
        self.mismatches = 0
        self.stats = rpc.RpcStats()
        self._rng = random.Random(
            zlib.crc32(f"{runtime.entity.name}:{group}:{name}".encode())
        )

    def connect(self, replica_addresses: list[Address]):
        """Generator: negotiate with every group member (Listing 2)."""
        conn = yield from self.endpoint.connect(list(replica_addresses))
        self.conn = conn
        self._receiver = self.runtime.env.process(
            self._receive_loop(conn), name=f"rsm:{self.endpoint.name}.recv"
        )
        return conn

    def _receive_loop(self, conn):
        """Route every reply on ``conn`` to the submit waiting for it."""
        while True:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            reply = msg.payload
            if isinstance(reply, dict):
                collect = self._collectors.get(reply.get("request_id"))
                if collect is not None:
                    collect(reply)

    def submit(self, op: dict):
        """Generator → result once a majority of the replicas agree on the
        order.

        Raises :class:`QuorumError` on exhaustion or ordering disagreement
        (the trigger for a real protocol's recovery path).
        """
        if self.conn is None:
            raise QuorumError("connect() first")
        conn = self.conn
        group_size = len(conn.peers)
        needed = group_size // 2 + 1
        request_id = next(self._request_ids)
        env = self.runtime.env
        payload = {**op, "request_id": request_id}
        #: Accumulated across attempts: replicas replay their original
        #: (seq, result) on retransmits, so late first-attempt replies
        #: still count toward the quorum.
        replies: dict[str, dict] = {}
        settled = env.event()

        def collect(reply: dict) -> None:
            replies[reply["replica"]] = reply
            agreeing = self._largest_agreement(replies)
            if len(agreeing) >= needed and not settled.triggered:
                # Containered: a ``get`` legitimately returns None,
                # which rpc.call would read as an attempt timeout.
                settled.succeed({"result": agreeing[0]["result"]})

        self._collectors[request_id] = collect
        try:
            outcome = yield from rpc.call(
                env,
                SUBMIT_POLICY,
                lambda _attempt: conn.send(payload),
                rpc.event_waiter(env, settled),
                stats=self.stats,
                rng=self._rng,
                describe=f"rsm:{self.group}",
            )
        except ConnectionTimeoutError:
            raise QuorumError(
                f"no quorum for request {request_id} "
                f"({len(replies)}/{group_size} replies, need {needed} agreeing)"
            ) from None
        finally:
            del self._collectors[request_id]
        return outcome["result"]

    def _largest_agreement(self, replies: dict[str, dict]) -> list[dict]:
        """The largest subset of replies agreeing on (seq, result)."""
        groups: dict[tuple, list[dict]] = {}
        for reply in replies.values():
            key = (reply.get("seq"), repr(reply.get("result")))
            groups.setdefault(key, []).append(reply)
        if not groups:
            return []
        best = max(groups.values(), key=len)
        if len(best) < len(replies):
            self.mismatches += 1
        return best

    def close(self) -> None:
        if self.conn is not None:
            self._receiver.interrupt("rsm client closed")
            self.conn.close()
            self.conn = None
