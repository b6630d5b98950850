"""The shard worker: one durable serving process behind a framed pipe.

Each worker owns a full replica of the contention state (an
:class:`~repro.serve.durability.DurableServingState` with its own WAL and
snapshot directory) plus a :class:`~repro.serve.batch.BatchOnlinePredictor`
over the recovered :class:`~repro.serve.ActiveSet`.  The router broadcasts
every mutation to every worker — contention features need *all* transfers
touching an endpoint, so the active population cannot itself be sharded —
and partitions only the *predictions* by edge.  Because the batch
fix-point converges each request on its own schedule, predicting a subset
of a batch here is bit-identical to predicting it inside the full batch
in one process; that is the equality the chaos harness asserts.

The loop is strictly request/response: recv one frame, dispatch by
``op``, send exactly one reply echoing the request ``id``.  The journal-
seq lockstep invariant lives here: exactly one journal record is written
per broadcast mutation and nothing else journals, so the worker's durable
``last_seq`` *is* the router's global mutation sequence — after a crash,
recovery reports the journaled seq and the router replays strictly after
it, never double-applying a mutation that survived the tear.

Worker ops
----------
``ping``        readiness + identity (shard, pid, last_seq, recovery info)
``mutate``      apply a batch of wire mutations (:meth:`ServingState.apply`,
                each journaled); reply with last_seq
``predict``     batch prediction for this shard's edges
``checkpoint``  snapshot now; reply with the new generation
``fingerprint`` sha256 digest of the state-equivalence fingerprint
``metrics``     the worker registry's snapshot, for cross-shard merge
``drain``       checkpoint, reply, exit 0 (graceful handoff)
``shutdown``    reply, exit 0 (no checkpoint)
"""

from __future__ import annotations

import os
import socket
from pathlib import Path

from repro.obs import Observability
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.durability import (
    DurabilityConfig,
    recover_serving_state,
)
from repro.serve.fallback import FallbackChain
from repro.serve.shard.protocol import (
    ConnectionClosed,
    recv_frame,
    send_frame,
)
from repro.sim.gridftp import TransferRequest

__all__ = ["ShardWorker", "worker_entry"]


class ShardWorker:
    """One shard's process body: recover, then serve the framed loop."""

    def __init__(
        self,
        shard: str,
        sock: socket.socket,
        state_dir: str | Path,
        chain: FallbackChain,
        durability: DurabilityConfig | None = None,
        lenient: bool = True,
    ) -> None:
        self.shard = str(shard)
        self.sock = sock
        self.state_dir = Path(state_dir)
        self.chain = chain
        self.durability = durability or DurabilityConfig()
        self.lenient = lenient
        self.state = None
        self.predictor = None
        self._recovery = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Recover the durable state and build the predictor.  Runs before
        the first reply, so answering the handshake ping *is* the
        readiness signal."""
        obs = Observability.create(trace=False)
        self.state, self._recovery = recover_serving_state(
            self.state_dir,
            obs=obs,
            lenient=self.lenient,
            config=self.durability,
        )
        self.predictor = BatchOnlinePredictor(
            self.chain, self.state.active, obs=obs
        )

    def run(self) -> None:
        """The recv/dispatch/send loop; returns on drain/shutdown/EOF."""
        if self.state is None:
            self.start()
        while True:
            try:
                request = recv_frame(self.sock, timeout=None)
            except ConnectionClosed:
                return  # router is gone; nothing left to serve
            reply = {"id": request.get("id"), "op": request.get("op")}
            stop = False
            try:
                stop = self._dispatch(request, reply)
            except Exception as exc:  # reply, don't die: the router decides
                reply["error"] = f"{type(exc).__name__}: {exc}"
            send_frame(self.sock, reply)
            if stop:
                return

    def _dispatch(self, request: dict, reply: dict) -> bool:
        op = request.get("op")
        if op == "ping":
            reply.update(
                shard=self.shard,
                pid=os.getpid(),
                last_seq=self.state.last_seq,
                generation=self.state.generation,
                recovery=self._recovery.as_dict(),
            )
            return False
        if op == "mutate":
            for mutation in request["mutations"]:
                self.state.apply(mutation)
            reply["last_seq"] = self.state.last_seq
            return False
        if op == "predict":
            result = self.predictor.predict_batch_detailed(
                [_request_from_dict(r) for r in request["requests"]],
                float(request["now"]),
            )
            reply.update(
                rates=[float(r) for r in result.rates],
                tiers=[t.value for t in result.tiers],
                nonconverged=[bool(b) for b in result.nonconverged],
                last_seq=self.state.last_seq,
            )
            return False
        if op == "checkpoint":
            reply["generation"] = self.state.snapshot()
            reply["last_seq"] = self.state.last_seq
            return False
        if op == "fingerprint":
            reply["fingerprint"] = self.state.fingerprint_digest()
            reply["last_seq"] = self.state.last_seq
            return False
        if op == "metrics":
            reply["registry"] = self.state.registry.snapshot()
            return False
        if op == "drain":
            reply["generation"] = self.state.snapshot()
            reply["last_seq"] = self.state.last_seq
            return True
        if op == "shutdown":
            reply["last_seq"] = self.state.last_seq
            return True
        raise ValueError(f"unknown op {op!r}")

    def close(self) -> None:
        if self.state is not None:
            self.state.close()
        try:
            self.sock.close()
        except OSError:
            pass


def _request_from_dict(d: dict) -> TransferRequest:
    return TransferRequest(
        src=str(d["src"]),
        dst=str(d["dst"]),
        total_bytes=float(d["total_bytes"]),
        n_files=int(d["n_files"]),
        n_dirs=int(d["n_dirs"]),
        concurrency=int(d["concurrency"]),
        parallelism=int(d["parallelism"]),
    )


def worker_entry(
    shard: str,
    sock: socket.socket,
    state_dir: str,
    chain: FallbackChain,
    durability: DurabilityConfig | None,
    lenient: bool,
    close_fds: tuple[int, ...] = (),
) -> None:
    """``multiprocessing.Process`` target (fork start method: the chain
    and config arrive by inheritance, nothing is pickled).

    ``close_fds`` lists the *other* socketpair fds the fork inherited —
    the parent ends of every sibling's pipe plus the parent end of this
    worker's own.  Closing them here is what makes EOF detection work: a
    SIGKILLed sibling's pipe only reads as closed once no process holds a
    stray copy of its ends.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    worker = ShardWorker(
        shard, sock, state_dir, chain,
        durability=durability, lenient=lenient,
    )
    try:
        worker.start()
        worker.run()
    finally:
        worker.close()
