"""The UDP transport: real migrant datagrams, one socket per island.

Only a run with ``transport="udp"`` builds one, so the harness imports this
module on that path alone and a simulated run never loads ``socket`` or
``select``.  Envelopes travel as the bytes :meth:`MigrantEnvelope.encode`
gives, and arrive as text payloads that ``admit_immigrants`` parses and
validates.
"""

from __future__ import annotations

import logging
import select
import socket
from typing import Optional, Sequence

from .islands import MigrantEnvelope, Transport

log = logging.getLogger(__name__)

#: Seconds a UDP drain waits for each further datagram before it returns.
UDP_DRAIN_WAIT = 0.05


class UdpBroadcastTransport(Transport):
    """Real datagrams over UDP, one socket per island.

    With ``peers`` left ``None``, sends to the limited broadcast address on
    ``port``; for single-host runs pass explicit ``peers`` so islands bound
    to distinct ports can fan out to each other.  An empty ``peers`` (a
    lone island's) sends nothing.  Reception is whatever has arrived by
    drain time -- late datagrams are picked up at the next migration
    generation, and on a shared broadcast segment an island may hear its own
    anonymous migrants back, which is harmless.
    """

    def __init__(self, bind_port: int,
                 peers: Optional[Sequence[tuple[str, int]]] = None,
                 broadcast_address: str = "255.255.255.255") -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            self._sock.bind(("", bind_port))
        except (OSError, OverflowError):  # OverflowError: a port outside 0..65535
            self._sock.close()
            raise
        self._sock.setblocking(False)
        self._targets = [(broadcast_address, bind_port)] if peers is None else list(peers)

    def send(self, envelope: MigrantEnvelope) -> None:
        data = envelope.encode()
        for target in self._targets:
            try:
                self._sock.sendto(data, target)
            except OSError as exc:  # best effort: unreachable peers are lost migrants
                log.debug("udp send to %s failed: %s", target, exc)

    def drain(self) -> list[MigrantEnvelope]:
        received = []
        while True:
            ready, _, _ = select.select([self._sock], [], [], UDP_DRAIN_WAIT)
            if not ready:
                break
            try:
                data, _ = self._sock.recvfrom(65536)
            except OSError:
                break
            envelope = MigrantEnvelope.decode(data)
            if envelope is not None:
                received.append(envelope)
        return received

    def close(self) -> None:
        self._sock.close()
