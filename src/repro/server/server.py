"""A threaded socket server wrapping one :class:`~repro.engine.Database`.

One OS thread and one engine :class:`~repro.engine.session.Session` per
connection — so every connection gets independent transaction state
(``BEGIN``/``COMMIT``/``ROLLBACK``), shows up in ``sys_stat_activity``
under its session id, and a dropped connection rolls its open
transaction back.  The engine serializes statement bodies internally;
concurrency still pays off because lock waits and COMMIT fsyncs happen
outside the statement lock (group commit).

Every request runs under its own request trace (when the database has
observability on): a ``request`` root span with ``protocol.decode`` →
``session.dispatch`` (the engine's whole span tree, lock waits, WAL
appends, fsyncs included — the statement joins the tracer this thread
has active) → ``protocol.encode`` children.
Clients may supply their own ``trace_id`` for end-to-end correlation and
ask for the span tree back with ``"trace": true``; the finished trace is
also captured engine-side (``Database.last_request_trace``, the
slow-trace ring, ``sys_stat_traces``).

The connection thread owns its requests, so it finalizes them: what a
statement and its trace leave for the engine's stores is queued while
the request runs and harvested (``Database.harvest_pending``) *after*
the reply frame is on the wire.  Whoever reads a store drains the queue
first, so the client that has its reply never finds its statement
missing.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional, Tuple

from ..obs import Tracer, activate_tracer
from .protocol import (
    ProtocolError,
    encode_message,
    recv_message_timed,
    send_frame,
    send_message,
)


def _failure(error: object, error_type: str = "ProtocolError") -> dict:
    return {"ok": False, "error": str(error), "error_type": error_type}


class DatabaseServer:
    """Serve a database over TCP; ``port=0`` picks a free port."""

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0):
        self.db = db
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._guard = threading.Lock()
        self._running = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "DatabaseServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept(); close() alone
            # leaves it parked on the old fd until the join times out
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._guard:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._guard:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout=5)

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._guard:
                self._conns.append(conn)
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-server-conn",
                daemon=True,
            )
            with self._guard:
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session = self.db.create_session()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request, decode_s = recv_message_timed(conn)
                except (ConnectionError, OSError):
                    return
                except ProtocolError as exc:
                    self._send_safe(conn, _failure(exc))
                    return
                if request.get("op") == "close":
                    self._send_safe(conn, {"ok": True, "closed": True})
                    return
                sql = request.get("sql")
                if not isinstance(sql, str):
                    self._send_safe(
                        conn, _failure("request must carry a 'sql' string")
                    )
                    continue
                frame = self._handle_request(session, sql, request, decode_s)
                try:
                    send_frame(conn, frame)
                except OSError:
                    return
                finally:
                    self.db.harvest_pending()
        finally:
            session.close()  # rolls back any open transaction
            try:
                conn.close()
            except OSError:
                pass
            with self._guard:
                if conn in self._conns:
                    self._conns.remove(conn)
                self._workers.remove(threading.current_thread())

    def _handle_request(
        self, session, sql: str, request: dict, decode_s: float
    ) -> bytes:
        """Run one SQL request under a request-scoped trace and return
        the already-encoded response frame.

        The span tree shipped back to the client (``"trace": true``) is
        snapshotted *before* ``protocol.encode`` — a tree cannot contain
        its own final encoding — but the full tree, encode span
        included, is queued for the engine to keep as the last request
        trace once the frame has been sent.
        """
        trace_id = request.get("trace_id")
        tracer = Tracer(
            enabled=self.db.obs.enabled,
            trace_id=trace_id if isinstance(trace_id, str) else None,
        )
        with activate_tracer(tracer):
            with tracer.span("request") as root:
                root.set_attr("session", str(session.id))
                tracer.record_span("protocol.decode", decode_s * 1000.0)
                with tracer.span("session.dispatch"):
                    response = self._run(session, sql)
                if tracer.enabled:
                    response["trace_id"] = tracer.trace_id
                    if request.get("trace"):
                        # provisional duration: the root is still open
                        # (it cannot contain its own final encoding), so
                        # stamp elapsed-so-far for the client's copy
                        root.duration_ms = tracer.now_ms() - root.start_ms
                        response["trace"] = tracer.root.to_dict()
                with tracer.span("protocol.encode") as sp:
                    try:
                        frame = encode_message(response)
                    except ProtocolError as exc:
                        frame = encode_message(_failure(exc))
                    sp.add("bytes", float(len(frame)))
        self.db.capture_trace(tracer, sql, session_id=session.id)
        return frame

    def _run(self, session, sql: str) -> dict:
        try:
            result = session.execute(sql)
        except Exception as exc:  # engine errors travel as payloads
            return _failure(exc, type(exc).__name__)
        return {
            "ok": True,
            # json writes a tuple as an array: no re-listing
            "columns": result.columns,
            "rows": result.rows,
            "in_transaction": session.in_transaction,
        }

    @staticmethod
    def _send_safe(conn: socket.socket, message: dict) -> None:
        try:
            send_message(conn, message)
        except (OSError, ProtocolError):
            pass
