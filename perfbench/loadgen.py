"""The load generator: one asyncio thread, at most two connections.

Requests ride the program's own :class:`AsyncTcpApiClient`.  An open
loop sends on a fixed schedule whatever the replies do, and times each
request from its *intended* send time, so a stall is charged to every
request queued behind it (wrk2's correction for coordinated
omission).  A closed loop sends the next request when the previous
reply lands.  Either way the generator records how late it sent.
"""

from __future__ import annotations

import asyncio
import selectors
import time

from repro.net.client import AsyncTcpApiClient, NetClientError

from spans import REQUEST

now = time.perf_counter

#: Seconds before a send that the generator stops sleeping.
SPIN = 0.0002

#: Failures of the transport itself (not error *responses*).
TRANSPORT_ERRORS = (NetClientError, asyncio.TimeoutError, OSError)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


async def wait_until(target: float) -> None:
    """Sleep until just before ``target``, then yield until it passes.

    Waking from a sleep takes the kernel ~0.1 ms on a virtual host, so
    the last ``SPIN`` seconds are a cooperative spin (``sleep(0)``,
    which keeps serving replies) and sends leave on schedule.
    """
    remaining = target - now() - SPIN
    if remaining > 0:
        await asyncio.sleep(remaining)
    while now() < target:
        await asyncio.sleep(0)


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers fire within microseconds.

    The default epoll selector rounds every timeout up to a whole
    millisecond, which would make an open loop send up to 1 ms late;
    ``select()`` takes microseconds, and the generator watches only
    two sockets and the server's pipes.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


class Link:
    """One connection: sends now, hands each reply to its waiter.

    Replies come back in request order, so a FIFO of waiters pairs
    them.  Every request gets the id ``<local port>:<k>``, which the
    server's spans also carry.
    """

    def __init__(self, client: AsyncTcpApiClient, recorder):
        self.client = client
        self.recorder = recorder
        writer = getattr(client, "_writer", None)
        self.port = (writer.get_extra_info("sockname")[1]
                     if writer is not None else id(client))
        self.sent = 0
        self._waiters: asyncio.Queue = asyncio.Queue()
        self._broken = False
        self._task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int, recorder) -> "Link":
        client = AsyncTcpApiClient("127.0.0.1", port, timeout=20.0)
        await client.connect()
        return cls(client, recorder)

    async def send(self, request, on_reply, tag=None) -> None:
        """Send ``request``; later call ``on_reply(response, done)``.

        ``response`` is the decoded envelope, or the transport
        exception.  ``tag`` names the span of the whole round trip
        (None records none).
        """
        request_id = f"{self.port}:{self.sent}"
        self.sent += 1
        started = now()
        if self._broken:
            on_reply(NetClientError("connection already failed"), now())
            return
        token = REQUEST.set(request_id)
        try:
            await self.client.send(request)
        except TRANSPORT_ERRORS as exc:
            self._broken = True
            on_reply(exc, now())
            return
        finally:
            REQUEST.reset(token)
        self._waiters.put_nowait((on_reply, request_id, started, tag))

    async def call(self, request):
        """Send and wait for the reply: ``(response, done time)``."""
        future = asyncio.get_running_loop().create_future()
        await self.send(request, lambda r, d: future.set_result((r, d)))
        return await future

    async def _read(self) -> None:
        while True:
            item = await self._waiters.get()
            if item is None:
                return
            on_reply, request_id, started, tag = item
            if self._broken:
                on_reply(NetClientError("connection failed"), now())
                continue
            REQUEST.set(request_id)
            try:
                response = await self.client.receive()
            except TRANSPORT_ERRORS as exc:
                self._broken = True
                on_reply(exc, now())
                continue
            done = now()
            if tag is not None:
                self.recorder.record(tag, int(started * 1e9),
                                     int(done * 1e9), request_id)
            on_reply(response, done)

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait until every sent request has had its reply."""
        deadline = now() + timeout
        while self._waiters.qsize() and now() < deadline:
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        self._waiters.put_nowait(None)
        try:
            await asyncio.wait_for(self._task, timeout=5.0)
        except asyncio.TimeoutError:
            self._task.cancel()
        await self.client.close()


class Tally:
    """Outcomes of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.refused = 0
        self.transport = 0
        #: (intended time, latency s) for every request, failed ones
        #: included at the time their failure was seen: a refusal or a
        #: broken connection is most likely a request that met a stall.
        self.latency: list[tuple[float, float]] = []
        #: Seconds the generator sent after the intended time.
        self.late: list[float] = []
        #: Pairs in correctly answered requests.
        self.answered = 0

    def settle(self, check, intended: float, sent: float, pairs: int):
        """The reply callback for one request."""
        def on_reply(response, done):
            self.latency.append((intended, done - intended))
            if isinstance(response, BaseException):
                self.transport += 1
                self.failed += 1
                return
            verdict = check(response, sent, done)
            if verdict == "ok":
                self.answered += pairs
                return
            self.failed += 1
            if verdict == "wrong":
                self.wrong += 1
            else:
                self.refused += 1
        return on_reply



async def open_loop(links: list[Link], rate: float, seconds: float,
                    make, tally: Tally, *, stall=None) -> float:
    """Send ``rate`` requests/s for ``seconds``, alternating links.

    ``make()`` returns ``(request, check, pairs)``; ``check(response,
    sent, done)`` returns ``"ok"``, ``"wrong"`` or ``"refused"``.
    ``stall(i)`` lets a self-test block the generator before request
    ``i``.  Returns the seconds from the first intended send to the
    last reply.
    """
    total = int(rate * seconds)
    start = now() + 0.002
    for i in range(total):
        intended = start + i / rate
        await wait_until(intended)
        if stall is not None:
            stall(i)
        sent = now()
        tally.late.append(sent - intended)
        request, check, pairs = make()
        tally.attempted += 1
        await links[i % len(links)].send(
            request, tally.settle(check, intended, sent, pairs),
            "net.client.request")
    for link in links:
        await link.drain()
    return now() - start


async def closed_loop(link: Link, seconds: float, make, tally: Tally, *,
                      stall=None) -> float:
    """One request at a time for ``seconds``; returns the time taken.

    The next request is built while the current one is served, so a
    request is due the moment the previous reply lands.
    """
    loop = asyncio.get_running_loop()
    started = now()
    deadline = started + seconds
    upcoming = make()
    intended = now()
    i = 0
    while now() < deadline:
        if stall is not None:
            stall(i)
        i += 1
        request, check, pairs = upcoming
        sent = now()
        tally.late.append(sent - intended)
        tally.attempted += 1
        reply = loop.create_future()
        settle = tally.settle(check, sent, sent, pairs)

        def on_reply(response, done, settle=settle, reply=reply):
            settle(response, done)
            reply.set_result(done)
        await link.send(request, on_reply, "net.client.request")
        upcoming = make()
        intended = await reply
    return now() - started



async def closed_users(links: list[Link], users: int, seconds: float, make,
                       tally: Tally) -> float:
    """``users`` closed loops at once, spread over ``links``."""
    elapsed = await asyncio.gather(*(
        closed_loop(links[i % len(links)], seconds, make, tally)
        for i in range(users)))
    return max(elapsed)
