"""A trivial HTTP responder: the reference for request-path latency.

Run as subprocesses by the ``serve`` workload, in the shape of a cache
hit's path through ``repro serve --workers 2``::

    python3 echo.py              # answers, after a hop to a pool thread
    python3 echo.py --via PORT   # forwards each request to PORT

Each prints its port, then serves every request on a fresh connection:
the front relays it to the back over a fresh connection, as the router
forwards to a worker, and the back hands it to a pool thread and back,
as a worker's admission does, before it answers a fixed empty JSON body.
It shares nothing with the program — only the host's sockets, wakeups
and scheduler — so its round trip tracks how slow the host is at moving
a request between processes and threads, not how slow the program is.
"""

import asyncio
import sys
from typing import Optional

_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"


def _reply() -> bytes:
    return _REPLY


async def _forward(port: int, head: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head)
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()


async def _main(upstream: Optional[int]) -> None:
    loop = asyncio.get_running_loop()

    async def answer(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            if upstream is None:
                reply = await loop.run_in_executor(None, _reply)
            else:
                reply = await _forward(upstream, head)
            writer.write(reply)
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_main(int(sys.argv[2]) if sys.argv[1:2] == ["--via"] else None))
