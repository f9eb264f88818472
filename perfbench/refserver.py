"""The reference service: a fixed echo server with the planning service's shape.

Run as ``python3 perfbench/refserver.py``: it listens on a free loopback
port, prints ``port <n>`` and serves newline-delimited JSON requests on
one connection, each handed from the asyncio event loop to a worker
thread, like the planning service's executor hop.  The worker does a
fixed piece of the kind of work the planning service does - decode the
JSON request, build a dict per node, sort them by a key, run a greedy
heap schedule over them, hash the result, then some plain arithmetic -
and answers with a fixed document.  It imports nothing from the program, so its speed measures
the machine, not the program (``perfbench/calibrate.py``).  It exits
when its connection closes.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import sys

#: Iterations of the arithmetic loop per request.
LOOP = 6000

#: The answer: about the size of a served plan.
ANSWER = json.dumps(
    {"nodes": [{"name": f"d{i}", "send": i % 37 + 1, "receive": i % 53 + 2} for i in range(48)]}
).encode() + b"\n"


def work(line: bytes) -> bytes:
    request = json.loads(line)
    nodes = [
        {"name": name, "send": send, "receive": receive, "key": (receive / send, name)}
        for name, send, receive in request["instance"]
    ] * 8
    nodes.sort(key=lambda node: node["key"])
    ready = [(0, "src")]
    finish = {}
    for node in nodes:
        start, sender = heapq.heappop(ready)
        done = start + node["send"] + node["receive"]
        finish[node["name"]] = done
        heapq.heappush(ready, (start + node["send"], sender))
        heapq.heappush(ready, (done, node["name"]))
    digest = hashlib.sha256(json.dumps(finish, sort_keys=True).encode()).digest()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return ANSWER if digest and total else b"{}\n"


async def main() -> None:
    done = asyncio.Event()
    loop = asyncio.get_running_loop()

    async def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while line := await reader.readline():
            writer.write(await loop.run_in_executor(None, work, line))
            await writer.drain()
        writer.close()
        done.set()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    print(f"port {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await done.wait()


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
