"""RL005 mode-5 fixture: unbounded network/process reads (loaded with a
net/runtime.py- or net/cluster.py-style relpath so the chaos-layer scope applies)."""
import asyncio


async def drain_stdout(proc):
    raw = await proc.stdout.readline()  # line 7: no timeout
    return raw


async def await_event(stop: asyncio.Event):
    await stop.wait()  # line 12: no timeout


async def pull_queue(queue: asyncio.Queue):
    item = await queue.get()  # line 16: no timeout
    return item


async def read_exact(reader: asyncio.StreamReader):
    return await reader.readexactly(4)  # line 21: no timeout


async def reap(proc: asyncio.subprocess.Process):
    await proc.wait()  # line 25: no timeout (net/cluster.py reaps processes)
