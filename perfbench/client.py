"""Closed-loop load client for the service-mix workload.

    python3 perfbench/client.py --port P --seed N --pass K

Runs pass K of the seed's request stream (see
``workloads.service_stream``) over ``SERVICE_CONNECTIONS`` connections.
Each connection sends its next request only after the previous reply
arrived (a closed loop); the connections share one stream, so together
they send it exactly once.
Afterwards it reads the service's ``stats`` op and stops the server
through the ``shutdown`` op.  Prints one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SERVICE_CONNECTIONS, query_key, service_stream  # noqa: E402

HOST = "127.0.0.1"
REPLY_TIMEOUT_S = 120.0


async def run_stream(port: int, stream: list[dict]) -> dict:
    from repro.core import AsyncServiceClient

    pending = iter(enumerate(stream))
    records: list = [None] * len(stream)

    async def lane(number: int) -> None:
        client = await AsyncServiceClient.connect(HOST, port)
        try:
            for index, request in pending:
                sent = perf_counter()
                reply = await asyncio.wait_for(
                    client.request(
                        request["op"],
                        spec=request["spec"],
                        params=request.get("params"),
                    ),
                    REPLY_TIMEOUT_S,
                )
                records[index] = [
                    number,
                    sent,
                    perf_counter(),
                    bool(reply.get("ok")),
                    reply.get("cache"),
                    reply.get("verdict"),
                    "witness" in reply,
                    reply.get("error"),
                    query_key(request),
                ]
        finally:
            await client.aclose()

    started = perf_counter()
    await asyncio.gather(*(lane(n) for n in range(SERVICE_CONNECTIONS)))
    ended = perf_counter()
    for record in records:
        record[1] -= started
        record[2] -= started
    control = await AsyncServiceClient.connect(HOST, port)
    try:
        stats = (await control.request("stats"))["stats"]
        await control.request("shutdown")
    finally:
        await control.aclose()
    return {
        "wall": ended - started,
        "started": started,
        "ended": ended,
        "records": records,
        "stats": stats,
        "lanes": SERVICE_CONNECTIONS,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    args = parser.parse_args()
    stream = service_stream(args.seed, args.pass_index)
    result = asyncio.run(run_stream(args.port, stream))
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
