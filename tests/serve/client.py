"""The test client of a live gateway or fleet, over its port.

A message is a payload string (sent as one line), an ``HttpRequest``
(sent as one ``REPRO-FRAME/2`` frame with a surface selection) or bytes
already encoded.  :func:`ask` sends one on its own connection and reads
its one answer; :func:`submit` returns once the message is sent, with
the answer still to come, for a test that must act between the two.
:func:`send_lines` sends several on one connection, and :func:`http`
makes one control-plane exchange.
"""

import asyncio
import json

from repro.serve.protocol import encode_framed_request, encode_line
from repro.surfaces import LEGACY_SURFACES


def wire(message, surfaces=LEGACY_SURFACES) -> bytes:
    """``message`` as the bytes that go out."""
    if isinstance(message, bytes):
        return message
    if isinstance(message, str):
        return encode_line(message)
    return encode_framed_request(message, surfaces)


async def _read_answer(reader, writer) -> dict:
    try:
        return json.loads(await asyncio.wait_for(reader.readline(), 10))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def submit(host, port, message, surfaces=LEGACY_SURFACES):
    """Send ``message`` on a new connection; once it is sent, return a
    task that reads its decoded answer and closes the connection."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(wire(message, surfaces))
    await writer.drain()
    return asyncio.ensure_future(_read_answer(reader, writer))


async def ask(host, port, message, surfaces=LEGACY_SURFACES) -> dict:
    """Send ``message`` on a new connection; its decoded answer."""
    return await (await submit(host, port, message, surfaces))


async def send_lines(host, port, messages) -> list[dict]:
    """Send ``messages`` on one connection, each once the one before it
    is answered; the decoded answers."""
    reader, writer = await asyncio.open_connection(host, port)
    answers = []
    try:
        for message in messages:
            writer.write(wire(message))
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return answers


async def fetch(host, port, method, path, body=""):
    """One-shot HTTP exchange: (status, content type, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    encoded = body.encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(encoded)}\r\n\r\n".encode() + encoded
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    content_type = ""
    for line in head.decode().split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            content_type = value.strip()
    return int(head.split()[1]), content_type, payload


async def http(host, port, method, path, body=""):
    """One-shot HTTP exchange: (status, body), the body decoded from
    JSON, or text for a ``text/plain`` answer."""
    status, content_type, payload = await fetch(
        host, port, method, path, body
    )
    if content_type.startswith("text/plain"):
        return status, payload.decode()
    return status, json.loads(payload)
