#!/usr/bin/env python3
"""CI smoke test for `aflc --serve` (docs/SERVER.md).

Plays the checked-in request transcript `serve_session.txt` against a
freshly spawned server and compares each response line to
`serve_session.golden`. Responses are canonicalized before comparison:
parsed as JSON, every volatile *scope* (see VOLATILE_SCOPES) stripped
wherever it nests, and re-serialized with sorted keys. Everything else —
tiers taken, context/shard counters, reports, solver domains, error
messages — must match byte-for-byte.

With --socket the same transcript runs over the TCP transport
(`--serve --listen 0`): the script parses the ephemeral port from the
server's stderr bind line, sends the requests CRLF-terminated (proving
the framing fixes), and verifies the responses against the same golden.
Connection counters ("connections" in metrics responses) exist only on
the socket transport and are canonicalized away like the arena-pool
counters ("memory").

Usage:
    tools/serve_smoke.py path/to/aflc            # verify against golden
    tools/serve_smoke.py path/to/aflc --socket   # same, over TCP
    tools/serve_smoke.py path/to/aflc --update   # regenerate the golden
"""

import json
import socket
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRANSCRIPT = HERE / "serve_session.txt"
GOLDEN = HERE / "serve_session.golden"


def requests():
    """Request lines from the transcript; '#' comments and blanks skipped."""
    lines = []
    for raw in TRANSCRIPT.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


# Scope names whose entire subtree is non-reproducible, stripped
# wherever they appear in a response. Scope-based (not a hand-kept list
# of leaf fields under hard-coded paths) so a new counter inside one of
# these scopes — or the same scope emitted at a new nesting level —
# cannot silently re-introduce run-to-run noise into the golden:
#   timings      wall-clock, never reproducible
#   memory       arena-pool counters; vary with request history
#   connections  exist only on the socket transport
VOLATILE_SCOPES = frozenset({"timings", "memory", "connections"})


def strip_volatile(obj):
    """Recursively removes VOLATILE_SCOPES keys anywhere in the tree."""
    if isinstance(obj, dict):
        return {
            k: strip_volatile(v)
            for k, v in obj.items()
            if k not in VOLATILE_SCOPES
        }
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def canonicalize(line):
    """Sorted-keys JSON with the non-reproducible scopes removed."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"serve_smoke: server emitted non-JSON line: {line!r} ({e})")
    return json.dumps(
        strip_volatile(obj), sort_keys=True, separators=(",", ":")
    )


def run_stdio(aflc, reqs):
    """One stdio server run; returns its raw response lines."""
    proc = subprocess.run(
        [aflc, "--serve"],
        input="\n".join(reqs) + "\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(
            f"serve_smoke: server exited with {proc.returncode}\n{proc.stderr}"
        )
    return [l for l in proc.stdout.splitlines() if l.strip()]


def run_socket(aflc, reqs):
    """One socket server run; returns its raw response lines.

    Requests go out CRLF-terminated on purpose: the transport must strip
    the '\r' before the JSON layer sees it.
    """
    proc = subprocess.Popen(
        [aflc, "--serve", "--listen", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        bind = proc.stderr.readline().strip()
        marker = "serving on 127.0.0.1:"
        if marker not in bind:
            proc.kill()
            sys.exit(f"serve_smoke: unexpected bind line: {bind!r}")
        port = int(bind.split(marker, 1)[1])

        responses = []
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.settimeout(120)
            rfile = s.makefile("r", encoding="utf-8", newline="\n")
            for req in reqs:
                s.sendall((req + "\r\n").encode("utf-8"))
                line = rfile.readline()
                if not line:
                    sys.exit(
                        f"serve_smoke: connection closed before a response "
                        f"to: {req}"
                    )
                responses.append(line.rstrip("\n"))
        # The transcript ends in a shutdown request, which must stop the
        # whole server, not just this connection.
        rc = proc.wait(timeout=30)
        if rc != 0:
            sys.exit(f"serve_smoke: server exited with {rc}")
        return responses
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    args = sys.argv[1:]
    update = "--update" in args
    use_socket = "--socket" in args
    args = [a for a in args if a not in ("--update", "--socket")]
    if len(args) != 1:
        sys.exit(f"usage: {sys.argv[0]} path/to/aflc [--socket] [--update]")
    aflc = args[0]

    reqs = requests()
    responses = run_socket(aflc, reqs) if use_socket else run_stdio(aflc, reqs)
    if len(responses) != len(reqs):
        sys.exit(
            f"serve_smoke: sent {len(reqs)} requests, "
            f"got {len(responses)} responses"
        )
    got = [canonicalize(r) for r in responses]

    if update:
        GOLDEN.write_text("\n".join(got) + "\n")
        print(f"serve_smoke: wrote {len(got)} responses to {GOLDEN}")
        return

    want = [l for l in GOLDEN.read_text().splitlines() if l.strip()]
    if len(want) != len(got):
        sys.exit(
            f"serve_smoke: golden has {len(want)} responses, "
            f"server produced {len(got)}"
        )
    failures = 0
    for i, (w, g) in enumerate(zip(want, got)):
        if w != g:
            failures += 1
            print(f"serve_smoke: response {i} differs", file=sys.stderr)
            print(f"  request: {reqs[i]}", file=sys.stderr)
            print(f"  want:    {w}", file=sys.stderr)
            print(f"  got:     {g}", file=sys.stderr)
    if failures:
        sys.exit(f"serve_smoke: {failures} response(s) differ from golden")
    mode = "socket" if use_socket else "stdio"
    print(f"serve_smoke: {len(got)} responses match golden ({mode})")


if __name__ == "__main__":
    main()
