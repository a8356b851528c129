#!/usr/bin/env python3
"""Drive two monitord daemons through the same tenants, mutations and clock
advances and require byte-identical answers: the status and body of every
mutation, the read bodies after every step, and the raw bytes of a
GET …/watch stream.

    monitord_compare.py http://127.0.0.1:8651 http://127.0.0.1:8652

CI points it at the merge-base build and the PR build: the handlers may get
cheaper, never different. Tenants run on virtual clocks, so every body
(the "at" stamp included) is a function of the steps alone. Besides the
canonical bodies a client's JSON encoder writes, the steps send bodies the
daemon refuses or decodes by encoding/json's rules alone: a case-folded
key, an escaped id, an unknown field, a duplicate key, trailing garbage and
a body over the 8 MiB limit.
"""
import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

READS = ["assessment", "report", "worst?horizon=720h"]
HOUR = 3600 * 10**9
MAX_BODY = 8 << 20


def call(base, method, path, body=None):
    """Send body — None, a JSON value, or bytes sent as they are — and
    return the status and the response body."""
    if body is None or isinstance(body, bytes):
        data = body
    else:
        data = json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def os_components(product):
    return [{"class": "operating-system", "name": f"os-{product}", "version": "1"}]


def big_tenant():
    """internal/assessbench's shape: 2000 replicas over 32 products, 97 power
    classes and 5 patch latencies; 50 disclosures across 29 days."""
    replicas = [{
        "id": f"r-{i:07d}", "components": os_components(i % 32),
        "power": 1 + i % 97, "patchLatency": (i % 5) * 12 * HOUR,
    } for i in range(2000)]
    span = 29 * 24 * HOUR
    vulns = [{
        "id": f"CVE-s-{i:04d}", "class": "operating-system", "product": f"os-{i % 32}",
        "disclosed": i * span // 50, "patchAt": i * span // 50 + 48 * HOUR, "severity": 1,
    } for i in range(50)]
    return {"virtual": True, "replicas": replicas, "vulns": vulns}


def small_tenant():
    replicas = [{
        "id": f"r-{i:07d}", "components": os_components(i % 2),
        "power": 10 * (i + 1), "patchLatency": 24 * HOUR,
    } for i in range(4)]
    vulns = [{
        "id": "CVE-s-0000", "class": "operating-system", "product": "os-0",
        "disclosed": 10 * HOUR, "patchAt": 20 * HOUR, "severity": 0.5,
    }]
    return {"virtual": True, "replicas": replicas, "vulns": vulns}


def steps(replicas):
    """20 mutations and advances: every mutation class, advances that stay
    inside a constant interval and advances that cross disclosures and
    closes."""
    out = [("POST", "/advance", {"to": 15 * 24 * HOUR})]
    for k in range(3):
        victim = f"r-{(7 * k + 1) % replicas:07d}"
        out += [
            ("PATCH", f"/replicas/{victim}", {"power": 50 + k}),
            ("POST", "/advance", {"by": 60 * 10**9}),
            ("PATCH", f"/replicas/{victim}", {"components": os_components(31 - k)}),
            ("POST", "/replicas", {"id": f"joiner-{k}", "components": os_components(k), "power": 3 + k, "patchLatency": k * HOUR}),
            ("POST", "/vulns", {"id": f"CVE-new-{k}", "class": "operating-system", "product": f"os-{k}",
                                "disclosed": (15 * 24 + 13 * k) * HOUR, "patchAt": (16 * 24 + 13 * k) * HOUR, "severity": 0.7}),
        ]
    out += [
        ("DELETE", "/replicas/joiner-0", None),
        ("POST", "/advance", {"by": 14 * HOUR}),
        ("PATCH", "/replicas/joiner-1", {"power": 9}),
        ("POST", "/advance", {"by": 48 * HOUR}),
    ]
    assert len(out) == 20
    return out


def off_path_steps():
    """Bodies outside the canonical form, and refusals: each must meet the
    same answer, and leave the same state, on both daemons."""
    comp = json.dumps(os_components(5)[0]).encode()
    over = b'{"power":8,"components":[' + b",".join([comp] * (MAX_BODY // (len(comp) + 1) + 64)) + b"]}"
    assert MAX_BODY < len(over) < MAX_BODY + 64 * 1024
    victim = "/replicas/r-0000002"
    return [
        ("PATCH", victim, b'{"Power":2}'),
        ("POST", "/replicas", b'{"id":"esc\\u002d0","components":[{"class":"operating-system","name":"os-1","version":"1"}],"power":2}'),
        ("PATCH", victim, b'{"power":5,"colour":"red"}'),
        ("PATCH", victim, b'{"power":6,"power":7}'),
        ("POST", "/advance", b'{"by":"1h"} garbage'),
        ("PATCH", victim, over),
        ("POST", "/vulns", b'{"id":"CVE-bad","class":"Operating-System","product":"os-1","disclosed":"1h","patchAt":"2h","severity":1}'),
        ("PATCH", "/replicas/nobody", b'{"power":1}'),
        ("POST", "/replicas", b'{"id":"esc-0","components":[{"class":"operating-system","name":"os-1","version":"1"}],"power":2}'),
        ("PATCH", victim, b"{}"),
        ("POST", "/advance", b""),
    ]


class Stream:
    """The raw body of one GET …/watch, read as it arrives."""

    def __init__(self, base, path):
        url = urllib.parse.urlparse(base)
        self.conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        self.conn.request("GET", path)
        self.resp = self.conn.getresponse()
        if self.resp.status != 200:
            sys.exit(f"GET {base}{path}: {self.resp.status} {self.resp.read()!r}")
        self.data = bytearray()
        self.last = time.monotonic()
        self.lock = threading.Lock()
        self.thread = threading.Thread(target=self.pump, daemon=True)
        self.thread.start()

    def pump(self):
        while True:
            chunk = self.resp.read1(65536)
            if not chunk:
                return
            with self.lock:
                self.data += chunk
                self.last = time.monotonic()

    def settle(self, events, quiet=0.3):
        """Wait until the stream holds at least events events and has been
        quiet for the given seconds, so the next step cannot race a tick."""
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with self.lock:
                idle = time.monotonic() - self.last
                have = self.data.count(b"\n\n")
            if have >= events and idle >= quiet:
                return
            time.sleep(0.05)
        sys.exit(f"watch stream: {have} events after 20 s, want {events}")

    def close(self):
        self.thread.join(timeout=20)
        self.conn.close()
        return bytes(self.data)


def compare_watch(daemons):
    """A virtual tenant on a 6h watch interval, watched on both daemons
    across advances (a few ticks each, below the subscriber buffer) and
    mutations; the raw stream bytes must be identical."""
    spec = small_tenant()
    spec["watchInterval"] = "6h"
    for base in daemons:
        status, body = call(base, "PUT", "/tenants/watched", spec)
        if status != 201:
            sys.exit(f"{base}: PUT /tenants/watched: {status} {body!r}")
    streams = [Stream(base, "/tenants/watched/watch") for base in daemons]
    events = 1
    for s in streams:
        s.settle(events)
    todo = [
        ("POST", "/advance", {"by": "7h"}, 1),
        ("PATCH", "/replicas/r-0000001", {"power": 35}, 0),
        ("POST", "/advance", {"by": "6h"}, 1),
        ("PATCH", "/replicas/r-0000002", {"components": os_components(0)}, 0),
        ("POST", "/advance", {"to": "30h"}, 3),
        ("POST", "/vulns", {"id": "CVE-w-1", "class": "operating-system", "product": "os-1",
                            "disclosed": "31h", "patchAt": "40h", "severity": 1}, 0),
        ("POST", "/advance", {"by": "13h"}, 2),
        ("POST", "/replicas", {"id": "late", "components": os_components(1), "power": 25, "patchLatency": "1h"}, 0),
        ("DELETE", "/replicas/r-0000000", None, 0),
        ("POST", "/advance", {"by": "12h"}, 2),
    ]
    for method, path, body, ticks in todo:
        answers = [call(base, method, "/tenants/watched" + path, body) for base in daemons]
        if answers[0] != answers[1]:
            sys.exit(f"watched: {method} {path} answered differently: {answers[0]!r} vs {answers[1]!r}")
        events += ticks
        for s in streams:
            s.settle(events)
    for base in daemons:
        call(base, "DELETE", "/tenants/watched")  # ends both streams
    raw = [s.close() for s in streams]
    if raw[0] != raw[1]:
        at = next((i for i, (a, b) in enumerate(zip(*raw)) if a != b), min(map(len, raw)))
        sys.exit(f"watch streams differ at byte {at}:\n  {daemons[0]}: {raw[0][max(0, at - 200):at + 200]!r}\n"
                 f"  {daemons[1]}: {raw[1][max(0, at - 200):at + 200]!r}")
    print(f"watched: {len(todo)} steps, {events} events, {len(raw[0])} stream bytes identical")


def main():
    daemons = sys.argv[1:3]
    if len(daemons) != 2:
        sys.exit(__doc__)
    compared = answered = 0
    for name, spec in [("big", big_tenant()), ("small", small_tenant())]:
        todo = [("PUT", "", spec)] + steps(len(spec["replicas"])) + off_path_steps()
        for i, (method, path, body) in enumerate(todo):
            answers = [call(base, method, f"/tenants/{name}{path}", body) for base in daemons]
            if answers[0] != answers[1]:
                sys.exit(f"{name}: step {i} ({method} {path}) answered differently:\n"
                         f"  {daemons[0]}: {answers[0][0]} {answers[0][1][:400]!r}\n"
                         f"  {daemons[1]}: {answers[1][0]} {answers[1][1][:400]!r}")
            answered += 1
            # Twice: the second read of each is served from what the first kept.
            for again in range(2):
                for read in READS:
                    bodies = [call(base, "GET", f"/tenants/{name}/{read}") for base in daemons]
                    if bodies[0] != bodies[1]:
                        sys.exit(f"{name}: after step {i} ({method} {path}), read {again} of {read} differs:\n"
                                 f"  {daemons[0]}: {bodies[0][0]} {bodies[0][1][:400]!r}\n"
                                 f"  {daemons[1]}: {bodies[1][0]} {bodies[1][1][:400]!r}")
                    compared += 1
        print(f"{name}: {len(todo) - 1} steps, answers and bodies identical")
    compare_watch(daemons)
    print(f"{answered} mutation answers and {compared} read bodies compared, all byte-identical")


if __name__ == "__main__":
    main()
