#!/usr/bin/env python3
"""Drive two monitord daemons through the same tenants, mutations and clock
advances and require byte-identical read bodies after every step.

    monitord_compare.py http://127.0.0.1:8651 http://127.0.0.1:8652

CI points it at the merge-base build and the PR build: the read handlers may
get cheaper, never different. Tenants run on virtual clocks, so every body
(the "at" stamp included) is a function of the steps alone.
"""
import json
import sys
import urllib.request

READS = ["assessment", "report", "worst?horizon=720h"]
HOUR = 3600 * 10**9


def call(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req) as resp:
        return resp.read()


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


def main():
    daemons = sys.argv[1:3]
    if len(daemons) != 2:
        sys.exit(__doc__)
    compared = 0
    for name, spec in [("big", big_tenant()), ("small", small_tenant())]:
        todo = [("PUT", "", spec)] + [(m, p, b) for m, p, b in steps(len(spec["replicas"]))]
        for i, (method, path, body) in enumerate(todo):
            for base in daemons:
                call(base, method, f"/tenants/{name}{path}", body)
            # Twice: the second read of each is served from what the first kept.
            for again in range(2):
                for read in READS:
                    bodies = [call(base, "GET", f"/tenants/{name}/{read}") for base in daemons]
                    if bodies[0] != bodies[1]:
                        sys.exit(f"{name}: after step {i} ({method} {path}), read {again} of {read} differs:\n"
                                 f"  {daemons[0]}: {bodies[0][:400]!r}\n  {daemons[1]}: {bodies[1][:400]!r}")
                    compared += 1
        print(f"{name}: {len(todo) - 1} steps, bodies identical")
    print(f"{compared} bodies compared, all byte-identical")


if __name__ == "__main__":
    main()
