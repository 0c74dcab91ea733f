#!/usr/bin/env python3
"""End-to-end smoke of the sharded cluster front-end (CI cluster-smoke job).

Starts ./serve_cluster with 3 worker processes, then drives the failure
model the cluster exists for, with the Python stdlib only:

    healthz -> /v1/cluster (3 healthy workers) -> POST /v1/generate ->
    poll job -> session + widget event -> SIGKILL one worker ->
    /v1/cluster converges to 2 healthy -> new jobs still succeed
    (rerouted) -> aggregated /v1/stats -> SIGTERM -> clean exit.

Asserts the worker lines on stdout are machine-readable (`worker <i>
pid <p> port <q>`), that recovery after the kill is observable through
/v1/cluster, and that shutdown is SIGTERM-clean (exit code 0).

Usage: cluster_smoke.py [PATH_TO_SERVE_CLUSTER] (default ./build/serve_cluster)
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

PORT = 18643
BASE = f"http://127.0.0.1:{PORT}"
WORKERS = 3


def call(method, path, body=None, timeout=30):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(BASE + path, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def submit_and_finish(seed, timeout=90):
    accepted = call("POST", "/v1/generate", {
        "workload": "flights",
        "options": {"time_budget_ms": 0, "max_iterations": 15, "seed": seed,
                    "screen_width": 90, "screen_height": 32},
    })
    job = call("GET", f"/v1/jobs/{accepted['job_id']}?wait_ms=60000",
               timeout=timeout)
    if job["state"] != "done":
        fail(f"job {accepted['job_id']} state {job['state']}: {job.get('error')}")
    return job


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "./build/serve_cluster"
    server = subprocess.Popen(
        [binary, "--port", str(PORT), "--workers", str(WORKERS),
         "--rows", "400", "--log-level", "info"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    log_lines = []
    try:
        # Parse the machine-readable worker lines printed before "listening".
        workers = {}
        deadline = time.time() + 120
        while len(workers) < WORKERS and time.time() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            log_lines.append(line)
            m = re.match(r"worker (\d+) pid (\d+) port (\d+)", line)
            if m:
                workers[int(m.group(1))] = {"pid": int(m.group(2)),
                                            "port": int(m.group(3))}
        if len(workers) != WORKERS:
            fail(f"expected {WORKERS} worker lines, parsed {workers}")
        print(f"workers: {workers}")

        for _ in range(150):
            try:
                if call("GET", "/v1/healthz", timeout=2)["status"] == "ok":
                    break
            except (urllib.error.URLError, ConnectionError, OSError):
                time.sleep(0.1)
        else:
            fail("cluster front-end never answered /v1/healthz")
        print("healthz ok")

        cluster = call("GET", "/v1/cluster")
        if cluster["mode"] != "cluster":
            fail(f"/v1/cluster mode {cluster['mode']}, want 'cluster'")
        if len(cluster["workers"]) != WORKERS:
            fail(f"/v1/cluster reports {len(cluster['workers'])} workers")
        if not all(w["healthy"] for w in cluster["workers"]):
            fail(f"not all workers healthy at startup: {cluster}")
        print(f"cluster: {WORKERS} healthy workers")

        job = submit_and_finish(seed=7)
        job_id = job["job_id"]
        print(f"job {job_id} done, "
              f"{job['result']['stats']['iterations']} iterations")

        session = call("POST", "/v1/sessions", {"job_id": job_id})
        sid = session["session_id"]
        # First visible widget choice; any event proves the session routes.
        def first_choice(node):
            if "choice" in node and "widget" in node:
                return node
            for child in node.get("children", []):
                found = first_choice(child)
                if found:
                    return found
            return None
        choice = first_choice(session["widgets"])
        if choice is None:
            fail("generated interface has no widget choices")
        if choice["widget"] in ("Checkbox", "Toggle"):
            event = {"kind": "set_opt", "choice_id": choice["choice"],
                     "present": False}
        else:
            event = {"kind": "set_any", "choice_id": choice["choice"],
                     "option_index": 0}
        step = call("POST", f"/v1/sessions/{sid}/events", event)
        print(f"session {sid}: event -> {step['report']['transition']}")

        # A same-schema storm (same workload + seed, different budgets):
        # every job must finish on whichever worker placement picks.
        for budget in (25, 18, 31):
            accepted = call("POST", "/v1/generate", {
                "workload": "flights",
                "options": {"time_budget_ms": 0, "max_iterations": budget,
                            "seed": 7, "screen_width": 90,
                            "screen_height": 32},
            })
            storm_job = call(
                "GET", f"/v1/jobs/{accepted['job_id']}?wait_ms=60000")
            if storm_job["state"] != "done":
                fail(f"storm job state {storm_job['state']}")
        print("same-schema storm: 3 jobs done")

        # Kill one worker process outright; the router must notice and the
        # cluster keeps serving from the survivors.
        victim = workers[0]
        os.kill(victim["pid"], signal.SIGKILL)
        print(f"killed worker 0 (pid {victim['pid']})")
        for _ in range(100):
            cluster = call("GET", "/v1/cluster")
            healthy = sum(1 for w in cluster["workers"] if w["healthy"])
            if healthy == WORKERS - 1:
                break
            time.sleep(0.2)
        else:
            fail(f"/v1/cluster never converged to {WORKERS - 1} healthy: "
                 f"{cluster}")
        print(f"cluster converged: {WORKERS - 1} healthy workers")

        # State owned by the dead worker answers a retryable 503; state on
        # survivors keeps answering 200.
        try:
            job = call("GET", f"/v1/jobs/{job_id}")
            print(f"job {job_id} survived on a healthy worker")
        except urllib.error.HTTPError as e:
            if e.code != 503:
                fail(f"dead-worker job answered HTTP {e.code}, want 503")
            body = json.loads(e.read().decode())
            if body.get("retryable") is not True:
                fail(f"dead-worker error body not retryable: {body}")
            print(f"job {job_id} was on the dead worker: 503 retryable=True")

        for seed in (21, 22, 23, 24):
            submit_and_finish(seed=seed)
        print("4 post-kill jobs rerouted and finished")

        stats = call("GET", "/v1/stats")
        if "cluster" not in stats or len(stats["cluster"]["workers"]) != WORKERS:
            fail(f"/v1/stats cluster section malformed: {stats.get('cluster')}")
        if stats["jobs"]["submitted"] < 5:
            fail(f"aggregated stats lost jobs: {stats['jobs']}")
        print(f"stats: jobs={stats['jobs']} "
              f"workers={[w['healthy'] for w in stats['cluster']['workers']]}")

        try:
            call("DELETE", f"/v1/sessions/{sid}")
            print("session closed")
        except urllib.error.HTTPError as e:
            # The session may have lived on the killed worker; then the
            # close is a retryable 503, which is the documented contract.
            if e.code != 503:
                fail(f"session close answered HTTP {e.code}")
            print("session was on the dead worker (503, retryable)")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            rc = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("cluster did not shut down on SIGTERM")
        out = "".join(log_lines) + (server.stdout.read() or "")
        print("--- server log ---")
        print(out)
        if rc != 0:
            fail(f"server exited with {rc}")
        if "all workers stopped" not in out:
            fail("shutdown did not terminate all workers cleanly")
    print("cluster smoke OK")


if __name__ == "__main__":
    main()
